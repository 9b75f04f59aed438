//! # ddrace-trace — compact binary traces for record/replay detection
//!
//! The paper's monitor pays the detector's cost *online*, the moment
//! sharing appears. Ronsse & De Bosschere's record/replay split moves
//! that cost offline: the production run only records cheap ordering
//! information, and the expensive race analysis replays the trace later,
//! in parallel, on a harness pool. This crate is the transport between
//! the two halves — a compact, versioned, streaming binary trace format.
//!
//! ## File layout
//!
//! ```text
//! header   "DDRT" magic · endianness tag u16 LE (0x1234) · version u16 LE
//! frame*   0x01 · stream table (tid, byte length)* · merge-order runs · payloads
//! end      0x00 · varint total record count
//! ```
//!
//! Events are grouped into **per-thread streams** so the thread id is
//! implicit (one varint saved per record, and per-thread decoding is
//! possible without touching other streams). A **merge order** — a
//! run-length encoded sequence of stream ids — recovers the exact global
//! interleaving. Streams and merge order are chunked into **frames** so
//! both the writer and the reader hold at most one frame (default 64 KiB)
//! in memory: no full-trace materialization at either end.
//!
//! All integers in the body are LEB128 varints, which are byte-order
//! independent; the two u16 header fields are little-endian and the
//! endianness tag exists to reject a byte-swapped producer explicitly.
//!
//! ## Versioning policy
//!
//! `FORMAT_VERSION` bumps on any change to the record table or the frame
//! layout. Version 2 added the atomic (acquire/release and relaxed) and
//! condvar record types; version-1 traces contain none of them and still
//! decode bit-exactly, so readers accept `MIN_FORMAT_VERSION..=FORMAT_VERSION`
//! and reject anything else outright (no silent best-effort decode of
//! foreign bytes). A v1 trace that smuggles in a v2 opcode is corrupt, not
//! forward-compatible: the version gate is enforced per record. Golden-file
//! tests pin both the v1 and v2 byte layouts so an accidental format change
//! fails CI instead of invalidating corpora.
//!
//! Every decode error names a byte offset and ends with the same refusal
//! style the harness pins for `--resume` fingerprint mismatches:
//! `"…; <what differs> — refusing to ingest"`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ddrace_program::{Addr, BarrierId, CondId, LockId, Op, SemId, ThreadId, TraceEvent};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// The four magic bytes every ddrace trace starts with.
pub const MAGIC: [u8; 4] = *b"DDRT";
/// Current trace format version, written by all producers.
pub const FORMAT_VERSION: u16 = 2;
/// Oldest format version readers still decode. Version 1 lacks the atomic
/// and condvar record types but is otherwise identical.
pub const MIN_FORMAT_VERSION: u16 = 1;
/// Endianness tag as written by a little-endian-conventions producer.
const ENDIAN_TAG: u16 = 0x1234;
/// Default frame flush threshold in payload bytes.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 64 * 1024;
/// Thread ids a trace may name: the reader refuses any id at or above
/// this as [`TraceError::Corrupt`], at the id's byte offset. Replay
/// indexes dense per-thread tables by thread id, so an unchecked id of
/// 2^32 − 16 asks for 34–172 GB. The largest producer in the repository
/// runs 64 threads.
pub const MAX_THREADS: u32 = 1 << 16;

const TAG_END: u8 = 0x00;
const TAG_FRAME: u8 = 0x01;

// Record opcodes (one byte, first in every record).
const OP_THREAD_STARTED: u8 = 0;
const OP_THREAD_FINISHED: u8 = 1;
const OP_READ: u8 = 2;
const OP_WRITE: u8 = 3;
const OP_ATOMIC: u8 = 4;
const OP_LOCK: u8 = 5;
const OP_UNLOCK: u8 = 6;
const OP_BARRIER: u8 = 7;
const OP_FORK: u8 = 8;
const OP_JOIN: u8 = 9;
const OP_POST: u8 = 10;
const OP_WAIT_SEM: u8 = 11;
const OP_COMPUTE: u8 = 12;
const OP_BARRIER_RELEASED: u8 = 13;
const OP_HITM_SAMPLE: u8 = 14;
// Version-2 record opcodes: acquire/release and relaxed atomics, condvars.
const OP_ATOMIC_LOAD: u8 = 15;
const OP_ATOMIC_STORE: u8 = 16;
const OP_RELAXED_LOAD: u8 = 17;
const OP_RELAXED_STORE: u8 = 18;
const OP_RELAXED_RMW: u8 = 19;
const OP_COND_WAIT: u8 = 20;
const OP_COND_WAKE: u8 = 21;
const OP_NOTIFY_ONE: u8 = 22;
const OP_NOTIFY_ALL: u8 = 23;
/// First opcode that requires format version 2.
const FIRST_V2_OPCODE: u8 = OP_ATOMIC_LOAD;

/// One decoded trace record: an execution event, or a PMU metadata sample.
///
/// HITM indicator samples sit alongside the event stream (they tell an
/// offline consumer *where* the hardware saw sharing). No producer writes
/// them, but readers decode and count them, so traces that hold them stay
/// valid; replay skips them, since they carry no happens-before content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// An execution event, exactly as the live run delivered it.
    Event(TraceEvent),
    /// A simulated HITM PMU sample observed while analysis was off.
    HitmSample {
        /// The core whose counter overflowed.
        core: u32,
        /// The address of the access that fired the sample.
        addr: Addr,
    },
}

/// The per-thread stream an execution event is attributed to.
///
/// Thread-owned events go to their thread's stream. Barrier releases
/// belong to the first arriver's stream (the release happens at that
/// thread's arrival episode). HITM samples go to stream 0 (they are
/// machine-level metadata, and the main thread always exists).
fn event_stream(e: &TraceEvent) -> u32 {
    match e {
        TraceEvent::ThreadStarted { tid, .. }
        | TraceEvent::Op { tid, .. }
        | TraceEvent::ThreadFinished { tid } => tid.0,
        TraceEvent::BarrierReleased { participants, .. } => participants.first().map_or(0, |t| t.0),
    }
}

// ---------------------------------------------------------------------------
// varint
// ---------------------------------------------------------------------------

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

/// Why a trace file was rejected. Every variant carries enough to point
/// at the failing byte, and [`Display`](std::fmt::Display) renders the
/// pinned refusal wording (`… — refusing to ingest`).
#[derive(Debug)]
pub enum TraceError {
    /// The file does not start with the `DDRT` magic.
    BadMagic {
        /// The four bytes actually found at offset 0.
        found: [u8; 4],
    },
    /// The endianness tag is byte-swapped: a foreign-endian producer.
    ForeignEndianness {
        /// The tag as decoded little-endian.
        found: u16,
    },
    /// The format version is not the one this build reads.
    UnsupportedVersion {
        /// The version the file declares.
        found: u16,
    },
    /// The file ends mid-structure.
    Truncated {
        /// Byte offset where the truncated read started.
        offset: u64,
        /// What was being read.
        context: &'static str,
    },
    /// The bytes are structurally inconsistent.
    Corrupt {
        /// Byte offset of the inconsistency.
        offset: u64,
        /// What is wrong.
        detail: String,
    },
    /// The underlying reader or writer failed.
    Io {
        /// Byte offset reached when the I/O error occurred.
        offset: u64,
        /// The OS-level error.
        source: io::Error,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic { found } => write!(
                f,
                "trace starts with bytes {found:02x?} at byte offset 0, but a ddrace trace \
                 starts with `DDRT`; this is not a ddrace trace file — refusing to ingest"
            ),
            TraceError::ForeignEndianness { found } => write!(
                f,
                "trace has endianness tag 0x{found:04x} at byte offset 4, but this build \
                 reads 0x{ENDIAN_TAG:04x}; the byte orders differ — refusing to ingest"
            ),
            TraceError::UnsupportedVersion { found } => write!(
                f,
                "trace is format version {found} (at byte offset 6), but this build reads \
                 only versions {MIN_FORMAT_VERSION}..={FORMAT_VERSION}; the formats differ \
                 — refusing to ingest"
            ),
            TraceError::Truncated { offset, context } => write!(
                f,
                "trace ends at byte offset {offset} in the middle of {context}; the file \
                 is truncated — refusing to ingest"
            ),
            TraceError::Corrupt { offset, detail } => write!(
                f,
                "trace is corrupt at byte offset {offset}: {detail} — refusing to ingest"
            ),
            TraceError::Io { offset, source } => write!(
                f,
                "trace unreadable at byte offset {offset}: {source} — refusing to ingest"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

/// Op records of one thread, encoded ahead of the writer and appended to
/// it as one merge-order run by [`TraceWriter::append_ops`]. A producer
/// that buffers each thread's records before it takes a shared writer
/// (the native monitor does) encodes every op once, where it happens,
/// and the writer copies the whole run at once.
#[derive(Debug, Default)]
pub struct EncodedOps {
    bytes: Vec<u8>,
    records: usize,
}

impl EncodedOps {
    /// Encodes `op` after the records already held.
    pub fn push(&mut self, op: &Op) {
        encode_op(&mut self.bytes, op);
        self.records += 1;
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether no record is held.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Drops every record, keeping the allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.records = 0;
    }
}

/// Streaming trace writer: buffers records into per-thread streams and
/// flushes a self-contained frame whenever the buffered payload crosses
/// the threshold, so memory stays bounded regardless of trace length.
///
/// Frame boundaries depend only on the record sequence and the threshold,
/// never on timing, nor on whether records arrive one at a time or as
/// runs through [`TraceWriter::append_ops`] — identical inputs produce
/// byte-identical files.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: Option<W>,
    /// Per-thread stream payloads for the frame under construction.
    /// Entries persist across frame flushes (cleared, not dropped) so
    /// their allocations are reused.
    buffers: BTreeMap<u32, Vec<u8>>,
    /// Run-length merge order of the frame under construction.
    merge: Vec<(u32, u64)>,
    /// Scratch for the frame header, reused across flushes.
    head: Vec<u8>,
    /// Scratch for the encoded merge order, reused across flushes.
    merge_scratch: Vec<u8>,
    pending: usize,
    threshold: usize,
    records: u64,
    error: Option<io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace on `out`, writing the header immediately.
    ///
    /// # Errors
    ///
    /// Fails if the header cannot be written.
    pub fn new(out: W) -> io::Result<Self> {
        Self::with_flush_threshold(out, DEFAULT_FLUSH_THRESHOLD)
    }

    /// Like [`TraceWriter::new`] with an explicit frame flush threshold
    /// (payload bytes buffered before a frame is emitted). Small
    /// thresholds force multi-frame files; tests use this to exercise
    /// frame boundaries.
    ///
    /// # Errors
    ///
    /// Fails if the header cannot be written.
    pub fn with_flush_threshold(mut out: W, threshold: usize) -> io::Result<Self> {
        let mut header = Vec::with_capacity(8);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.write_all(&header)?;
        Ok(TraceWriter {
            out: Some(out),
            buffers: BTreeMap::new(),
            merge: Vec::new(),
            head: Vec::new(),
            merge_scratch: Vec::new(),
            pending: 0,
            threshold: threshold.max(1),
            records: 0,
            error: None,
        })
    }

    /// Appends one record to `stream`'s buffer; every `record_*` method
    /// ends here. `encode` writes the record body into the stream buffer
    /// it is handed.
    fn record_raw(&mut self, stream: u32, encode: impl FnOnce(&mut Vec<u8>)) {
        let buf = self.buffers.entry(stream).or_default();
        let before = buf.len();
        encode(buf);
        let len = buf.len() - before;
        self.commit_run(stream, len, 1);
    }

    /// The shared tail of every append: accounts `count` records of `len`
    /// bytes just added to `stream`'s buffer, extends the merge order by
    /// them, and closes the frame once the buffered payload reaches the
    /// threshold. This is the one place a frame closes; a run handed in
    /// by [`TraceWriter::append_ops`] reaches the threshold, if at all,
    /// only at its last record, so frames close after the same record as
    /// they would one record at a time.
    fn commit_run(&mut self, stream: u32, len: usize, count: u64) {
        self.pending += len;
        match self.merge.last_mut() {
            Some((tid, run)) if *tid == stream => *run += count,
            _ => self.merge.push((stream, count)),
        }
        self.records += count;
        if self.pending >= self.threshold {
            self.flush_frame();
        }
    }

    /// Appends every record in `ops` to `stream` as one merge-order run,
    /// and empties `ops` (keeping its allocation). The bytes are exactly
    /// what one [`TraceWriter::record_event`] per record would write:
    /// where the run crosses the frame threshold, it is cut after the
    /// record that reaches it, and the rest starts the next frame.
    pub fn append_ops(&mut self, stream: u32, ops: &mut EncodedOps) {
        let mut bytes = ops.bytes.as_slice();
        let mut records = ops.records;
        while records > 0 {
            // Between appends the buffered payload is below the
            // threshold, so there is room for at least one byte.
            let room = self.threshold - self.pending;
            let (len, count) = if bytes.len() < room {
                (bytes.len(), records)
            } else {
                ops_reaching(bytes, room)
            };
            self.buffers
                .entry(stream)
                .or_default()
                .extend_from_slice(&bytes[..len]);
            self.commit_run(stream, len, count as u64);
            bytes = &bytes[len..];
            records -= count;
        }
        ops.clear();
    }

    /// Appends one record. Infallible: I/O errors are stashed and
    /// surfaced by [`TraceWriter::finish`].
    ///
    /// No producer records HITM samples; this still encodes one so tests
    /// can build traces that hold them.
    pub fn record(&mut self, record: &TraceRecord) {
        match record {
            TraceRecord::Event(event) => self.record_event(event),
            TraceRecord::HitmSample { core, addr } => self.record_raw(0, |buf| {
                buf.push(OP_HITM_SAMPLE);
                push_varint(buf, u64::from(*core));
                push_varint(buf, addr.0);
            }),
        }
    }

    /// Appends one execution event, encoding straight from the borrow —
    /// no intermediate [`TraceRecord`] (and no clone) on the hot path.
    pub fn record_event(&mut self, event: &TraceEvent) {
        self.record_raw(event_stream(event), |buf| encode_event(buf, event));
    }

    /// Records appended so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    fn flush_frame(&mut self) {
        if self.merge.is_empty() {
            return;
        }
        // `head` and `merge_scratch` are retained scratch buffers: frame
        // flushes reuse their capacity instead of reallocating per frame.
        self.merge_scratch.clear();
        for (tid, run) in &self.merge {
            push_varint(&mut self.merge_scratch, u64::from(*tid));
            push_varint(&mut self.merge_scratch, *run);
        }
        self.head.clear();
        self.head.push(TAG_FRAME);
        let active = self.buffers.values().filter(|b| !b.is_empty()).count();
        push_varint(&mut self.head, active as u64);
        for (tid, buf) in &self.buffers {
            if buf.is_empty() {
                continue;
            }
            push_varint(&mut self.head, u64::from(*tid));
            push_varint(&mut self.head, buf.len() as u64);
        }
        push_varint(&mut self.head, self.merge_scratch.len() as u64);
        self.head.extend_from_slice(&self.merge_scratch);
        Self::write_out(&mut self.out, &mut self.error, &self.head);
        // Stream buffers are cleared, not dropped: the next frame's
        // records reuse the allocations.
        for buf in self.buffers.values_mut() {
            if buf.is_empty() {
                continue;
            }
            Self::write_out(&mut self.out, &mut self.error, buf);
            buf.clear();
        }
        self.merge.clear();
        self.pending = 0;
    }

    fn write_all(&mut self, bytes: &[u8]) {
        Self::write_out(&mut self.out, &mut self.error, bytes);
    }

    /// Free-standing write helper so `flush_frame` can write while the
    /// retained stream/scratch buffers stay borrowed.
    fn write_out(out: &mut Option<W>, error: &mut Option<io::Error>, bytes: &[u8]) {
        if error.is_some() {
            return;
        }
        if let Some(out) = out.as_mut() {
            if let Err(e) = out.write_all(bytes) {
                *error = Some(e);
            }
        }
    }

    /// Flushes the final frame, writes the end marker, and returns the
    /// underlying writer. Emits the `trace.records_written` telemetry
    /// counter (a no-op outside campaigns).
    ///
    /// # Errors
    ///
    /// Surfaces the first I/O error hit at any point during recording.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_frame();
        let mut tail = vec![TAG_END];
        push_varint(&mut tail, self.records);
        self.write_all(&tail);
        ddrace_telemetry::counter("trace.records_written", self.records);
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut out = self.out.take().expect("writer not yet finished");
        out.flush()?;
        Ok(out)
    }
}

fn encode_event(buf: &mut Vec<u8>, e: &TraceEvent) {
    match e {
        TraceEvent::ThreadStarted { parent, .. } => {
            buf.push(OP_THREAD_STARTED);
            push_varint(buf, parent.map_or(0, |p| u64::from(p.0) + 1));
        }
        TraceEvent::ThreadFinished { .. } => buf.push(OP_THREAD_FINISHED),
        TraceEvent::Op { op, .. } => encode_op(buf, op),
        TraceEvent::BarrierReleased {
            barrier,
            participants,
        } => {
            buf.push(OP_BARRIER_RELEASED);
            push_varint(buf, u64::from(barrier.0));
            push_varint(buf, participants.len() as u64);
            for t in participants {
                push_varint(buf, u64::from(t.0));
            }
        }
    }
}

fn encode_op(buf: &mut Vec<u8>, op: &Op) {
    match *op {
        Op::Read { addr } => {
            buf.push(OP_READ);
            push_varint(buf, addr.0);
        }
        Op::Write { addr } => {
            buf.push(OP_WRITE);
            push_varint(buf, addr.0);
        }
        Op::AtomicRmw { addr } => {
            buf.push(OP_ATOMIC);
            push_varint(buf, addr.0);
        }
        Op::AtomicLoad { addr } => {
            buf.push(OP_ATOMIC_LOAD);
            push_varint(buf, addr.0);
        }
        Op::AtomicStore { addr } => {
            buf.push(OP_ATOMIC_STORE);
            push_varint(buf, addr.0);
        }
        Op::RelaxedLoad { addr } => {
            buf.push(OP_RELAXED_LOAD);
            push_varint(buf, addr.0);
        }
        Op::RelaxedStore { addr } => {
            buf.push(OP_RELAXED_STORE);
            push_varint(buf, addr.0);
        }
        Op::RelaxedRmw { addr } => {
            buf.push(OP_RELAXED_RMW);
            push_varint(buf, addr.0);
        }
        Op::Lock { lock } => {
            buf.push(OP_LOCK);
            push_varint(buf, u64::from(lock.0));
        }
        Op::Unlock { lock } => {
            buf.push(OP_UNLOCK);
            push_varint(buf, u64::from(lock.0));
        }
        Op::Barrier {
            barrier,
            participants,
        } => {
            buf.push(OP_BARRIER);
            push_varint(buf, u64::from(barrier.0));
            push_varint(buf, u64::from(participants));
        }
        Op::Fork { child } => {
            buf.push(OP_FORK);
            push_varint(buf, u64::from(child.0));
        }
        Op::Join { child } => {
            buf.push(OP_JOIN);
            push_varint(buf, u64::from(child.0));
        }
        Op::Post { sem } => {
            buf.push(OP_POST);
            push_varint(buf, u64::from(sem.0));
        }
        Op::WaitSem { sem } => {
            buf.push(OP_WAIT_SEM);
            push_varint(buf, u64::from(sem.0));
        }
        Op::CondWait { cond, lock } => {
            buf.push(OP_COND_WAIT);
            push_varint(buf, u64::from(cond.0));
            push_varint(buf, u64::from(lock.0));
        }
        Op::CondWake { cond, lock } => {
            buf.push(OP_COND_WAKE);
            push_varint(buf, u64::from(cond.0));
            push_varint(buf, u64::from(lock.0));
        }
        Op::NotifyOne { cond } => {
            buf.push(OP_NOTIFY_ONE);
            push_varint(buf, u64::from(cond.0));
        }
        Op::NotifyAll { cond } => {
            buf.push(OP_NOTIFY_ALL);
            push_varint(buf, u64::from(cond.0));
        }
        Op::Compute { cycles } => {
            buf.push(OP_COMPUTE);
            push_varint(buf, u64::from(cycles));
        }
    }
}

/// The shortest run of whole records at the front of `bytes`, as
/// [`encode_op`] writes them, that holds at least `room` bytes, as
/// `(bytes, records)`. `bytes` itself holds at least `room`.
fn ops_reaching(bytes: &[u8], room: usize) -> (usize, usize) {
    let (mut len, mut count) = (0, 0);
    while len < room {
        // The opcode, then one varint, or two for a barrier, a condvar
        // wait or a condvar wake.
        let varints = match bytes[len] {
            OP_BARRIER | OP_COND_WAIT | OP_COND_WAKE => 2,
            _ => 1,
        };
        len += 1;
        for _ in 0..varints {
            while bytes[len] & 0x80 != 0 {
                len += 1;
            }
            len += 1;
        }
        count += 1;
    }
    (len, count)
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

/// Byte-counting wrapper so every error can name an offset.
#[derive(Debug)]
struct CountingReader<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> CountingReader<R> {
    fn read_exact_or(&mut self, buf: &mut [u8], context: &'static str) -> Result<(), TraceError> {
        let start = self.offset;
        match read_fully(&mut self.inner, buf) {
            Ok(n) if n == buf.len() => {
                self.offset += n as u64;
                Ok(())
            }
            Ok(n) => {
                self.offset += n as u64;
                Err(TraceError::Truncated {
                    offset: start,
                    context,
                })
            }
            Err(e) => Err(TraceError::Io {
                offset: start,
                source: e,
            }),
        }
    }

    /// Reads the `len` bytes a length field declared into `buf`. They go
    /// through `Read::take`, so `buf` grows only as bytes arrive: a
    /// declared length costs no more memory than the input really holds,
    /// and a short read is `Truncated` at the field's first byte.
    fn read_declared(
        &mut self,
        len: u64,
        buf: &mut Vec<u8>,
        context: &'static str,
    ) -> Result<(), TraceError> {
        let start = self.offset;
        buf.clear();
        match (&mut self.inner).take(len).read_to_end(buf) {
            Ok(n) => {
                self.offset += n as u64;
                if n as u64 == len {
                    Ok(())
                } else {
                    Err(TraceError::Truncated {
                        offset: start,
                        context,
                    })
                }
            }
            Err(e) => Err(TraceError::Io {
                offset: start,
                source: e,
            }),
        }
    }

    /// Reads one byte; `None` at a clean EOF.
    fn read_u8_opt(&mut self) -> Result<Option<u8>, TraceError> {
        let mut b = [0u8; 1];
        match read_fully(&mut self.inner, &mut b) {
            Ok(0) => Ok(None),
            Ok(_) => {
                self.offset += 1;
                Ok(Some(b[0]))
            }
            Err(e) => Err(TraceError::Io {
                offset: self.offset,
                source: e,
            }),
        }
    }

    fn read_varint(&mut self, context: &'static str) -> Result<u64, TraceError> {
        let start = self.offset;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let mut b = [0u8; 1];
            match read_fully(&mut self.inner, &mut b) {
                Ok(0) => {
                    return Err(TraceError::Truncated {
                        offset: start,
                        context,
                    })
                }
                Ok(_) => self.offset += 1,
                Err(e) => {
                    return Err(TraceError::Io {
                        offset: self.offset,
                        source: e,
                    })
                }
            }
            if shift >= 63 && b[0] > 1 {
                return Err(TraceError::Corrupt {
                    offset: start,
                    detail: format!("varint in {context} overflows 64 bits"),
                });
            }
            value |= u64::from(b[0] & 0x7f) << shift;
            if b[0] & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceError::Corrupt {
                    offset: start,
                    detail: format!("varint in {context} longer than 10 bytes"),
                });
            }
        }
    }
}

/// `read` until `buf` is full or EOF; returns bytes read. Interrupted
/// reads are retried.
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// One decoded frame held in memory while its records drain.
#[derive(Debug)]
struct Frame {
    /// `(tid, payload, decode cursor, base file offset)` per stream, in
    /// stream-table order.
    streams: Vec<(u32, Vec<u8>, usize, u64)>,
    /// Remaining merge-order runs.
    merge: VecDeque<(u32, u64)>,
    /// Index of the stream the previous record came from. Merge runs make
    /// consecutive records hit the same stream, so this caches the lookup
    /// on the per-record path.
    last: usize,
}

/// Streaming trace reader: validates the header eagerly, then
/// [`TraceReader::for_each_record`] hands out the records in recorded
/// global order, holding one frame at a time. The end marker's record
/// count is validated, so silent truncation at a frame boundary is also
/// caught.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: CountingReader<R>,
    /// Declared format version; gates which record opcodes may appear.
    version: u16,
    frame: Option<Frame>,
    records_seen: u64,
    /// Drained-frame payload buffers, reused by later frames so steady-state
    /// decoding allocates nothing per frame.
    payload_pool: Vec<Vec<u8>>,
    /// Scratch for a frame's raw merge-order bytes, reused across frames.
    merge_scratch: Vec<u8>,
    /// Barrier-release participant vectors handed back after delivery.
    tid_pool: Vec<Vec<ThreadId>>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, validating magic, endianness tag, and version.
    ///
    /// # Errors
    ///
    /// Rejects foreign or truncated headers (see [`TraceError`]).
    pub fn new(input: R) -> Result<Self, TraceError> {
        let mut input = CountingReader {
            inner: input,
            offset: 0,
        };
        let mut magic = [0u8; 4];
        input.read_exact_or(&mut magic, "the 8-byte header")?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let mut tag = [0u8; 2];
        input.read_exact_or(&mut tag, "the 8-byte header")?;
        let tag = u16::from_le_bytes(tag);
        if tag != ENDIAN_TAG {
            return Err(TraceError::ForeignEndianness { found: tag });
        }
        let mut version = [0u8; 2];
        input.read_exact_or(&mut version, "the 8-byte header")?;
        let version = u16::from_le_bytes(version);
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        Ok(TraceReader {
            input,
            version,
            frame: None,
            records_seen: 0,
            payload_pool: Vec::new(),
            merge_scratch: Vec::new(),
            tid_pool: Vec::new(),
        })
    }

    /// The format version the trace declares (within
    /// `MIN_FORMAT_VERSION..=FORMAT_VERSION`).
    pub fn version(&self) -> u16 {
        self.version
    }

    fn read_frame(&mut self) -> Result<Frame, TraceError> {
        let stream_count = self.input.read_varint("a frame's stream count")?;
        let mut order = Vec::new();
        for _ in 0..stream_count {
            let at = self.input.offset;
            let tid = self.input.read_varint("a frame's stream table")?;
            let tid = thread_id(tid, at, "stream thread id")?.0;
            let len = self.input.read_varint("a frame's stream table")?;
            order.push((tid, len));
        }
        let merge_len = self.input.read_varint("a frame's merge-order length")?;
        let merge_base = self.input.offset;
        self.input
            .read_declared(merge_len, &mut self.merge_scratch, "a frame's merge order")?;
        let mut merge = VecDeque::new();
        let mut cursor = CountingReader {
            inner: self.merge_scratch.as_slice(),
            offset: 0,
        };
        while cursor.offset < merge_len {
            let at = merge_base + cursor.offset;
            let tid = cursor
                .read_varint("a merge-order run")
                .map_err(|e| rebase(e, merge_base))?;
            let tid = thread_id(tid, at, "merge-order thread id")?.0;
            let run = cursor
                .read_varint("a merge-order run")
                .map_err(|e| rebase(e, merge_base))?;
            if run == 0 {
                return Err(TraceError::Corrupt {
                    offset: merge_base + cursor.offset,
                    detail: "merge-order run of length 0".to_string(),
                });
            }
            merge.push_back((tid, run));
        }
        let mut streams: Vec<(u32, Vec<u8>, usize, u64)> = Vec::with_capacity(order.len());
        for (tid, len) in order {
            let base = self.input.offset;
            let mut payload = self.payload_pool.pop().unwrap_or_default();
            self.input
                .read_declared(len, &mut payload, "a frame's stream payload")?;
            if streams.iter().any(|(t, ..)| *t == tid) {
                return Err(TraceError::Corrupt {
                    offset: base,
                    detail: format!("thread {tid} listed twice in one frame's stream table"),
                });
            }
            streams.push((tid, payload, 0usize, base));
        }
        Ok(Frame {
            streams,
            merge,
            last: 0,
        })
    }

    /// Resolves the stream index for the merge run at the front of
    /// `frame`'s queue, favoring the cached index (consecutive records in
    /// a run always hit the same stream).
    fn resolve_stream(frame: &mut Frame, tid: u32, at: u64) -> Result<usize, TraceError> {
        let idx = match frame.streams.get(frame.last) {
            Some((t, ..)) if *t == tid => frame.last,
            _ => frame
                .streams
                .iter()
                .position(|(t, ..)| *t == tid)
                .ok_or(TraceError::Corrupt {
                    offset: at,
                    detail: format!("merge order references thread {tid} absent from the frame"),
                })?,
        };
        frame.last = idx;
        Ok(idx)
    }

    /// Finishes the current frame (validating that the merge order covered
    /// every stream byte) and reads the next section tag. Returns `true`
    /// if a new frame is loaded and `false` at a validated end-of-trace
    /// marker. Must only be called when the current frame, if any, has an
    /// empty merge queue.
    fn advance_section(&mut self) -> Result<bool, TraceError> {
        if let Some(frame) = self.frame.as_ref() {
            // Frame drained: every stream must be fully consumed.
            for (tid, payload, cursor, base) in &frame.streams {
                if *cursor != payload.len() {
                    return Err(TraceError::Corrupt {
                        offset: base + *cursor as u64,
                        detail: format!(
                            "thread {tid}'s stream has {} bytes not covered by the \
                             merge order",
                            payload.len() - cursor
                        ),
                    });
                }
            }
            if let Some(drained) = self.frame.take() {
                // Recycle the payload allocations for the next frame.
                for (_, payload, _, _) in drained.streams {
                    self.payload_pool.push(payload);
                }
            }
        }
        let tag_offset = self.input.offset;
        let Some(tag) = self.input.read_u8_opt()? else {
            return Err(TraceError::Truncated {
                offset: tag_offset,
                context: "the trace body (no end-of-trace marker)",
            });
        };
        match tag {
            TAG_FRAME => {
                let frame = self.read_frame()?;
                self.frame = Some(frame);
                Ok(true)
            }
            TAG_END => {
                let declared = self.input.read_varint("the end-of-trace record count")?;
                if declared != self.records_seen {
                    return Err(TraceError::Corrupt {
                        offset: tag_offset,
                        detail: format!(
                            "end marker declares {declared} records but {} were decoded",
                            self.records_seen
                        ),
                    });
                }
                if self.input.read_u8_opt()?.is_some() {
                    return Err(TraceError::Corrupt {
                        offset: self.input.offset - 1,
                        detail: "trailing bytes after the end-of-trace marker".to_string(),
                    });
                }
                Ok(false)
            }
            other => Err(TraceError::Corrupt {
                offset: tag_offset,
                detail: format!("unknown section tag 0x{other:02x}"),
            }),
        }
    }

    /// Drains the trace, handing every record to `on_record` in recorded
    /// global order. This is the reader's one record loop: each
    /// merge-order run resolves its stream once and decodes in a tight
    /// loop, records are handed out by reference, and barrier-release
    /// participant vectors are recycled in place, so steady-state
    /// decoding allocates nothing per record.
    ///
    /// # Errors
    ///
    /// Stops at the first [`TraceError`]; the records before it have
    /// already been delivered.
    pub fn for_each_record<F: FnMut(&TraceRecord)>(
        mut self,
        mut on_record: F,
    ) -> Result<(), TraceError> {
        loop {
            let has_run = self.frame.as_ref().is_some_and(|f| !f.merge.is_empty());
            if !has_run {
                if !self.advance_section()? {
                    return Ok(());
                }
                continue;
            }
            let version = self.version;
            let frame = self.frame.as_mut().expect("frame with a pending run");
            let (tid, run) = frame.merge.pop_front().expect("pending run");
            let at = self.input.offset;
            let idx = Self::resolve_stream(frame, tid, at)?;
            let (_, payload, cursor, base) = &mut frame.streams[idx];
            for _ in 0..run {
                // Data accesses dominate real traces; decode them without
                // going through the general `decode_record` match. Errors
                // are built exactly as `decode_record` builds them.
                if let Some(&op @ (OP_READ | OP_WRITE | OP_ATOMIC)) = payload.get(*cursor) {
                    *cursor += 1;
                    let (context, build): (_, fn(Addr) -> Op) = match op {
                        OP_READ => ("a read record", |addr| Op::Read { addr }),
                        OP_WRITE => ("a write record", |addr| Op::Write { addr }),
                        _ => ("an atomic record", |addr| Op::AtomicRmw { addr }),
                    };
                    let addr =
                        slice_varint(payload, cursor, context).map_err(|e| rebase(e, *base))?;
                    on_record(&TraceRecord::Event(TraceEvent::Op {
                        tid: ThreadId(tid),
                        op: build(Addr(addr)),
                    }));
                    continue;
                }
                let record =
                    decode_record(payload, cursor, *base, tid, version, &mut self.tid_pool)?;
                on_record(&record);
                if let TraceRecord::Event(TraceEvent::BarrierReleased {
                    mut participants, ..
                }) = record
                {
                    participants.clear();
                    self.tid_pool.push(participants);
                }
            }
            self.records_seen += run;
        }
    }
}

fn rebase(e: TraceError, base: u64) -> TraceError {
    match e {
        TraceError::Truncated { offset, context } => TraceError::Truncated {
            offset: base + offset,
            context,
        },
        TraceError::Corrupt { offset, detail } => TraceError::Corrupt {
            offset: base + offset,
            detail,
        },
        TraceError::Io { offset, source } => TraceError::Io {
            offset: base + offset,
            source,
        },
        other => other,
    }
}

/// Decodes one LEB128 varint directly from `payload` at `*cursor`. This is
/// the per-record hot path, so it indexes the slice instead of going
/// through the `Read` machinery: no per-byte dispatch, no intermediate
/// reader. Error offsets are payload-relative (the caller rebases them
/// onto the payload's file offset) and match [`CountingReader::read_varint`]
/// exactly: the varint's first byte for truncation and overflow.
#[inline]
fn slice_varint(
    payload: &[u8],
    cursor: &mut usize,
    context: &'static str,
) -> Result<u64, TraceError> {
    let start = *cursor;
    let mut value = 0u64;
    // `take(10)` bounds the encoding length and lets the compiler drop the
    // per-byte bounds check. A 10th byte above 1 spills past 64 bits; a
    // 10th byte with the continuation bit set is caught by the same test
    // (0x80 > 1), so the two historical error cases collapse into one.
    for (i, &b) in payload[start..].iter().take(10).enumerate() {
        if i == 9 && b > 1 {
            return Err(TraceError::Corrupt {
                offset: start as u64,
                detail: format!("varint in {context} overflows 64 bits"),
            });
        }
        value |= u64::from(b & 0x7f) << (7 * i as u32);
        if b & 0x80 == 0 {
            *cursor = start + i + 1;
            return Ok(value);
        }
    }
    // Fewer than 10 bytes were available and every one of them carried the
    // continuation bit: the stream ends mid-varint.
    *cursor = payload.len();
    Err(TraceError::Truncated {
        offset: start as u64,
        context,
    })
}

/// Decodes one record from a stream payload slice. `base` is the
/// payload's file offset, `tid` the stream's implicit thread id, and
/// `version` the trace's declared format version (gates which opcodes
/// are legal to see).
fn decode_record(
    payload: &[u8],
    cursor: &mut usize,
    base: u64,
    tid: u32,
    version: u16,
    tid_pool: &mut Vec<Vec<ThreadId>>,
) -> Result<TraceRecord, TraceError> {
    let Some(&opcode) = payload.get(*cursor) else {
        return Err(TraceError::Corrupt {
            offset: base + *cursor as u64,
            detail: format!("thread {tid}'s stream ends mid-merge-order (missing record)"),
        });
    };
    *cursor += 1;
    decode_body(payload, cursor, opcode, tid, version, tid_pool).map_err(|e| rebase(e, base))
}

fn decode_body(
    payload: &[u8],
    cursor: &mut usize,
    opcode: u8,
    tid: u32,
    version: u16,
    tid_pool: &mut Vec<Vec<ThreadId>>,
) -> Result<TraceRecord, TraceError> {
    // A version-1 trace must not contain records that only exist in the
    // version-2 vocabulary; seeing one means the header lied or the body
    // was spliced from a newer trace.
    if (FIRST_V2_OPCODE..=OP_NOTIFY_ALL).contains(&opcode) && version < 2 {
        return Err(TraceError::Corrupt {
            offset: (*cursor - 1) as u64,
            detail: format!(
                "record opcode 0x{opcode:02x} requires format version 2 but the \
                 trace declares version {version}"
            ),
        });
    }
    let tid_id = ThreadId(tid);
    let event = |op: Op| TraceRecord::Event(TraceEvent::Op { tid: tid_id, op });
    let record = match opcode {
        OP_THREAD_STARTED => {
            let at = *cursor as u64;
            let parent = slice_varint(payload, cursor, "a thread-started record")?;
            let parent = if parent == 0 {
                None
            } else {
                Some(thread_id(parent - 1, at, "parent thread id")?)
            };
            TraceRecord::Event(TraceEvent::ThreadStarted {
                tid: tid_id,
                parent,
            })
        }
        OP_THREAD_FINISHED => TraceRecord::Event(TraceEvent::ThreadFinished { tid: tid_id }),
        OP_READ => event(Op::Read {
            addr: Addr(slice_varint(payload, cursor, "a read record")?),
        }),
        OP_WRITE => event(Op::Write {
            addr: Addr(slice_varint(payload, cursor, "a write record")?),
        }),
        OP_ATOMIC => event(Op::AtomicRmw {
            addr: Addr(slice_varint(payload, cursor, "an atomic record")?),
        }),
        OP_LOCK => event(Op::Lock {
            lock: LockId(narrow(
                slice_varint(payload, cursor, "a lock record")?,
                *cursor,
                "lock id",
            )?),
        }),
        OP_UNLOCK => event(Op::Unlock {
            lock: LockId(narrow(
                slice_varint(payload, cursor, "an unlock record")?,
                *cursor,
                "lock id",
            )?),
        }),
        OP_BARRIER => {
            let barrier = narrow(
                slice_varint(payload, cursor, "a barrier record")?,
                *cursor,
                "barrier id",
            )?;
            let participants = narrow(
                slice_varint(payload, cursor, "a barrier record")?,
                *cursor,
                "barrier participant count",
            )?;
            event(Op::Barrier {
                barrier: BarrierId(barrier),
                participants,
            })
        }
        OP_FORK => event(Op::Fork {
            child: slice_thread_id(payload, cursor, "a fork record", "child thread id")?,
        }),
        OP_JOIN => event(Op::Join {
            child: slice_thread_id(payload, cursor, "a join record", "child thread id")?,
        }),
        OP_POST => event(Op::Post {
            sem: SemId(narrow(
                slice_varint(payload, cursor, "a post record")?,
                *cursor,
                "semaphore id",
            )?),
        }),
        OP_WAIT_SEM => event(Op::WaitSem {
            sem: SemId(narrow(
                slice_varint(payload, cursor, "a wait record")?,
                *cursor,
                "semaphore id",
            )?),
        }),
        OP_COMPUTE => event(Op::Compute {
            cycles: narrow(
                slice_varint(payload, cursor, "a compute record")?,
                *cursor,
                "compute cycle count",
            )?,
        }),
        OP_BARRIER_RELEASED => {
            let barrier = narrow(
                slice_varint(payload, cursor, "a barrier-release record")?,
                *cursor,
                "barrier id",
            )?;
            let count = slice_varint(payload, cursor, "a barrier-release record")?;
            if count > 1 << 20 {
                return Err(TraceError::Corrupt {
                    offset: *cursor as u64,
                    detail: format!("barrier release lists {count} participants"),
                });
            }
            let mut participants = tid_pool.pop().unwrap_or_default();
            participants.clear();
            participants.reserve(count as usize);
            for _ in 0..count {
                participants.push(slice_thread_id(
                    payload,
                    cursor,
                    "a barrier-release participant",
                    "participant thread id",
                )?);
            }
            TraceRecord::Event(TraceEvent::BarrierReleased {
                barrier: BarrierId(barrier),
                participants,
            })
        }
        OP_HITM_SAMPLE => {
            let core = narrow(
                slice_varint(payload, cursor, "a HITM sample record")?,
                *cursor,
                "core id",
            )?;
            let addr = Addr(slice_varint(payload, cursor, "a HITM sample record")?);
            TraceRecord::HitmSample { core, addr }
        }
        OP_ATOMIC_LOAD => event(Op::AtomicLoad {
            addr: Addr(slice_varint(payload, cursor, "an atomic-load record")?),
        }),
        OP_ATOMIC_STORE => event(Op::AtomicStore {
            addr: Addr(slice_varint(payload, cursor, "an atomic-store record")?),
        }),
        OP_RELAXED_LOAD => event(Op::RelaxedLoad {
            addr: Addr(slice_varint(payload, cursor, "a relaxed-load record")?),
        }),
        OP_RELAXED_STORE => event(Op::RelaxedStore {
            addr: Addr(slice_varint(payload, cursor, "a relaxed-store record")?),
        }),
        OP_RELAXED_RMW => event(Op::RelaxedRmw {
            addr: Addr(slice_varint(payload, cursor, "a relaxed-rmw record")?),
        }),
        OP_COND_WAIT => {
            let cond = narrow(
                slice_varint(payload, cursor, "a cond-wait record")?,
                *cursor,
                "condvar id",
            )?;
            let lock = narrow(
                slice_varint(payload, cursor, "a cond-wait record")?,
                *cursor,
                "lock id",
            )?;
            event(Op::CondWait {
                cond: CondId(cond),
                lock: LockId(lock),
            })
        }
        OP_COND_WAKE => {
            let cond = narrow(
                slice_varint(payload, cursor, "a cond-wake record")?,
                *cursor,
                "condvar id",
            )?;
            let lock = narrow(
                slice_varint(payload, cursor, "a cond-wake record")?,
                *cursor,
                "lock id",
            )?;
            event(Op::CondWake {
                cond: CondId(cond),
                lock: LockId(lock),
            })
        }
        OP_NOTIFY_ONE => event(Op::NotifyOne {
            cond: CondId(narrow(
                slice_varint(payload, cursor, "a notify-one record")?,
                *cursor,
                "condvar id",
            )?),
        }),
        OP_NOTIFY_ALL => event(Op::NotifyAll {
            cond: CondId(narrow(
                slice_varint(payload, cursor, "a notify-all record")?,
                *cursor,
                "condvar id",
            )?),
        }),
        other => {
            return Err(TraceError::Corrupt {
                offset: (*cursor - 1) as u64,
                detail: format!("unknown record opcode 0x{other:02x}"),
            })
        }
    };
    Ok(record)
}

fn narrow(v: u64, offset: usize, what: &str) -> Result<u32, TraceError> {
    u32::try_from(v).map_err(|_| TraceError::Corrupt {
        offset: offset as u64,
        detail: format!("{what} {v} exceeds u32"),
    })
}

/// Checks a decoded thread id against [`MAX_THREADS`]; `offset` is the
/// id's first byte.
fn thread_id(v: u64, offset: u64, what: &str) -> Result<ThreadId, TraceError> {
    if v < u64::from(MAX_THREADS) {
        Ok(ThreadId(v as u32))
    } else {
        Err(TraceError::Corrupt {
            offset,
            detail: format!("{what} {v} is at or above the limit of {MAX_THREADS} threads"),
        })
    }
}

/// Decodes one thread-id varint from a stream payload; see [`thread_id`].
fn slice_thread_id(
    payload: &[u8],
    cursor: &mut usize,
    context: &'static str,
    what: &str,
) -> Result<ThreadId, TraceError> {
    let at = *cursor as u64;
    thread_id(slice_varint(payload, cursor, context)?, at, what)
}

// ---------------------------------------------------------------------------
// convenience
// ---------------------------------------------------------------------------

/// Totals reported by [`decode_events_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeSummary {
    /// Execution events delivered to the callback.
    pub events: u64,
    /// HITM indicator samples interleaved among them (not delivered).
    pub hitm_samples: u64,
}

/// Streams a trace's execution events through `on_event` in recorded
/// global order without materializing a `Vec<TraceEvent>`: peak memory is
/// one frame, and steady-state decoding allocates nothing per record (see
/// [`TraceReader::for_each_record`]). HITM samples are counted and
/// skipped.
///
/// # Errors
///
/// Propagates any [`TraceError`] from the reader.
pub fn decode_events_into<R: Read, F: FnMut(&TraceEvent)>(
    input: R,
    mut on_event: F,
) -> Result<DecodeSummary, TraceError> {
    let mut summary = DecodeSummary::default();
    TraceReader::new(input)?.for_each_record(|record| match record {
        TraceRecord::Event(event) => {
            summary.events += 1;
            on_event(event);
        }
        TraceRecord::HitmSample { .. } => summary.hitm_samples += 1,
    })?;
    Ok(summary)
}

/// [`decode_events_into`] under the name of the retired frame-parallel
/// decoder; `decode_workers` is ignored. Kept only for the end-to-end
/// benchmark (`bench_e2e/`), which names it.
///
/// # Errors
///
/// Propagates any [`TraceError`] from the reader.
pub fn decode_events_into_parallel<R: Read, F: FnMut(&TraceEvent)>(
    input: R,
    _decode_workers: usize,
    on_event: F,
) -> Result<DecodeSummary, TraceError> {
    decode_events_into(input, on_event)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(records: &[TraceRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out).unwrap();
        for r in records {
            w.record(r);
        }
        w.finish().unwrap();
        out
    }

    /// Every record of `bytes`, collected through the reader's one loop.
    fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
        let mut records = Vec::new();
        TraceReader::new(bytes)?.for_each_record(|r| records.push(r.clone()))?;
        Ok(records)
    }

    fn sample_records() -> Vec<TraceRecord> {
        use TraceEvent as E;
        let t0 = ThreadId(0);
        let t1 = ThreadId(1);
        vec![
            TraceRecord::Event(E::ThreadStarted {
                tid: t0,
                parent: None,
            }),
            TraceRecord::Event(E::Op {
                tid: t0,
                op: Op::Fork { child: t1 },
            }),
            TraceRecord::Event(E::ThreadStarted {
                tid: t1,
                parent: Some(t0),
            }),
            TraceRecord::Event(E::Op {
                tid: t1,
                op: Op::Write { addr: Addr(0x4000) },
            }),
            TraceRecord::HitmSample {
                core: 1,
                addr: Addr(0x4000),
            },
            TraceRecord::Event(E::Op {
                tid: t0,
                op: Op::Lock { lock: LockId(3) },
            }),
            TraceRecord::Event(E::Op {
                tid: t0,
                op: Op::Unlock { lock: LockId(3) },
            }),
            TraceRecord::Event(E::BarrierReleased {
                barrier: BarrierId(0),
                participants: vec![t1, t0],
            }),
            TraceRecord::Event(E::Op {
                tid: t0,
                op: Op::Join { child: t1 },
            }),
            TraceRecord::Event(E::ThreadFinished { tid: t1 }),
            TraceRecord::Event(E::ThreadFinished { tid: t0 }),
        ]
    }

    #[test]
    fn roundtrips_in_global_order() {
        let records = sample_records();
        let bytes = ev(&records);
        assert_eq!(decode(&bytes).unwrap(), records);
    }

    #[test]
    fn roundtrips_across_tiny_frames() {
        let records = sample_records();
        let mut out = Vec::new();
        // Threshold 1: every record flushes its own frame.
        let mut w = TraceWriter::with_flush_threshold(&mut out, 1).unwrap();
        for r in &records {
            w.record(r);
        }
        assert_eq!(w.records_written(), records.len() as u64);
        w.finish().unwrap();
        assert_eq!(decode(&out).unwrap(), records);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = ev(&[]);
        assert_eq!(bytes.len(), 8 + 2); // header + end marker
        assert!(decode(&bytes).unwrap().is_empty());
    }

    #[test]
    fn rejects_foreign_magic() {
        let err = TraceReader::new(&b"JSON{\"a\":1}"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }));
        let msg = err.to_string();
        assert!(msg.contains("byte offset 0"), "{msg}");
        assert!(msg.ends_with("refusing to ingest"), "{msg}");
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut bytes = ev(&[]);
        bytes[6] = 0x63; // version 99
        let err = TraceReader::new(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion { found: 99 }));
        let msg = err.to_string();
        assert!(msg.contains("version 99"), "{msg}");
        assert!(msg.contains("refusing to ingest"), "{msg}");
    }

    #[test]
    fn rejects_byte_swapped_endianness_tag() {
        let mut bytes = ev(&[]);
        bytes.swap(4, 5);
        let err = TraceReader::new(bytes.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            TraceError::ForeignEndianness { found: 0x3412 }
        ));
        assert!(err.to_string().contains("byte orders differ"));
    }

    #[test]
    fn rejects_every_truncation_point() {
        let full = ev(&sample_records());
        for len in 0..full.len() {
            let err = decode(&full[..len]).expect_err("truncation must be detected");
            match err {
                TraceError::Truncated { offset, .. } => {
                    assert!(offset <= len as u64, "offset {offset} beyond cut {len}")
                }
                TraceError::BadMagic { .. } if len < 4 => {}
                other => panic!("truncation at {len} gave {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_error_names_an_offset() {
        let full = ev(&sample_records());
        let err = decode(&full[..full.len() - 3]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("byte offset"), "{msg}");
        assert!(msg.contains("truncated"), "{msg}");
        assert!(msg.ends_with("refusing to ingest"), "{msg}");
    }

    #[test]
    fn rejects_record_count_mismatch() {
        let mut bytes = ev(&sample_records());
        let last = bytes.len() - 1;
        bytes[last] = bytes[last].wrapping_add(1); // end-marker count varint
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("end marker declares"));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = ev(&sample_records());
        bytes.push(0x7a);
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn rejects_unknown_opcode_with_offset() {
        let mut bytes = Vec::new();
        let mut w = TraceWriter::new(&mut bytes).unwrap();
        w.record_event(&TraceEvent::ThreadStarted {
            tid: ThreadId(0),
            parent: None,
        });
        w.finish().unwrap();
        // The single record's opcode byte is the last byte of the frame
        // payload region, right before the 2-byte end marker and after
        // the frame head; find it by searching for OP_THREAD_STARTED.
        let pos = bytes.len() - 4; // opcode + varint(0) + end tag + count
        assert_eq!(bytes[pos], OP_THREAD_STARTED);
        bytes[pos] = 0x3f;
        let err = decode(&bytes).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown record opcode 0x3f"), "{msg}");
        assert!(msg.contains("byte offset"), "{msg}");
    }

    #[test]
    fn writer_reports_io_errors_at_finish() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 < buf.len() {
                    return Err(io::Error::other("disk full"));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Header fits; the end marker does not.
        let mut w = TraceWriter::new(FailAfter(8)).unwrap();
        w.record_event(&TraceEvent::ThreadFinished { tid: ThreadId(0) });
        assert!(w.finish().is_err());
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut c = CountingReader {
                inner: buf.as_slice(),
                offset: 0,
            };
            assert_eq!(c.read_varint("test").unwrap(), v);
            assert_eq!(c.offset as usize, buf.len());
        }
    }

    #[test]
    fn decode_events_into_filters_events_from_the_record_loop() {
        let records = sample_records();
        let mut bytes = Vec::new();
        // Threshold 1 forces many frames, exercising buffer recycling.
        let mut w = TraceWriter::with_flush_threshold(&mut bytes, 1).unwrap();
        for r in &records {
            w.record(r);
        }
        w.finish().unwrap();
        let mut streamed = Vec::new();
        let summary = decode_events_into(bytes.as_slice(), |e| streamed.push(e.clone())).unwrap();
        let events: Vec<TraceEvent> = records
            .into_iter()
            .filter_map(|r| match r {
                TraceRecord::Event(e) => Some(e),
                TraceRecord::HitmSample { .. } => None,
            })
            .collect();
        assert_eq!(streamed, events);
        assert_eq!(summary.events, events.len() as u64);
        assert_eq!(summary.hitm_samples, 1);
    }

    #[test]
    fn streaming_decode_propagates_errors() {
        let full = ev(&sample_records());
        let cut = &full[..full.len() - 3];
        let err = decode_events_into(cut, |_| {}).unwrap_err();
        assert!(err.to_string().ends_with("refusing to ingest"), "{err}");
    }

    #[test]
    fn thread_ids_at_or_above_the_limit_are_refused_at_their_offset() {
        use TraceEvent as E;
        let (t0, limit, huge) = (ThreadId(0), ThreadId(MAX_THREADS), ThreadId(0xFFFF_FFF0));
        let op = |tid, op| TraceRecord::Event(E::Op { tid, op });
        let start = |tid, parent| TraceRecord::Event(E::ThreadStarted { tid, parent });
        let release = |participants| {
            TraceRecord::Event(E::BarrierReleased {
                barrier: BarrierId(0),
                participants,
            })
        };
        // A lone read and a lone thread start by thread 2^32 - 16: each
        // once aborted replay on a multi-gigabyte allocation.
        let lone_read = ev(&[op(huge, Op::Read { addr: Addr(0x1000) })]);
        let lone_start = ev(&[start(huge, None)]);
        assert_eq!((lone_read.len(), lone_start.len()), (28, 27));
        // One frame whose stream table is valid (thread 0, one byte) but
        // whose 4-byte merge order holds the run (2^16, 1).
        let frame = b"\x01\x01\x00\x01\x04\x80\x80\x04\x01";
        let merge = [&ev(&[])[..8], frame, &[OP_THREAD_FINISHED, TAG_END, 1]].concat();
        let cases = [
            (lone_read, "stream thread id"),
            (lone_start, "stream thread id"),
            (merge, "merge-order thread id"),
            (ev(&[start(t0, Some(limit))]), "parent thread id"),
            (ev(&[op(t0, Op::Fork { child: limit })]), "child thread id"),
            (ev(&[op(t0, Op::Join { child: huge })]), "child thread id"),
            (ev(&[release(vec![t0, limit])]), "participant thread id"),
        ];
        for (bytes, what) in cases {
            let Err(TraceError::Corrupt { offset, detail }) = decode(&bytes) else {
                panic!("{what}: expected a corrupt-trace refusal");
            };
            assert!(detail.starts_with(what), "{detail}");
            assert!(detail.contains("limit of 65536 threads"), "{detail}");
            // The offset is the refused id's own varint (a parent is
            // stored plus one); every other varint in these traces is small.
            let mut at = CountingReader {
                inner: &bytes[offset as usize..],
                offset: 0,
            };
            assert!(at.read_varint("id").unwrap() >= u64::from(MAX_THREADS));
        }
        // One below the limit is an ordinary thread.
        let last = [op(ThreadId(MAX_THREADS - 1), Op::Read { addr: Addr(8) })];
        assert_eq!(decode(&ev(&last)).unwrap(), last);
    }

    #[test]
    fn declared_lengths_past_the_input_are_truncations_not_allocations() {
        // A varint of 2^40: five continuation bytes, then bit 5 of the
        // sixth. Allocating what it declares would need a terabyte.
        const TIB: [u8; 6] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];
        let header = &ev(&[])[..8];
        // One frame: one stream (thread 0) of 2^40 bytes, empty merge order.
        let stream = [header, &[TAG_FRAME, 1, 0], &TIB, &[0]].concat();
        // One frame: no streams, a 2^40-byte merge order.
        let merge = [header, &[TAG_FRAME, 0], &TIB].concat();
        assert_eq!((stream.len(), merge.len()), (18, 16));
        for (bytes, context) in [
            (stream, "a frame's stream payload"),
            (merge, "a frame's merge order"),
        ] {
            let err = decode_events_into(bytes.as_slice(), |_| {}).unwrap_err();
            match err {
                TraceError::Truncated { offset, context: c } => {
                    assert_eq!((offset, c), (bytes.len() as u64, context))
                }
                other => panic!("expected a truncation, got {other:?}"),
            }
        }
    }
}
