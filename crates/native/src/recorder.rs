//! Trace recording for the native monitor, with *accounted* shutdown.
//!
//! A data access is encoded at the hook, once: its opcode and varint go
//! into the acting thread's own slot in the engine's thread registry —
//! the slot that also caches its clock, locked once per hook — as that
//! thread's DDRT stream bytes ([`EncodedOps`]), so the hot path never
//! serializes on a global lock. The single flush point is
//! [`Recorder::flush`], reached only at the flush threshold, at a
//! synchronization operation, or at shutdown; it hands the whole buffer
//! to the writer as one merge-order run ([`TraceWriter::append_ops`]),
//! which closes frames after the same record as per-record appends
//! would, so the trace bytes do not depend on where flushes fall.
//!
//! Sync operations are appended to the writer *while holding the sync
//! lock*, after flushing the named threads' slots. That pins the
//! recorded global sync order to the engine's processing order and keeps
//! each thread's accesses between that thread's own surrounding syncs —
//! exactly the ordering information happens-before replay needs.
//!
//! ## Why the recorder is *sealed*, not just drained
//!
//! Holding the sync lock does **not** quiesce the data hot path: a data
//! hook takes only its own slot. Draining every slot and then taking the
//! writer would leave a window in which a straggler buffers an access
//! after its slot's drain, and the record would vanish silently. So
//! shutdown seals the recorder (one flag, set under the sync lock) before
//! it drains every slot. A hook that locks its slot before that slot's
//! drain has its record drained into the trace; one that locks it after
//! sees the flag (the slot mutex orders the two) and counts its record in
//! [`Recorder::dropped`]. A thread forked after shutdown has no records
//! to lose: its every hook sees the flag. Every issued record is
//! therefore either in the trace or in the dropped count — never
//! silently lost, an accounting the recorder stress tests assert exactly.
//!
//! The writer mutex is the innermost lock: the data path takes it while
//! holding its slot (and nothing else) to flush a full buffer, and the
//! sync path while holding the sync lock and at most one slot.

use ddrace_program::{Op, ThreadId, TraceEvent};
use ddrace_trace::{EncodedOps, TraceWriter};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Trace recording state; see the module docs. The records themselves
/// wait in the engine's per-thread slots until flushed.
pub(crate) struct Recorder {
    writer: Mutex<Option<TraceWriter<Box<dyn Write + Send>>>>,
    threshold: usize,
    /// Records that arrived after shutdown (sealed recorder or taken
    /// writer) — counted, never silently discarded.
    dropped: AtomicU64,
    /// Set by [`Recorder::seal`]; later data records are counted dropped.
    sealed: AtomicBool,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("threshold", &self.threshold)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// A recorder around an already-headered writer.
    pub(crate) fn new(writer: TraceWriter<Box<dyn Write + Send>>, threshold: usize) -> Recorder {
        Recorder {
            writer: Mutex::new(Some(writer)),
            threshold,
            dropped: AtomicU64::new(0),
            sealed: AtomicBool::new(false),
        }
    }

    /// Hot path: encode one data op into `tid`'s pending records, which
    /// the caller holds locked in `tid`'s slot.
    pub(crate) fn buffer(&self, tid: ThreadId, op: Op, pending: &mut EncodedOps) {
        if self.sealed.load(Ordering::Relaxed) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        pending.push(&op);
        if pending.len() >= self.threshold {
            self.flush(tid, pending);
        }
    }

    /// The single flush point: appends `tid`'s pending records to the
    /// shared writer as one run, in program order. If the writer is
    /// already gone, the records are counted dropped — not silently
    /// cleared.
    pub(crate) fn flush(&self, tid: ThreadId, pending: &mut EncodedOps) {
        if pending.is_empty() {
            return;
        }
        let mut writer = self.writer.lock().unwrap();
        let Some(w) = writer.as_mut() else {
            self.dropped
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
            pending.clear();
            return;
        };
        w.append_ops(tid.0, pending);
    }

    /// Appends one event directly to the writer (sync operations and
    /// thread lifecycle; callers hold the sync lock). After shutdown the
    /// event is counted dropped.
    pub(crate) fn append(&self, event: &TraceEvent) {
        if let Some(w) = self.writer.lock().unwrap().as_mut() {
            w.record_event(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stops buffering: every data record issued after a hook sees this
    /// is counted dropped. The caller holds the sync lock and drains
    /// every slot next, then calls [`Recorder::finish`].
    pub(crate) fn seal(&self) {
        self.sealed.store(true, Ordering::Relaxed);
    }

    /// Takes the writer and finishes the trace. Returns the number of
    /// records written.
    pub(crate) fn finish(&self) -> Result<u64, String> {
        let writer = self
            .writer
            .lock()
            .unwrap()
            .take()
            .ok_or("recording already finished")?;
        let records = writer.records_written();
        writer
            .finish()
            .map_err(|e| format!("trace write failed: {e}"))?;
        Ok(records)
    }

    /// Number of records that arrived after shutdown and were dropped
    /// (but counted): data records after the seal, flushes with no
    /// writer, post-finish sync events.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}
