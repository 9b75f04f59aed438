//! Format-version-2 pins: a golden trace containing every v2 record
//! type, backward-compatible decode of pinned version-1 bytes, the
//! per-record version gate (v2 opcodes inside a v1 trace are corrupt,
//! not silently decoded), and exhaustive truncation/corruption sweeps
//! over the new opcodes.

use ddrace_program::{Addr, BarrierId, CondId, LockId, Op, SemId, ThreadId, TraceEvent};
use ddrace_trace::{TraceError, TraceReader, TraceRecord, TraceWriter, FORMAT_VERSION};
use std::path::PathBuf;

fn op(tid: u32, op: Op) -> TraceRecord {
    TraceRecord::Event(TraceEvent::Op {
        tid: ThreadId(tid),
        op,
    })
}

/// A deterministic record sequence containing **every** record type the
/// v2 format can encode, with both one-byte and multi-byte varint
/// payloads for the new opcodes.
fn all_v2_records() -> Vec<TraceRecord> {
    vec![
        TraceRecord::Event(TraceEvent::ThreadStarted {
            tid: ThreadId(0),
            parent: None,
        }),
        op(0, Op::Fork { child: ThreadId(1) }),
        TraceRecord::Event(TraceEvent::ThreadStarted {
            tid: ThreadId(1),
            parent: Some(ThreadId(0)),
        }),
        op(0, Op::Read { addr: Addr(0x40) }),
        op(0, Op::Write { addr: Addr(0x80) }),
        op(0, Op::AtomicRmw { addr: Addr(0xC0) }),
        // The v2 vocabulary, small and large operands.
        op(0, Op::AtomicStore { addr: Addr(0x100) }),
        op(1, Op::AtomicLoad { addr: Addr(0x100) }),
        op(
            1,
            Op::AtomicLoad {
                addr: Addr(0xFFFF_0000_4000_0000),
            },
        ),
        op(0, Op::RelaxedStore { addr: Addr(0x140) }),
        op(1, Op::RelaxedLoad { addr: Addr(0x140) }),
        op(
            1,
            Op::RelaxedRmw {
                addr: Addr(0xDEAD_BEEF_0000),
            },
        ),
        op(
            1,
            Op::CondWait {
                cond: CondId(0),
                lock: LockId(3),
            },
        ),
        op(0, Op::NotifyOne { cond: CondId(0) }),
        op(
            1,
            Op::CondWake {
                cond: CondId(0),
                lock: LockId(3),
            },
        ),
        op(0, Op::NotifyAll { cond: CondId(700) }),
        op(
            1,
            Op::CondWait {
                cond: CondId(700),
                lock: LockId(90_000),
            },
        ),
        op(0, Op::Lock { lock: LockId(3) }),
        op(0, Op::Unlock { lock: LockId(3) }),
        op(
            1,
            Op::Barrier {
                barrier: BarrierId(0),
                participants: 2,
            },
        ),
        TraceRecord::Event(TraceEvent::BarrierReleased {
            barrier: BarrierId(0),
            participants: vec![ThreadId(1), ThreadId(0)],
        }),
        op(0, Op::Post { sem: SemId(2) }),
        op(1, Op::WaitSem { sem: SemId(2) }),
        op(1, Op::Compute { cycles: 900 }),
        TraceRecord::HitmSample {
            core: 1,
            addr: Addr(0x140),
        },
        op(0, Op::Join { child: ThreadId(1) }),
        TraceRecord::Event(TraceEvent::ThreadFinished { tid: ThreadId(1) }),
        TraceRecord::Event(TraceEvent::ThreadFinished { tid: ThreadId(0) }),
    ]
}

fn encode(records: &[TraceRecord], threshold: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = TraceWriter::with_flush_threshold(&mut bytes, threshold).unwrap();
    for r in records {
        w.record(r);
    }
    w.finish().unwrap();
    bytes
}

fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    let mut records = Vec::new();
    TraceReader::new(bytes)?.for_each_record(|r| records.push(r.clone()))?;
    Ok(records)
}

#[test]
fn v2_records_roundtrip_at_every_frame_threshold() {
    let records = all_v2_records();
    for threshold in [1usize, 7, 64 * 1024] {
        let bytes = encode(&records, threshold);
        assert_eq!(decode(&bytes).unwrap(), records, "threshold {threshold}");
    }
}

#[test]
fn golden_v2_trace_bytes_are_pinned() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_v2_allops.ddrt");
    // Threshold 7 forces several small frames, so the pin covers frame
    // chunking of the new record types, not just their bodies.
    let actual = encode(&all_v2_records(), 7);
    if std::env::var("DDRACE_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun with DDRACE_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "version-{FORMAT_VERSION} trace bytes changed ({} vs {} bytes); a \
         layout change needs a FORMAT_VERSION bump and a DDRACE_UPDATE_GOLDEN=1 \
         regeneration",
        expected.len(),
        actual.len()
    );
}

#[test]
fn version_1_traces_still_decode() {
    // Bytes recorded by the version-1 writer, pinned before the v2 bump.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_v1.ddrt");
    let bytes = std::fs::read(&path).unwrap();
    let reader = TraceReader::new(bytes.as_slice()).unwrap();
    assert_eq!(reader.version(), 1);
    let mut events = 0u64;
    reader
        .for_each_record(|record| events += u64::from(matches!(record, TraceRecord::Event(_))))
        .unwrap();
    assert!(events > 100, "v1 fixture decoded only {events} events");
}

#[test]
fn current_writer_declares_version_2() {
    let bytes = encode(&all_v2_records(), 64 * 1024);
    assert_eq!(FORMAT_VERSION, 2);
    assert_eq!(&bytes[6..8], &2u16.to_le_bytes());
    let reader = TraceReader::new(bytes.as_slice()).unwrap();
    assert_eq!(reader.version(), 2);
}

#[test]
fn v2_opcodes_in_a_v1_trace_are_corrupt() {
    // Splice scenario: a trace body using the v2 vocabulary under a
    // header that claims version 1. Every v2-only record must be
    // refused — decoding it as v1 would silently misattribute ops.
    let v2_only: Vec<TraceRecord> = all_v2_records()
        .into_iter()
        .filter(|r| {
            matches!(
                r,
                TraceRecord::Event(TraceEvent::Op {
                    op: Op::AtomicLoad { .. }
                        | Op::AtomicStore { .. }
                        | Op::RelaxedLoad { .. }
                        | Op::RelaxedStore { .. }
                        | Op::RelaxedRmw { .. }
                        | Op::CondWait { .. }
                        | Op::CondWake { .. }
                        | Op::NotifyOne { .. }
                        | Op::NotifyAll { .. },
                    ..
                })
            )
        })
        .collect();
    assert_eq!(v2_only.len(), 9 + 2, "one record per new op plus extras");
    for record in v2_only {
        let mut bytes = encode(std::slice::from_ref(&record), 64 * 1024);
        bytes[6] = 1; // claim version 1
        let err = decode(&bytes).unwrap_err();
        match err {
            TraceError::Corrupt { ref detail, .. } => assert!(
                detail.contains("requires format version 2"),
                "{record:?}: {detail}"
            ),
            other => panic!("{record:?}: expected Corrupt, got {other}"),
        }
    }
}

#[test]
fn v1_vocabulary_decodes_under_either_version_header() {
    // Records that exist in both versions decode identically whether the
    // header says 1 or 2.
    let old: Vec<TraceRecord> = vec![
        op(0, Op::Read { addr: Addr(0x40) }),
        op(0, Op::Lock { lock: LockId(1) }),
        op(0, Op::Unlock { lock: LockId(1) }),
    ];
    let mut bytes = encode(&old, 64 * 1024);
    assert_eq!(decode(&bytes).unwrap(), old);
    bytes[6] = 1;
    assert_eq!(decode(&bytes).unwrap(), old);
}

#[test]
fn truncating_v2_records_is_always_detected() {
    let bytes = encode(&all_v2_records(), 7);
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "cut at {cut} of {} decoded cleanly",
            bytes.len()
        );
    }
}

#[test]
fn corrupting_any_byte_never_panics_and_gates_hold() {
    // Flipping any single byte must either decode to *some* record list
    // (varint payload bytes are not self-checking) or produce an error —
    // never a panic. This sweeps every byte of a trace full of v2 records.
    let bytes = encode(&all_v2_records(), 7);
    for i in 0..bytes.len() {
        for delta in [0x01u8, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= delta;
            let _ = decode(&corrupt);
        }
    }
}

#[test]
fn unknown_future_opcode_is_refused() {
    // The byte after OP_NOTIFY_ALL (23) is unused in v2; a trace using it
    // must be refused as corrupt, proving the opcode space is closed.
    let mut bytes = encode(&[op(0, Op::NotifyAll { cond: CondId(1) })], 64 * 1024);
    // The notify record is the only stream payload; find its opcode byte
    // (value 23) and bump it into unassigned space.
    let idx = bytes.iter().rposition(|&b| b == 23).unwrap();
    bytes[idx] = 24;
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(err, TraceError::Corrupt { ref detail, .. }
            if detail.contains("unknown record opcode")),
        "{err}"
    );
}
