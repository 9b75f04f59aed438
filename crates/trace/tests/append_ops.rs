//! `TraceWriter::append_ops` against one `record_event` per record: a run
//! of pre-encoded op records must produce the same bytes, with every
//! frame closing after the same record, whatever the frame threshold,
//! the run length, the op kinds and the varint widths.

use ddrace_program::{Addr, BarrierId, CondId, LockId, Op, SemId, ThreadId, TraceEvent};
use ddrace_trace::{EncodedOps, TraceWriter, DEFAULT_FLUSH_THRESHOLD};

/// A value whose varint is `1 + r % 11` bytes long (`u64::MAX` at 10).
fn wide(r: u64) -> u64 {
    match r % 11 {
        10 => u64::MAX,
        k => (1 << (7 * k)) | (r & 0x3f),
    }
}

/// A `u32` whose varint is `1 + r % 6` bytes long (`u32::MAX` at 5).
fn narrow(r: u64) -> u32 {
    match r % 6 {
        5 => u32::MAX,
        k => (1 << (7 * k)) | (r & 0x3f) as u32,
    }
}

/// The `i`th op: the 20 kinds in turn; each kind's `j`th occurrence
/// takes the `j`th varint width, so 220 ops see every kind at every
/// width, and two-varint ops see every pair of widths.
fn op(i: u64) -> Op {
    let j = i / 20;
    let addr = Addr(wide(j));
    let (a, b) = (narrow(j), narrow(j / 6));
    match i % 20 {
        0 => Op::Read { addr },
        1 => Op::Write { addr },
        2 => Op::AtomicRmw { addr },
        3 => Op::AtomicLoad { addr },
        4 => Op::AtomicStore { addr },
        5 => Op::RelaxedLoad { addr },
        6 => Op::RelaxedStore { addr },
        7 => Op::RelaxedRmw { addr },
        8 => Op::Lock { lock: LockId(a) },
        9 => Op::Unlock { lock: LockId(a) },
        10 => Op::Barrier {
            barrier: BarrierId(a),
            participants: b,
        },
        11 => Op::Fork { child: ThreadId(a) },
        12 => Op::Join { child: ThreadId(a) },
        13 => Op::Post { sem: SemId(a) },
        14 => Op::WaitSem { sem: SemId(a) },
        15 => Op::CondWait {
            cond: CondId(a),
            lock: LockId(b),
        },
        16 => Op::CondWake {
            cond: CondId(a),
            lock: LockId(b),
        },
        17 => Op::NotifyOne { cond: CondId(a) },
        18 => Op::NotifyAll { cond: CondId(a) },
        _ => Op::Compute { cycles: a },
    }
}

/// Writes the same records twice at `threshold`: one `record_event` per
/// record, and with every run of `run` ops handed to `append_ops`.
/// Single records on other streams sit between runs, so runs start at
/// varied payload offsets; some runs follow a run of another stream
/// directly, and some extend a run of their own stream.
fn both_ways(threshold: usize, run: u64) -> (Vec<u8>, Vec<u8>) {
    let mut per_record = TraceWriter::with_flush_threshold(Vec::new(), threshold).unwrap();
    let mut batched = TraceWriter::with_flush_threshold(Vec::new(), threshold).unwrap();
    let mut ops = EncodedOps::default();
    let mut i = 0;
    for round in 0..3u32 {
        for stream in [0u32, 1, 2, 2] {
            if stream != 2 {
                let single = TraceEvent::Op {
                    tid: ThreadId(stream),
                    op: Op::Lock {
                        lock: LockId(round),
                    },
                };
                per_record.record_event(&single);
                batched.record_event(&single);
            }
            for _ in 0..run {
                let op = op(i);
                i += 1;
                per_record.record_event(&TraceEvent::Op {
                    tid: ThreadId(stream),
                    op,
                });
                ops.push(&op);
            }
            assert_eq!(ops.len() as u64, run);
            batched.append_ops(stream, &mut ops);
            assert!(ops.is_empty(), "append_ops empties its input");
            // An empty run appends nothing.
            batched.append_ops(stream, &mut ops);
        }
    }
    assert_eq!(per_record.records_written(), batched.records_written());
    (per_record.finish().unwrap(), batched.finish().unwrap())
}

#[test]
fn appended_runs_match_per_record_bytes() {
    let ops: Vec<Op> = (0..1024).map(op).collect();
    for widest in [
        Op::Read {
            addr: Addr(u64::MAX),
        },
        Op::Compute { cycles: u32::MAX },
        Op::CondWake {
            cond: CondId(u32::MAX),
            lock: LockId(u32::MAX),
        },
    ] {
        assert!(ops.contains(&widest), "{widest:?}");
    }

    for threshold in [1, 2, 3, 7, 64, 1000, DEFAULT_FLUSH_THRESHOLD] {
        for run in [1, 7, 64, 1024] {
            let (per_record, batched) = both_ways(threshold, run);
            assert!(
                per_record == batched,
                "threshold {threshold}, runs of {run}: {} bytes per record, {} appended",
                per_record.len(),
                batched.len()
            );
        }
    }
}
