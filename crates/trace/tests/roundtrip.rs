//! Property-based round-trip tests: record → read back = original
//! record sequence, for arbitrary event mixes, thread counts, and frame
//! flush thresholds — and truncation anywhere in the byte stream is
//! detected, never mis-decoded.

use ddrace_program::{Addr, BarrierId, CondId, LockId, Op, SemId, ThreadId, TraceEvent};
use ddrace_trace::{TraceReader, TraceRecord, TraceWriter};
use proptest::prelude::*;

fn arb_record(threads: u32) -> impl Strategy<Value = TraceRecord> {
    let tid = 0..threads;
    prop_oneof![
        6 => (tid.clone(), any::<u64>()).prop_map(|(t, a)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::Read { addr: Addr(a) },
        })),
        6 => (tid.clone(), any::<u64>()).prop_map(|(t, a)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::Write { addr: Addr(a) },
        })),
        2 => (tid.clone(), 0u32..64).prop_map(|(t, l)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::Lock { lock: LockId(l) },
        })),
        2 => (tid.clone(), 0u32..64).prop_map(|(t, l)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::Unlock { lock: LockId(l) },
        })),
        1 => (tid.clone(), any::<u64>()).prop_map(|(t, a)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::AtomicRmw { addr: Addr(a) },
        })),
        1 => (tid.clone(), any::<u64>()).prop_map(|(t, a)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::AtomicLoad { addr: Addr(a) },
        })),
        1 => (tid.clone(), any::<u64>()).prop_map(|(t, a)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::AtomicStore { addr: Addr(a) },
        })),
        1 => (tid.clone(), any::<u64>()).prop_map(|(t, a)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::RelaxedLoad { addr: Addr(a) },
        })),
        1 => (tid.clone(), any::<u64>()).prop_map(|(t, a)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::RelaxedStore { addr: Addr(a) },
        })),
        1 => (tid.clone(), any::<u64>()).prop_map(|(t, a)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::RelaxedRmw { addr: Addr(a) },
        })),
        1 => (tid.clone(), 0u32..8, 0u32..8).prop_map(|(t, c, l)| {
            TraceRecord::Event(TraceEvent::Op {
                tid: ThreadId(t),
                op: Op::CondWait { cond: CondId(c), lock: LockId(l) },
            })
        }),
        1 => (tid.clone(), 0u32..8, 0u32..8).prop_map(|(t, c, l)| {
            TraceRecord::Event(TraceEvent::Op {
                tid: ThreadId(t),
                op: Op::CondWake { cond: CondId(c), lock: LockId(l) },
            })
        }),
        1 => (tid.clone(), 0u32..8).prop_map(|(t, c)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::NotifyOne { cond: CondId(c) },
        })),
        1 => (tid.clone(), 0u32..8).prop_map(|(t, c)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::NotifyAll { cond: CondId(c) },
        })),
        1 => (tid.clone(), 0u32..8).prop_map(|(t, s)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::Post { sem: SemId(s) },
        })),
        1 => (tid.clone(), 0u32..8).prop_map(|(t, s)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::WaitSem { sem: SemId(s) },
        })),
        1 => (tid.clone(), any::<u32>()).prop_map(|(t, c)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::Compute { cycles: c },
        })),
        1 => (tid.clone(), 0..threads).prop_map(|(t, c)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::Fork { child: ThreadId(c) },
        })),
        1 => (tid.clone(), 0..threads).prop_map(|(t, c)| TraceRecord::Event(TraceEvent::Op {
            tid: ThreadId(t),
            op: Op::Join { child: ThreadId(c) },
        })),
        1 => (tid.clone(), 0..threads).prop_map(|(t, p)| {
            TraceRecord::Event(TraceEvent::ThreadStarted {
                tid: ThreadId(t),
                parent: (p != t).then_some(ThreadId(p)),
            })
        }),
        1 => tid.clone().prop_map(|t| TraceRecord::Event(TraceEvent::ThreadFinished {
            tid: ThreadId(t),
        })),
        1 => (0u32..8, proptest::collection::vec(0..threads, 1..5)).prop_map(|(b, ts)| {
            TraceRecord::Event(TraceEvent::BarrierReleased {
                barrier: BarrierId(b),
                participants: ts.into_iter().map(ThreadId).collect(),
            })
        }),
        1 => (0u32..8, any::<u64>()).prop_map(|(c, a)| TraceRecord::HitmSample {
            core: c,
            addr: Addr(a),
        }),
    ]
}

fn arb_records(threads: u32, len: usize) -> impl Strategy<Value = Vec<TraceRecord>> {
    proptest::collection::vec(arb_record(threads), 0..len)
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

fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    TraceReader::new(bytes)
        .and_then(|reader| reader.for_each_record(|r| records.push(r.clone())))
        .map_err(|e| e.to_string())?;
    Ok(records)
}

proptest! {
    /// Write → read back yields the original record sequence in the
    /// original global order, whatever the frame threshold.
    #[test]
    fn roundtrip_preserves_the_record_sequence(
        records in arb_records(6, 200),
        threshold in prop_oneof![Just(1usize), Just(32), Just(64 * 1024)],
    ) {
        let bytes = encode(&records, threshold);
        prop_assert_eq!(decode(&bytes).unwrap(), records);
    }

    /// Encoding is a pure function of the record sequence: same records,
    /// same threshold, same bytes.
    #[test]
    fn encoding_is_deterministic(records in arb_records(4, 120)) {
        prop_assert_eq!(encode(&records, 64), encode(&records, 64));
    }

    /// Truncating the byte stream anywhere strictly inside the file is
    /// always detected as an error — never a silent short decode.
    #[test]
    fn truncation_is_always_detected(
        records in arb_records(4, 80),
        cut_seed in any::<u64>(),
    ) {
        let bytes = encode(&records, 48);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(
            decode(&bytes[..cut]).is_err(),
            "cut at {} of {} decoded cleanly", cut, bytes.len()
        );
    }
}
