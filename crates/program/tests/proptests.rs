//! Property-based tests for the program model and scheduler.

use ddrace_program::{
    run_program, Addr, LockId, Op, Program, ProgramBuilder, SchedulerConfig, StartMode, ThreadId,
    TraceEvent,
};
use proptest::prelude::*;

/// Generates a structurally valid random program: every lock is acquired
/// and released in a balanced, properly nested way per thread, so the only
/// legal outcome is a clean run.
fn arb_program(max_threads: usize, ops_per_thread: usize) -> impl Strategy<Value = Vec<Vec<Op>>> {
    let thread = proptest::collection::vec(
        prop_oneof![
            (0u64..512).prop_map(|a| Op::Read {
                addr: Addr(0x1000 + a * 8)
            }),
            (0u64..512).prop_map(|a| Op::Write {
                addr: Addr(0x1000 + a * 8)
            }),
            (0u64..64).prop_map(|a| Op::AtomicRmw {
                addr: Addr(0x1000 + a * 8)
            }),
            (1u32..20).prop_map(|c| Op::Compute { cycles: c }),
            // A balanced critical section is inserted as three ops below.
            (0u32..4).prop_map(|l| Op::Lock { lock: LockId(l) }),
        ],
        1..ops_per_thread,
    )
    .prop_map(|ops| {
        // Rewrite: every Lock becomes Lock, Write(shared), Unlock so locks
        // are always balanced and never nested.
        let mut body = Vec::new();
        for op in ops {
            match op {
                Op::Lock { lock } => {
                    body.push(Op::Lock { lock });
                    body.push(Op::Write {
                        addr: Addr(0x9000 + u64::from(lock.0) * 8),
                    });
                    body.push(Op::Unlock { lock });
                }
                other => body.push(other),
            }
        }
        body
    });
    proptest::collection::vec(thread, 1..=max_threads)
}

fn trace_of(threads: Vec<Vec<Op>>, cfg: SchedulerConfig) -> Vec<(ThreadId, Op)> {
    let program = Program::from_thread_vecs(threads, StartMode::AllStart);
    let mut trace = Vec::new();
    run_program(program, cfg, &mut |e: &TraceEvent| {
        if let TraceEvent::Op { tid, op } = e {
            trace.push((*tid, *op));
        }
    })
    .expect("balanced program must run cleanly");
    trace
}

proptest! {
    /// The same program and seed always produce the same interleaving.
    #[test]
    fn scheduler_is_deterministic(
        threads in arb_program(4, 40),
        seed in any::<u64>(),
        quantum in 1u32..16,
    ) {
        let cfg = SchedulerConfig { quantum, seed, jitter: true };
        prop_assert_eq!(trace_of(threads.clone(), cfg), trace_of(threads, cfg));
    }

    /// Every operation of every thread executes exactly once, in program
    /// order per thread, regardless of the interleaving.
    #[test]
    fn all_ops_execute_in_program_order(
        threads in arb_program(4, 40),
        seed in any::<u64>(),
    ) {
        let cfg = SchedulerConfig { quantum: 3, seed, jitter: true };
        let trace = trace_of(threads.clone(), cfg);
        for (i, body) in threads.iter().enumerate() {
            let tid = ThreadId::new(i as u32);
            let executed: Vec<Op> = trace
                .iter()
                .filter(|(t, _)| *t == tid)
                .map(|(_, op)| *op)
                .collect();
            prop_assert_eq!(&executed, body);
        }
    }

    /// Critical sections on the same lock never interleave: between a
    /// thread's Lock and Unlock, no other thread executes an op on that
    /// lock.
    #[test]
    fn critical_sections_are_mutually_exclusive(
        threads in arb_program(4, 30),
        seed in any::<u64>(),
    ) {
        let cfg = SchedulerConfig { quantum: 2, seed, jitter: true };
        let trace = trace_of(threads, cfg);
        let mut holder: std::collections::HashMap<LockId, ThreadId> = Default::default();
        for (tid, op) in trace {
            match op {
                Op::Lock { lock } => {
                    prop_assert!(!holder.contains_key(&lock),
                        "lock {lock} acquired while held");
                    holder.insert(lock, tid);
                }
                Op::Unlock { lock } => {
                    prop_assert_eq!(holder.remove(&lock), Some(tid));
                }
                _ => {}
            }
        }
        prop_assert!(holder.is_empty(), "all locks released at exit");
    }

    /// Scheduler stats agree with the observed trace length.
    #[test]
    fn stats_match_trace(threads in arb_program(3, 25), seed in any::<u64>()) {
        let cfg = SchedulerConfig { quantum: 5, seed, jitter: true };
        let program = Program::from_thread_vecs(threads, StartMode::AllStart);
        let mut n = 0u64;
        let stats = run_program(program, cfg, &mut |e: &TraceEvent| {
            if matches!(e, TraceEvent::Op { .. }) { n += 1; }
        }).unwrap();
        prop_assert_eq!(stats.ops_executed, n);
        prop_assert_eq!(stats.per_thread_ops.iter().sum::<u64>(), n);
    }
}

// A builder-constructed fork/join program exercises ForkExplicit mode
// under arbitrary seeds without deadlocking.
proptest! {
    #[test]
    fn fork_join_programs_complete(seed in any::<u64>(), workers in 1u32..6) {
        let mut b = ProgramBuilder::new();
        let shared = b.alloc_shared(4096);
        let mut tids = Vec::new();
        for _ in 0..workers {
            tids.push(b.add_thread());
        }
        let mut main = b.on(ThreadId::MAIN);
        for &t in &tids {
            main = main.fork(t);
        }
        for &t in &tids {
            main = main.join(t);
        }
        main.read(shared.index(0));
        for (i, &t) in tids.iter().enumerate() {
            b.on(t).write(shared.index(i as u64 * 8)).compute(3);
        }
        let cfg = SchedulerConfig { quantum: 2, seed, jitter: true };
        let stats = run_program(b.build(), cfg, &mut ddrace_program::NullListener).unwrap();
        prop_assert_eq!(stats.orphan_threads, 0);
        prop_assert_eq!(stats.ops_executed, u64::from(workers) * 4 + 1);
    }
}
