//! Hand-written racy kernels for detection-accuracy experiments.
//!
//! Each kernel plants a specific, well-understood race pattern. The
//! accuracy experiments (T2) run them under continuous, demand-HITM, and
//! demand-oracle analysis and compare what each configuration catches.

use crate::spec::{IterProfile, Structure, Suite, WorkloadSpec};
use ddrace_program::{Program, ProgramBuilder, ThreadId};

fn kernel(name: &str, iter: IterProfile, workers: u32) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_string(),
        suite: Suite::Kernel,
        workers,
        structure: Structure::ForkJoin {
            iterations: 1,
            barrier_per_iter: false,
        },
        iter,
        init_shared_words: 32,
        final_merge_words: 32,
        private_bytes: 16 * 1024,
        shared_bytes: 16 * 1024,
        hot_words: 8,
        lock_count: 4,
    }
}

/// `unprotected_counter`: every thread increments shared counters with
/// plain read+write pairs — a dense, always-active race.
pub fn unprotected_counter() -> WorkloadSpec {
    kernel(
        "unprotected_counter",
        IterProfile {
            private_ops: 20_000,
            private_read_pct: 70,
            compute_pct: 10,
            shared_reads: 0,
            shared_rw_pairs: 0,
            locked_updates: 0,
            atomic_ops: 0,
            racy_pairs: 2_000,
        },
        4,
    )
}

/// `sparse_race`: a long, mostly-private run with a tiny number of racy
/// accesses — the hardest case for a demand-driven tool, because the
/// indicator must catch a rare event.
pub fn sparse_race() -> WorkloadSpec {
    kernel(
        "sparse_race",
        IterProfile {
            private_ops: 150_000,
            private_read_pct: 75,
            compute_pct: 15,
            shared_reads: 0,
            shared_rw_pairs: 0,
            locked_updates: 0,
            atomic_ops: 0,
            racy_pairs: 25,
        },
        4,
    )
}

/// `mostly_locked`: updates are lock-protected except for a sliver of
/// unprotected ones mixed in — the classic "forgot the lock on one path"
/// bug.
pub fn mostly_locked() -> WorkloadSpec {
    kernel(
        "mostly_locked",
        IterProfile {
            private_ops: 50_000,
            private_read_pct: 70,
            compute_pct: 10,
            shared_reads: 1_000,
            shared_rw_pairs: 0,
            locked_updates: 3_000,
            atomic_ops: 0,
            racy_pairs: 100,
        },
        4,
    )
}

/// `shared_and_racy`: heavy legitimate sharing *plus* races — checks
/// that real sharing does not drown the racy signal.
pub fn shared_and_racy() -> WorkloadSpec {
    kernel(
        "shared_and_racy",
        IterProfile {
            private_ops: 40_000,
            private_read_pct: 70,
            compute_pct: 10,
            shared_reads: 4_000,
            shared_rw_pairs: 1_500,
            locked_updates: 500,
            atomic_ops: 300,
            racy_pairs: 200,
        },
        4,
    )
}

/// All racy kernels.
pub fn kernels() -> Vec<WorkloadSpec> {
    vec![
        unprotected_counter(),
        sparse_race(),
        mostly_locked(),
        shared_and_racy(),
    ]
}

/// The textbook unsafe-publication bug as an explicit program: the
/// producer writes `data` then raises a plain-write `flag`; the consumer
/// polls `flag` (reads) and then reads `data`. Both the flag and the data
/// accesses race.
///
/// Returns the program; the data word is at a fixed offset so tests can
/// identify the reports.
pub fn racy_publication(poll_iters: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let shared = b.alloc_shared(128);
    let data = shared.base();
    let flag = shared.base().offset(64); // separate cache line
    let consumer = b.add_thread();
    b.on(ThreadId::MAIN)
        .fork(consumer)
        .write(data)
        .write(flag)
        .join(consumer);
    let mut c = b.on(consumer);
    for _ in 0..poll_iters {
        c = c.read(flag).compute(3);
    }
    c.read(data);
    b.build()
}

/// A correctly synchronized variant of [`racy_publication`] using a
/// semaphore: the negative control — no detector should report anything.
pub fn safe_publication() -> Program {
    let mut b = ProgramBuilder::new();
    let shared = b.alloc_shared(128);
    let data = shared.base();
    let ready = b.new_sem();
    let consumer = b.add_thread();
    b.on(ThreadId::MAIN)
        .fork(consumer)
        .write(data)
        .post(ready)
        .join(consumer);
    b.on(consumer).wait_sem(ready).read(data);
    b.build()
}

/// Delayed-consumption race: in each round, a producer writes `words`
/// shared words with no synchronization, streams through `delay_bytes` of
/// private data (evicting its modified lines), and only then does the
/// consumer read the shared words. Every word is racy in every round, but
/// by read time most producer lines have been written back — the HITM
/// indicator's worst case, used by experiment A3.
///
/// The pattern repeats for `rounds` rounds because a demand-driven tool
/// can only ever catch a race whose *writes* fall inside an enabled
/// window: round k's reads may wake the tool, and round k+1 is then fully
/// observed. A single round is undetectable by construction — that, too,
/// is the paper's behaviour.
pub fn delayed_sharing(words: u64, delay_bytes: u64, rounds: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let shared = b.alloc_shared(words * 8);
    let producer = b.add_thread();
    let consumer = b.add_thread();
    let stream = b.alloc_private(producer, delay_bytes.max(64));
    let warmup = b.alloc_private(consumer, delay_bytes.max(64));
    b.on(ThreadId::MAIN)
        .fork(producer)
        .fork(consumer)
        .join(producer)
        .join(consumer);

    let mut p = b.on(producer);
    for _ in 0..rounds.max(1) {
        for i in 0..words {
            p = p.write(shared.word(i));
        }
        // Stream enough private writes to push the shared lines out of
        // the producer's caches.
        for i in 0..delay_bytes / 8 {
            p = p.write(stream.word(i));
        }
    }
    let _ = p;
    let mut c = b.on(consumer);
    for _ in 0..rounds.max(1) {
        // The consumer busies itself long enough that its reads land
        // after the producer's eviction storm (the schedule is fair
        // round-robin).
        for i in 0..(2 * delay_bytes) / 8 + 2 * words {
            c = c.read(warmup.word(i));
        }
        for i in 0..words {
            c = c.read(shared.word(i));
        }
    }
    let _ = c;
    b.build()
}

/// Small deterministic probe programs whose racy/clean status is known
/// by construction: `(name, program, races_expected)`. Conformance tests
/// run every probe through the full detector stack and check that the
/// verdict matches the construction — a fixed-point complement to the
/// random specs the fuzzer generates.
pub fn conformance_probes() -> Vec<(&'static str, Program, bool)> {
    // A lock-protected counter: both threads update the same word, but
    // always under the lock — sharing without a race.
    let locked_counter = {
        let mut b = ProgramBuilder::new();
        let shared = b.alloc_shared(64);
        let x = shared.base();
        let l = b.new_lock();
        let worker = b.add_thread();
        b.on(ThreadId::MAIN)
            .fork(worker)
            .lock(l)
            .read(x)
            .write(x)
            .unlock(l)
            .join(worker);
        b.on(worker).lock(l).read(x).write(x).unlock(l);
        b.build()
    };
    // Barrier-phased halves: each thread writes its own half, the barrier
    // orders the swap, then each reads the other's half — clean.
    let barrier_swap = {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let shared = b.alloc_shared(128);
        let bar = b.new_barrier();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN)
            .write(shared.word(0))
            .barrier(bar, 2)
            .read(shared.word(8));
        b.on(t1)
            .write(shared.word(8))
            .barrier(bar, 2)
            .read(shared.word(0));
        b.build()
    };
    vec![
        ("racy_publication", racy_publication(6), true),
        ("safe_publication", safe_publication(), false),
        ("delayed_sharing", delayed_sharing(8, 256, 2), true),
        ("locked_counter", locked_counter, false),
        ("barrier_swap", barrier_swap, false),
        // Double-checked init: the release store → acquire load pair
        // publishes the payload (clean); the relaxed variant drops the
        // happens-before edge, so the very same access pattern races.
        (
            "dcl_acqrel",
            crate::archetypes::double_checked_init_program(3, 512, false),
            false,
        ),
        (
            "dcl_relaxed",
            crate::archetypes::double_checked_init_program(3, 512, true),
            true,
        ),
    ]
}

/// [`delayed_sharing`] wrapped in a [`WorkloadSpec`] so the campaign
/// harness can sweep it across the mode/variant/seed axes. `rounds` is
/// the `Scale::SMALL` round count; other scales multiply it, floored at
/// 2 (a single round is undetectable by construction).
pub fn delayed_sharing_spec(words: u64, delay_bytes: u64, rounds: u32) -> WorkloadSpec {
    WorkloadSpec {
        name: "delayed_sharing".to_string(),
        suite: Suite::Kernel,
        workers: 2,
        structure: Structure::DelayedSharing {
            words,
            delay_bytes,
            rounds,
        },
        iter: IterProfile::private_only(0),
        init_shared_words: 0,
        final_merge_words: 0,
        private_bytes: delay_bytes.max(64),
        shared_bytes: words * 8,
        hot_words: 0,
        lock_count: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use ddrace_program::{run_program, NullListener, SchedulerConfig};

    #[test]
    fn kernels_are_distinct_and_racy() {
        let ks = kernels();
        assert_eq!(ks.len(), 4);
        for k in &ks {
            assert!(k.iter.racy_pairs > 0, "{} must plant races", k.name);
            assert_eq!(k.suite, Suite::Kernel);
        }
    }

    #[test]
    fn kernels_run_cleanly() {
        for k in kernels() {
            run_program(
                k.program(Scale::TEST, 3),
                SchedulerConfig::jittered(4),
                &mut NullListener,
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", k.name));
        }
    }

    #[test]
    fn delayed_sharing_runs_and_counts() {
        let program = delayed_sharing(64, 4096, 1);
        let mut c = ddrace_program::StatsCollector::new(NullListener);
        run_program(program, SchedulerConfig::default(), &mut c).unwrap();
        // 64 shared writes + 512 stream writes by the producer.
        assert_eq!(c.counts().writes, 64 + 512);
        assert!(c.counts().reads >= 64);
    }

    #[test]
    fn delayed_sharing_spec_matches_direct_program() {
        // At SMALL (identity scale) the spec lowers to the same op stream
        // as calling delayed_sharing directly — the equivalence the A3
        // campaign port relies on.
        let trace = |program: ddrace_program::Program| {
            let mut ops = Vec::new();
            run_program(
                program,
                SchedulerConfig::default(),
                &mut |e: &ddrace_program::TraceEvent| {
                    if let ddrace_program::TraceEvent::Op { tid, op } = e {
                        ops.push((*tid, *op));
                    }
                },
            )
            .unwrap();
            ops
        };
        let spec = delayed_sharing_spec(64, 4096, 3);
        assert_eq!(spec.total_threads(), 3);
        assert_eq!(
            trace(spec.program(Scale::SMALL, 1)),
            trace(delayed_sharing(64, 4096, 3))
        );
        // TEST scale shrinks rounds but never below the 2-round floor.
        assert_eq!(
            trace(spec.program(Scale::TEST, 1)),
            trace(delayed_sharing(64, 4096, 2))
        );
    }

    #[test]
    fn conformance_probes_run_and_have_distinct_names() {
        let probes = conformance_probes();
        let names: std::collections::HashSet<&str> = probes.iter().map(|p| p.0).collect();
        assert_eq!(names.len(), probes.len());
        for (name, program, _) in probes {
            run_program(program, SchedulerConfig::default(), &mut NullListener)
                .unwrap_or_else(|e| panic!("probe {name} failed: {e}"));
        }
    }

    #[test]
    fn publication_programs_run() {
        run_program(
            racy_publication(10),
            SchedulerConfig::default(),
            &mut NullListener,
        )
        .unwrap();
        run_program(
            safe_publication(),
            SchedulerConfig::default(),
            &mut NullListener,
        )
        .unwrap();
    }

    #[test]
    fn sparse_race_is_sparsest() {
        let sparse = sparse_race();
        for k in kernels() {
            if k.name != "sparse_race" {
                assert!(k.iter.racy_pairs > sparse.iter.racy_pairs);
            }
        }
    }
}
