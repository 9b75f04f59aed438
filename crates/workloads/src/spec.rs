//! Workload specifications: the parameter vector that shapes a synthetic
//! benchmark, and its lowering to a runnable [`Program`].
//!
//! We cannot ship Phoenix or PARSEC; what the paper's mechanism actually
//! responds to is each program's **sharing profile** — how many of its
//! memory accesses communicate between threads, in what pattern, and how
//! the phases are structured. A [`WorkloadSpec`] captures exactly those
//! knobs, and the `phoenix` and `parsec` modules instantiate one spec per
//! benchmark with numbers shaped to the published characteristics.

use crate::phases::{Phase, PlanStream};
use crate::scale::Scale;
use ddrace_program::{
    AddressSpace, BarrierId, OpStream, Program, Region, SemId, StartMode, ThreadId,
};

/// First lock id of the per-hot-word lock range used by guarded hot
/// updates; ordinary accumulator locks start at 0, so the ranges never
/// collide (no workload uses anywhere near this many bucket locks).
pub const HOT_LOCK_BASE: u32 = 1 << 16;

/// Which suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Phoenix-like map-reduce kernels (low sharing).
    Phoenix,
    /// PARSEC-like applications (moderate-to-heavy sharing).
    Parsec,
    /// Hand-written racy kernels.
    Kernel,
    /// A recorded trace file ingested as a campaign workload slot; the
    /// program comes from the trace, not from a generator.
    Trace,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Suite::Phoenix => "phoenix",
            Suite::Parsec => "parsec",
            Suite::Kernel => "kernel",
            Suite::Trace => "trace",
        };
        f.write_str(s)
    }
}

/// Per-iteration, per-worker behaviour of a fork-join workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterProfile {
    /// Private work ops (reads/writes/compute over the private region).
    pub private_ops: u64,
    /// Percent of private memory ops that are reads.
    pub private_read_pct: u8,
    /// Percent of private ops that are pure compute.
    pub compute_pct: u8,
    /// Reads of the shared read-mostly region (input data).
    pub shared_reads: u64,
    /// Read+write pairs on hot shared words (true W→R communication).
    pub shared_rw_pairs: u64,
    /// Lock-protected updates of shared accumulators.
    pub locked_updates: u64,
    /// Atomic RMWs on shared counters.
    pub atomic_ops: u64,
    /// **Unprotected** shared read+write pairs (injected races); 0 in
    /// clean benchmarks.
    pub racy_pairs: u64,
}

impl IterProfile {
    /// A profile that only does private work.
    pub fn private_only(private_ops: u64) -> Self {
        IterProfile {
            private_ops,
            private_read_pct: 70,
            compute_pct: 20,
            shared_reads: 0,
            shared_rw_pairs: 0,
            locked_updates: 0,
            atomic_ops: 0,
            racy_pairs: 0,
        }
    }
}

/// Which synchronization backend a bounded channel archetype uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelBackend {
    /// Mutex plus `not_empty`/`not_full` condition variables.
    Condvar,
    /// Acquire/release atomics on `head`/`tail` with semaphore-modeled
    /// futex parking for backpressure.
    AtomicRing,
}

/// The parallel structure of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Main forks workers; workers run `iterations` phases (optionally
    /// barrier-separated); main joins and merges.
    ForkJoin {
        /// Number of iterations.
        iterations: u32,
        /// Whether workers synchronize at a barrier between iterations.
        barrier_per_iter: bool,
    },
    /// Workers form a pipeline of stages connected by semaphores and
    /// shared buffers (dedup/ferret/x264-style).
    Pipeline {
        /// Items flowing through the pipeline.
        items: u64,
        /// Private work ops per item per stage.
        work_per_item: u64,
        /// Words copied through each inter-stage buffer slot.
        slot_words: u64,
    },
    /// A two-thread producer/consumer kernel: the producer writes shared
    /// words, streams through private data to evict them, and only then
    /// does the consumer read — the HITM indicator's worst case (see
    /// [`racy::delayed_sharing`](crate::racy::delayed_sharing)), swept by
    /// experiment A3's cache ladder.
    DelayedSharing {
        /// Shared words written per round.
        words: u64,
        /// Bytes of private streaming between write and read.
        delay_bytes: u64,
        /// Write→evict→read rounds at `Scale::SMALL`. Other scales
        /// multiply this, floored at 2 — a single round is undetectable
        /// by construction, so scaling below 2 would degenerate the
        /// experiment.
        rounds: u32,
    },
    /// Bounded producer/consumer channels (`workers / 2` pairs): see
    /// [`archetypes::channel_condvar_program`](crate::archetypes::channel_condvar_program)
    /// and [`archetypes::channel_ring_program`](crate::archetypes::channel_ring_program).
    Channel {
        /// Synchronization backend.
        backend: ChannelBackend,
        /// Ring capacity in slots.
        capacity: u64,
        /// Items pushed through each channel at `Scale::SMALL` (scaled,
        /// floored at `capacity + 1` so the backpressure path always
        /// executes).
        items: u64,
        /// Private ops per item on each side.
        work: u64,
    },
    /// Work-stealing task pool with CAS-based deques: see
    /// [`archetypes::task_pool_program`](crate::archetypes::task_pool_program).
    TaskPool {
        /// Tasks each worker pushes at `Scale::SMALL` (scaled, floored
        /// at `steal_every` so every worker steals at least once).
        tasks_per_worker: u64,
        /// Compute cycles per task.
        work_per_task: u32,
        /// Every n-th task is stolen from the next worker's deque.
        steal_every: u64,
    },
    /// Double-checked initialization (`workers` readers): see
    /// [`archetypes::double_checked_init_program`](crate::archetypes::double_checked_init_program).
    DoubleCheckedInit {
        /// Private warm-up reads per reader before the flag check
        /// (scaled; keeps the publication ahead of every acquire under
        /// the fair scheduler).
        pad: u64,
        /// `true` lowers the flag to relaxed atomics — the broken,
        /// planted-race variant.
        relaxed: bool,
    },
}

/// A complete synthetic benchmark description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name (e.g. "kmeans").
    pub name: String,
    /// The suite it models.
    pub suite: Suite,
    /// Worker thread count (total threads = workers + main).
    pub workers: u32,
    /// Parallel structure.
    pub structure: Structure,
    /// Per-iteration worker behaviour (fork-join structures).
    pub iter: IterProfile,
    /// Words of shared data main initializes before forking (one-time
    /// W→R sharing when workers first read it).
    pub init_shared_words: u64,
    /// Words of shared data main reads after joining (final merge).
    pub final_merge_words: u64,
    /// Bytes of private working set per worker.
    pub private_bytes: u64,
    /// Bytes of the shared region.
    pub shared_bytes: u64,
    /// Hot shared words targeted by `shared_rw_pairs` and `atomic_ops`.
    pub hot_words: u64,
    /// Lock buckets protecting shared accumulators.
    pub lock_count: u32,
}

impl WorkloadSpec {
    /// Total threads including main.
    pub fn total_threads(&self) -> u32 {
        self.workers + 1
    }

    /// A stub spec occupying a campaign workload slot for a recorded
    /// trace file: the trace supplies the execution, so every generator
    /// knob is zero. [`WorkloadSpec::program`] on a stub yields an empty
    /// program; the harness never calls it for trace jobs.
    pub fn trace_stub(name: impl Into<String>) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            suite: Suite::Trace,
            workers: 0,
            structure: Structure::ForkJoin {
                iterations: 0,
                barrier_per_iter: false,
            },
            iter: IterProfile::private_only(0),
            init_shared_words: 0,
            final_merge_words: 0,
            private_bytes: 0,
            shared_bytes: 0,
            hot_words: 0,
            lock_count: 0,
        }
    }

    /// Returns a copy with `pairs` unprotected racy pairs injected per
    /// iteration (or per pipeline stage) — the racy variant used in
    /// detection-accuracy experiments.
    pub fn with_injected_race(&self, pairs: u64) -> WorkloadSpec {
        let mut spec = self.clone();
        spec.name = format!("{}+race", self.name);
        spec.iter.racy_pairs = pairs;
        spec
    }

    /// Builds the runnable program at `scale` with deterministic
    /// randomness derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero workers).
    pub fn program(&self, scale: Scale, seed: u64) -> Program {
        assert!(self.workers >= 1, "a workload needs at least one worker");
        match self.structure {
            Structure::ForkJoin {
                iterations,
                barrier_per_iter,
            } => self.fork_join_program(scale, seed, iterations, barrier_per_iter),
            Structure::Pipeline {
                items,
                work_per_item,
                slot_words,
            } => self.pipeline_program(scale, seed, items, work_per_item, slot_words),
            Structure::DelayedSharing {
                words,
                delay_bytes,
                rounds,
            } => {
                // The kernel is fully deterministic (no jittered phases),
                // so the seed only feeds the fingerprint; scale acts on
                // the round count.
                let rounds = scale.apply(u64::from(rounds)).max(2) as u32;
                crate::racy::delayed_sharing(words, delay_bytes, rounds)
            }
            Structure::Channel {
                backend,
                capacity,
                items,
                work,
            } => {
                let pairs = (self.workers / 2).max(1);
                let items = scale.apply(items).max(capacity + 1);
                match backend {
                    ChannelBackend::Condvar => {
                        crate::archetypes::channel_condvar_program(pairs, capacity, items, work)
                    }
                    ChannelBackend::AtomicRing => {
                        crate::archetypes::channel_ring_program(pairs, capacity, items, work)
                    }
                }
            }
            Structure::TaskPool {
                tasks_per_worker,
                work_per_task,
                steal_every,
            } => {
                let tasks = scale.apply(tasks_per_worker).max(steal_every);
                crate::archetypes::task_pool_program(
                    self.workers.max(2),
                    tasks,
                    work_per_task,
                    steal_every,
                )
            }
            Structure::DoubleCheckedInit { pad, relaxed } => {
                // One worker is the initializer, the rest are readers.
                crate::archetypes::double_checked_init_program(
                    self.workers.max(2) - 1,
                    scale.apply(pad).max(64),
                    relaxed,
                )
            }
        }
    }

    fn worker_seed(seed: u64, tid: u32) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(tid) * 0x517C_C1B7)
    }

    fn fork_join_program(
        &self,
        scale: Scale,
        seed: u64,
        iterations: u32,
        barrier_per_iter: bool,
    ) -> Program {
        let mut space = AddressSpace::new();
        // Read-only input (scans) and read-write accumulators live in
        // separate regions, like real programs: unsynchronized reads of
        // the input never alias lock-protected accumulator words.
        let input = space.alloc_region(self.shared_bytes.max(64));
        // Guarded hot words (SharedRw + AtomicOps) and lock-protected
        // accumulators are disjoint: one word, one synchronization
        // discipline.
        let hot = space.alloc_region((self.hot_words * 2 * 8).max(128));
        let accum = space.alloc_region(self.shared_bytes.max(4096));
        let racy = space.alloc_region(256);
        let privates: Vec<Region> = (0..self.workers)
            .map(|w| space.alloc_private(ThreadId(w + 1), self.private_bytes.max(64)))
            .collect();

        // Main thread: init, fork all, join all, merge.
        let mut main_plan = Vec::new();
        let init = scale.apply(self.init_shared_words);
        if init > 0 {
            main_plan.push(Phase::WriteSeq {
                region: input,
                ops: init,
            });
        }
        for w in 0..self.workers {
            main_plan.push(Phase::Fork(ThreadId(w + 1)));
        }
        for w in 0..self.workers {
            main_plan.push(Phase::Join(ThreadId(w + 1)));
        }
        let merge = scale.apply(self.final_merge_words);
        if merge > 0 {
            main_plan.push(Phase::ReadSeq {
                region: accum,
                ops: merge,
            });
        }

        let mut streams: Vec<Box<dyn OpStream>> = vec![Box::new(PlanStream::new(
            main_plan,
            Self::worker_seed(seed, 0),
        ))];

        for w in 0..self.workers {
            let mut plan = Vec::new();
            for _ in 0..iterations {
                self.push_iteration(
                    &mut plan,
                    scale,
                    privates[w as usize],
                    input,
                    hot,
                    accum,
                    racy,
                );
                if barrier_per_iter && self.workers > 1 {
                    plan.push(Phase::Barrier {
                        id: BarrierId(0),
                        participants: self.workers,
                    });
                }
            }
            streams.push(Box::new(PlanStream::new(
                plan,
                Self::worker_seed(seed, w + 1),
            )));
        }
        Program::new(streams, StartMode::ForkExplicit)
    }

    #[allow(clippy::too_many_arguments)]
    fn push_iteration(
        &self,
        plan: &mut Vec<Phase>,
        scale: Scale,
        private: Region,
        input: Region,
        hot: Region,
        accum: Region,
        racy: Region,
    ) {
        let it = &self.iter;
        let shared_reads = scale.apply(it.shared_reads);
        if shared_reads > 0 {
            plan.push(Phase::SharedReads {
                region: input,
                ops: shared_reads,
            });
        }
        let private_ops = scale.apply(it.private_ops);
        if private_ops > 0 {
            plan.push(Phase::PrivateMix {
                region: private,
                ops: private_ops,
                read_pct: it.private_read_pct,
                compute_pct: it.compute_pct,
            });
        }
        let rw = scale.apply(it.shared_rw_pairs);
        if rw > 0 {
            plan.push(Phase::SharedRw {
                region: hot,
                pairs: rw,
                hot_words: self.hot_words.max(1),
                lock_base: HOT_LOCK_BASE,
            });
        }
        let locked = scale.apply(it.locked_updates);
        if locked > 0 {
            plan.push(Phase::LockedUpdates {
                lock_base: 0,
                lock_count: self.lock_count.max(1),
                region: accum,
                updates: locked,
            });
        }
        let atomics = scale.apply(it.atomic_ops);
        if atomics > 0 {
            plan.push(Phase::AtomicOps {
                region: hot,
                ops: atomics,
                hot_words: self.hot_words.max(1),
            });
        }
        let racy_pairs = scale.apply(it.racy_pairs);
        if racy_pairs > 0 {
            plan.push(Phase::RacyPairs {
                region: racy,
                pairs: racy_pairs,
            });
        }
    }

    fn pipeline_program(
        &self,
        scale: Scale,
        seed: u64,
        items: u64,
        work_per_item: u64,
        slot_words: u64,
    ) -> Program {
        let stages = self.workers;
        let items = scale.apply(items);
        let mut space = AddressSpace::new();
        // One buffer between consecutive stages, sized for all items.
        let buffers: Vec<Region> = (0..stages.saturating_sub(1))
            .map(|_| space.alloc_region((items * slot_words * 8).max(64)))
            .collect();
        let scratches: Vec<Region> = (0..stages)
            .map(|s| space.alloc_private(ThreadId(s + 1), self.private_bytes.max(64)))
            .collect();
        let racy = space.alloc_region(256);

        let mut main_plan = Vec::new();
        for w in 0..stages {
            main_plan.push(Phase::Fork(ThreadId(w + 1)));
        }
        for w in 0..stages {
            main_plan.push(Phase::Join(ThreadId(w + 1)));
        }
        let mut streams: Vec<Box<dyn OpStream>> = vec![Box::new(PlanStream::new(
            main_plan,
            Self::worker_seed(seed, 0),
        ))];

        for s in 0..stages {
            let mut plan = Vec::new();
            plan.push(Phase::PipelineStage {
                in_sem: (s > 0).then(|| SemId(s - 1)),
                out_sem: (s + 1 < stages).then_some(SemId(s)),
                items,
                in_buf: (s > 0).then(|| buffers[(s - 1) as usize]),
                out_buf: (s + 1 < stages).then(|| buffers[s as usize]),
                work: work_per_item,
                scratch: scratches[s as usize],
                slot_words,
            });
            let racy_pairs = scale.apply(self.iter.racy_pairs);
            if racy_pairs > 0 {
                plan.push(Phase::RacyPairs {
                    region: racy,
                    pairs: racy_pairs,
                });
            }
            streams.push(Box::new(PlanStream::new(
                plan,
                Self::worker_seed(seed, s + 1),
            )));
        }
        Program::new(streams, StartMode::ForkExplicit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrace_program::{run_program, NullListener, SchedulerConfig, StatsCollector};

    fn basic_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test".into(),
            suite: Suite::Kernel,
            workers: 3,
            structure: Structure::ForkJoin {
                iterations: 2,
                barrier_per_iter: true,
            },
            iter: IterProfile {
                private_ops: 100,
                private_read_pct: 60,
                compute_pct: 10,
                shared_reads: 20,
                shared_rw_pairs: 5,
                locked_updates: 5,
                atomic_ops: 3,
                racy_pairs: 0,
            },
            init_shared_words: 50,
            final_merge_words: 20,
            private_bytes: 4096,
            shared_bytes: 4096,
            hot_words: 4,
            lock_count: 4,
        }
    }

    #[test]
    fn fork_join_program_runs_cleanly() {
        let program = basic_spec().program(Scale::SMALL, 1);
        assert_eq!(program.thread_count(), 4);
        let mut c = StatsCollector::new(NullListener);
        let stats = run_program(program, SchedulerConfig::jittered(5), &mut c).unwrap();
        assert_eq!(stats.orphan_threads, 0);
        let counts = c.counts();
        assert_eq!(counts.forks, 3);
        assert_eq!(counts.joins, 3);
        assert_eq!(counts.barriers, 6); // 3 workers × 2 iterations
        assert!(counts.locks >= 1);
        assert_eq!(counts.locks, counts.unlocks);
        assert!(counts.atomics >= 9); // 3 workers × 2 iters × 3
    }

    #[test]
    fn pipeline_program_runs_cleanly() {
        let spec = WorkloadSpec {
            structure: Structure::Pipeline {
                items: 20,
                work_per_item: 10,
                slot_words: 4,
            },
            workers: 4,
            ..basic_spec()
        };
        let program = spec.program(Scale::SMALL, 2);
        let mut c = StatsCollector::new(NullListener);
        let stats = run_program(program, SchedulerConfig::jittered(9), &mut c).unwrap();
        assert_eq!(stats.orphan_threads, 0);
        let counts = c.counts();
        // 3 inter-stage semaphores × 20 items.
        assert_eq!(counts.posts, 60);
        assert_eq!(counts.waits, 60);
    }

    #[test]
    fn scale_changes_op_counts() {
        let spec = basic_spec();
        let count_at = |scale: Scale| {
            let mut c = StatsCollector::new(NullListener);
            run_program(spec.program(scale, 1), SchedulerConfig::default(), &mut c).unwrap();
            c.counts().total()
        };
        assert!(count_at(Scale::TEST) < count_at(Scale::SMALL));
        assert!(count_at(Scale::SMALL) < count_at(Scale::LARGE));
    }

    #[test]
    fn injected_race_variant() {
        let spec = basic_spec().with_injected_race(8);
        assert_eq!(spec.name, "test+race");
        assert_eq!(spec.iter.racy_pairs, 8);
        // The clean spec is untouched.
        assert_eq!(basic_spec().iter.racy_pairs, 0);
        let program = spec.program(Scale::TEST, 3);
        run_program(program, SchedulerConfig::default(), &mut NullListener).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = basic_spec();
        let trace = |seed: u64| {
            let mut ops = Vec::new();
            run_program(
                spec.program(Scale::TEST, seed),
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
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }

    #[test]
    fn total_threads_accounts_for_main() {
        assert_eq!(basic_spec().total_threads(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let spec = WorkloadSpec {
            workers: 0,
            ..basic_spec()
        };
        let _ = spec.program(Scale::TEST, 0);
    }

    #[test]
    fn single_worker_fork_join_skips_barriers() {
        let spec = WorkloadSpec {
            workers: 1,
            ..basic_spec()
        };
        let program = spec.program(Scale::TEST, 0);
        let mut c = StatsCollector::new(NullListener);
        run_program(program, SchedulerConfig::default(), &mut c).unwrap();
        assert_eq!(c.counts().barriers, 0);
    }
}

ddrace_json::json_unit_enum!(Suite {
    Phoenix,
    Parsec,
    Kernel,
    Trace
});
ddrace_json::json_struct!(IterProfile {
    private_ops,
    private_read_pct,
    compute_pct,
    shared_reads,
    shared_rw_pairs,
    locked_updates,
    atomic_ops,
    racy_pairs
});
ddrace_json::json_unit_enum!(ChannelBackend {
    Condvar,
    AtomicRing
});
ddrace_json::json_enum!(Structure {
    ForkJoin { iterations, barrier_per_iter },
    Pipeline { items, work_per_item, slot_words },
    DelayedSharing { words, delay_bytes, rounds },
    Channel { backend, capacity, items, work },
    TaskPool { tasks_per_worker, work_per_task, steal_every },
    DoubleCheckedInit { pad, relaxed }
});
ddrace_json::json_struct!(WorkloadSpec {
    name,
    suite,
    workers,
    structure,
    iter,
    init_shared_words,
    final_merge_words,
    private_bytes,
    shared_bytes,
    hot_words,
    lock_count
});
