//! Phase-based lazy op-stream generation.
//!
//! A thread's behaviour is described as a small *plan* — a sequence of
//! [`Phase`]s — and [`PlanStream`] lowers the plan to operations on
//! demand, so arbitrarily large workloads stream in O(1) memory. All
//! randomness comes from a per-stream seeded RNG: the same plan and seed
//! always produce the same op sequence.

use ddrace_program::{BarrierId, LockId, Op, OpStream, Prng, Region, SemId, ThreadId};
use std::collections::VecDeque;

/// One behavioural phase of a thread's plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phase {
    /// Thread-private work: a random mix of reads, writes and small
    /// computes over a private region. The bread and butter of every
    /// benchmark; produces no sharing.
    PrivateMix {
        /// The thread's private region.
        region: Region,
        /// Number of operations.
        ops: u64,
        /// Percent of memory ops that are reads (vs writes).
        read_pct: u8,
        /// Percent of all ops that are pure compute.
        compute_pct: u8,
    },
    /// Random-word reads of a shared (read-mostly) region.
    SharedReads {
        /// The shared region.
        region: Region,
        /// Number of reads.
        ops: u64,
    },
    /// Read-then-write updates of a small set of hot shared words, each
    /// inside a per-word micro critical section: the write→read
    /// communication pattern the HITM indicator sees. Both the lock word
    /// and the data word ping-pong between cores.
    SharedRw {
        /// The shared region.
        region: Region,
        /// Number of updates (each is lock, read, write, unlock).
        pairs: u64,
        /// How many leading words of the region are hot.
        hot_words: u64,
        /// First lock id of the per-hot-word lock array (must not collide
        /// with other lock ranges of the program).
        lock_base: u32,
    },
    /// Lock-protected read-modify-write updates of shared accumulators,
    /// with the lock chosen by address bucket.
    LockedUpdates {
        /// First lock id of the bucket array.
        lock_base: u32,
        /// Number of locks (buckets).
        lock_count: u32,
        /// The protected shared region.
        region: Region,
        /// Number of updates (each is lock, read, write, unlock).
        updates: u64,
    },
    /// Atomic RMWs on the leading words of a shared region (shared
    /// counters / CAS loops).
    AtomicOps {
        /// The shared region.
        region: Region,
        /// Number of atomics.
        ops: u64,
        /// How many leading words are targeted.
        hot_words: u64,
    },
    /// **Unprotected** read+write pairs on a shared region: the injected
    /// data race.
    RacyPairs {
        /// The racy shared region.
        region: Region,
        /// Number of pairs.
        pairs: u64,
    },
    /// Sequential writes of a region (initialization / output).
    WriteSeq {
        /// The region.
        region: Region,
        /// Number of writes (word-strided).
        ops: u64,
    },
    /// Sequential reads of a region (input scan / final merge).
    ReadSeq {
        /// The region.
        region: Region,
        /// Number of reads (word-strided).
        ops: u64,
    },
    /// One barrier arrival.
    Barrier {
        /// The barrier.
        id: BarrierId,
        /// Its participant count.
        participants: u32,
    },
    /// Fork a thread.
    Fork(ThreadId),
    /// Join a thread.
    Join(ThreadId),
    /// Post a semaphore `n` times.
    Post {
        /// The semaphore.
        sem: SemId,
        /// Number of posts.
        n: u64,
    },
    /// Wait on a semaphore `n` times.
    Wait {
        /// The semaphore.
        sem: SemId,
        /// Number of waits.
        n: u64,
    },
    /// One pipeline stage: per item, wait on the input semaphore, read
    /// the input buffer slot, do private work, write the output buffer
    /// slot, post the output semaphore. Omitted semaphores/buffers make
    /// this a source (first stage) or sink (last stage).
    PipelineStage {
        /// Semaphore guarding item arrival (None for the source stage).
        in_sem: Option<SemId>,
        /// Semaphore signalling the next stage (None for the sink stage).
        out_sem: Option<SemId>,
        /// Items to process.
        items: u64,
        /// Buffer read per item (producer-written: real W→R sharing).
        in_buf: Option<Region>,
        /// Buffer written per item.
        out_buf: Option<Region>,
        /// Private work ops per item.
        work: u64,
        /// Private scratch region for the work.
        scratch: Region,
        /// Words read/written per buffer slot.
        slot_words: u64,
    },
    /// Pure computation.
    Compute {
        /// Cycles per op.
        cycles: u32,
        /// Number of ops.
        ops: u64,
    },
}

impl Phase {
    /// Number of generation units in the phase (each unit may expand to
    /// several ops).
    fn units(&self) -> u64 {
        match *self {
            Phase::PrivateMix { ops, .. } => ops,
            Phase::SharedReads { ops, .. } => ops,
            Phase::SharedRw { pairs, .. } => pairs,
            Phase::LockedUpdates { updates, .. } => updates,
            Phase::AtomicOps { ops, .. } => ops,
            Phase::RacyPairs { pairs, .. } => pairs,
            Phase::WriteSeq { ops, .. } => ops,
            Phase::ReadSeq { ops, .. } => ops,
            Phase::Barrier { .. } | Phase::Fork(_) | Phase::Join(_) => 1,
            Phase::Post { n, .. } | Phase::Wait { n, .. } => n,
            Phase::PipelineStage { items, .. } => items,
            Phase::Compute { ops, .. } => ops,
        }
    }
}

/// Lazily lowers a plan (a `Vec<Phase>`) to an [`OpStream`].
///
/// # Examples
///
/// ```
/// use ddrace_workloads::{Phase, PlanStream};
/// use ddrace_program::{AddressSpace, Op, OpStream};
///
/// let mut space = AddressSpace::new();
/// let r = space.alloc_region(256);
/// let mut s = PlanStream::new(vec![Phase::WriteSeq { region: r, ops: 2 }], 42);
/// assert!(matches!(s.next_op(), Some(Op::Write { .. })));
/// assert!(matches!(s.next_op(), Some(Op::Write { .. })));
/// assert_eq!(s.next_op(), None);
/// ```
#[derive(Debug)]
pub struct PlanStream {
    phases: Vec<Phase>,
    phase_idx: usize,
    emitted_in_phase: u64,
    buffer: VecDeque<Op>,
    rng: Prng,
}

impl PlanStream {
    /// Creates a stream for `phases` with deterministic randomness from
    /// `seed`.
    pub fn new(phases: Vec<Phase>, seed: u64) -> Self {
        PlanStream {
            phases,
            phase_idx: 0,
            emitted_in_phase: 0,
            buffer: VecDeque::new(),
            rng: Prng::seed_from_u64(seed),
        }
    }

    /// Total operations this plan will produce (used in tests and docs;
    /// streaming does not need it).
    pub fn total_ops(phases: &[Phase]) -> u64 {
        phases
            .iter()
            .map(|p| p.units() * Self::ops_per_unit(p))
            .sum()
    }

    fn ops_per_unit(phase: &Phase) -> u64 {
        match *phase {
            Phase::RacyPairs { .. } => 2,
            Phase::SharedRw { .. } => 4,
            Phase::LockedUpdates { .. } => 4,
            Phase::PipelineStage {
                in_sem,
                out_sem,
                in_buf,
                out_buf,
                work,
                slot_words,
                ..
            } => {
                u64::from(in_sem.is_some())
                    + u64::from(out_sem.is_some())
                    + if in_buf.is_some() { slot_words } else { 0 }
                    + if out_buf.is_some() { slot_words } else { 0 }
                    + work
            }
            _ => 1,
        }
    }

    /// Expands one unit of `phase` into the buffer. `unit` is the index
    /// of the unit within the phase.
    fn expand(&mut self, phase: Phase, unit: u64) {
        match phase {
            Phase::PrivateMix {
                region,
                read_pct,
                compute_pct,
                ..
            } => {
                let roll: u8 = self.rng.percent();
                if roll < compute_pct {
                    self.buffer.push_back(Op::Compute {
                        cycles: self.rng.range_u32(1, 7),
                    });
                } else {
                    let addr = region.word(self.rng.next_u64());
                    if self.rng.percent() < read_pct {
                        self.buffer.push_back(Op::Read { addr });
                    } else {
                        self.buffer.push_back(Op::Write { addr });
                    }
                }
            }
            Phase::SharedReads { region, .. } => {
                let addr = region.word(self.rng.next_u64());
                self.buffer.push_back(Op::Read { addr });
            }
            Phase::SharedRw {
                region,
                hot_words,
                lock_base,
                ..
            } => {
                // Hot update under a per-word micro critical section:
                // race-free by mutual exclusion, yet HITM-rich — the lock
                // word (an atomic in the cache model) and the data word
                // both migrate core-to-core.
                let hot = hot_words.max(1);
                let w = self.rng.below(hot);
                let lock = LockId(lock_base + w as u32);
                let data = region.word(w);
                self.buffer.push_back(Op::Lock { lock });
                self.buffer.push_back(Op::Read { addr: data });
                self.buffer.push_back(Op::Write { addr: data });
                self.buffer.push_back(Op::Unlock { lock });
            }
            Phase::LockedUpdates {
                lock_base,
                lock_count,
                region,
                ..
            } => {
                // The protecting lock is a pure function of the *word
                // index* (not the raw roll), so one address is always
                // guarded by the same lock.
                let words = (region.len() / 8).max(1);
                let word_idx = self.rng.next_u64() % words;
                let addr = region.word(word_idx);
                let lock = LockId(lock_base + (word_idx % u64::from(lock_count.max(1))) as u32);
                self.buffer.push_back(Op::Lock { lock });
                self.buffer.push_back(Op::Read { addr });
                self.buffer.push_back(Op::Write { addr });
                self.buffer.push_back(Op::Unlock { lock });
            }
            Phase::AtomicOps {
                region, hot_words, ..
            } => {
                let addr = region.word(self.rng.below(hot_words.max(1)));
                self.buffer.push_back(Op::AtomicRmw { addr });
            }
            Phase::RacyPairs { region, .. } => {
                // Deterministic round-robin over a handful of words, so
                // any two threads with at least one pair each are
                // guaranteed to collide on word 0 — planted races must be
                // present regardless of scale or seed.
                let words = (region.len() / 8).clamp(1, 8);
                let addr = region.word(unit % words);
                self.buffer.push_back(Op::Read { addr });
                self.buffer.push_back(Op::Write { addr });
            }
            Phase::WriteSeq { region, .. } => {
                self.buffer.push_back(Op::Write {
                    addr: region.word(unit),
                });
            }
            Phase::ReadSeq { region, .. } => {
                self.buffer.push_back(Op::Read {
                    addr: region.word(unit),
                });
            }
            Phase::Barrier { id, participants } => {
                self.buffer.push_back(Op::Barrier {
                    barrier: id,
                    participants,
                });
            }
            Phase::Fork(child) => self.buffer.push_back(Op::Fork { child }),
            Phase::Join(child) => self.buffer.push_back(Op::Join { child }),
            Phase::Post { sem, .. } => self.buffer.push_back(Op::Post { sem }),
            Phase::Wait { sem, .. } => self.buffer.push_back(Op::WaitSem { sem }),
            Phase::PipelineStage {
                in_sem,
                out_sem,
                in_buf,
                out_buf,
                work,
                scratch,
                slot_words,
                ..
            } => {
                if let Some(sem) = in_sem {
                    self.buffer.push_back(Op::WaitSem { sem });
                }
                if let Some(buf) = in_buf {
                    for w in 0..slot_words {
                        self.buffer.push_back(Op::Read {
                            addr: buf.word(unit * slot_words + w),
                        });
                    }
                }
                for _ in 0..work {
                    let addr = scratch.word(self.rng.next_u64());
                    if self.rng.chance(3, 5) {
                        self.buffer.push_back(Op::Read { addr });
                    } else {
                        self.buffer.push_back(Op::Write { addr });
                    }
                }
                if let Some(buf) = out_buf {
                    for w in 0..slot_words {
                        self.buffer.push_back(Op::Write {
                            addr: buf.word(unit * slot_words + w),
                        });
                    }
                }
                if let Some(sem) = out_sem {
                    self.buffer.push_back(Op::Post { sem });
                }
            }
            Phase::Compute { cycles, .. } => {
                self.buffer.push_back(Op::Compute { cycles });
            }
        }
    }
}

impl OpStream for PlanStream {
    fn next_op(&mut self) -> Option<Op> {
        loop {
            if let Some(op) = self.buffer.pop_front() {
                return Some(op);
            }
            let phase = self.phases.get(self.phase_idx)?.clone();
            if self.emitted_in_phase >= phase.units() {
                self.phase_idx += 1;
                self.emitted_in_phase = 0;
                continue;
            }
            let unit = self.emitted_in_phase;
            self.emitted_in_phase += 1;
            self.expand(phase, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrace_program::AddressSpace;

    fn drain(mut s: PlanStream) -> Vec<Op> {
        let mut v = Vec::new();
        while let Some(op) = s.next_op() {
            v.push(op);
        }
        v
    }

    fn region(len: u64) -> Region {
        AddressSpace::new().alloc_region(len)
    }

    #[test]
    fn write_seq_is_sequential_words() {
        let r = region(256);
        let ops = drain(PlanStream::new(
            vec![Phase::WriteSeq { region: r, ops: 3 }],
            0,
        ));
        assert_eq!(
            ops,
            vec![
                Op::Write { addr: r.word(0) },
                Op::Write { addr: r.word(1) },
                Op::Write { addr: r.word(2) },
            ]
        );
    }

    #[test]
    fn phases_run_in_order() {
        let r = region(256);
        let ops = drain(PlanStream::new(
            vec![
                Phase::WriteSeq { region: r, ops: 1 },
                Phase::Barrier {
                    id: BarrierId(0),
                    participants: 2,
                },
                Phase::ReadSeq { region: r, ops: 1 },
            ],
            0,
        ));
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], Op::Write { .. }));
        assert!(matches!(ops[1], Op::Barrier { .. }));
        assert!(matches!(ops[2], Op::Read { .. }));
    }

    #[test]
    fn locked_updates_are_balanced() {
        let r = region(1024);
        let ops = drain(PlanStream::new(
            vec![Phase::LockedUpdates {
                lock_base: 4,
                lock_count: 3,
                region: r,
                updates: 10,
            }],
            7,
        ));
        assert_eq!(ops.len(), 40);
        let mut held: Option<LockId> = None;
        for op in &ops {
            match *op {
                Op::Lock { lock } => {
                    assert!(held.is_none());
                    assert!((4..7).contains(&lock.0));
                    held = Some(lock);
                }
                Op::Unlock { lock } => {
                    assert_eq!(held.take(), Some(lock));
                }
                Op::Read { addr } | Op::Write { addr } => {
                    assert!(held.is_some());
                    assert!(r.contains(addr));
                }
                other => panic!("unexpected {other}"),
            }
        }
        assert!(held.is_none());
    }

    #[test]
    fn shared_rw_is_guarded_hot_update() {
        let r = region(4096);
        let ops = drain(PlanStream::new(
            vec![Phase::SharedRw {
                region: r,
                pairs: 20,
                hot_words: 4,
                lock_base: 100,
            }],
            3,
        ));
        assert_eq!(ops.len(), 80);
        for unit in ops.chunks(4) {
            let (
                Op::Lock { lock: l1 },
                Op::Read { addr: ra },
                Op::Write { addr: wa },
                Op::Unlock { lock: l2 },
            ) = (&unit[0], &unit[1], &unit[2], &unit[3])
            else {
                panic!("expected micro critical section, got {unit:?}");
            };
            assert_eq!(l1, l2, "same lock on both sides");
            assert_eq!(ra, wa, "data read and write hit the same word");
            assert!(ra.0 < r.base().0 + 4 * 8, "data must be a hot word");
            // The lock is the hot word's own lock.
            assert_eq!(u64::from(l1.0), 100 + (ra.0 - r.base().0) / 8);
        }
    }

    #[test]
    fn pipeline_stage_shapes() {
        let mut space = AddressSpace::new();
        let in_buf = space.alloc_region(4096);
        let out_buf = space.alloc_region(4096);
        let scratch = space.alloc_region(1024);
        let ops = drain(PlanStream::new(
            vec![Phase::PipelineStage {
                in_sem: Some(SemId(0)),
                out_sem: Some(SemId(1)),
                items: 2,
                in_buf: Some(in_buf),
                out_buf: Some(out_buf),
                work: 3,
                scratch,
                slot_words: 2,
            }],
            5,
        ));
        // Per item: wait + 2 reads + 3 work + 2 writes + post = 9 ops.
        assert_eq!(ops.len(), 18);
        assert_eq!(ops[0], Op::WaitSem { sem: SemId(0) });
        assert_eq!(ops[8], Op::Post { sem: SemId(1) });
        assert!(matches!(ops[1], Op::Read { .. }));
        assert!(matches!(ops[7], Op::Write { .. }));
    }

    #[test]
    fn total_ops_matches_drain() {
        let mut space = AddressSpace::new();
        let r = space.alloc_region(4096);
        let scratch = space.alloc_region(512);
        let phases = vec![
            Phase::PrivateMix {
                region: r,
                ops: 50,
                read_pct: 70,
                compute_pct: 20,
            },
            Phase::SharedRw {
                region: r,
                pairs: 10,
                hot_words: 2,
                lock_base: 50,
            },
            Phase::LockedUpdates {
                lock_base: 0,
                lock_count: 2,
                region: r,
                updates: 5,
            },
            Phase::PipelineStage {
                in_sem: None,
                out_sem: Some(SemId(0)),
                items: 3,
                in_buf: None,
                out_buf: Some(r),
                work: 2,
                scratch,
                slot_words: 2,
            },
            Phase::Compute { cycles: 4, ops: 7 },
        ];
        let expected = PlanStream::total_ops(&phases);
        let ops = drain(PlanStream::new(phases, 11));
        assert_eq!(ops.len() as u64, expected);
    }

    #[test]
    fn same_seed_same_stream() {
        let r = region(4096);
        let phases = vec![Phase::PrivateMix {
            region: r,
            ops: 200,
            read_pct: 50,
            compute_pct: 10,
        }];
        assert_eq!(
            drain(PlanStream::new(phases.clone(), 9)),
            drain(PlanStream::new(phases.clone(), 9))
        );
        assert_ne!(
            drain(PlanStream::new(phases.clone(), 9)),
            drain(PlanStream::new(phases, 10))
        );
    }

    #[test]
    fn racy_pairs_touch_only_their_region() {
        let r = region(128);
        let ops = drain(PlanStream::new(
            vec![Phase::RacyPairs {
                region: r,
                pairs: 10,
            }],
            2,
        ));
        for op in ops {
            let (addr, _) = op.memory_word().expect("only memory ops");
            assert!(r.contains(addr));
        }
    }

    #[test]
    fn atomic_ops_hit_hot_words() {
        let r = region(4096);
        let ops = drain(PlanStream::new(
            vec![Phase::AtomicOps {
                region: r,
                ops: 10,
                hot_words: 1,
            }],
            2,
        ));
        for op in ops {
            assert_eq!(op, Op::AtomicRmw { addr: r.word(0) });
        }
    }
}
