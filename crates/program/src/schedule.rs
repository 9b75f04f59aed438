//! Deterministic interleaving scheduler.
//!
//! The scheduler round-robins over runnable threads, executing up to a
//! quantum of operations per turn (optionally jittered by a seeded RNG so
//! different seeds expose different interleavings), and enforces blocking
//! semantics for locks, barriers, joins, and semaphores. Every executed
//! operation is delivered, in a single global order, to an
//! [`ExecutionListener`] — the hook through which the cache simulator, cost
//! model, and race detector observe the program.
//!
//! Determinism: given the same program and [`SchedulerConfig`], the event
//! sequence is bit-for-bit identical. Crucially the schedule depends only on
//! the *operations*, never on the listener or any cost accounting, so the
//! same seed yields the same interleaving whether analysis is on or off —
//! exactly what is needed to compare analysis modes apples-to-apples.

use crate::error::{BlockReason, ScheduleError};
use crate::op::{BarrierId, CondId, LockId, Op, SemId, ThreadId};
use crate::program::{Program, StartMode};
use crate::rng::Prng;
use crate::runqueue::RunQueue;
use crate::trace::TraceEvent;
use std::collections::HashMap;

/// Configuration of the interleaving scheduler.
///
/// # Examples
///
/// ```
/// use ddrace_program::SchedulerConfig;
/// let cfg = SchedulerConfig { quantum: 16, seed: 42, jitter: true };
/// assert_eq!(cfg.quantum, 16);
/// let default = SchedulerConfig::default();
/// assert!(default.quantum >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum operations a thread executes per turn.
    pub quantum: u32,
    /// Seed for the jitter RNG.
    pub seed: u64,
    /// When `true`, each turn's quantum is drawn uniformly from
    /// `1..=quantum`, exposing more interleavings.
    pub jitter: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            quantum: 32,
            seed: 0,
            jitter: false,
        }
    }
}

impl SchedulerConfig {
    /// A config with jitter enabled and the given seed; quantum stays at
    /// the default.
    pub fn jittered(seed: u64) -> Self {
        SchedulerConfig {
            jitter: true,
            seed,
            ..Self::default()
        }
    }
}

/// How [`Scheduler`] finds the next runnable thread: always the
/// two-level bitmap run-queue. Kept only for the end-to-end benchmark
/// (`bench_e2e/`), which names `PickStrategy::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PickStrategy {
    /// Two-level bitmap run-queue: O(1) pick/block/unblock.
    #[default]
    RunQueue,
}

/// Receives the global event stream of a scheduled execution.
///
/// Implemented for closures: any `FnMut(&TraceEvent)` is a listener.
pub trait ExecutionListener {
    /// Called for every event, in global execution order.
    fn on_event(&mut self, event: &TraceEvent);
}

impl<F: FnMut(&TraceEvent)> ExecutionListener for F {
    fn on_event(&mut self, event: &TraceEvent) {
        self(event)
    }
}

/// A listener that discards all events. Useful for running a program only
/// for its scheduler-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullListener;

impl ExecutionListener for NullListener {
    fn on_event(&mut self, _event: &TraceEvent) {}
}

/// Summary statistics of one scheduled execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total operations executed across all threads.
    pub ops_executed: u64,
    /// Operations executed per thread (indexed by thread id).
    pub per_thread_ops: Vec<u64>,
    /// Times a thread blocked (failed to complete an op immediately).
    pub blocks: u64,
    /// Scheduler turn changes.
    pub context_switches: u64,
    /// Barrier release episodes.
    pub barrier_episodes: u64,
    /// Direct lock handoffs from a releasing thread to a waiter.
    pub lock_handoffs: u64,
    /// Threads that were never started (declared but never forked).
    pub orphan_threads: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    NotStarted,
    Runnable,
    Blocked(BlockReason),
    Finished,
}

struct ThreadState {
    stream: Box<dyn crate::program::OpStream>,
    status: Status,
    /// An op whose blocking condition has been satisfied while the thread
    /// was blocked; its event is emitted when the thread is next scheduled.
    pending_emit: Option<Op>,
    /// Set while a notified condvar waiter queues for its guard lock: the
    /// eventual lock handoff emits `CondWake` for this condvar instead of a
    /// plain `Lock` event.
    wake_cond: Option<CondId>,
    held_locks: HeldLocks,
}

/// How many held locks fit before spilling to the heap. Real workloads
/// nest at most two or three.
const HELD_INLINE: usize = 4;

/// A thread's held-lock multiset in acquisition order.
///
/// The first [`HELD_INLINE`] locks live inline in the thread state; only
/// pathological nestings touch the heap. Order is preserved across
/// removals so the `FinishedHoldingLocks` diagnostic lists locks in the
/// order they were taken.
#[derive(Debug)]
struct HeldLocks {
    inline: [LockId; HELD_INLINE],
    inline_len: u8,
    spill: Vec<LockId>,
}

impl Default for HeldLocks {
    fn default() -> Self {
        HeldLocks {
            inline: [LockId(0); HELD_INLINE],
            inline_len: 0,
            spill: Vec::new(),
        }
    }
}

impl HeldLocks {
    fn is_empty(&self) -> bool {
        self.inline_len == 0 && self.spill.is_empty()
    }

    fn push(&mut self, lock: LockId) {
        if self.spill.is_empty() && (self.inline_len as usize) < HELD_INLINE {
            self.inline[self.inline_len as usize] = lock;
            self.inline_len += 1;
        } else {
            self.spill.push(lock);
        }
    }

    /// Removes every occurrence of `lock`, preserving the order of the
    /// rest (spilled locks slide forward into freed inline slots).
    fn remove(&mut self, lock: LockId) {
        let mut kept = 0usize;
        for i in 0..self.inline_len as usize {
            if self.inline[i] != lock {
                self.inline[kept] = self.inline[i];
                kept += 1;
            }
        }
        self.inline_len = kept as u8;
        if !self.spill.is_empty() {
            self.spill.retain(|&l| l != lock);
            while (self.inline_len as usize) < HELD_INLINE && !self.spill.is_empty() {
                self.inline[self.inline_len as usize] = self.spill.remove(0);
                self.inline_len += 1;
            }
        }
    }

    /// Drains every held lock, in acquisition order.
    fn take_all(&mut self) -> Vec<LockId> {
        let mut all = self.inline[..self.inline_len as usize].to_vec();
        all.append(&mut self.spill);
        self.inline_len = 0;
        all
    }
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<ThreadId>,
    waiters: std::collections::VecDeque<ThreadId>,
}

#[derive(Debug, Default)]
struct BarrierState {
    expected: u32,
    arrived: Vec<ThreadId>,
}

#[derive(Debug, Default)]
struct SemState {
    count: u64,
    waiters: std::collections::VecDeque<ThreadId>,
}

#[derive(Debug, Default)]
struct CondState {
    /// Banked notifies delivered while no thread was waiting. Like
    /// semaphore credits, banking keeps generated programs deadlock-free
    /// regardless of notify/wait interleaving.
    credits: u64,
    /// Waiting threads with the guard lock each must re-acquire on wake.
    waiters: std::collections::VecDeque<(ThreadId, LockId)>,
}

/// Executes a [`Program`], delivering events to a listener.
///
/// See the crate-level documentation for semantics. Use
/// [`Scheduler::run`] for the common case; the scheduler is consumed by a
/// run.
///
/// # Examples
///
/// ```
/// use ddrace_program::{Program, ProgramBuilder, Scheduler, SchedulerConfig, ThreadId, TraceEvent};
///
/// let mut b = ProgramBuilder::new();
/// let x = b.alloc_shared(8).base();
/// let t1 = b.add_thread();
/// b.on(ThreadId::MAIN).fork(t1).join(t1).read(x);
/// b.on(t1).write(x);
///
/// let mut ops = 0u32;
/// let stats = Scheduler::new(b.build(), SchedulerConfig::default())
///     .run(&mut |event: &TraceEvent| {
///         if matches!(event, TraceEvent::Op { .. }) { ops += 1; }
///     })
///     .unwrap();
/// assert_eq!(ops, 4); // fork, write, join, read
/// assert_eq!(stats.ops_executed, 4);
/// ```
pub struct Scheduler {
    threads: Vec<ThreadState>,
    locks: HashMap<LockId, LockState>,
    barriers: HashMap<BarrierId, BarrierState>,
    sems: HashMap<SemId, SemState>,
    conds: HashMap<CondId, CondState>,
    join_waiters: Vec<Vec<ThreadId>>,
    start_mode: StartMode,
    config: SchedulerConfig,
    rng: Prng,
    stats: RunStats,
    cursor: usize,
    /// Mirror of the `Runnable` statuses; kept in sync by the status
    /// helpers so the picker can trust it.
    runnable: RunQueue,
}

impl Scheduler {
    /// Creates a scheduler for `program`.
    ///
    /// # Panics
    ///
    /// Panics if `config.quantum` is 0.
    pub fn new(program: Program, config: SchedulerConfig) -> Self {
        assert!(config.quantum >= 1, "scheduler quantum must be at least 1");
        let (streams, start_mode) = program.into_parts();
        let n = streams.len();
        let threads = streams
            .into_iter()
            .map(|stream| ThreadState {
                stream,
                status: Status::NotStarted,
                pending_emit: None,
                wake_cond: None,
                held_locks: HeldLocks::default(),
            })
            .collect();
        Scheduler {
            threads,
            locks: HashMap::new(),
            barriers: HashMap::new(),
            sems: HashMap::new(),
            conds: HashMap::new(),
            join_waiters: vec![Vec::new(); n],
            start_mode,
            config,
            rng: Prng::seed_from_u64(config.seed),
            stats: RunStats {
                per_thread_ops: vec![0; n],
                ..RunStats::default()
            },
            cursor: 0,
            runnable: RunQueue::new(n),
        }
    }

    /// A no-op: [`PickStrategy`] has one variant. Kept only for the
    /// end-to-end benchmark (`bench_e2e/`), which calls it.
    pub fn with_pick_strategy(self, _strategy: PickStrategy) -> Self {
        self
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] if the program deadlocks or misuses a
    /// synchronization object (see the error type for the full list).
    pub fn run<L: ExecutionListener + ?Sized>(
        mut self,
        listener: &mut L,
    ) -> Result<RunStats, ScheduleError> {
        self.start_initial_threads(listener);
        loop {
            let Some(tid) = self.pick_next_runnable() else {
                if self.all_started_finished() {
                    self.stats.orphan_threads = self
                        .threads
                        .iter()
                        .filter(|t| t.status == Status::NotStarted)
                        .count() as u32;
                    return Ok(self.stats);
                }
                return Err(self.deadlock_error());
            };
            self.stats.context_switches += 1;
            let quantum = if self.config.jitter {
                self.rng.range_u32(1, self.config.quantum)
            } else {
                self.config.quantum
            };
            for _ in 0..quantum {
                match self.step_thread(tid, listener)? {
                    StepOutcome::Executed => {}
                    StepOutcome::Blocked | StepOutcome::Finished => break,
                }
            }
        }
    }

    fn start_initial_threads<L: ExecutionListener + ?Sized>(&mut self, listener: &mut L) {
        self.set_runnable(ThreadId::MAIN);
        listener.on_event(&TraceEvent::ThreadStarted {
            tid: ThreadId::MAIN,
            parent: None,
        });
        if self.start_mode == StartMode::AllStart {
            for i in 1..self.threads.len() {
                let tid = ThreadId::new(i as u32);
                self.set_runnable(tid);
                listener.on_event(&TraceEvent::ThreadStarted {
                    tid,
                    parent: Some(ThreadId::MAIN),
                });
            }
        }
    }

    /// Marks `tid` runnable and queues it. Idempotent: re-waking an
    /// already-runnable thread (e.g. the last arriver of a barrier it
    /// itself released) leaves the queue untouched.
    fn set_runnable(&mut self, tid: ThreadId) {
        let state = &mut self.threads[tid.index()];
        if state.status != Status::Runnable {
            state.status = Status::Runnable;
            self.runnable.insert(tid.index());
        }
    }

    /// Blocks `tid` (dequeueing it) and counts the block.
    fn set_blocked(&mut self, tid: ThreadId, reason: BlockReason) {
        self.threads[tid.index()].status = Status::Blocked(reason);
        self.runnable.remove(tid.index());
        self.stats.blocks += 1;
    }

    /// Marks `tid` finished and dequeues it for good.
    fn set_finished(&mut self, tid: ThreadId) {
        self.threads[tid.index()].status = Status::Finished;
        self.runnable.remove(tid.index());
    }

    fn pick_next_runnable(&mut self) -> Option<ThreadId> {
        let n = self.threads.len();
        if n == 0 {
            return None;
        }
        let i = self.runnable.next_cyclic(self.cursor)?;
        debug_assert!(
            self.threads[i].status == Status::Runnable,
            "run-queue picked non-runnable thread {i}"
        );
        self.cursor = (i + 1) % n;
        Some(ThreadId::new(i as u32))
    }

    fn all_started_finished(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.status, Status::Finished | Status::NotStarted))
    }

    fn deadlock_error(&self) -> ScheduleError {
        let blocked = self
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.status {
                Status::Blocked(reason) => Some((ThreadId::new(i as u32), reason)),
                _ => None,
            })
            .collect();
        ScheduleError::Deadlock { blocked }
    }

    fn step_thread<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        // First emit an op whose blocking condition was satisfied while we
        // were off-cpu (lock handoff, semaphore transfer, join target done).
        if let Some(op) = self.threads[tid.index()].pending_emit.take() {
            self.record_op(tid);
            listener.on_event(&TraceEvent::Op { tid, op });
            return Ok(StepOutcome::Executed);
        }
        let Some(op) = self.threads[tid.index()].stream.next_op() else {
            return self
                .finish_thread(tid, listener)
                .map(|()| StepOutcome::Finished);
        };
        self.execute_op(tid, op, listener)
    }

    fn execute_op<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        op: Op,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        match op {
            Op::Read { .. }
            | Op::Write { .. }
            | Op::AtomicRmw { .. }
            | Op::AtomicLoad { .. }
            | Op::AtomicStore { .. }
            | Op::RelaxedLoad { .. }
            | Op::RelaxedStore { .. }
            | Op::RelaxedRmw { .. }
            | Op::Compute { .. } => {
                self.record_op(tid);
                listener.on_event(&TraceEvent::Op { tid, op });
                Ok(StepOutcome::Executed)
            }
            Op::Lock { lock } => self.do_lock(tid, lock, op, listener),
            Op::Unlock { lock } => self.do_unlock(tid, lock, op, listener),
            Op::Barrier {
                barrier,
                participants,
            } => self.do_barrier(tid, barrier, participants, op, listener),
            Op::Fork { child } => self.do_fork(tid, child, op, listener),
            Op::Join { child } => self.do_join(tid, child, op, listener),
            Op::Post { sem } => self.do_post(tid, sem, op, listener),
            Op::WaitSem { sem } => self.do_wait_sem(tid, sem, op, listener),
            Op::CondWait { cond, lock } => self.do_cond_wait(tid, cond, lock, op, listener),
            Op::CondWake { .. } => Err(ScheduleError::InternalInvariant {
                what: "CondWake is scheduler-synthesized and cannot appear in a program",
                op: Some(op),
            }),
            Op::NotifyOne { cond } => self.do_notify(tid, cond, false, op, listener),
            Op::NotifyAll { cond } => self.do_notify(tid, cond, true, op, listener),
        }
    }

    fn do_lock<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        lock: LockId,
        op: Op,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        let state = self.locks.entry(lock).or_default();
        match state.holder {
            None => {
                state.holder = Some(tid);
                self.threads[tid.index()].held_locks.push(lock);
                self.record_op(tid);
                listener.on_event(&TraceEvent::Op { tid, op });
                Ok(StepOutcome::Executed)
            }
            Some(holder) if holder == tid => Err(ScheduleError::RelockHeld { tid, lock }),
            Some(_) => {
                state.waiters.push_back(tid);
                self.set_blocked(tid, BlockReason::Lock(lock));
                Ok(StepOutcome::Blocked)
            }
        }
    }

    fn do_unlock<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        lock: LockId,
        op: Op,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        if self.locks.entry(lock).or_default().holder != Some(tid) {
            return Err(ScheduleError::UnlockNotHeld { tid, lock });
        }
        self.record_op(tid);
        listener.on_event(&TraceEvent::Op { tid, op });
        self.threads[tid.index()].held_locks.remove(lock);
        self.handoff_lock(lock);
        Ok(StepOutcome::Executed)
    }

    /// Releases `lock` to its next FIFO waiter, if any. The waiter owns the
    /// lock immediately; its completion event — a `Lock`, or a `CondWake`
    /// when the waiter is a notified condvar waiter re-acquiring its guard —
    /// is emitted when it is next scheduled. One status write wakes it.
    fn handoff_lock(&mut self, lock: LockId) {
        let state = self.locks.entry(lock).or_default();
        let next = state.waiters.pop_front();
        state.holder = next;
        if let Some(waiter) = next {
            let w = &mut self.threads[waiter.index()];
            w.held_locks.push(lock);
            w.pending_emit = Some(match w.wake_cond.take() {
                Some(cond) => Op::CondWake { cond, lock },
                None => Op::Lock { lock },
            });
            self.set_runnable(waiter);
            self.stats.lock_handoffs += 1;
        }
    }

    fn do_cond_wait<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        cond: CondId,
        lock: LockId,
        op: Op,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        if self.locks.get(&lock).and_then(|s| s.holder) != Some(tid) {
            return Err(ScheduleError::CondWaitNotHeld { tid, cond, lock });
        }
        // The arrival is always visible: detectors treat it as the implicit
        // release of the guard lock.
        self.record_op(tid);
        listener.on_event(&TraceEvent::Op { tid, op });
        // Implicit unlock with the usual FIFO handoff (no Unlock event).
        self.threads[tid.index()].held_locks.remove(lock);
        self.handoff_lock(lock);
        let cstate = self.conds.entry(cond).or_default();
        if cstate.credits > 0 {
            // A notify was banked: consume it and go straight to
            // re-acquiring the guard lock.
            cstate.credits -= 1;
            match self.reacquire_for_wake(tid, cond, lock) {
                StepOutcome::Blocked => {
                    self.set_blocked(tid, BlockReason::Lock(lock));
                    Ok(StepOutcome::Blocked)
                }
                outcome => Ok(outcome),
            }
        } else {
            cstate.waiters.push_back((tid, lock));
            self.set_blocked(tid, BlockReason::Cond(cond));
            Ok(StepOutcome::Blocked)
        }
    }

    /// Routes a woken condvar waiter back through its guard lock. If the
    /// lock is free the waiter owns it immediately and its `CondWake` is
    /// emitted on its next turn; otherwise it queues like any lock waiter
    /// (the caller adjusts blocking bookkeeping, which differs between a
    /// self-wake and a notify of another thread).
    fn reacquire_for_wake(&mut self, waiter: ThreadId, cond: CondId, lock: LockId) -> StepOutcome {
        let state = self.locks.entry(lock).or_default();
        match state.holder {
            None => {
                state.holder = Some(waiter);
                let w = &mut self.threads[waiter.index()];
                w.held_locks.push(lock);
                w.pending_emit = Some(Op::CondWake { cond, lock });
                self.set_runnable(waiter);
                StepOutcome::Executed
            }
            Some(_) => {
                state.waiters.push_back(waiter);
                self.threads[waiter.index()].wake_cond = Some(cond);
                StepOutcome::Blocked
            }
        }
    }

    fn do_notify<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        cond: CondId,
        all: bool,
        op: Op,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        self.record_op(tid);
        listener.on_event(&TraceEvent::Op { tid, op });
        let cstate = self.conds.entry(cond).or_default();
        if cstate.waiters.is_empty() {
            // Bank the notify so it is never lost (generated programs stay
            // deadlock-free regardless of notify/wait interleavings).
            cstate.credits += 1;
            return Ok(StepOutcome::Executed);
        }
        let woken: Vec<(ThreadId, LockId)> = if all {
            cstate.waiters.drain(..).collect()
        } else {
            vec![cstate.waiters.pop_front().expect("nonempty waiters")]
        };
        for (waiter, guard) in woken {
            if self.reacquire_for_wake(waiter, cond, guard) == StepOutcome::Blocked {
                // Still blocked, but now on the guard lock: it was already
                // dequeued and counted when it first waited.
                self.threads[waiter.index()].status = Status::Blocked(BlockReason::Lock(guard));
            }
        }
        Ok(StepOutcome::Executed)
    }

    fn do_barrier<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        barrier: BarrierId,
        participants: u32,
        op: Op,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        if participants == 0 {
            return Err(ScheduleError::BarrierMismatch {
                barrier,
                expected: 1,
                found: 0,
            });
        }
        let state = self.barriers.entry(barrier).or_default();
        if state.arrived.is_empty() {
            state.expected = participants;
        } else if state.expected != participants {
            return Err(ScheduleError::BarrierMismatch {
                barrier,
                expected: state.expected,
                found: participants,
            });
        }
        if state.arrived.len() as u32 >= state.expected {
            return Err(ScheduleError::BarrierOverflow {
                barrier,
                participants,
            });
        }
        state.arrived.push(tid);
        // The arrival itself is always visible (the detector accumulates
        // clocks as threads arrive).
        self.record_op(tid);
        listener.on_event(&TraceEvent::Op { tid, op });
        let state = self
            .barriers
            .get_mut(&barrier)
            .expect("barrier state exists");
        if state.arrived.len() as u32 == state.expected {
            let released = std::mem::take(&mut state.arrived);
            self.stats.barrier_episodes += 1;
            for &t in &released {
                self.set_runnable(t);
            }
            listener.on_event(&TraceEvent::BarrierReleased {
                barrier,
                participants: released,
            });
            Ok(StepOutcome::Executed)
        } else {
            self.set_blocked(tid, BlockReason::Barrier(barrier));
            Ok(StepOutcome::Blocked)
        }
    }

    fn do_fork<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        child: ThreadId,
        op: Op,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        if child.index() >= self.threads.len() {
            return Err(ScheduleError::ForkUnknownThread { tid, child });
        }
        if self.threads[child.index()].status != Status::NotStarted {
            return Err(ScheduleError::ForkAlreadyStarted { tid, child });
        }
        self.record_op(tid);
        listener.on_event(&TraceEvent::Op { tid, op });
        self.set_runnable(child);
        listener.on_event(&TraceEvent::ThreadStarted {
            tid: child,
            parent: Some(tid),
        });
        Ok(StepOutcome::Executed)
    }

    fn do_join<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        child: ThreadId,
        op: Op,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        if child == tid || child.index() >= self.threads.len() {
            return Err(ScheduleError::JoinInvalid { tid, child });
        }
        if self.threads[child.index()].status == Status::Finished {
            self.record_op(tid);
            listener.on_event(&TraceEvent::Op { tid, op });
            Ok(StepOutcome::Executed)
        } else {
            self.join_waiters[child.index()].push(tid);
            self.threads[tid.index()].pending_emit = Some(op);
            self.set_blocked(tid, BlockReason::Join(child));
            Ok(StepOutcome::Blocked)
        }
    }

    fn do_post<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        sem: SemId,
        op: Op,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        self.record_op(tid);
        listener.on_event(&TraceEvent::Op { tid, op });
        let state = self.sems.entry(sem).or_default();
        if let Some(waiter) = state.waiters.pop_front() {
            // Transfer the post directly to the longest waiter.
            self.threads[waiter.index()].pending_emit = Some(Op::WaitSem { sem });
            self.set_runnable(waiter);
        } else {
            state.count += 1;
        }
        Ok(StepOutcome::Executed)
    }

    fn do_wait_sem<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        sem: SemId,
        op: Op,
        listener: &mut L,
    ) -> Result<StepOutcome, ScheduleError> {
        let state = self.sems.entry(sem).or_default();
        if state.count > 0 {
            state.count -= 1;
            self.record_op(tid);
            listener.on_event(&TraceEvent::Op { tid, op });
            Ok(StepOutcome::Executed)
        } else {
            state.waiters.push_back(tid);
            self.set_blocked(tid, BlockReason::Semaphore(sem));
            Ok(StepOutcome::Blocked)
        }
    }

    fn finish_thread<L: ExecutionListener + ?Sized>(
        &mut self,
        tid: ThreadId,
        listener: &mut L,
    ) -> Result<(), ScheduleError> {
        let state = &mut self.threads[tid.index()];
        if !state.held_locks.is_empty() {
            return Err(ScheduleError::FinishedHoldingLocks {
                tid,
                locks: state.held_locks.take_all(),
            });
        }
        self.set_finished(tid);
        listener.on_event(&TraceEvent::ThreadFinished { tid });
        for waiter in std::mem::take(&mut self.join_waiters[tid.index()]) {
            // The waiter's pending Join op is already stored; just wake it.
            self.set_runnable(waiter);
        }
        Ok(())
    }

    fn record_op(&mut self, tid: ThreadId) {
        self.stats.ops_executed += 1;
        self.stats.per_thread_ops[tid.index()] += 1;
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("threads", &self.threads.len())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    Executed,
    Blocked,
    Finished,
}

/// Runs `program` with `config`, delivering events to `listener`.
/// Convenience wrapper over [`Scheduler::new`] + [`Scheduler::run`].
///
/// # Errors
///
/// Propagates any [`ScheduleError`] from the run.
pub fn run_program<L: ExecutionListener + ?Sized>(
    program: Program,
    config: SchedulerConfig,
    listener: &mut L,
) -> Result<RunStats, ScheduleError> {
    Scheduler::new(program, config).run(listener)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn collect_events(b: ProgramBuilder, config: SchedulerConfig) -> Vec<String> {
        let mut events = Vec::new();
        run_program(b.build(), config, &mut |e: &TraceEvent| {
            events.push(match e {
                TraceEvent::ThreadStarted { tid, parent } => match parent {
                    Some(p) => format!("start {tid} by {p}"),
                    None => format!("start {tid}"),
                },
                TraceEvent::Op { tid, op } => format!("{tid}: {op}"),
                TraceEvent::BarrierReleased {
                    barrier,
                    participants,
                } => {
                    format!("released {barrier} x{}", participants.len())
                }
                TraceEvent::ThreadFinished { tid } => format!("finish {tid}"),
            });
        })
        .unwrap();
        events
    }

    #[test]
    fn single_thread_executes_in_order() {
        let mut b = ProgramBuilder::new();
        let x = b.alloc_shared(64).base();
        b.on(ThreadId::MAIN).write(x).read(x).compute(10);
        let events = collect_events(b, SchedulerConfig::default());
        assert_eq!(
            events,
            vec![
                "start T0".to_string(),
                format!("T0: write {x}"),
                format!("T0: read {x}"),
                "T0: compute 10".to_string(),
                "finish T0".to_string(),
            ]
        );
    }

    #[test]
    fn fork_starts_child_and_join_blocks() {
        let mut b = ProgramBuilder::new();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN).fork(t1).join(t1).compute(1);
        b.on(t1).compute(2);
        let events = collect_events(b, SchedulerConfig::default());
        // Main forks, tries to join and blocks; t1 runs and finishes; main's
        // join completes afterwards.
        let join_pos = events.iter().position(|e| e == "T0: join T1").unwrap();
        let finish_pos = events.iter().position(|e| e == "finish T1").unwrap();
        assert!(
            finish_pos < join_pos,
            "join must complete after child finishes: {events:?}"
        );
    }

    #[test]
    fn join_of_already_finished_thread_is_immediate() {
        let mut b = ProgramBuilder::new();
        let t1 = b.add_thread();
        // Give main enough filler that t1 finishes before the join, with
        // quantum 1 forcing alternation.
        b.on(ThreadId::MAIN)
            .fork(t1)
            .compute(1)
            .compute(1)
            .compute(1)
            .join(t1);
        b.on(t1).compute(2);
        let cfg = SchedulerConfig {
            quantum: 1,
            ..SchedulerConfig::default()
        };
        let events = collect_events(b, cfg);
        assert!(events.contains(&"T0: join T1".to_string()));
    }

    #[test]
    fn lock_mutual_exclusion_and_handoff() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let l = b.new_lock();
        let x = b.alloc_shared(8).base();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN)
            .lock(l)
            .write(x)
            .compute(1)
            .compute(1)
            .unlock(l);
        b.on(t1).lock(l).write(x).unlock(l);
        let cfg = SchedulerConfig {
            quantum: 1,
            ..SchedulerConfig::default()
        };
        let events = collect_events(b, cfg);
        // T1's lock acquisition must come after T0's unlock.
        let unlock0 = events.iter().position(|e| e == "T0: unlock L0").unwrap();
        let lock1 = events.iter().position(|e| e == "T1: lock L0").unwrap();
        assert!(unlock0 < lock1, "{events:?}");
    }

    #[test]
    fn barrier_releases_all_participants_at_once() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let bar = b.new_barrier();
        let t1 = b.add_thread();
        let t2 = b.add_thread();
        b.on(ThreadId::MAIN).barrier(bar, 3).compute(1);
        b.on(t1).barrier(bar, 3).compute(1);
        b.on(t2).barrier(bar, 3).compute(1);
        let events = collect_events(b, SchedulerConfig::default());
        let release = events
            .iter()
            .position(|e| e.starts_with("released B0"))
            .unwrap();
        assert_eq!(events[release], "released B0 x3");
        // No compute happens before the release.
        for e in &events[..release] {
            assert!(!e.contains("compute"), "{events:?}");
        }
    }

    #[test]
    fn barrier_is_reusable() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let bar = b.new_barrier();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN).barrier(bar, 2).barrier(bar, 2);
        b.on(t1).barrier(bar, 2).barrier(bar, 2);
        let events = collect_events(b, SchedulerConfig::default());
        let releases = events
            .iter()
            .filter(|e| e.starts_with("released B0"))
            .count();
        assert_eq!(releases, 2);
    }

    #[test]
    fn semaphore_post_before_wait() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let s = b.new_sem();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN).post(s);
        b.on(t1).wait_sem(s);
        let stats = run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap();
        assert_eq!(stats.ops_executed, 2);
    }

    #[test]
    fn semaphore_wait_blocks_until_post() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let s = b.new_sem();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN).compute(1).compute(1).post(s);
        b.on(t1).wait_sem(s).compute(5);
        let cfg = SchedulerConfig {
            quantum: 1,
            ..SchedulerConfig::default()
        };
        let events = collect_events(b, cfg);
        let post = events.iter().position(|e| e == "T0: post S0").unwrap();
        let wait = events.iter().position(|e| e == "T1: wait S0").unwrap();
        assert!(post < wait, "{events:?}");
    }

    #[test]
    fn deadlock_is_reported() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let s = b.new_sem();
        b.on(ThreadId::MAIN).wait_sem(s);
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        match err {
            ScheduleError::Deadlock { blocked } => {
                assert_eq!(
                    blocked,
                    vec![(ThreadId::MAIN, BlockReason::Semaphore(SemId(0)))]
                );
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn abba_deadlock_is_reported() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let la = b.new_lock();
        let lb = b.new_lock();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN)
            .lock(la)
            .compute(1)
            .lock(lb)
            .unlock(lb)
            .unlock(la);
        b.on(t1).lock(lb).compute(1).lock(la).unlock(la).unlock(lb);
        let cfg = SchedulerConfig {
            quantum: 2,
            ..SchedulerConfig::default()
        };
        let err = run_program(b.build(), cfg, &mut NullListener).unwrap_err();
        assert!(matches!(err, ScheduleError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn unlock_not_held_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.new_lock();
        b.on(ThreadId::MAIN).unlock(l);
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::UnlockNotHeld {
                tid: ThreadId::MAIN,
                lock: l
            }
        );
    }

    #[test]
    fn relock_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.new_lock();
        b.on(ThreadId::MAIN).lock(l).lock(l);
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::RelockHeld {
                tid: ThreadId::MAIN,
                lock: l
            }
        );
    }

    #[test]
    fn finish_holding_lock_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.new_lock();
        b.on(ThreadId::MAIN).lock(l);
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        assert!(matches!(err, ScheduleError::FinishedHoldingLocks { .. }));
    }

    #[test]
    fn fork_errors() {
        let mut b = ProgramBuilder::new();
        b.on(ThreadId::MAIN).fork(ThreadId::new(9));
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        assert!(matches!(err, ScheduleError::ForkUnknownThread { .. }));

        let mut b = ProgramBuilder::new();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN).fork(t1).fork(t1);
        b.on(t1).compute(1);
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        assert!(matches!(err, ScheduleError::ForkAlreadyStarted { .. }));
    }

    #[test]
    fn join_self_is_error() {
        let mut b = ProgramBuilder::new();
        b.on(ThreadId::MAIN).join(ThreadId::MAIN);
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        assert!(matches!(err, ScheduleError::JoinInvalid { .. }));
    }

    #[test]
    fn barrier_mismatch_is_error() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let bar = b.new_barrier();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN).barrier(bar, 2);
        b.on(t1).barrier(bar, 3);
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        assert!(matches!(err, ScheduleError::BarrierMismatch { .. }));
    }

    #[test]
    fn orphan_threads_are_counted_not_fatal() {
        let mut b = ProgramBuilder::new();
        let _t1 = b.add_thread(); // declared, never forked
        b.on(ThreadId::MAIN).compute(1);
        let stats = run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap();
        assert_eq!(stats.orphan_threads, 1);
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.all_start();
            let l = b.new_lock();
            let x = b.alloc_shared(256);
            let t1 = b.add_thread();
            let t2 = b.add_thread();
            for t in [ThreadId::MAIN, t1, t2] {
                let mut c = b.on(t);
                for i in 0..50 {
                    c = c.read(x.index(i * 8)).compute(1);
                    if i % 10 == 0 {
                        c = c.lock(l).write(x.index(i)).unlock(l);
                    }
                }
            }
            b.build()
        };
        let cfg = SchedulerConfig {
            quantum: 4,
            seed: 123,
            jitter: true,
        };
        let run = |program| {
            let mut trace = Vec::new();
            run_program(program, cfg, &mut |e: &TraceEvent| {
                if let TraceEvent::Op { tid, op } = e {
                    trace.push((*tid, *op));
                }
            })
            .unwrap();
            trace
        };
        assert_eq!(run(build()), run(build()));
    }

    #[test]
    fn different_seeds_change_interleaving() {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.all_start();
            let x = b.alloc_shared(8).base();
            let t1 = b.add_thread();
            for t in [ThreadId::MAIN, t1] {
                let mut c = b.on(t);
                for _ in 0..100 {
                    c = c.write(x);
                }
            }
            b.build()
        };
        let trace_for = |seed| {
            let cfg = SchedulerConfig {
                quantum: 8,
                seed,
                jitter: true,
            };
            let mut trace = Vec::new();
            run_program(build(), cfg, &mut |e: &TraceEvent| {
                if let TraceEvent::Op { tid, .. } = e {
                    trace.push(*tid);
                }
            })
            .unwrap();
            trace
        };
        assert_ne!(trace_for(1), trace_for(2));
    }

    #[test]
    fn stats_count_blocks_and_handoffs() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let l = b.new_lock();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN)
            .lock(l)
            .compute(1)
            .compute(1)
            .compute(1)
            .unlock(l);
        b.on(t1).lock(l).unlock(l);
        let cfg = SchedulerConfig {
            quantum: 2,
            ..SchedulerConfig::default()
        };
        let stats = run_program(b.build(), cfg, &mut NullListener).unwrap();
        assert!(stats.blocks >= 1);
        assert_eq!(stats.lock_handoffs, 1);
        assert!(stats.context_switches >= 2);
        assert_eq!(stats.per_thread_ops.len(), 2);
        assert_eq!(stats.per_thread_ops.iter().sum::<u64>(), stats.ops_executed);
    }

    #[test]
    fn many_held_locks_spill_and_release_in_order() {
        // Nest more locks than the inline capacity, then release them
        // out of order; mutual exclusion and the finish check must hold.
        let mut b = ProgramBuilder::new();
        let locks: Vec<LockId> = (0..7).map(|_| b.new_lock()).collect();
        let mut c = b.on(ThreadId::MAIN);
        for &l in &locks {
            c = c.lock(l);
        }
        // Release interleaved: evens first, then odds.
        for &l in locks.iter().step_by(2) {
            c = c.unlock(l);
        }
        for &l in locks.iter().skip(1).step_by(2) {
            c = c.unlock(l);
        }
        let stats = run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap();
        assert_eq!(stats.ops_executed, 14);
    }

    #[test]
    fn finish_holding_spilled_locks_reports_all_in_order() {
        let mut b = ProgramBuilder::new();
        let locks: Vec<LockId> = (0..6).map(|_| b.new_lock()).collect();
        let mut c = b.on(ThreadId::MAIN);
        for &l in &locks {
            c = c.lock(l);
        }
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        match err {
            ScheduleError::FinishedHoldingLocks { tid, locks: held } => {
                assert_eq!(tid, ThreadId::MAIN);
                assert_eq!(held, locks, "acquisition order preserved across spill");
            }
            other => panic!("expected FinishedHoldingLocks, got {other}"),
        }
    }

    #[test]
    fn cond_wait_blocks_until_notify_and_reacquires_lock() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let l = b.new_lock();
        let cv = b.new_cond();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN)
            .compute(1)
            .compute(1)
            .lock(l)
            .notify_one(cv)
            .unlock(l);
        b.on(t1).lock(l).cond_wait(cv, l).compute(5).unlock(l);
        let cfg = SchedulerConfig {
            quantum: 1,
            ..SchedulerConfig::default()
        };
        let events = collect_events(b, cfg);
        let wait = events
            .iter()
            .position(|e| e == "T1: cond-wait C0 (L0)")
            .unwrap();
        let notify = events
            .iter()
            .position(|e| e == "T0: notify-one C0")
            .unwrap();
        let wake = events
            .iter()
            .position(|e| e == "T1: cond-wake C0 (L0)")
            .unwrap();
        let unlock0 = events.iter().position(|e| e == "T0: unlock L0").unwrap();
        assert!(wait < notify, "{events:?}");
        assert!(notify < wake, "{events:?}");
        // The wake re-acquires the guard, so it lands after T0's unlock.
        assert!(unlock0 < wake, "{events:?}");
        // The waiter's compute runs only after the wake.
        let compute = events.iter().position(|e| e == "T1: compute 5").unwrap();
        assert!(wake < compute, "{events:?}");
    }

    #[test]
    fn notify_before_wait_is_banked() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let l = b.new_lock();
        let cv = b.new_cond();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN).notify_one(cv);
        b.on(t1)
            .compute(1)
            .compute(1)
            .lock(l)
            .cond_wait(cv, l)
            .unlock(l);
        let cfg = SchedulerConfig {
            quantum: 1,
            ..SchedulerConfig::default()
        };
        let events = collect_events(b, cfg);
        assert!(
            events.contains(&"T1: cond-wake C0 (L0)".to_string()),
            "{events:?}"
        );
    }

    #[test]
    fn notify_all_wakes_every_waiter() {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let l = b.new_lock();
        let cv = b.new_cond();
        let t1 = b.add_thread();
        let t2 = b.add_thread();
        b.on(ThreadId::MAIN)
            .compute(1)
            .compute(1)
            .compute(1)
            .compute(1)
            .notify_all(cv);
        b.on(t1).lock(l).cond_wait(cv, l).unlock(l);
        b.on(t2).lock(l).cond_wait(cv, l).unlock(l);
        let cfg = SchedulerConfig {
            quantum: 1,
            ..SchedulerConfig::default()
        };
        let events = collect_events(b, cfg);
        assert!(
            events.contains(&"T1: cond-wake C0 (L0)".to_string()),
            "{events:?}"
        );
        assert!(
            events.contains(&"T2: cond-wake C0 (L0)".to_string()),
            "{events:?}"
        );
    }

    #[test]
    fn cond_wait_without_lock_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.new_lock();
        let cv = b.new_cond();
        b.on(ThreadId::MAIN).cond_wait(cv, l);
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::CondWaitNotHeld {
                tid: ThreadId::MAIN,
                cond: cv,
                lock: l
            }
        );
    }

    #[test]
    fn cond_wait_never_notified_deadlocks() {
        let mut b = ProgramBuilder::new();
        let l = b.new_lock();
        let cv = b.new_cond();
        b.on(ThreadId::MAIN).lock(l).cond_wait(cv, l).unlock(l);
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        match err {
            ScheduleError::Deadlock { blocked } => {
                assert_eq!(blocked, vec![(ThreadId::MAIN, BlockReason::Cond(cv))]);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn cond_wait_releases_guard_to_lock_waiters() {
        // T1 waits (releasing L0); T0, blocked on L0, must acquire it via
        // the implicit release even though no Unlock event exists.
        let mut b = ProgramBuilder::new();
        b.all_start();
        let l = b.new_lock();
        let cv = b.new_cond();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN)
            .compute(1)
            .lock(l)
            .notify_one(cv)
            .unlock(l);
        b.on(t1).lock(l).cond_wait(cv, l).unlock(l);
        let cfg = SchedulerConfig {
            quantum: 1,
            ..SchedulerConfig::default()
        };
        let events = collect_events(b, cfg);
        let wait = events
            .iter()
            .position(|e| e == "T1: cond-wait C0 (L0)")
            .unwrap();
        let lock0 = events.iter().position(|e| e == "T0: lock L0").unwrap();
        assert!(wait < lock0, "guard released by wait: {events:?}");
        assert!(
            events.contains(&"T1: cond-wake C0 (L0)".to_string()),
            "{events:?}"
        );
    }

    #[test]
    fn relaxed_and_acqrel_atomics_execute_inline() {
        let mut b = ProgramBuilder::new();
        let x = b.alloc_shared(64).base();
        b.on(ThreadId::MAIN)
            .atomic_load(x)
            .atomic_store(x)
            .relaxed_load(x)
            .relaxed_store(x)
            .relaxed_rmw(x);
        let events = collect_events(b, SchedulerConfig::default());
        assert_eq!(
            events,
            vec![
                "start T0".to_string(),
                format!("T0: load-acq {x}"),
                format!("T0: store-rel {x}"),
                format!("T0: load-rlx {x}"),
                format!("T0: store-rlx {x}"),
                format!("T0: rmw-rlx {x}"),
                "finish T0".to_string(),
            ]
        );
    }

    #[test]
    fn cond_wake_in_program_stream_is_error() {
        let mut b = ProgramBuilder::new();
        b.on(ThreadId::MAIN).op(Op::CondWake {
            cond: CondId(0),
            lock: LockId(0),
        });
        let err =
            run_program(b.build(), SchedulerConfig::default(), &mut NullListener).unwrap_err();
        assert!(matches!(err, ScheduleError::InternalInvariant { .. }));
    }

    #[test]
    #[should_panic(expected = "quantum must be at least 1")]
    fn zero_quantum_panics() {
        let b = ProgramBuilder::new();
        let _ = Scheduler::new(
            b.build(),
            SchedulerConfig {
                quantum: 0,
                ..Default::default()
            },
        );
    }
}

ddrace_json::json_struct!(RunStats {
    ops_executed,
    per_thread_ops,
    blocks,
    context_switches,
    barrier_episodes,
    lock_handoffs,
    orphan_threads,
});
