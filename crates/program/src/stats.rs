//! Program-level statistics collection.
//!
//! [`OpCounts`] tallies operations by kind; [`StatsCollector`] is an
//! [`ExecutionListener`] adapter that counts while forwarding events to an
//! inner listener, so statistics can be layered on any consumer for free.

use crate::op::Op;
use crate::schedule::ExecutionListener;
use crate::trace::TraceEvent;

/// Tally of executed operations by kind.
///
/// # Examples
///
/// ```
/// use ddrace_program::{OpCounts, Op, Addr};
/// let mut counts = OpCounts::default();
/// counts.record(&Op::Read { addr: Addr(8) });
/// counts.record(&Op::Write { addr: Addr(8) });
/// counts.record(&Op::Read { addr: Addr(16) });
/// assert_eq!(counts.reads, 2);
/// assert_eq!(counts.memory_accesses(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Plain loads.
    pub reads: u64,
    /// Plain stores.
    pub writes: u64,
    /// Acquire-release atomic read-modify-writes.
    pub atomics: u64,
    /// Atomic load-acquires.
    pub atomic_loads: u64,
    /// Atomic store-releases.
    pub atomic_stores: u64,
    /// Relaxed atomic accesses (loads, stores, and RMWs); data accesses for
    /// race detection.
    pub relaxed: u64,
    /// Lock acquisitions.
    pub locks: u64,
    /// Lock releases.
    pub unlocks: u64,
    /// Barrier arrivals.
    pub barriers: u64,
    /// Forks.
    pub forks: u64,
    /// Joins.
    pub joins: u64,
    /// Semaphore posts.
    pub posts: u64,
    /// Semaphore waits.
    pub waits: u64,
    /// Condvar wait arrivals.
    pub cond_waits: u64,
    /// Condvar wakeups (scheduler-synthesized `CondWake` completions).
    pub cond_wakes: u64,
    /// Condvar notifies (`NotifyOne` + `NotifyAll`).
    pub notifies: u64,
    /// Pure-compute operations.
    pub computes: u64,
    /// Total cycles declared by compute operations.
    pub compute_cycles: u64,
}

impl OpCounts {
    /// Records one operation.
    pub fn record(&mut self, op: &Op) {
        match op {
            Op::Read { .. } => self.reads += 1,
            Op::Write { .. } => self.writes += 1,
            Op::AtomicRmw { .. } => self.atomics += 1,
            Op::AtomicLoad { .. } => self.atomic_loads += 1,
            Op::AtomicStore { .. } => self.atomic_stores += 1,
            Op::RelaxedLoad { .. } | Op::RelaxedStore { .. } | Op::RelaxedRmw { .. } => {
                self.relaxed += 1
            }
            Op::Lock { .. } => self.locks += 1,
            Op::Unlock { .. } => self.unlocks += 1,
            Op::Barrier { .. } => self.barriers += 1,
            Op::Fork { .. } => self.forks += 1,
            Op::Join { .. } => self.joins += 1,
            Op::Post { .. } => self.posts += 1,
            Op::WaitSem { .. } => self.waits += 1,
            Op::CondWait { .. } => self.cond_waits += 1,
            Op::CondWake { .. } => self.cond_wakes += 1,
            Op::NotifyOne { .. } | Op::NotifyAll { .. } => self.notifies += 1,
            Op::Compute { cycles } => {
                self.computes += 1;
                self.compute_cycles += u64::from(*cycles);
            }
        }
    }

    /// Total data memory accesses (reads + writes + RMWs + relaxed atomics).
    pub fn memory_accesses(&self) -> u64 {
        self.reads + self.writes + self.atomics + self.relaxed
    }

    /// Total synchronization operations.
    pub fn sync_ops(&self) -> u64 {
        self.atomics
            + self.atomic_loads
            + self.atomic_stores
            + self.locks
            + self.unlocks
            + self.barriers
            + self.forks
            + self.joins
            + self.posts
            + self.waits
            + self.cond_waits
            + self.cond_wakes
            + self.notifies
    }

    /// Total operations of any kind.
    pub fn total(&self) -> u64 {
        self.memory_accesses()
            + self.atomic_loads
            + self.atomic_stores
            + self.locks
            + self.unlocks
            + self.barriers
            + self.forks
            + self.joins
            + self.posts
            + self.waits
            + self.cond_waits
            + self.cond_wakes
            + self.notifies
            + self.computes
    }
}

/// Listener adapter: counts operations while forwarding every event to an
/// inner listener.
///
/// # Examples
///
/// ```
/// use ddrace_program::{ProgramBuilder, SchedulerConfig, StatsCollector, NullListener,
///                      run_program, ThreadId};
/// let mut b = ProgramBuilder::new();
/// let x = b.alloc_shared(8).base();
/// b.on(ThreadId::MAIN).write(x).read(x);
/// let mut collector = StatsCollector::new(NullListener);
/// run_program(b.build(), SchedulerConfig::default(), &mut collector).unwrap();
/// assert_eq!(collector.counts().reads, 1);
/// assert_eq!(collector.counts().writes, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StatsCollector<L> {
    inner: L,
    counts: OpCounts,
}

impl<L: ExecutionListener> StatsCollector<L> {
    /// Wraps `inner`, forwarding all events to it.
    pub fn new(inner: L) -> Self {
        StatsCollector {
            inner,
            counts: OpCounts::default(),
        }
    }

    /// The counts accumulated so far.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Consumes the collector, returning the inner listener and the counts.
    pub fn into_inner(self) -> (L, OpCounts) {
        (self.inner, self.counts)
    }
}

impl<L: ExecutionListener> ExecutionListener for StatsCollector<L> {
    fn on_event(&mut self, event: &TraceEvent) {
        if let TraceEvent::Op { op, .. } = event {
            self.counts.record(op);
        }
        self.inner.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::op::{Addr, ThreadId};
    use crate::schedule::{run_program, NullListener, SchedulerConfig};

    #[test]
    fn op_counts_cover_all_kinds() {
        let mut b = ProgramBuilder::new();
        let x = b.alloc_shared(64).base();
        let l = b.new_lock();
        let bar = b.new_barrier();
        let s = b.new_sem();
        let cv = b.new_cond();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN)
            .fork(t1)
            .write(x)
            .read(x)
            .atomic_rmw(x)
            .atomic_load(x)
            .atomic_store(x)
            .relaxed_load(x)
            .relaxed_store(x)
            .relaxed_rmw(x)
            .lock(l)
            .unlock(l)
            .post(s)
            .lock(l)
            .notify_one(cv)
            .unlock(l)
            .barrier(bar, 2)
            .compute(7)
            .join(t1);
        b.on(t1)
            .wait_sem(s)
            .lock(l)
            .cond_wait(cv, l)
            .unlock(l)
            .barrier(bar, 2);
        let mut c = StatsCollector::new(NullListener);
        run_program(b.build(), SchedulerConfig::default(), &mut c).unwrap();
        let counts = *c.counts();
        assert_eq!(counts.reads, 1);
        assert_eq!(counts.writes, 1);
        assert_eq!(counts.atomics, 1);
        assert_eq!(counts.atomic_loads, 1);
        assert_eq!(counts.atomic_stores, 1);
        assert_eq!(counts.relaxed, 3);
        assert_eq!(counts.locks, 3);
        assert_eq!(counts.unlocks, 3);
        assert_eq!(counts.barriers, 2);
        assert_eq!(counts.forks, 1);
        assert_eq!(counts.joins, 1);
        assert_eq!(counts.posts, 1);
        assert_eq!(counts.waits, 1);
        assert_eq!(counts.cond_waits, 1);
        assert_eq!(counts.cond_wakes, 1);
        assert_eq!(counts.notifies, 1);
        assert_eq!(counts.computes, 1);
        assert_eq!(counts.compute_cycles, 7);
        assert_eq!(counts.memory_accesses(), 6);
        assert_eq!(counts.sync_ops(), 18);
        assert_eq!(counts.total(), 24);
    }

    #[test]
    fn totals_are_consistent() {
        let mut counts = OpCounts::default();
        counts.record(&Op::Read { addr: Addr(0) });
        counts.record(&Op::Compute { cycles: 3 });
        counts.record(&Op::Compute { cycles: 4 });
        assert_eq!(counts.total(), 3);
        assert_eq!(counts.compute_cycles, 7);
        assert_eq!(counts.sync_ops(), 0);
    }

    #[test]
    fn into_inner_returns_counts() {
        let c = StatsCollector::new(NullListener);
        let (_inner, counts) = c.into_inner();
        assert_eq!(counts, OpCounts::default());
    }
}

ddrace_json::json_struct!(OpCounts {
    reads,
    writes,
    atomics,
    atomic_loads,
    atomic_stores,
    relaxed,
    locks,
    unlocks,
    barriers,
    forks,
    joins,
    posts,
    waits,
    cond_waits,
    cond_wakes,
    notifies,
    computes,
    compute_cycles,
});
