//! The scheduler's event stream and in-memory execution traces.
//!
//! [`TraceEvent`] is the one event type of the system: the scheduler
//! hands each one to its [`ExecutionListener`](crate::ExecutionListener)
//! by reference, the DDRT codec in `ddrace-trace` encodes and decodes it,
//! and replay feeds it back to the simulator and detectors unchanged.
//!
//! A [`Trace`] is the schedule-resolved event stream of one execution:
//! what the scheduler emitted, in order, with every blocking decision
//! already made. It is an editable event list — the conformance fuzzer's
//! metamorphic oracles rewrite events in place. The serialized form of a
//! trace is the `ddrace-trace` DDRT format, and a trace reaches the
//! simulator only through `ddrace_harness::replay` over DDRT bytes.

use crate::op::{BarrierId, Op, ThreadId};

/// One execution event, in the global order the scheduler delivered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A thread became runnable. `parent` is `None` only for the main
    /// thread; for every other thread it names the forker (or the main
    /// thread, under [`StartMode::AllStart`](crate::StartMode::AllStart)).
    ThreadStarted {
        /// The thread that started.
        tid: ThreadId,
        /// The thread that created it, if any.
        parent: Option<ThreadId>,
    },
    /// A thread executed an operation. For blocking operations this is
    /// delivered when the operation *completes* (e.g. the lock is actually
    /// acquired), except barrier arrivals which are delivered on arrival.
    Op {
        /// The executing thread.
        tid: ThreadId,
        /// The operation.
        op: Op,
    },
    /// All participants arrived at a barrier and it released.
    BarrierReleased {
        /// The barrier that released.
        barrier: BarrierId,
        /// Every participant of this episode, in arrival order.
        participants: Vec<ThreadId>,
    },
    /// A thread executed its last operation.
    ThreadFinished {
        /// The finished thread.
        tid: ThreadId,
    },
}

/// A complete recorded execution.
///
/// # Examples
///
/// ```
/// use ddrace_program::{ProgramBuilder, SchedulerConfig, ThreadId, Trace};
///
/// let mut b = ProgramBuilder::new();
/// let x = b.alloc_shared(8).base();
/// b.on(ThreadId::MAIN).write(x).read(x);
///
/// let trace = Trace::record(b.build(), SchedulerConfig::default())?;
/// assert_eq!(trace.op_count(), 2);
/// assert_eq!(trace.thread_count(), 1);
/// # Ok::<(), ddrace_program::ScheduleError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Runs `program` under `config` and records the whole event stream.
    ///
    /// # Errors
    ///
    /// Propagates scheduler errors from the run.
    pub fn record(
        program: crate::program::Program,
        config: crate::schedule::SchedulerConfig,
    ) -> Result<Trace, crate::error::ScheduleError> {
        let mut events = Vec::new();
        crate::schedule::Scheduler::new(program, config)
            .run(&mut |event: &TraceEvent| events.push(event.clone()))?;
        Ok(Trace { events })
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of executed operations in the trace.
    pub fn op_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Op { .. }))
            .count() as u64
    }

    /// Number of distinct threads that started.
    pub fn thread_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ThreadStarted { .. }))
            .count()
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::schedule::SchedulerConfig;

    fn sample_trace(seed: u64) -> Trace {
        let mut b = ProgramBuilder::new();
        b.all_start();
        let x = b.alloc_shared(64);
        let l = b.new_lock();
        let bar = b.new_barrier();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN)
            .write(x.index(0))
            .lock(l)
            .write(x.index(8))
            .unlock(l)
            .barrier(bar, 2)
            .read(x.index(0));
        b.on(t1).lock(l).read(x.index(8)).unlock(l).barrier(bar, 2);
        Trace::record(b.build(), SchedulerConfig::jittered(seed)).unwrap()
    }

    #[test]
    fn record_captures_everything() {
        let trace = sample_trace(3);
        assert_eq!(trace.thread_count(), 2);
        assert_eq!(trace.op_count(), 10);
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::BarrierReleased { .. })));
        assert_eq!(
            trace
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::ThreadFinished { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn record_surfaces_schedule_errors() {
        let mut b = ProgramBuilder::new();
        let l = b.new_lock();
        b.on(ThreadId::MAIN).unlock(l);
        assert!(Trace::record(b.build(), SchedulerConfig::default()).is_err());
    }

    #[test]
    fn different_seeds_record_different_traces() {
        // With jitter, interleavings differ; the recorded traces reflect
        // that while each remains individually deterministic.
        let a = sample_trace(100);
        let b = sample_trace(200);
        let a2 = sample_trace(100);
        assert_eq!(a, a2);
        // (a and b may coincide for tiny programs; only assert determinism.)
        let _ = b;
    }
}
