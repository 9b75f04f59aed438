//! In-memory execution traces.
//!
//! A [`Trace`] is the schedule-resolved event stream of one execution:
//! what the scheduler emitted, in order, with every blocking decision
//! already made. It is an editable event list — the conformance fuzzer's
//! metamorphic oracles rewrite events in place. The serialized form of a
//! trace is the `ddrace-trace` DDRT format, and a trace reaches the
//! simulator only through `ddrace_harness::replay` over DDRT bytes.
//!
//! [`TraceRecorder`] is an [`ExecutionListener`] that captures while
//! optionally forwarding to an inner listener.

use crate::op::{BarrierId, Op, ThreadId};
use crate::schedule::{Event, ExecutionListener};

/// One recorded event (the owned analogue of [`Event`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A thread became runnable.
    ThreadStarted {
        /// The thread that started.
        tid: ThreadId,
        /// Its creator, if any.
        parent: Option<ThreadId>,
    },
    /// A thread executed an operation.
    Op {
        /// The executing thread.
        tid: ThreadId,
        /// The operation.
        op: Op,
    },
    /// A barrier released its participants.
    BarrierReleased {
        /// The barrier.
        barrier: BarrierId,
        /// Participants, in arrival order.
        participants: Vec<ThreadId>,
    },
    /// A thread finished.
    ThreadFinished {
        /// The finished thread.
        tid: ThreadId,
    },
}

impl TraceEvent {
    fn from_event(event: &Event<'_>) -> Self {
        match *event {
            Event::ThreadStarted { tid, parent } => TraceEvent::ThreadStarted { tid, parent },
            Event::Op { tid, op } => TraceEvent::Op { tid, op },
            Event::BarrierReleased {
                barrier,
                participants,
            } => TraceEvent::BarrierReleased {
                barrier,
                participants: participants.to_vec(),
            },
            Event::ThreadFinished { tid } => TraceEvent::ThreadFinished { tid },
        }
    }
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
        let mut recorder = TraceRecorder::new(crate::schedule::NullListener);
        crate::schedule::Scheduler::new(program, config).run(&mut recorder)?;
        Ok(recorder.into_trace().0)
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

/// Listener adapter that records every event while forwarding to an inner
/// listener.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder<L> {
    inner: L,
    trace: Trace,
}

impl<L: ExecutionListener> TraceRecorder<L> {
    /// Wraps `inner`.
    pub fn new(inner: L) -> Self {
        TraceRecorder {
            inner,
            trace: Trace::default(),
        }
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the recorder, returning the trace and the inner listener.
    pub fn into_trace(self) -> (Trace, L) {
        (self.trace, self.inner)
    }
}

impl<L: ExecutionListener> ExecutionListener for TraceRecorder<L> {
    fn on_event(&mut self, event: Event<'_>) {
        self.trace.events.push(TraceEvent::from_event(&event));
        self.inner.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::schedule::{run_program, NullListener, SchedulerConfig};

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
    fn recorder_forwards_to_inner() {
        let mut b = ProgramBuilder::new();
        b.on(ThreadId::MAIN).compute(1).compute(2);
        let mut seen = 0;
        let mut recorder = TraceRecorder::new(|e: Event<'_>| {
            if matches!(e, Event::Op { .. }) {
                seen += 1;
            }
        });
        run_program(b.build(), SchedulerConfig::default(), &mut recorder).unwrap();
        let (trace, _) = recorder.into_trace();
        assert_eq!(trace.op_count(), 2);
        drop(trace);
        assert_eq!(seen, 2);
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

    #[test]
    fn null_recorder_path() {
        let mut recorder = TraceRecorder::new(NullListener);
        recorder.on_event(Event::ThreadStarted {
            tid: ThreadId(0),
            parent: None,
        });
        assert_eq!(recorder.trace().thread_count(), 1);
    }
}
