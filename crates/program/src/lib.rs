//! Deterministic multithreaded program model for the ddrace simulator.
//!
//! This crate is the foundation of the [ddrace] reproduction of
//! *"Demand-driven software race detection using hardware performance
//! counters"* (Greathouse et al., ISCA 2011): it defines what a simulated
//! parallel **program** is and how it **executes**.
//!
//! A program is a set of per-thread [`OpStream`]s — lazy sequences of
//! [`Op`]s (loads, stores, atomics, locks, barriers, fork/join,
//! semaphores, pure compute). The [`Scheduler`] interleaves the threads
//! deterministically (seeded, quantum-based, optionally jittered), enforces
//! blocking semantics, and delivers every executed operation to an
//! [`ExecutionListener`] as a [`TraceEvent`], in one global order. Higher
//! layers — the cache simulator, the PMU model, and the race detector — are
//! all listeners over this stream, and a recorded trace replays the same
//! events to them.
//!
//! # Example
//!
//! Build and run a tiny two-thread program:
//!
//! ```
//! use ddrace_program::{ProgramBuilder, SchedulerConfig, ThreadId, TraceEvent, run_program};
//!
//! let mut b = ProgramBuilder::new();
//! let x = b.alloc_shared(8).base();
//! let worker = b.add_thread();
//! b.on(ThreadId::MAIN).fork(worker).write(x).join(worker);
//! b.on(worker).read(x);
//!
//! let mut n = 0;
//! let stats = run_program(b.build(), SchedulerConfig::default(), &mut |e: &TraceEvent| {
//!     if matches!(e, TraceEvent::Op { .. }) { n += 1; }
//! })?;
//! assert_eq!(n, 4);
//! assert_eq!(stats.ops_executed, 4);
//! # Ok::<(), ddrace_program::ScheduleError>(())
//! ```
//!
//! [ddrace]: https://github.com/ddrace/ddrace

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod address;
mod builder;
mod error;
mod op;
mod program;
mod rng;
mod runqueue;
mod schedule;
mod stats;
mod trace;

pub use address::{AddressSpace, Region, DEFAULT_LINE_SIZE};
pub use builder::{ProgramBuilder, ThreadCursor};
pub use error::{BlockReason, ScheduleError};
pub use op::{AccessKind, Addr, BarrierId, CondId, LockId, Op, SemId, ThreadId};
pub use program::{OpStream, Program, StartMode};
pub use rng::Prng;
pub use runqueue::RunQueue;
pub use schedule::{
    run_program, ExecutionListener, NullListener, PickStrategy, RunStats, Scheduler,
    SchedulerConfig,
};
pub use stats::{OpCounts, StatsCollector};
pub use trace::{Trace, TraceEvent};
