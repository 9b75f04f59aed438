//! # ddrace — demand-driven data race detection, reproduced
//!
//! A from-scratch Rust reproduction of
//! *"Demand-driven software race detection using hardware performance
//! counters"* (J. Greathouse, Z. Ma, M. Frank, R. Peri, T. Austin;
//! ISCA 2011, DOI 10.1145/2000064.2000084) as a deterministic simulation.
//!
//! ## The idea
//!
//! Happens-before race detectors that instrument every memory access cost
//! 30–300×. But data races require *inter-thread sharing*, and sharing of
//! recently-written data is visible to commodity hardware as **HITM**
//! cache-coherence events, countable by the PMU. So: run the program
//! uninstrumented, arm a HITM counter, and enable the expensive detector
//! only while the hardware says threads are communicating.
//!
//! ## The crates
//!
//! | crate | role |
//! |-------|------|
//! | [`program`] | deterministic multithreaded program model + scheduler |
//! | [`cache`] | MESI multicore cache hierarchy producing HITM events |
//! | [`pmu`] | simulated performance counters, sampling, skid, indicators |
//! | [`detector`] | FastTrack / Djit⁺ / lockset race detectors |
//! | [`core`] | **the paper's contribution**: demand-driven controller + cost model |
//! | [`workloads`] | Phoenix-like & PARSEC-like synthetic benchmarks, racy kernels |
//! | [`harness`] | parallel campaign runner with structured telemetry |
//! | [`trace`] | versioned binary trace format: record live runs, re-detect offline |
//! | [`conform`] | differential + metamorphic conformance fuzzer over the stack |
//! | [`telemetry`] | span/counter sink the simulator emits into during campaigns |
//! | [`json`] | dependency-free JSON used by traces, specs, and campaign output |
//!
//! This facade crate re-exports the most useful items so `use ddrace::*`
//! scenarios work out of the box; the examples and cross-crate
//! integration tests live here too.
//!
//! ## Quickstart
//!
//! ```
//! use ddrace::{run_program, AnalysisMode, ProgramBuilder, ThreadId};
//!
//! // Build a tiny racy program...
//! let mut b = ProgramBuilder::new();
//! let x = b.alloc_shared(8).base();
//! let t1 = b.add_thread();
//! b.on(ThreadId::MAIN).fork(t1).write(x).join(t1);
//! b.on(t1).write(x);
//!
//! // ...and run it under demand-driven analysis on 2 simulated cores.
//! let result = run_program(b.build(), 2, AnalysisMode::Continuous)?;
//! assert_eq!(result.races.distinct, 1);
//! # Ok::<(), ddrace::ScheduleError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ddrace_cache as cache;
pub use ddrace_conform as conform;
pub use ddrace_core as core;
pub use ddrace_detector as detector;
pub use ddrace_harness as harness;
pub use ddrace_json as json;
pub use ddrace_native as native;
pub use ddrace_pmu as pmu;
pub use ddrace_program as program;
pub use ddrace_telemetry as telemetry;
pub use ddrace_trace as trace;
pub use ddrace_workloads as workloads;

pub use ddrace_cache::{CacheConfig, CacheHierarchy, CoreId, HitWhere, LevelConfig, SharingKind};
pub use ddrace_conform::{check_spec, run_fuzz, Fault, FuzzConfig, FuzzSpec};
pub use ddrace_core::{
    geomean, render_timeline, result_timeline, run_program, AnalysisMode, AnalysisState,
    ControllerConfig, CostModel, DemandController, DetectorKind, EnableScope, RunResult, SimConfig,
    Simulation,
};
pub use ddrace_detector::{
    DetectorConfig, FastTrack, Granularity, RaceDetector, RaceKind, RaceReport,
};
pub use ddrace_harness::{
    replay, resume_campaign, run_campaign, Campaign, CampaignReport, CheckpointLog, ConfigPatch,
    EventSink, Job, JobVariant, TraceSource,
};
pub use ddrace_pmu::{IndicatorMode, SharingIndicator};
pub use ddrace_program::{
    AccessKind, Addr, Op, Program, ProgramBuilder, ScheduleError, SchedulerConfig, ThreadId,
};
pub use ddrace_trace::{TraceError, TraceReader, TraceWriter};
pub use ddrace_workloads::{archetypes, parsec, phoenix, racy, Scale, WorkloadSpec};
