//! The benchmark's workloads: one generated program plus one native hook
//! mix per workload, all derived from `--seed`.
//!
//! Every workload drives all three product pipelines, so every metric is
//! measured on every workload. What varies between workloads is how much
//! the threads share, which is the input property demand-driven analysis
//! responds to.

use ddrace_core::{AnalysisMode, DetectorKind, SimConfig};
use ddrace_harness::{Job, JobVariant, TraceSource};
use ddrace_program::{PickStrategy, Program};
use ddrace_workloads::{phoenix, Scale, WorkloadSpec};

/// Simulated cores for every simulator and replay run.
const CORES: usize = 8;
/// Scheduler quantum, as `ddrace campaign` uses by default.
const QUANTUM: u32 = 32;
/// Planted racy pairs per iteration, so every workload has races to find.
const RACY_PAIRS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LowShare,
    HighShare,
}

pub const ALL: [Workload; 2] = [Workload::LowShare, Workload::HighShare];

/// Input size: `Bench` for measurement, `Test` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Bench,
    #[cfg(test)]
    Test,
}

impl Size {
    /// Measured rounds a run makes at least, after one warm-up round.
    pub fn min_rounds(self) -> usize {
        match self {
            Size::Bench => 5,
            #[cfg(test)]
            Size::Test => 1,
        }
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::LowShare => "lowshare",
            Workload::HighShare => "highshare",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The suite's spec, unmodified, with planted racy pairs.
    ///
    /// PARSEC's `streamcluster` shares more than `kmeans` but is left out:
    /// with its working sets (64 KiB private per worker, 256 KiB shared)
    /// its continuous-mode wall time doubled between back-to-back batches
    /// on the 2-vCPU reference host, and `sim_ops_per_s.continuous` spread
    /// by 16% over ten seeds, more than a useful bound allows.
    fn spec(self) -> WorkloadSpec {
        match self {
            // Map-reduce with a small locked reduction: demand mode
            // analyses ~3.5% of accesses.
            Workload::LowShare => phoenix::word_count(),
            // Eight fork-join iterations that each re-read and update the
            // shared centroids: demand mode analyses ~15% of accesses.
            Workload::HighShare => phoenix::kmeans(),
        }
        .with_injected_race(RACY_PAIRS)
    }

    /// One in this many native hooks reads a shared word.
    fn native_shared_every(self) -> u64 {
        match self {
            Workload::LowShare => 256,
            Workload::HighShare => 4,
        }
    }
}

/// The native monitor's input: a deterministic hook stream per thread.
#[derive(Debug, Clone, Copy)]
pub struct NativeMix {
    pub hooks: u64,
    pub shared_every: u64,
    pub salt: u64,
}

/// Everything one run generates from (workload, seed, size).
#[derive(Debug, Clone)]
pub struct Input {
    pub workload: Workload,
    pub seed: u64,
    pub spec: WorkloadSpec,
    pub scale: Scale,
    pub native: NativeMix,
}

impl Input {
    pub fn new(workload: Workload, seed: u64, size: Size) -> Input {
        let (scale, hooks) = match size {
            Size::Bench => (Scale::SMALL, 1 << 20),
            #[cfg(test)]
            Size::Test => (Scale::TEST, 1 << 17),
        };
        Input {
            workload,
            seed,
            spec: workload.spec(),
            scale,
            native: NativeMix {
                hooks,
                shared_every: workload.native_shared_every(),
                salt: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            },
        }
    }

    /// A fresh copy of the generated program (a run consumes it).
    pub fn program(&self) -> Program {
        self.spec.program(self.scale, self.seed)
    }

    /// The harness job for this input under `mode`; with `trace` set it
    /// is the trace-corpus job `ddrace ingest` runs.
    pub fn job(
        &self,
        mode: AnalysisMode,
        trace: Option<TraceSource>,
        replay_workers: usize,
    ) -> Job {
        Job {
            id: 0,
            workload: match &trace {
                Some(t) => WorkloadSpec::trace_stub(&t.name),
                None => self.spec.clone(),
            },
            mode,
            seed: self.seed,
            scale: self.scale,
            cores: CORES,
            quantum: QUANTUM,
            detector_kind: DetectorKind::FastTrack,
            variant: JobVariant::baseline(),
            pick_strategy: PickStrategy::default(),
            timeout: None,
            trace,
            replay_workers,
        }
    }

    pub fn sim_config(&self, mode: AnalysisMode) -> SimConfig {
        self.job(mode, None, 0).sim_config()
    }
}
