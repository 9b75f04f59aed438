//! The job model: one [`Job`] is a single simulator run; a [`Campaign`] is
//! a declarative set of jobs built from sweep axes.

use crate::resume::{fnv1a_fold, FNV1A_OFFSET};
use crate::variant::JobVariant;
use ddrace_core::{AnalysisMode, DetectorKind, RunResult, SimConfig, Simulation};
use ddrace_pmu::IndicatorMode;
use ddrace_program::{PickStrategy, SchedulerConfig};
use ddrace_trace::{decode_events_into, TraceError};
use ddrace_workloads::{Scale, WorkloadSpec};
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A recorded trace file registered as a campaign job source.
///
/// Loading validates the whole file up front — header, every record,
/// the end marker — so a corrupt or foreign trace is rejected once at
/// campaign-build time rather than failing some worker mid-run. The
/// content fingerprint ([`fnv1a`](crate::resume::fnv1a) over the raw
/// bytes) goes into the job fingerprint, so `--resume` refuses a
/// checkpoint whose trace file has since changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSource {
    /// Where the trace lives; reopened by each job that replays it.
    pub path: PathBuf,
    /// Display name (the file stem); becomes the workload-slot name.
    pub name: String,
    /// FNV-1a hash of the file's raw bytes.
    pub fingerprint: u64,
    /// Total records in the trace (events plus HITM samples).
    pub records: u64,
}

impl TraceSource {
    /// Opens and fully validates a trace file, streaming it: peak memory
    /// is one frame of the trace codec, however long the trace.
    pub fn load(path: impl AsRef<Path>) -> Result<TraceSource, TraceError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| TraceError::Io {
            offset: 0,
            source: e,
        })?;
        let mut input = Fnv1aReader {
            inner: BufReader::new(file),
            hash: FNV1A_OFFSET,
        };
        // The decoder reads to end of file (it refuses trailing bytes), so
        // on success every byte has passed through the hash.
        let summary = decode_events_into(&mut input, |_| {})?;
        let fingerprint = input.hash;
        let records = summary.events + summary.hitm_samples;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        Ok(TraceSource {
            path: path.to_path_buf(),
            name,
            fingerprint,
            records,
        })
    }
}

/// A reader that folds FNV-1a over the bytes as they pass, so a trace is
/// hashed in the same pass that validates it.
struct Fnv1aReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> Read for Fnv1aReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash = fnv1a_fold(self.hash, &buf[..n]);
        Ok(n)
    }
}

/// One unit of campaign work: a workload run under one analysis mode with
/// one seed, one configuration variant, and explicit overrides.
///
/// Jobs are pure descriptions — running one never mutates the campaign —
/// and carry a stable `id` assigned at build time, so results can be
/// reassembled in declaration order no matter how the worker pool
/// scheduled them.
///
/// The scalar fields (`scale`, `cores`, `quantum`, `detector_kind`) hold
/// the **effective** values: the builder materializes any variant
/// overrides into them, so a job reads the same whether its configuration
/// came from the campaign-wide defaults or its variant's patch. The
/// variant's nested overrides (cache geometry, demand-mode knobs) are
/// applied in [`Job::sim_config`].
#[derive(Debug, Clone)]
pub struct Job {
    /// Position of this job in its campaign (also its result slot).
    pub id: usize,
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// The analysis mode to run it under.
    pub mode: AnalysisMode,
    /// Seed for both workload generation and the interleaving scheduler.
    pub seed: u64,
    /// Workload scale preset (effective; variant overrides materialized).
    pub scale: Scale,
    /// Simulated core count (effective).
    pub cores: usize,
    /// Scheduler quantum in cycles per timeslice (effective).
    pub quantum: u32,
    /// Which detector implementation analysis modes use (effective).
    pub detector_kind: DetectorKind,
    /// The variant-axis point this job belongs to; carries the cache and
    /// demand-knob overrides and names the job in labels and events.
    pub variant: JobVariant,
    /// Runnable-thread picker; [`PickStrategy`] has one variant, so it is
    /// not part of the job fingerprint. Kept only for the end-to-end
    /// benchmark (`bench_e2e/`), which builds `Job` literals.
    pub pick_strategy: PickStrategy,
    /// Wall-clock budget; `None` means unlimited.
    pub timeout: Option<Duration>,
    /// When set, this job replays a recorded trace through the detector
    /// instead of generating and simulating `workload` (which is then a
    /// synthetic [`WorkloadSpec::trace_stub`] occupying the slot).
    pub trace: Option<TraceSource>,
    /// Worker threads for parallel trace replay; `0` (the default) replays
    /// serially (see [`replay`](crate::replay) for which jobs take the
    /// parallel path). Deliberately **not** part of the resume
    /// fingerprint: parallel replay is pinned byte-identical to serial by
    /// the equivalence suites, so the worker count cannot change a
    /// result.
    pub replay_workers: usize,
}

impl Job {
    /// The human name used in events and progress: `workload/mode/s{seed}`,
    /// with the variant name appended (`.../{variant}`) for any
    /// non-baseline variant, so jobs that differ only in swept
    /// configuration — cores, quantum, scale, detector, cache geometry —
    /// never share a label.
    pub fn label(&self) -> String {
        let base = format!(
            "{}/{}/s{}",
            self.workload.name,
            self.mode.label(),
            self.seed
        );
        if self.variant.is_baseline() {
            base
        } else {
            format!("{base}/{}", self.variant.name)
        }
    }

    /// The simulation config this job describes, with the variant's cache
    /// geometry and demand-mode knob overrides applied.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.cores, self.mode);
        cfg.scheduler = SchedulerConfig {
            quantum: self.quantum,
            seed: self.seed,
            jitter: true,
        };
        cfg.detector_kind = self.detector_kind;
        cfg.pick_strategy = self.pick_strategy;
        let patch = &self.variant.patch;
        if let Some(l1) = patch.l1 {
            cfg.cache.l1 = l1;
        }
        if let Some(l2) = patch.l2 {
            cfg.cache.l2 = l2;
        }
        if let Some(l3) = patch.l3 {
            cfg.cache.l3 = l3;
        }
        if let AnalysisMode::Demand {
            indicator,
            controller,
        } = &mut cfg.mode
        {
            if let (Some(period), IndicatorMode::HitmSampling { period: p, .. }) =
                (patch.sample_period, indicator)
            {
                *p = period;
            }
            if let Some(cooldown) = patch.cooldown_accesses {
                controller.cooldown_accesses = cooldown;
            }
        }
        cfg
    }

    /// Runs the simulation synchronously on the calling thread. Trace
    /// jobs stream their recorded trace through [`replay`](crate::replay),
    /// with decode errors prefixed by the trace path; all other jobs
    /// generate and simulate their workload.
    pub fn run(&self) -> Result<RunResult, String> {
        if let Some(source) = &self.trace {
            let _span = ddrace_telemetry::span("job.replay");
            let at = |e: TraceError| format!("trace {}: {e}", source.path.display());
            let file = File::open(&source.path).map_err(|e| {
                at(TraceError::Io {
                    offset: 0,
                    source: e,
                })
            })?;
            return crate::replay(BufReader::new(file), self.sim_config(), self.replay_workers)
                .map_err(at);
        }
        let program = {
            let _span = ddrace_telemetry::span("job.generate");
            ddrace_telemetry::counter("gen.programs", 1);
            self.workload.program(self.scale, self.seed)
        };
        Simulation::new(self.sim_config())
            .run(program)
            .map_err(|e| format!("schedule error: {e}"))
    }
}

/// A named, ordered set of jobs produced by [`CampaignBuilder`].
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name; becomes the aggregate's `"campaign"` field.
    pub name: String,
    /// Jobs in declaration order; `jobs[i].id == i`.
    pub jobs: Vec<Job>,
    /// The mode axis the jobs were built from, in order.
    pub modes: Vec<AnalysisMode>,
    /// The workload axis the jobs were built from, in order.
    pub workloads: Vec<WorkloadSpec>,
    /// The seed axis the jobs were built from, in order.
    pub seeds: Vec<u64>,
    /// The variant axis the jobs were built from, in order. Campaigns
    /// built without [`CampaignBuilder::variants`] carry the single
    /// implicit [`JobVariant::baseline`] point.
    pub variants: Vec<JobVariant>,
}

impl Campaign {
    /// Starts building a campaign.
    pub fn builder(name: impl Into<String>) -> CampaignBuilder {
        CampaignBuilder {
            name: name.into(),
            workloads: Vec::new(),
            traces: Vec::new(),
            modes: vec![AnalysisMode::Native],
            seeds: vec![42],
            variants: vec![JobVariant::baseline()],
            scale: Scale::SMALL,
            cores: 8,
            quantum: 32,
            detector_kind: DetectorKind::default(),
            timeout: None,
            replay_workers: 0,
        }
    }

    /// True when this campaign sweeps configuration variants (anything
    /// beyond the single implicit baseline). Gates the `variant` fields in
    /// the aggregate so variant-free campaigns keep their historical shape.
    pub fn has_variant_axis(&self) -> bool {
        !(self.variants.len() == 1 && self.variants[0].is_baseline())
    }
}

/// Declarative sweep axes; `build` takes the cross product
/// workload × mode × variant × seed in that (workload-major,
/// seed-innermost) order.
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    name: String,
    workloads: Vec<WorkloadSpec>,
    traces: Vec<TraceSource>,
    modes: Vec<AnalysisMode>,
    seeds: Vec<u64>,
    variants: Vec<JobVariant>,
    scale: Scale,
    cores: usize,
    quantum: u32,
    detector_kind: DetectorKind,
    timeout: Option<Duration>,
    replay_workers: usize,
}

impl CampaignBuilder {
    /// Adds workloads to the workload axis.
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads.extend(specs);
        self
    }

    /// Adds recorded traces to the workload axis. Each trace occupies a
    /// synthetic workload slot ([`WorkloadSpec::trace_stub`]) after the
    /// generator workloads and rides the same mode × variant × seed axes,
    /// so [`CampaignReport::rows`](crate::CampaignReport::rows) indexing
    /// and resume fingerprints work unchanged.
    pub fn trace_corpus(mut self, sources: impl IntoIterator<Item = TraceSource>) -> Self {
        self.traces.extend(sources);
        self
    }

    /// Sets the analysis-mode axis (replacing the default `[Native]`).
    pub fn modes(mut self, modes: impl IntoIterator<Item = AnalysisMode>) -> Self {
        self.modes = modes.into_iter().collect();
        self
    }

    /// Sets the seed axis (replacing the default `[42]`).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the variant axis (replacing the implicit single baseline):
    /// every (workload, mode) cell runs once per variant per seed, with
    /// each variant's [`ConfigPatch`](crate::ConfigPatch) applied on top
    /// of the builder-wide configuration.
    pub fn variants(mut self, variants: impl IntoIterator<Item = JobVariant>) -> Self {
        self.variants = variants.into_iter().collect();
        self
    }

    /// Sets the workload scale for every job.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the simulated core count for every job.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the scheduler quantum for every job.
    pub fn quantum(mut self, quantum: u32) -> Self {
        self.quantum = quantum;
        self
    }

    /// Sets the detector implementation for every job.
    pub fn detector_kind(mut self, kind: DetectorKind) -> Self {
        self.detector_kind = kind;
        self
    }

    /// Sets a per-job wall-clock timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the parallel trace-replay worker count for every job
    /// (`0` = serial replay; see [`Job::replay_workers`]).
    pub fn replay_workers(mut self, workers: usize) -> Self {
        self.replay_workers = workers;
        self
    }

    /// Expands the axes into a [`Campaign`]; job ids follow declaration
    /// order: workloads outermost, then modes, then variants, then seeds.
    ///
    /// Variant scalar overrides are materialized here: a job's `scale`,
    /// `cores`, `quantum`, and `detector_kind` fields hold the effective
    /// values after its variant's patch is applied.
    pub fn build(self) -> Campaign {
        // Trace sources occupy workload slots after the generator
        // workloads, so the report's workloads × modes × variants × seeds
        // cross-product indexing covers them without a special case.
        let slots: Vec<(WorkloadSpec, Option<TraceSource>)> = self
            .workloads
            .into_iter()
            .map(|w| (w, None))
            .chain(
                self.traces
                    .into_iter()
                    .map(|t| (WorkloadSpec::trace_stub(&t.name), Some(t))),
            )
            .collect();
        let mut jobs = Vec::with_capacity(
            slots.len() * self.modes.len() * self.variants.len() * self.seeds.len(),
        );
        for (workload, trace) in &slots {
            for &mode in &self.modes {
                for variant in &self.variants {
                    let patch = &variant.patch;
                    for &seed in &self.seeds {
                        jobs.push(Job {
                            id: jobs.len(),
                            workload: workload.clone(),
                            mode,
                            seed,
                            scale: patch.scale.unwrap_or(self.scale),
                            cores: patch.cores.unwrap_or(self.cores),
                            quantum: patch.quantum.unwrap_or(self.quantum),
                            detector_kind: patch.detector_kind.unwrap_or(self.detector_kind),
                            variant: variant.clone(),
                            pick_strategy: PickStrategy::default(),
                            timeout: self.timeout,
                            trace: trace.clone(),
                            replay_workers: self.replay_workers,
                        });
                    }
                }
            }
        }
        Campaign {
            name: self.name,
            jobs,
            modes: self.modes,
            workloads: slots.into_iter().map(|(w, _)| w).collect(),
            seeds: self.seeds,
            variants: self.variants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::ConfigPatch;
    use ddrace_cache::LevelConfig;
    use ddrace_workloads::racy;
    use std::collections::HashSet;

    #[test]
    fn baseline_labels_keep_historical_shape() {
        let spec = Campaign::builder("labels")
            .workloads([racy::sparse_race()])
            .modes([AnalysisMode::Native])
            .seeds([7])
            .build();
        assert_eq!(spec.jobs[0].label(), "sparse_race/native/s7");
        assert!(!spec.has_variant_axis());
    }

    #[test]
    fn variant_swept_jobs_get_unique_labels() {
        // Jobs differing only in cores/quantum/detector — the regression:
        // the old `workload/mode/s{seed}` label collapsed them all.
        let spec = Campaign::builder("labels")
            .workloads([racy::sparse_race()])
            .modes([AnalysisMode::Native, AnalysisMode::demand_hitm()])
            .variants([
                JobVariant::with_cores(1),
                JobVariant::with_cores(4),
                JobVariant::new(
                    "q8",
                    ConfigPatch {
                        quantum: Some(8),
                        ..ConfigPatch::default()
                    },
                ),
                JobVariant::new(
                    "djit",
                    ConfigPatch {
                        detector_kind: Some(DetectorKind::Djit),
                        ..ConfigPatch::default()
                    },
                ),
            ])
            .seeds([1, 2])
            .build();
        assert!(spec.has_variant_axis());
        let labels: HashSet<String> = spec.jobs.iter().map(Job::label).collect();
        assert_eq!(
            labels.len(),
            spec.jobs.len(),
            "every variant-swept job needs a distinct label: {labels:?}"
        );
        assert!(labels.contains("sparse_race/native/s1/c4"));
    }

    #[test]
    fn build_materializes_scalar_overrides() {
        let spec = Campaign::builder("mat")
            .workloads([racy::sparse_race()])
            .modes([AnalysisMode::Native])
            .variants([
                JobVariant::baseline(),
                JobVariant::new(
                    "small",
                    ConfigPatch {
                        cores: Some(2),
                        quantum: Some(16),
                        scale: Some(Scale::TEST),
                        detector_kind: Some(DetectorKind::LockSet),
                        ..ConfigPatch::default()
                    },
                ),
            ])
            .cores(8)
            .quantum(32)
            .scale(Scale::SMALL)
            .build();
        let base = &spec.jobs[0];
        let small = &spec.jobs[1];
        assert_eq!(
            (base.cores, base.quantum, base.scale),
            (8, 32, Scale::SMALL)
        );
        assert_eq!(
            (small.cores, small.quantum, small.scale),
            (2, 16, Scale::TEST)
        );
        assert_eq!(small.detector_kind, DetectorKind::LockSet);
    }

    #[test]
    fn sim_config_applies_cache_and_demand_knobs() {
        let l2 = LevelConfig {
            sets: 32,
            ways: 8,
            latency: 12,
        };
        let spec = Campaign::builder("patch")
            .workloads([racy::sparse_race()])
            .modes([AnalysisMode::demand_hitm()])
            .variants([JobVariant::new(
                "tuned",
                ConfigPatch {
                    l2: Some(l2),
                    sample_period: Some(64),
                    cooldown_accesses: Some(123),
                    ..ConfigPatch::default()
                },
            )])
            .build();
        let cfg = spec.jobs[0].sim_config();
        assert_eq!(cfg.cache.l2, l2);
        // Untouched levels keep the Nehalem defaults.
        assert_eq!(cfg.cache.l1.sets, 64);
        match cfg.mode {
            AnalysisMode::Demand {
                indicator: IndicatorMode::HitmSampling { period, .. },
                controller,
            } => {
                assert_eq!(period, 64);
                assert_eq!(controller.cooldown_accesses, 123);
            }
            other => panic!("expected patched demand mode, got {other:?}"),
        }
        // The job's declared mode is untouched; only the sim config is.
        assert_eq!(spec.jobs[0].mode, AnalysisMode::demand_hitm());
    }

    #[test]
    fn out_of_range_variants_yield_configs_validation_refuses() {
        let quantum0 = JobVariant::new(
            "q0",
            ConfigPatch {
                quantum: Some(0),
                ..ConfigPatch::default()
            },
        );
        let spec = Campaign::builder("bad")
            .workloads([racy::sparse_race()])
            .variants([
                JobVariant::with_cores(0),
                JobVariant::with_cores(65),
                JobVariant::private_cache("odd", 3),
                quantum0,
            ])
            .build();
        for job in &spec.jobs {
            assert!(job.sim_config().validate().is_err(), "{}", job.label());
        }
    }

    #[test]
    fn cross_product_order_is_variant_then_seed() {
        let spec = Campaign::builder("order")
            .workloads([racy::sparse_race()])
            .modes([AnalysisMode::Native, AnalysisMode::Continuous])
            .variants([JobVariant::with_cores(1), JobVariant::with_cores(2)])
            .seeds([10, 11])
            .build();
        assert_eq!(spec.jobs.len(), 8);
        // mode-major, then variant, then seed.
        let key = |j: &Job| (j.mode.label().to_string(), j.cores, j.seed);
        assert_eq!(key(&spec.jobs[0]), ("native".into(), 1, 10));
        assert_eq!(key(&spec.jobs[1]), ("native".into(), 1, 11));
        assert_eq!(key(&spec.jobs[2]), ("native".into(), 2, 10));
        assert_eq!(key(&spec.jobs[4]), ("continuous".into(), 1, 10));
    }
}
