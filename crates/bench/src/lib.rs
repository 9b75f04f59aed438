//! Experiment harness for the ddrace paper reproduction.
//!
//! One binary per table/figure (see `DESIGN.md` for the experiment
//! index); this library holds what they share: an environment-driven
//! [`ExpContext`], mode runners built on the [`ddrace_harness`] campaign
//! executor (each simulated run is single-threaded and deterministic, so
//! the harness parallelizes *across* jobs), plain-text table printing,
//! and JSON result dumps under `results/`.
//!
//! Environment knobs:
//!
//! * `DDRACE_SCALE` — `test`, `small` (default), or `large`; anything
//!   else is an error (exit 2), never a silent fallback;
//! * `DDRACE_SEED` — base RNG seed (default 42);
//! * `DDRACE_SEEDS` — comma-separated seed axis for campaign-backed
//!   experiments (default: just `DDRACE_SEED`);
//! * `DDRACE_CORES` — simulated cores (default 8);
//! * `DDRACE_WORKERS` — host worker threads (default: all cores);
//! * `DDRACE_EVENTS` — JSONL event-stream path for campaign-backed
//!   experiments (doubles as a resume checkpoint);
//! * `DDRACE_RESUME` — a prior `DDRACE_EVENTS` stream to restore
//!   finished jobs from;
//! * `DDRACE_RESULTS_DIR` — where JSON dumps go (default `results/`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use ddrace_core::{AnalysisMode, RunResult, SimConfig, Simulation};
use ddrace_harness::{
    resume_campaign, run_campaign, Campaign, CampaignReport, CheckpointLog, EventSink,
};
use ddrace_json::ToJson;
use ddrace_program::SchedulerConfig;
use ddrace_workloads::{Scale, WorkloadSpec};
use std::io::Write as _;
use std::path::PathBuf;

pub use ddrace_harness::SuiteRow as ModeRow;

/// Shared experiment configuration, read from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpContext {
    /// Workload scale.
    pub scale: Scale,
    /// Base seed; workload generation and the scheduler derive from it.
    pub seed: u64,
    /// Simulated core count.
    pub cores: usize,
}

impl ExpContext {
    /// Reads the context from `DDRACE_*` environment variables.
    ///
    /// An unrecognized `DDRACE_SCALE` value terminates the process with
    /// exit code 2: a typo like `DDRACE_SCALE=Large` used to silently run
    /// at SMALL, wasting the whole (possibly hours-long) experiment.
    pub fn from_env() -> Self {
        let scale = match std::env::var("DDRACE_SCALE") {
            Ok(name) => Scale::from_name(&name).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            }),
            Err(_) => Scale::SMALL,
        };
        let seed = std::env::var("DDRACE_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        let cores = std::env::var("DDRACE_CORES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(8);
        ExpContext { scale, seed, cores }
    }

    /// The scheduler configuration every experiment uses: jittered with
    /// the context seed, so interleavings vary by seed but are
    /// reproducible.
    pub fn scheduler(&self) -> SchedulerConfig {
        SchedulerConfig {
            quantum: 32,
            seed: self.seed,
            jitter: true,
        }
    }

    /// A simulation config for `mode` under this context.
    pub fn sim_config(&self, mode: AnalysisMode) -> SimConfig {
        let mut cfg = SimConfig::new(self.cores, mode);
        cfg.scheduler = self.scheduler();
        cfg
    }
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            scale: Scale::SMALL,
            seed: 42,
            cores: 8,
        }
    }
}

/// Runs one workload under one mode.
///
/// # Panics
///
/// Panics if the workload program is ill-formed (a bug in the generator,
/// not in user input).
pub fn run_one(ctx: &ExpContext, spec: &WorkloadSpec, mode: AnalysisMode) -> RunResult {
    run_one_with(ctx, spec, ctx.sim_config(mode))
}

/// Runs one workload under an explicit simulation config (for sweeps that
/// vary more than the mode).
///
/// # Panics
///
/// Panics if the workload program is ill-formed.
pub fn run_one_with(ctx: &ExpContext, spec: &WorkloadSpec, config: SimConfig) -> RunResult {
    let program = spec.program(ctx.scale, ctx.seed);
    Simulation::new(config)
        .run(program)
        .unwrap_or_else(|e| panic!("workload {} failed to schedule: {e}", spec.name))
}

/// Caps `scale` at `cap` (comparing the scaling ratios). Returns the
/// effective scale and whether a remap happened — callers must announce
/// the remap instead of silently downgrading the run.
pub fn cap_scale(scale: Scale, cap: Scale) -> (Scale, bool) {
    if scale.num * cap.den > cap.num * scale.den {
        (cap, true)
    } else {
        (scale, false)
    }
}

/// The experiment seed axis: `DDRACE_SEEDS` as a comma-separated list,
/// or just `base` (the `DDRACE_SEED` value) when unset. A malformed
/// list terminates the process with exit code 2 rather than silently
/// running a different sweep than asked for.
pub fn seeds_from_env(base: u64) -> Vec<u64> {
    match std::env::var("DDRACE_SEEDS") {
        Ok(list) => {
            let seeds: Result<Vec<u64>, _> = list.split(',').map(|s| s.trim().parse()).collect();
            match seeds {
                Ok(seeds) if !seeds.is_empty() => seeds,
                _ => {
                    eprintln!(
                        "error: DDRACE_SEEDS takes comma-separated numbers, e.g. 1,2,3 \
                         (got `{list}`)"
                    );
                    std::process::exit(2);
                }
            }
        }
        Err(_) => vec![base],
    }
}

/// Runs an experiment campaign with the shared environment plumbing:
/// host workers from `DDRACE_WORKERS`, a JSONL event stream to
/// `DDRACE_EVENTS` (making the run checkpointable), and resume from a
/// prior stream named by `DDRACE_RESUME`.
///
/// The resume log is read *before* the events path is opened, so
/// resuming a run into the same path it came from does not truncate
/// the checkpoint being replayed.
///
/// # Panics
///
/// Panics if any job fails — experiment workloads are expected to be
/// well-formed. Bad resume/events paths terminate with exit code 2.
pub fn run_exp_campaign(campaign: &Campaign) -> CampaignReport {
    let resume_log = std::env::var("DDRACE_RESUME").ok().map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: DDRACE_RESUME {path}: {e}");
            std::process::exit(2);
        });
        CheckpointLog::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: DDRACE_RESUME {path}: {e}");
            std::process::exit(2);
        })
    });
    let jsonl: Option<Box<dyn std::io::Write + Send>> =
        std::env::var("DDRACE_EVENTS")
            .ok()
            .map(|path| -> Box<dyn std::io::Write + Send> {
                Box::new(std::fs::File::create(&path).unwrap_or_else(|e| {
                    eprintln!("error: DDRACE_EVENTS {path}: {e}");
                    std::process::exit(2);
                }))
            });
    let sink = EventSink::new(jsonl, false);
    let report = match &resume_log {
        Some(log) => resume_campaign(campaign, host_workers(), &sink, log).unwrap_or_else(|e| {
            eprintln!("error: DDRACE_RESUME does not match this campaign: {e}");
            std::process::exit(2);
        }),
        None => run_campaign(campaign, host_workers(), &sink),
    };
    for record in &report.records {
        if let Err(reason) = &record.outcome {
            panic!("job {} failed: {reason}", record.label);
        }
    }
    report
}

/// Host worker-thread count for campaign execution: `DDRACE_WORKERS`, or
/// every available core.
pub fn host_workers() -> usize {
    std::env::var("DDRACE_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

/// Runs every workload under every mode on the campaign harness's worker
/// pool. Results keep the input order.
///
/// # Panics
///
/// Panics if any job fails — experiment workloads are expected to be
/// well-formed, so a failure is a generator or simulator bug.
pub fn run_matrix(
    ctx: &ExpContext,
    specs: &[WorkloadSpec],
    modes: &[AnalysisMode],
) -> Vec<ModeRow> {
    run_matrix_seeded(ctx, specs, modes, &[ctx.seed])
}

/// Runs the full workload × mode × seed cross product on the campaign
/// harness, at the context's scale and core count. Both workload
/// generation and the interleaving scheduler derive from the job's seed.
/// Rows keep workload order; within a row, runs are mode-major with the
/// seed axis innermost (`runs[m * seeds.len() + s]`), and multi-seed
/// sweeps carry per-mode mean/min/max fold-downs in
/// [`SuiteRow::seed_stats`](ddrace_harness::SuiteRow).
///
/// # Panics
///
/// Panics if any job fails — experiment workloads are expected to be
/// well-formed, so a failure is a generator or simulator bug.
pub fn run_matrix_seeded(
    ctx: &ExpContext,
    specs: &[WorkloadSpec],
    modes: &[AnalysisMode],
    seeds: &[u64],
) -> Vec<ModeRow> {
    let campaign = Campaign::builder("matrix")
        .workloads(specs.iter().cloned())
        .modes(modes.iter().copied())
        .seeds(seeds.iter().copied())
        .scale(ctx.scale)
        .cores(ctx.cores)
        .build();
    let report = run_campaign(&campaign, host_workers(), &EventSink::null());
    for record in &report.records {
        if let Err(reason) = &record.outcome {
            panic!("workload {} failed: {reason}", record.label);
        }
    }
    report.rows()
}

/// Prints a fixed-width table: a header row then data rows.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("{}", line.join("  "));
    };
    print_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
    for row in rows {
        print_row(row);
    }
}

/// Serializes `value` to `results/<name>.json` (directory from
/// `DDRACE_RESULTS_DIR`), creating the directory if needed. Prints the
/// path written. Failures are reported but not fatal — the printed table
/// is the primary output.
pub fn save_json<T: ToJson>(name: &str, value: &T) {
    let dir = std::env::var("DDRACE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let dir = PathBuf::from(dir);
    let write = || -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.json"));
        let mut f = std::fs::File::create(&path)?;
        let json = ddrace_json::to_string_pretty(value).map_err(std::io::Error::other)?;
        f.write_all(json.as_bytes())?;
        Ok(path)
    };
    match write() {
        Ok(path) => println!("\n[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not save {name}.json: {e}"),
    }
}

/// Formats a ratio like `12.3x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.1}x")
}

/// Formats a fraction as a percentage like `12.3%`.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrace_workloads::racy;

    #[test]
    fn context_defaults() {
        let ctx = ExpContext::default();
        assert_eq!(ctx.cores, 8);
        assert_eq!(ctx.scale, Scale::SMALL);
        assert!(ctx.scheduler().jitter);
    }

    #[test]
    fn run_matrix_preserves_order_and_modes() {
        let ctx = ExpContext {
            scale: Scale::TEST,
            seed: 1,
            cores: 4,
        };
        let specs = racy::kernels();
        let modes = [AnalysisMode::Native, AnalysisMode::Continuous];
        let rows = run_matrix(&ctx, &specs, &modes);
        assert_eq!(rows.len(), specs.len());
        for (row, spec) in rows.iter().zip(&specs) {
            assert_eq!(row.name, spec.name);
            assert_eq!(row.runs.len(), 2);
            assert_eq!(row.runs[0].mode, "native");
            assert_eq!(row.runs[1].mode, "continuous");
            // Same program, same schedule: identical op counts.
            assert_eq!(row.runs[0].ops, row.runs[1].ops);
        }
    }

    #[test]
    fn run_matrix_seeded_is_mode_major_seed_innermost() {
        let ctx = ExpContext {
            scale: Scale::TEST,
            seed: 1,
            cores: 4,
        };
        let specs = [racy::kernels()[0].clone()];
        let modes = [AnalysisMode::Native, AnalysisMode::Continuous];
        let seeds = [3, 9];
        let rows = run_matrix_seeded(&ctx, &specs, &modes, &seeds);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.runs.len(), 4);
        assert_eq!(row.runs[0].mode, "native");
        assert_eq!(row.runs[1].mode, "native");
        assert_eq!(row.runs[2].mode, "continuous");
        assert_eq!(row.runs[3].mode, "continuous");
        // Multi-seed rows carry the per-mode fold-downs.
        assert_eq!(row.seed_stats.len(), 2);
        assert_eq!(row.seed_stats[0].seeds, 2);
        // A seeded run matches the same seed run alone: the harness seed
        // axis reproduces what per-seed ExpContext runs produced.
        let solo = run_matrix_seeded(&ctx, &specs, &modes, &[9]);
        assert_eq!(row.runs[1].makespan, solo[0].runs[0].makespan);
        assert_eq!(row.runs[3].makespan, solo[0].runs[1].makespan);
    }

    #[test]
    fn cap_scale_only_remaps_larger_scales() {
        assert_eq!(cap_scale(Scale::LARGE, Scale::SMALL), (Scale::SMALL, true));
        assert_eq!(cap_scale(Scale::SMALL, Scale::SMALL), (Scale::SMALL, false));
        assert_eq!(cap_scale(Scale::TEST, Scale::SMALL), (Scale::TEST, false));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(12.34), "12.3x");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
