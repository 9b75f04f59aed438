//! Experiment A1 — detector-algorithm ablation.
//!
//! Continuous analysis with FastTrack (adaptive epochs) versus Djit⁺
//! (full vector clocks) versus the Eraser lockset baseline: same
//! programs, same schedules. Reports detector work counters, wall-clock
//! of the simulation (dominated by detector cost), and races found —
//! lockset's fork/join false positives show up exactly where expected.

use ddrace_bench::{pct, print_table, ratio, run_one_with, save_json, ExpContext};
use ddrace_core::{AnalysisMode, DetectorKind};
use ddrace_workloads::{phoenix, racy};
use std::time::Instant;

#[derive(Debug)]
struct AblationRow {
    workload: String,
    detector: String,
    wall_ms: f64,
    fast_path_fraction: f64,
    escalations: u64,
    racy_vars: usize,
}
ddrace_json::json_struct!(@to AblationRow { workload, detector, wall_ms, fast_path_fraction, escalations, racy_vars });

fn main() {
    let ctx = ExpContext::from_env();
    println!("A1: FastTrack vs Djit vs lockset under continuous analysis\n");

    let specs = vec![
        phoenix::kmeans(),
        phoenix::word_count(),
        racy::unprotected_counter(),
        racy::mostly_locked(),
    ];

    let mut out = Vec::new();
    for spec in &specs {
        for kind in DetectorKind::ALL {
            let mut config = ctx.sim_config(AnalysisMode::Continuous);
            config.detector_kind = kind;
            let t0 = Instant::now();
            let r = run_one_with(&ctx, spec, config);
            let wall = t0.elapsed().as_secs_f64() * 1e3;
            let stats = r.detector.expect("continuous mode has detector stats");
            let fast = if stats.accesses_checked == 0 {
                0.0
            } else {
                stats.fast_path_hits as f64 / stats.accesses_checked as f64
            };
            out.push(AblationRow {
                workload: spec.name.clone(),
                detector: kind.name().to_string(),
                wall_ms: wall,
                fast_path_fraction: fast,
                escalations: stats.escalations,
                racy_vars: r.races.distinct_addresses,
            });
        }
    }

    let table: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            // Relative to the FastTrack run of the same workload.
            let baseline = out
                .iter()
                .find(|o| o.workload == r.workload && o.detector == "fasttrack")
                .map(|o| o.wall_ms)
                .unwrap_or(r.wall_ms);
            vec![
                r.workload.clone(),
                r.detector.clone(),
                ratio(r.wall_ms / baseline.max(1e-9)),
                format!("{:.1}ms", r.wall_ms),
                pct(r.fast_path_fraction),
                r.escalations.to_string(),
                r.racy_vars.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "workload",
            "detector",
            "rel. wall",
            "wall",
            "fast-path",
            "escalations",
            "racy vars",
        ],
        &table,
    );
    println!("\nNote: lockset over-reports on fork/join programs by design (no HB edges).");
    save_json("exp_a1_fasttrack_ablation", &out);
}
