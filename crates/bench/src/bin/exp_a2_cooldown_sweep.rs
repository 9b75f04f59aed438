//! Experiment A2 — cooldown-window ablation.
//!
//! Sweeps the controller's cooldown (accesses without observed sharing
//! before analysis disables). Too eager a disable thrashes, paying the
//! toggle cost on every enable; too lazy a disable decays toward
//! continuous cost. The racy variables found on a sparse racy kernel show
//! whether the shorter windows also lose races.

use ddrace_bench::{print_table, ratio, run_one, run_one_with, save_json, ExpContext};
use ddrace_core::{AnalysisMode, ControllerConfig};
use ddrace_pmu::IndicatorMode;
use ddrace_workloads::{phoenix, racy};

#[derive(Debug)]
struct CooldownPoint {
    cooldown: u64,
    speedup_clean: f64,
    enables_clean: u64,
    racy_vars_found: usize,
    racy_events: u64,
}
ddrace_json::json_struct!(@to CooldownPoint { cooldown, speedup_clean, enables_clean, racy_vars_found, racy_events });

fn main() {
    let ctx = ExpContext::from_env();
    println!(
        "A2: cooldown-window sweep (scale {:?}, seed {})\n",
        ctx.scale, ctx.seed
    );

    let clean = phoenix::word_count();
    let racy_spec = racy::sparse_race();
    let cont_clean = run_one(&ctx, &clean, AnalysisMode::Continuous);

    let mut points = Vec::new();
    for cooldown in [100u64, 500, 1_000, 3_000, 6_000, 12_000, 50_000, 200_000] {
        let mode = AnalysisMode::Demand {
            indicator: IndicatorMode::hitm_default(),
            controller: ControllerConfig {
                cooldown_accesses: cooldown,
                min_on_accesses: (cooldown / 30).max(1),
                ..ControllerConfig::default()
            },
        };
        let r_clean = run_one_with(&ctx, &clean, ctx.sim_config(mode));
        let r_racy = run_one_with(&ctx, &racy_spec, ctx.sim_config(mode));
        points.push(CooldownPoint {
            cooldown,
            speedup_clean: r_clean.speedup_over(&cont_clean),
            enables_clean: r_clean.controller.unwrap().enables,
            racy_vars_found: r_racy.races.distinct_addresses,
            racy_events: r_racy.races.occurrences,
        });
    }

    let table: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.cooldown.to_string(),
                ratio(p.speedup_clean),
                p.enables_clean.to_string(),
                p.racy_vars_found.to_string(),
                p.racy_events.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "cooldown (accesses)",
            "speedup word_count",
            "enables",
            "racy vars (sparse_race)",
            "racy events",
        ],
        &table,
    );
    save_json("exp_a2_cooldown_sweep", &points);
}
