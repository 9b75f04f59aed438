//! Experiment A5 — SMT blindness (extension).
//!
//! Two hardware threads on the same physical core share its private
//! caches, so their mutual data sharing never crosses the coherence
//! fabric and produces **no HITM events** — a limitation the paper
//! discusses for SMT machines. We emulate SMT by pinning more threads
//! than cores (thread `t` runs on core `t mod cores`): the racy pair's
//! sharing is fully visible on separate cores and fully invisible when
//! co-scheduled, taking demand-driven detection with it. The oracle
//! indicator (and continuous analysis) are unaffected — the blindness is
//! purely in the hardware signal.
//!
//! Runs on the campaign harness: the core-count ladder is a variant
//! axis, so `DDRACE_SEEDS` adds seeds, `DDRACE_EVENTS` checkpoints the
//! run, and `DDRACE_RESUME` restores finished jobs from a prior stream.

use ddrace_bench::{
    cap_scale, print_table, run_exp_campaign, save_json, seeds_from_env, ExpContext,
};
use ddrace_core::AnalysisMode;
use ddrace_harness::{Campaign, JobVariant};
use ddrace_workloads::{racy, Scale};

#[derive(Debug)]
struct SmtRow {
    cores: usize,
    threads: u32,
    scale: String,
    hitm_loads: u64,
    true_wr: u64,
    racy_vars_demand: usize,
    racy_vars_continuous: usize,
}
ddrace_json::json_struct!(@to SmtRow { cores, threads, scale, hitm_loads, true_wr, racy_vars_demand, racy_vars_continuous });

fn main() {
    let ctx = ExpContext::from_env();
    println!("A5: SMT co-scheduling vs HITM visibility\n");

    // unprotected_counter has 4 workers + main (5 threads): on 8 cores
    // every thread has its own core; on 2 cores workers pair up; on 1
    // core everything is "SMT siblings" of one core.
    let spec = racy::unprotected_counter();
    // The single-core points serialize badly at LARGE; cap the scale and
    // say so instead of silently running a smaller experiment than asked.
    let (scale, remapped) = cap_scale(ctx.scale, Scale::SMALL);
    if remapped {
        eprintln!(
            "note: A5 caps the workload scale at `small`; DDRACE_SCALE={} runs at `{}`",
            ctx.scale.name(),
            scale.name()
        );
    }

    let core_points = [8usize, 4, 2, 1];
    let variants: Vec<JobVariant> = core_points
        .iter()
        .map(|&c| JobVariant::with_cores(c))
        .collect();
    let seeds = seeds_from_env(ctx.seed);
    let campaign = Campaign::builder("exp_a5_smt")
        .workloads([spec.clone()])
        .modes([AnalysisMode::demand_hitm(), AnalysisMode::Continuous])
        .variants(variants.clone())
        .seeds(seeds.iter().copied())
        .scale(scale)
        .cores(ctx.cores)
        .build();
    let report = run_exp_campaign(&campaign);
    let report_rows = report.rows();
    let row = &report_rows[0];

    // runs are mode-major, then variant, then seed; mode 0 is demand-HITM
    // and mode 1 continuous.
    let (n_variants, n_seeds) = (variants.len(), seeds.len());
    let mut rows = Vec::new();
    for s in 0..n_seeds {
        for (v, &cores) in core_points.iter().enumerate() {
            let demand = &row.runs[v * n_seeds + s];
            let cont = &row.runs[(n_variants + v) * n_seeds + s];
            rows.push(SmtRow {
                cores,
                threads: spec.total_threads(),
                scale: scale.name(),
                hitm_loads: demand.cache.total_hitm_loads(),
                true_wr: demand.cache.sharing.write_read,
                racy_vars_demand: demand.races.distinct_addresses,
                racy_vars_continuous: cont.races.distinct_addresses,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let placement = format!("{} threads / {} cores", r.threads, r.cores);
            vec![
                if n_seeds == 1 {
                    placement
                } else {
                    format!("{placement} s{}", seeds[i / n_variants])
                },
                r.true_wr.to_string(),
                r.hitm_loads.to_string(),
                r.racy_vars_demand.to_string(),
                r.racy_vars_continuous.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "placement",
            "true W→R (inter-core)",
            "HITM loads",
            "racy vars (demand)",
            "racy vars (continuous)",
        ],
        &table,
    );
    println!("\nCo-scheduled threads share caches: no coherence events, no wake-up signal.");
    save_json("exp_a5_smt", &rows);
}
