//! End-to-end benchmark of ddrace's three product pipelines — the
//! simulator (`Simulation::run`), offline ingest (the trace-corpus
//! `Job::run` behind `ddrace ingest`) and the native `Monitor` on real
//! threads — with a per-layer ledger from a separate traced run.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! bench_e2e set --seconds S --seed N --out FILE [--sets K] [--git-rev REV]
//! bench_e2e compare A.json [B.json]
//! ```
//!
//! A run prints its notes, every metric with its unit and spread, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! It exits nonzero if any check failed. See README.md.

mod ingest;
mod metrics;
mod native;
mod report;
mod run;
mod sim;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use workload::{Size, Workload};

/// `--name value` options after the subcommand.
struct Opts(Vec<(String, String)>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Opts(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
        }
    }
}

fn run_once(opts: &Opts) -> Result<ExitCode, String> {
    let name = opts.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = opts.num("seed", 42)?;
    let seconds: f64 = opts.num("seconds", 30.0)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds: bad value `{seconds}`"));
    }
    let traced = match opts.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
    };

    let outcome = run::run(workload, seed, seconds, traced, Size::Bench);
    for note in &outcome.notes {
        println!("{note}");
    }
    for row in &outcome.ledger {
        println!("{row}");
    }
    for m in &outcome.metrics {
        let s = m.summary;
        println!(
            "{:<36} {:>16.6} {:<12} q1 {:.6} q3 {:.6} n {} ({})",
            m.name, s.median, m.unit, s.q1, s.q3, s.n, m.method
        );
    }
    println!(
        "ops_attempted {} ops_failed {}",
        outcome.gate.attempted,
        outcome.gate.failures.len()
    );
    for failure in &outcome.gate.failures {
        println!("FAILED: {failure}");
    }
    if let Some(out) = opts.get("out") {
        let doc = report::run_report(workload.name(), seed, seconds, traced, &outcome);
        std::fs::write(out, doc.to_pretty() + "\n").map_err(|e| format!("--out {out}: {e}"))?;
    }
    println!("{}", report::result_line(&outcome));
    Ok(if outcome.gate.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("set") => Opts::parse(&args[1..]).and_then(|o| {
            let out = o.get("out").ok_or("--out is required")?;
            Ok(report::set(
                o.num("seconds", 30.0)?,
                o.num("seed", 42)?,
                o.num("sets", 1)?,
                o.get("git-rev").unwrap_or("unknown"),
                Path::new(out),
            ))
        }),
        Some("compare") => match &args[1..] {
            [a] => report::compare(a, None),
            [a, b] => report::compare(a, Some(b)),
            _ => Err("compare takes one or two result files".into()),
        },
        _ => Opts::parse(&args).and_then(|o| run_once(&o)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("bench_e2e: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every workload, untraced and traced, at test scale: each passes
    /// its correctness gate, which includes emitting exactly the metrics
    /// BENCHMARK.json declares; another seed changes the input but not
    /// the metric set.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let declared: BTreeSet<&str> = metrics::catalogue()
            .workloads
            .iter()
            .map(String::as_str)
            .collect();
        let ours: BTreeSet<&str> = workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(ours, declared);

        let names = |outcome: &run::Outcome| -> Vec<String> {
            outcome.metrics.iter().map(|m| m.name.clone()).collect()
        };
        for w in workload::ALL {
            for traced in [false, true] {
                let outcome = run::run(w, 42, 0.0, traced, Size::Test);
                assert!(
                    outcome.gate.failures.is_empty(),
                    "{} trace={traced}: {:?}",
                    w.name(),
                    outcome.gate.failures
                );
            }
        }

        let w = Workload::HighShare;
        let program = |seed| {
            let input = workload::Input::new(w, seed, Size::Test);
            ingest::TraceFile::record(&input).bytes.clone()
        };
        assert_ne!(program(42), program(7), "the seed must change the input");
        let at_7 = run::run(w, 7, 0.0, false, Size::Test);
        assert!(at_7.gate.failures.is_empty(), "{:?}", at_7.gate.failures);
        assert_eq!(
            names(&at_7),
            names(&run::run(w, 42, 0.0, false, Size::Test))
        );
    }
}
