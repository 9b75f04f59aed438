//! Result documents: the one-line result the benchmark ends with, the
//! per-run report, full sets of runs, and comparison of two sets.

use crate::metrics::catalogue;
use crate::run::{Measured, Outcome};
use crate::stats::Summary;
use crate::workload::ALL;
use ddrace_json::Value;
use std::path::Path;
use std::process::{Command, ExitCode};

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(value: &Value, key: &str) -> f64 {
    value.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// The last line of a run's output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric a median with its unit.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                obj(vec![
                    ("value", Value::Float(m.summary.median)),
                    ("unit", Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(outcome.gate.failures.is_empty())),
        ("attempted", Value::UInt(outcome.gate.attempted)),
        ("failed", Value::UInt(outcome.gate.failures.len() as u64)),
        ("metrics", obj(metrics)),
    ])
    .to_compact()
}

fn measured_json(m: &Measured) -> Value {
    let s = m.summary;
    obj(vec![
        ("median", Value::Float(s.median)),
        ("q1", Value::Float(s.q1)),
        ("q3", Value::Float(s.q3)),
        ("n", Value::UInt(s.n as u64)),
        ("unit", Value::Str(m.unit.clone())),
        ("method", Value::Str(m.method.into())),
        ("deterministic", Value::Bool(m.deterministic)),
    ])
}

/// Everything one run measured, for `set` and `compare`.
pub fn run_report(workload: &str, seed: u64, seconds: f64, traced: bool, o: &Outcome) -> Value {
    let ledger = o
        .ledger
        .iter()
        .map(|row| {
            let mut layers = vec![("wall", Value::Float(row.wall))];
            layers.extend(row.layers.iter().map(|(l, v)| (*l, Value::Float(*v))));
            (row.pipeline.as_str(), obj(layers))
        })
        .collect();
    obj(vec![
        ("workload", Value::Str(workload.into())),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::Float(seconds)),
        ("trace", Value::Bool(traced)),
        ("correct", Value::Bool(o.gate.failures.is_empty())),
        ("ops_attempted", Value::UInt(o.gate.attempted)),
        ("ops_failed", Value::UInt(o.gate.failures.len() as u64)),
        (
            "failures",
            Value::Array(o.gate.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("host_speedup_demand", Value::Float(o.host_speedup_demand)),
        (
            "metrics",
            obj(o
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), measured_json(m)))
                .collect()),
        ),
        ("ledger", obj(ledger)),
    ])
}

/// `set`: runs every workload untraced and traced, each in its own
/// process so peak memory is per workload, `sets` times over, and writes
/// one document in the shared BENCH schema.
pub fn set(seconds: f64, seed: u64, sets: u64, git_rev: &str, out: &Path) -> ExitCode {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    // Each child's report lands next to the output, then joins it.
    let mut tmp = out.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut runs = Vec::new();
    let mut complete = true;
    for set in 1..=sets {
        for workload in ALL {
            for traced in [false, true] {
                let status = Command::new(&exe)
                    .args(["--workload", workload.name()])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&tmp)
                    .status()
                    .expect("run the benchmark");
                let report = std::fs::read_to_string(&tmp)
                    .ok()
                    .and_then(|text| Value::parse(&text).ok());
                let _ = std::fs::remove_file(&tmp);
                match report {
                    Some(Value::Object(mut pairs)) if status.success() => {
                        pairs.insert(0, ("set".into(), Value::UInt(set)));
                        runs.push(Value::Object(pairs));
                    }
                    _ => {
                        eprintln!("{} trace={traced}: run failed ({status})", workload.name());
                        complete = false;
                    }
                }
            }
        }
    }
    let doc = set_document(runs, git_rev);
    std::fs::write(out, doc.to_pretty() + "\n").expect("write the set document");
    println!("wrote {}", out.display());
    if complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn set_document(runs: Vec<Value>, git_rev: &str) -> Value {
    let traced: Vec<&Value> = runs.iter().filter(|r| r["trace"] == true).collect();
    let last = |w: &str| traced.iter().rev().find(|r| r["workload"] == w);
    let mut layers = Vec::new();
    let mut speedups = Vec::new();
    let mut ranks = Vec::new();
    for w in ALL.map(|w| w.name()) {
        let Some(run) = last(w) else { continue };
        layers.push((w, run["metrics"].clone()));
        speedups.push((w, run["host_speedup_demand"].clone()));
        ranks.push((w, ledger_rank(&run["ledger"])));
    }
    obj(vec![
        ("bench", Value::Str("e2e".into())),
        (
            "build",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "host_parallelism",
            Value::UInt(std::thread::available_parallelism().map_or(1, |p| p.get()) as u64),
        ),
        ("git_rev", Value::Str(git_rev.into())),
        ("runs", Value::Array(runs)),
        ("layers", obj(layers)),
        (
            "summary",
            obj(vec![
                ("basis", Value::Str("wall".into())),
                ("host_speedup_demand", obj(speedups)),
                ("ledger_rank", obj(ranks)),
            ]),
        ),
    ])
}

/// Layers of every pipeline ordered by their share of its wall time.
fn ledger_rank(ledger: &Value) -> Value {
    let mut shares = Vec::new();
    for (pipeline, row) in ledger.as_object().unwrap_or(&[]) {
        let wall = num(row, "wall");
        for (layer, v) in row.as_object().unwrap_or(&[]) {
            if layer != "wall" {
                let share = v.as_f64().unwrap_or(0.0) / wall;
                shares.push((format!("{pipeline}/{layer}"), share));
            }
        }
    }
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    Value::Array(
        shares
            .into_iter()
            .map(|(name, share)| {
                obj(vec![
                    ("layer", Value::Str(name)),
                    ("share", Value::Float(share)),
                ])
            })
            .collect(),
    )
}

/// One side of a comparison: a metric's runs on one workload.
struct Side {
    summary: Summary,
    /// The quartile distance across runs, or for a single run the
    /// quartile distance of its repetitions over √n (the uncertainty of a
    /// median of n samples), as a share of the median.
    spread: f64,
    /// Every run marks the metric as fixed by its seed.
    deterministic: bool,
    seeds: Vec<u64>,
}

fn side(runs: &[&Value], workload: &str, traced: bool, metric: &str) -> Option<Side> {
    let found: Vec<(&Value, &Value)> = runs
        .iter()
        .filter(|r| r["workload"] == workload && r["trace"] == traced)
        .filter_map(|r| Some((*r, r["metrics"].get(metric)?)))
        .collect();
    let (summary, spread) = match found.as_slice() {
        [] => return None,
        [(_, one)] => {
            let s = Summary {
                median: num(one, "median"),
                q1: num(one, "q1"),
                q3: num(one, "q3"),
                n: one["n"].as_u64().unwrap_or(1) as usize,
            };
            (s, s.spread() / (s.n as f64).sqrt())
        }
        many => {
            let medians: Vec<f64> = many.iter().map(|(_, m)| num(m, "median")).collect();
            let s = Summary::of(&medians);
            (s, s.spread())
        }
    };
    Some(Side {
        summary,
        spread,
        deterministic: found.iter().all(|(_, m)| m["deterministic"] == true),
        seeds: found
            .iter()
            .filter_map(|(r, _)| r["seed"].as_u64())
            .collect(),
    })
}

/// `(b - a) / |a|`, and zero when the two are equal (a count that stays 0).
fn relative_delta(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs_of(doc: &Value, set: Option<u64>) -> Vec<&Value> {
    doc["runs"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter(|r| set.is_none_or(|s| r["set"] == s))
        .collect()
}

/// `compare A [B]`: each workload × end-to-end metric of B against A,
/// judged by the direction and bound `BENCHMARK.json` declares, then the
/// per-layer deltas. A metric fixed by the seed is judged with a bound of
/// 0 when both sides ran the same seeds. With one document, its set 1 is
/// compared with its set 2. Exits nonzero if any metric regressed.
pub fn compare(a: &str, b: Option<&str>) -> Result<ExitCode, String> {
    let doc_a = load(a)?;
    let doc_b = b.map(load).transpose()?;
    let (runs_a, runs_b) = match &doc_b {
        Some(doc) => (runs_of(&doc_a, None), runs_of(doc, None)),
        None => (runs_of(&doc_a, Some(1)), runs_of(&doc_a, Some(2))),
    };
    if runs_a.is_empty() || runs_b.is_empty() {
        return Err("compare needs runs on both sides (one file needs sets 1 and 2)".into());
    }
    let mut regressed = 0;
    println!(
        "{:<10} {:<30} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "delta", "spread", "bound"
    );
    for workload in ALL.map(|w| w.name()) {
        for def in &catalogue().end_to_end {
            let (Some(sa), Some(sb)) = (
                side(&runs_a, workload, false, &def.name),
                side(&runs_b, workload, false, &def.name),
            ) else {
                continue;
            };
            let exact = sa.deterministic && sb.deterministic && sa.seeds == sb.seeds;
            let bound = if exact { 0.0 } else { def.bound.unwrap_or(0.0) };
            let (ma, mb) = (sa.summary.median, sb.summary.median);
            let delta = relative_delta(ma, mb);
            let worse = if def.better == "higher" {
                -delta
            } else {
                delta
            };
            let spread = sa.spread.max(sb.spread);
            // Equal seeds give equal values, so an exact comparison has no
            // spread to resolve.
            let verdict = if !exact && spread > bound {
                "unresolved"
            } else if worse > bound {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{workload:<10} {:<30} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>6.2}% {:>5.0}%  {verdict}   (A q {:.6}..{:.6}, B q {:.6}..{:.6})",
                def.name,
                delta * 100.0,
                spread * 100.0,
                bound * 100.0,
                sa.summary.q1,
                sa.summary.q3,
                sb.summary.q1,
                sb.summary.q3,
            );
        }
    }
    println!("\nper-layer (traced runs, no bounds)");
    for workload in ALL.map(|w| w.name()) {
        for def in &catalogue().per_layer {
            let (Some(sa), Some(sb)) = (
                side(&runs_a, workload, true, &def.name),
                side(&runs_b, workload, true, &def.name),
            ) else {
                continue;
            };
            let (ma, mb) = (sa.summary.median, sb.summary.median);
            println!(
                "{workload:<10} {:<36} {ma:>14.4} {mb:>14.4} {:>+8.2}% {}",
                def.name,
                relative_delta(ma, mb) * 100.0,
                def.unit,
            );
        }
    }
    println!("\n{regressed} regressed");
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
