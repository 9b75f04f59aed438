//! One benchmark run: set up a workload, measure its three pipelines in
//! interleaved rounds, check every result, and (traced) build the
//! per-layer ledger.

use crate::ingest::{self, TraceFile};
use crate::metrics::catalogue;
use crate::native::{self, Variant, VARIANTS};
use crate::sim::{self, Counters};
use crate::stats::{self, median, timed, Summary};
use crate::workload::{Input, Size, Workload};
use ddrace_core::RunResult;
use ddrace_detector::racy_keys;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Programs `sim_speedup.demand` and `recall.demand` are summed over. Each
/// program fixes both, but one program's speedup moves by about 5% from
/// seed to seed; a sum over several keeps the metric steady across seeds.
const PROGRAMS: u64 = 8;
/// Passes over the simulator and ingest per round. Other load on the host
/// comes and goes, and a round keeps each one's fastest pass.
const PASSES: usize = 3;
/// Passes over the native variants per round, back to back so that each
/// slowdown compares runs made under the same load; a round keeps each
/// variant's fastest pass. Load delays a long run far more often than a
/// short one: with two busy processes on the 2-vCPU reference host, one
/// pass of 4 Mi hooks per round (a ~270 ms recording run against a ~45 ms
/// uninstrumented one) gave run medians of the recording slowdown from
/// 3.8× to 6.9×, four passes of 1 Mi hooks 5.85× to 6.01×.
const NATIVE_PASSES: usize = 4;

/// Counts checked operations and the ones that failed.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One reported metric: the summary of its samples and how it was
/// measured.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
    pub method: &'static str,
    /// Fixed by the seed: equal on every run of the same seed and commit.
    pub deterministic: bool,
}

#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Measured>,
    pub gate: Gate,
    /// Human-readable context the metrics do not carry.
    pub notes: Vec<String>,
    /// Traced runs only: where each pipeline's wall time goes.
    pub ledger: Vec<LedgerRow>,
    /// Untraced wall time of demand over continuous simulation; reported,
    /// not gated.
    pub host_speedup_demand: f64,
}

/// The fastest wall time of each quantity in one round.
#[derive(Debug, Default)]
struct Fastest(BTreeMap<String, f64>);

impl Fastest {
    fn keep(&mut self, key: String, ns: f64) {
        let best = self.0.entry(key).or_insert(f64::INFINITY);
        *best = best.min(ns);
    }
}

/// Samples keyed by quantity name.
#[derive(Debug, Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, key: impl Into<String>, value: f64) {
        self.0.entry(key.into()).or_default().push(value);
    }

    fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    fn median(&self, key: &str) -> f64 {
        median(self.get(key))
    }

    /// The value pushed most recently (this round's).
    fn last(&self, key: &str) -> f64 {
        *self.get(key).last().expect("pushed earlier this round")
    }

    fn summary(&self, key: &str) -> Summary {
        Summary::of(self.get(key))
    }
}

/// Everything a run sets up once: the generated input, its recorded
/// trace, and the first result of each deterministic pipeline, which
/// every later repetition must reproduce.
struct Bench {
    input: Input,
    trace: TraceFile,
    sim_ref: Vec<Option<(String, RunResult)>>,
    ingest_ref: Option<String>,
    recording: native::SharedBuf,
}

impl Bench {
    fn setup(workload: Workload, seed: u64, size: Size) -> Bench {
        let input = Input::new(workload, seed, size);
        let trace = TraceFile::record(&input);
        Bench {
            input,
            trace,
            sim_ref: vec![None; sim::modes().len()],
            ingest_ref: None,
            recording: native::SharedBuf::default(),
        }
    }

    fn sim_result(&self, mode: &str) -> &RunResult {
        let i = sim::modes()
            .iter()
            .position(|(m, _)| *m == mode)
            .expect("known mode");
        &self.sim_ref[i].as_ref().expect("a round ran").1
    }

    /// One untraced round: [`PASSES`] passes over the simulator and ingest,
    /// then [`NATIVE_PASSES`] over the native variants; every wall time is
    /// its fastest pass.
    fn round(&mut self, s: &mut Samples, gate: &mut Gate) {
        let mut fastest = Fastest::default();
        for _ in 0..PASSES {
            self.sim_and_ingest(gate, &mut fastest);
        }
        for _ in 0..NATIVE_PASSES {
            self.native(s, gate, &mut fastest);
        }
        for (key, ns) in fastest.0 {
            s.push(key, ns);
        }

        for (label, _) in sim::modes() {
            let ops = self.sim_result(label).schedule.ops_executed as f64;
            let ns = s.last(&format!("sim.wall.{label}"));
            s.push(format!("sim_ops_per_s.{label}"), ops * 1e9 / ns);
        }
        let events = self.trace.events as f64;
        s.push(
            "ingest_events_per_s.serial",
            events * 1e9 / s.last("ingest.wall.serial"),
        );
        s.push(
            "ingest_events_per_s.parallel",
            events * 1e9 / s.last("ingest.wall.parallel"),
        );

        let hooks = self.input.native.hooks as f64;
        let wall = |label: &str| s.last(&format!("native.wall.{label}"));
        let (base, disabled, enabled) = (wall("uninstrumented"), wall("disabled"), wall("enabled"));
        let (recording, demand) = (wall("recording"), wall("demand"));
        s.push("native_slowdown.disabled", disabled / base);
        s.push("native_slowdown.enabled", enabled / base);
        s.push("native_slowdown.recording", recording / base);
        s.push("native_slowdown.demand", demand / base);
        s.push("native.hook_ns.disabled", (disabled - base) / hooks);
        s.push("native.hook_ns.enabled", (enabled - base) / hooks);
        s.push("native.recorder_ns", (recording - enabled) / hooks);
    }

    /// Every simulator mode and ingest variant once, each checked.
    fn sim_and_ingest(&mut self, gate: &mut Gate, fastest: &mut Fastest) {
        for (i, (label, mode)) in sim::modes().into_iter().enumerate() {
            let (ns, result) = sim::run(&self.input, mode);
            let fingerprint = ddrace_json::to_string(&result).expect("RunResult serializes");
            match &self.sim_ref[i] {
                None => self.sim_ref[i] = Some((fingerprint, result)),
                Some((first, _)) => gate.check(*first == fingerprint, || {
                    format!("sim {label}: result differs from the first repetition")
                }),
            }
            fastest.keep(format!("sim.wall.{label}"), ns);
        }
        gate.check(
            demand_within_continuous(self.sim_result("continuous"), self.sim_result("demand")),
            || "sim: demand race set is empty or not a subset of continuous".into(),
        );

        let (serial_ns, serial, telemetry) = ingest::run(&ingest::job(&self.input, &self.trace, 0));
        let serial_agg = ingest::aggregate(&serial, &telemetry);
        let workers = ingest::REPLAY_WORKERS;
        let (parallel_ns, parallel, telemetry) =
            ingest::run(&ingest::job(&self.input, &self.trace, workers));
        gate.check(
            ingest::aggregate(&parallel, &telemetry) == serial_agg,
            || "ingest: parallel aggregate differs from serial".into(),
        );
        match &self.ingest_ref {
            None => self.ingest_ref = Some(serial_agg),
            Some(first) => gate.check(*first == serial_agg, || {
                "ingest: serial aggregate differs from the first repetition".into()
            }),
        }
        fastest.keep("ingest.wall.serial".into(), serial_ns);
        fastest.keep("ingest.wall.parallel".into(), parallel_ns);
    }

    /// Every native variant once, each checked.
    fn native(&self, s: &mut Samples, gate: &mut Gate, fastest: &mut Fastest) {
        let mix = &self.input.native;
        let issued = mix.issued();
        for (label, variant) in VARIANTS {
            let run = native::run::<false>(mix, variant, &self.recording, 0.0);
            let ok = match variant {
                Variant::Uninstrumented => true,
                Variant::Disabled => run.races == 0 && run.checked == 0,
                Variant::Enabled => run.races == 0 && run.checked == issued,
                Variant::Recording => {
                    run.races == 0
                        && run.checked == issued
                        && run.decoded + run.dropped == issued
                        && run.dropped == 0
                }
                Variant::Demand => run.races == 0 && run.checked > 0 && run.checked < issued,
            };
            gate.check(ok, || format!("native {label}: {run:?}, issued {issued}"));
            if variant == Variant::Demand {
                s.push(
                    "native.enabled_fraction",
                    run.checked as f64 / mix.hooks as f64,
                );
            }
            fastest.keep(format!("native.wall.{label}"), run.wall_ns);
        }
    }

    /// The traced half of a round: layer probes, checked against the
    /// untraced results, with the rest of this round's untraced wall times
    /// in `s` attributed to glue.
    fn probe_round(&self, empty: f64, s: &mut Samples, gate: &mut Gate) {
        let input = &self.input;
        let ops = self.sim_result("native").schedule.ops_executed as f64;
        let schedule_ns = sim::schedule_only(input);
        s.push("program.schedule_ns_per_op", schedule_ns / ops);

        let (mut glue_ns, mut probed_ns, mut plain_ns) = (0.0, 0.0, 0.0);
        let (mut cache_ns, mut cache_calls) = (0.0, 0u64);
        let mut continuous_layers_ns = 0.0;
        for (label, mode) in sim::modes() {
            let (with_ns, (counters, p)) =
                timed(|| sim::recompose::<true>(input, mode, &self.trace.bytes));
            let (without_ns, (plain, _)) =
                timed(|| sim::recompose::<false>(input, mode, &self.trace.bytes));
            let expected = Counters::of(self.sim_result(label));
            gate.check(counters == expected && plain == expected, || {
                format!("traced {label}: re-composed {counters:?} != untraced {expected:?}")
            });
            probed_ns += with_ns;
            plain_ns += without_ns;

            let layers = [
                ("schedule", schedule_ns),
                ("cache", p.cache.estimate_ns(empty)),
                ("pmu", p.pmu.estimate_ns(empty)),
                ("controller", p.controller.estimate_ns(empty)),
                ("detector.check", p.check.estimate_ns(empty)),
                ("detector.sync", p.sync.estimate_ns(empty)),
            ];
            let attributed: f64 = layers.iter().map(|(_, ns)| ns).sum();
            glue_ns += s.last(&format!("sim.wall.{label}")) - attributed;
            for (name, ns) in layers {
                s.push(format!("ledger.sim.{label}.{name}"), ns);
            }
            cache_ns += layers[1].1;
            cache_calls += p.cache.calls;

            if label == "demand" {
                s.push("pmu.observe_ns", layers[2].1 / p.pmu.calls.max(1) as f64);
                s.push("pmu.calls", p.pmu.calls as f64);
                s.push(
                    "core.controller_ns",
                    layers[3].1 / p.controller.calls.max(1) as f64,
                );
            }
            if label == "continuous" {
                s.push(
                    "detector.check_ns",
                    layers[4].1 / p.check.calls.max(1) as f64,
                );
                s.push("detector.sync_ns", layers[5].1 / p.sync.calls.max(1) as f64);
                continuous_layers_ns = layers[1].1 + layers[4].1 + layers[5].1;
            }
        }
        s.push("cache.access_ns", cache_ns / cache_calls.max(1) as f64);
        s.push(
            "core.glue_ns_per_op",
            glue_ns / (ops * sim::modes().len() as f64),
        );
        s.push(
            "trace.probe_overhead_pct",
            (probed_ns - plain_ns) / plain_ns * 100.0,
        );

        let events = self.trace.events as f64;
        let ip = ingest::probe(&self.trace);
        s.push("trace.read_ns_per_event", ip.read_ns / events);
        s.push("trace.decode_ns_per_event", ip.decode_ns / events);
        s.push(
            "trace.decode_parallel_ns_per_event",
            ip.decode_parallel_ns / events,
        );
        s.push(
            "native.walk_ns_per_event",
            (ip.decode_walk_ns - ip.decode_ns) / events,
        );
        s.push("native.merge_ns", ip.merge_ns);
        s.push("native.batches", ip.batches as f64);
        // Serial ingest replays the trace through the same cache and
        // detector work as continuous simulation; the rest is the job.
        let overhead =
            s.last("ingest.wall.serial") - ip.read_ns - ip.decode_ns - continuous_layers_ns;
        s.push("harness.job_overhead_ns_per_event", overhead / events);
        for (name, ns) in [
            ("read", ip.read_ns),
            ("decode", ip.decode_ns),
            ("cache+detector", continuous_layers_ns),
        ] {
            s.push(format!("ledger.ingest.{name}"), ns);
        }

        let run = native::run::<true>(&input.native, Variant::Enabled, &self.recording, empty);
        gate.check(
            run.races == 0 && run.checked == input.native.issued(),
            || format!("traced native enabled: {run:?}"),
        );
        s.push("native.sync_hook_ns", run.sync_hook_ns);
        s.push("native.toggle_ns", native::toggle_ns());
    }
}

/// Whether demand mode found races, all of which continuous mode found.
fn demand_within_continuous(continuous: &RunResult, demand: &RunResult) -> bool {
    let (all, found) = (
        racy_keys(&continuous.races.reports),
        racy_keys(&demand.races.reports),
    );
    !found.is_empty() && found.iter().all(|k| all.binary_search(k).is_ok())
}

/// Continuous against demand-hitm simulation of [`PROGRAMS`] programs
/// generated from `seed`: the ratio of summed makespans (the simulated
/// speedup) and of distinct racy variables found (demand's recall).
fn demand_vs_continuous(workload: Workload, seed: u64, size: Size, gate: &mut Gate) -> (f64, f64) {
    let [_, (_, continuous), (_, demand)] = sim::modes();
    let (mut makespan, mut found) = ([0.0; 2], [0.0; 2]);
    for k in 0..PROGRAMS {
        let input = Input::new(workload, seed.wrapping_mul(PROGRAMS).wrapping_add(k), size);
        let results = [sim::run(&input, continuous).1, sim::run(&input, demand).1];
        gate.check(demand_within_continuous(&results[0], &results[1]), || {
            format!("sim program {k}: demand race set is empty or not a subset of continuous")
        });
        for (i, r) in results.iter().enumerate() {
            makespan[i] += r.makespan as f64;
            found[i] += racy_keys(&r.races.reports).len() as f64;
        }
    }
    (makespan[0] / makespan[1], found[1] / found[0].max(1.0))
}

/// Repeats rounds until `seconds` have passed and at least `min` were
/// measured; the first round is a warm-up, after which `after_warmup`
/// runs once.
fn rounds(
    seconds: f64,
    min: usize,
    mut round: impl FnMut(&mut Samples),
    after_warmup: impl FnOnce(),
) -> Samples {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    round(&mut Samples::default());
    after_warmup();
    let mut samples = Samples::default();
    let mut n = 0;
    while n < min || Instant::now() < deadline {
        round(&mut samples);
        n += 1;
    }
    samples
}

/// Peak resident set of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric with its unit from `BENCHMARK.json`; a name it does not
/// declare gets no unit and fails the run's name check.
fn measured(name: &str, summary: Summary, method: &'static str) -> Measured {
    Measured {
        name: name.to_string(),
        unit: catalogue()
            .find(name)
            .map_or_else(|| "undeclared".into(), |d| d.unit.clone()),
        summary,
        method,
        deterministic: false,
    }
}

/// A metric the seed alone fixes.
fn deterministic(name: &str, value: f64, method: &'static str) -> Measured {
    Measured {
        deterministic: true,
        ..measured(name, Summary::exact(value), method)
    }
}

/// Runs `workload` for `seconds` of measurement after set-up.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let mut gate = Gate::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first so its trace file is gone.
        drop(bench.take());
        let (ns, b) = timed(|| Bench::setup(workload, seed, size));
        setups.push(ns / 1e9);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let empty = if traced { stats::empty_span_ns() } else { 0.0 };
    // Peak memory of set-up plus one pass through every pipeline; later
    // rounds only add allocator noise.
    let mut rss_mb = 0.0;
    let samples = rounds(
        seconds,
        size.min_rounds(),
        |s| {
            bench.round(s, &mut gate);
            if traced {
                bench.probe_round(empty, s, &mut gate);
            }
        },
        || rss_mb = peak_rss_mb(),
    );

    let continuous = bench.sim_result("continuous");
    let demand = bench.sim_result("demand");
    let host_speedup_demand =
        samples.median("sim.wall.continuous") / samples.median("sim.wall.demand");
    let mut notes = vec![format!(
        "input: {} {} scale {}/{} seed {seed}; trace {} events, {} bytes; native {} hooks",
        workload.name(),
        bench.input.spec.name,
        bench.input.scale.num,
        bench.input.scale.den,
        bench.trace.events,
        bench.trace.bytes.len(),
        bench.input.native.hooks,
    )];
    notes.push(format!(
        "host-time speedup demand vs continuous: {host_speedup_demand:.3}x (simulated: {:.3}x)",
        continuous.makespan as f64 / demand.makespan as f64
    ));

    let mut ledger = Vec::new();
    let metrics = if !traced {
        let mut m = vec![
            measured("setup_s", Summary::of(&setups), "median of set-ups"),
            measured("peak_rss_mb", Summary::exact(rss_mb), "VmHWM after warm-up"),
        ];
        for (label, _) in sim::modes() {
            let name = format!("sim_ops_per_s.{label}");
            m.push(measured(&name, samples.summary(&name), "wall"));
        }
        let (speedup, recall) = demand_vs_continuous(workload, seed, size, &mut gate);
        m.push(deterministic(
            "sim_speedup.demand",
            speedup,
            "summed simulated cycles",
        ));
        m.push(deterministic(
            "recall.demand",
            recall,
            "summed racy variables",
        ));
        for name in [
            "ingest_events_per_s.serial",
            "ingest_events_per_s.parallel",
            "native_slowdown.disabled",
            "native_slowdown.enabled",
            "native_slowdown.recording",
            "native_slowdown.demand",
        ] {
            m.push(measured(name, samples.summary(name), "wall"));
        }
        m
    } else {
        ledger = ledger_rows(&samples, &bench);
        traced_metrics(&bench, &samples)
    };
    let sorted = |mut names: Vec<String>| {
        names.sort();
        names
    };
    let emitted = sorted(metrics.iter().map(|m| m.name.clone()).collect());
    let declared = sorted(
        catalogue()
            .section(traced)
            .iter()
            .map(|d| d.name.clone())
            .collect(),
    );
    gate.check(emitted == declared, || {
        format!("emitted metrics {emitted:?} differ from BENCHMARK.json's {declared:?}")
    });
    Outcome {
        metrics,
        gate,
        notes,
        ledger,
        host_speedup_demand,
    }
}

fn traced_metrics(bench: &Bench, samples: &Samples) -> Vec<Measured> {
    let continuous = bench.sim_result("continuous");
    let demand = bench.sim_result("demand");
    let cont_stats = continuous.detector.expect("continuous mode has a detector");
    let ctl = demand.controller.expect("demand mode has a controller");
    let hitm = continuous.cache.total_hitm_loads() as f64;
    let exact = |name: &str, value: f64| deterministic(name, value, "count");
    let sampled = |name: &str, method| measured(name, samples.summary(name), method);
    // Names BENCHMARK.json declares but this benchmark does not measure are
    // left out, and the run's name check reports them.
    let metric = |name: &str| {
        Some(match name {
            "cache.calls" => exact(name, continuous.accesses_total as f64),
            "cache.hitm_per_kaccess" => {
                exact(name, hitm * 1000.0 / continuous.accesses_total as f64)
            }
            "pmu.pmis" => exact(name, demand.pmis as f64),
            "core.analyzed_fraction" => exact(name, demand.analyzed_fraction()),
            "core.enables" => exact(name, ctl.enables as f64),
            "core.redundant_signals" => exact(name, ctl.redundant_signals as f64),
            "detector.checks" => exact(name, cont_stats.accesses_checked as f64),
            "detector.fast_path_fraction" => exact(
                name,
                cont_stats.fast_path_hits as f64 / cont_stats.accesses_checked.max(1) as f64,
            ),
            "detector.escalations" => exact(name, cont_stats.escalations as f64),
            "native.max_worker_load_fraction" => {
                exact(name, ingest::max_worker_load_fraction(&bench.trace))
            }
            "pmu.calls" | "native.batches" | "native.enabled_fraction" => sampled(name, "count"),
            "cache.access_ns"
            | "pmu.observe_ns"
            | "core.controller_ns"
            | "detector.check_ns"
            | "detector.sync_ns"
            | "native.sync_hook_ns" => sampled(name, "1-in-64 sampled span"),
            "native.hook_ns.disabled" | "native.hook_ns.enabled" | "native.recorder_ns" => {
                sampled(name, "difference of variant walls")
            }
            "program.schedule_ns_per_op"
            | "native.toggle_ns"
            | "trace.read_ns_per_event"
            | "trace.decode_ns_per_event"
            | "trace.decode_parallel_ns_per_event"
            | "native.merge_ns" => sampled(name, "whole-loop"),
            "native.walk_ns_per_event" => sampled(name, "difference of entry points"),
            "core.glue_ns_per_op" | "harness.job_overhead_ns_per_event" => {
                sampled(name, "wall minus layers")
            }
            "trace.probe_overhead_pct" => sampled(name, "probed vs plain re-composition"),
            _ => return None,
        })
    };
    catalogue()
        .per_layer
        .iter()
        .filter_map(|d| metric(&d.name))
        .collect()
}

/// Each pipeline's untraced wall time split by layer, per op, event or
/// hook: median wall time, median layer times, and the rest as glue.
fn ledger_rows(samples: &Samples, bench: &Bench) -> Vec<LedgerRow> {
    let mut rows = Vec::new();
    for (label, _) in sim::modes() {
        let ops = bench.sim_result(label).schedule.ops_executed as f64;
        let layers = SIM_LAYERS
            .iter()
            .map(|l| (*l, samples.median(&format!("ledger.sim.{label}.{l}")) / ops))
            .collect();
        let wall = samples.median(&format!("sim.wall.{label}")) / ops;
        rows.push(LedgerRow::new(
            format!("sim.{label}"),
            "ns/op",
            wall,
            layers,
            "glue",
        ));
    }
    let events = bench.trace.events as f64;
    let layers = ["read", "decode", "cache+detector"]
        .into_iter()
        .map(|l| (l, samples.median(&format!("ledger.ingest.{l}")) / events))
        .collect();
    let wall = samples.median("ingest.wall.serial") / events;
    rows.push(LedgerRow::new(
        "ingest.serial".into(),
        "ns/event",
        wall,
        layers,
        "job",
    ));
    let per_hook =
        |v: &str| samples.median(&format!("native.wall.{v}")) / bench.input.native.hooks as f64;
    let (program, enabled, recording) = (
        per_hook("uninstrumented"),
        per_hook("enabled"),
        per_hook("recording"),
    );
    let sync = samples.median("native.sync_hook_ns") * native::SYNC_PER_HOOK;
    let layers = vec![
        ("program", program),
        ("sync hooks", sync),
        ("recorder", recording - enabled),
    ];
    rows.push(LedgerRow::new(
        "native.recording".into(),
        "ns/hook",
        recording,
        layers,
        "data hooks",
    ));
    rows
}

const SIM_LAYERS: [&str; 6] = [
    "schedule",
    "cache",
    "pmu",
    "controller",
    "detector.check",
    "detector.sync",
];

/// One pipeline's wall time and the share each layer accounts for; the
/// layers sum to the wall time by construction (the last takes the rest).
#[derive(Debug, Clone)]
pub struct LedgerRow {
    pub pipeline: String,
    pub unit: &'static str,
    pub wall: f64,
    pub layers: Vec<(&'static str, f64)>,
}

impl LedgerRow {
    fn new(
        pipeline: String,
        unit: &'static str,
        wall: f64,
        mut layers: Vec<(&'static str, f64)>,
        rest: &'static str,
    ) -> LedgerRow {
        let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
        layers.push((rest, wall - attributed));
        LedgerRow {
            pipeline,
            unit,
            wall,
            layers,
        }
    }
}

impl std::fmt::Display for LedgerRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ledger {:<15} {:>7.1} {} =",
            self.pipeline, self.wall, self.unit
        )?;
        for (layer, v) in &self.layers {
            write!(f, " {layer} {v:.1} ({:.0}%)", v / self.wall * 100.0)?;
        }
        Ok(())
    }
}
