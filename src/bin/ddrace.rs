//! `ddrace` — command-line front end for the simulator.
//!
//! ```text
//! ddrace list
//! ddrace run     --bench kmeans [--mode demand-hitm] [--scale small]
//!                [--seed 42] [--cores 8] [--detector fasttrack]
//!                [--inject-race N] [--json]
//! ddrace compare --bench kmeans [--scale small] [--seed 42] [--cores 8]
//! ddrace record  --bench kmeans --out trace.ddrt [--scale test] [--seed 42]
//! ddrace analyze --trace trace.ddrt [--mode continuous] [--cores 8]
//! ddrace ingest  --traces a.ddrt,b.ddrt [--detectors fasttrack,djit]
//!                [--modes continuous] [--cores 8] [--workers N]
//!                [--replay-workers N] [--events FILE|-] [--resume FILE]
//!                [--out FILE] [--quiet]
//! ddrace campaign [--suite phoenix] [--modes native,continuous,demand-hitm]
//!                 [--seeds 1,2,3] [--cores-sweep 1,2,4,8] [--variants SPEC]
//!                 [--workers N] [--events FILE|-] [--resume FILE]
//!                 [--out FILE] [--quiet]
//! ddrace fuzz    [--seed 1] [--count 200] [--workers N] [--fault NAME]
//!                 [--events FILE|-] [--resume FILE] [--out FILE]
//!                 [--repro-dir DIR] [--quiet]
//! ddrace fuzz    --replay FILE
//! ```

use ddrace::program::{Scheduler, TraceEvent};
use ddrace::{
    replay, resume_campaign, run_campaign, AnalysisMode, CacheConfig, Campaign, CampaignReport,
    CheckpointLog, ConfigPatch, DetectorKind, EventSink, JobVariant, RunResult, Scale,
    SchedulerConfig, SimConfig, Simulation, TraceSource, TraceWriter, WorkloadSpec,
};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match known_flags(command)
        .ok_or_else(|| format!("unknown command `{command}`"))
        .and_then(|known| parse_flags(command, known, &args[1..]))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "list" => cmd_list(),
        "run" => cmd_run(&flags),
        "compare" => cmd_compare(&flags),
        "record" => cmd_record(&flags),
        "analyze" => cmd_analyze(&flags),
        "ingest" => cmd_ingest(&flags),
        "campaign" => cmd_campaign(&flags),
        "fuzz" => cmd_fuzz(&flags),
        "native-probe" => cmd_native_probe(&flags),
        // `help` and its spellings: `known_flags` refused every other name.
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Refusals (corrupt or foreign traces, a --resume checkpoint from
        // another run, invalid values on an otherwise well-formed command
        // line) exit 2 with one `error:` line; plain usage errors exit 1
        // with the usage text.
        Err(e) => match e.strip_prefix("refused: ") {
            Some(refusal) => {
                eprintln!("error: {refusal}");
                ExitCode::from(2)
            }
            None => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
    }
}

const USAGE: &str = "\
ddrace — demand-driven race detection simulator

USAGE:
    ddrace list
    ddrace run     (--bench NAME | --spec FILE) [--mode MODE] [--scale SCALE]
                   [--seed N] [--cores N] [--detector KIND] [--inject-race N]
                   [--json] [--detail] [--timeline]
    ddrace compare --bench NAME [--scale SCALE] [--seed N] [--cores N]
    ddrace record  --bench NAME --out FILE [--scale SCALE] [--seed N]
    ddrace analyze --trace FILE [--mode MODE] [--cores N] [--detector KIND]
    ddrace ingest  --traces FILE[,FILE,...] [--detectors KIND,KIND,...]
                   [--modes MODE,MODE,...] [--cores N] [--workers N]
                   [--replay-workers N] [--events FILE|-] [--resume FILE]
                   [--out FILE] [--quiet]
    ddrace campaign [--suite SUITE] [--modes MODE,MODE,...] [--workers N]
                    [--scale SCALE] [--seed N | --seeds N,N,...] [--cores N]
                    [--cores-sweep N,N,...] [--variants SPEC]
                    [--detector KIND] [--timeout-secs N] [--events FILE|-]
                    [--resume FILE] [--out FILE] [--quiet]
    ddrace fuzz    [--seed N] [--count N] [--workers N] [--fault NAME]
                   [--events FILE|-] [--resume FILE] [--out FILE]
                   [--repro-dir DIR] [--quiet]
    ddrace fuzz    --replay FILE
    ddrace native-probe [--json]

PROBE:      native-probe reports which counter backend the native
            monitor's demand toggle would use on this host: the
            perf_event_open driver (feature `linux-pmu`, Linux only) or
            the simulator fallback, with the structured reason hardware
            was not used. Exits 0 either way; --json emits the report as
            machine-readable JSON.

FUZZ:       generates --count program specs from --seed and checks every
            one against the conformance oracles (record/replay round trip,
            FastTrack vs Djit⁺ vs an independent reference detector,
            demand ⊆ continuous with each miss attributed, and the
            metamorphic thread/address/padding transforms). Failures are
            shrunk to minimal reproducer files in --repro-dir (default
            `.`), replayable with --replay. --fault plants a deliberate
            reference-detector bug (drop-write-write | ignore-unlock) to
            demonstrate the oracles catch it; the default is none.

TRACES:     `record` writes the DDRT binary trace format, the only
            serialized trace format; `analyze` and `ingest` read it and
            refuse anything else (exit code 2).

INGEST:     runs detection as an offline service over traces recorded
            with `ddrace record` (or by the native monitor): every
            trace × mode × detector cell replays on the worker pool and
            folds into the same byte-deterministic aggregate as
            `campaign`. Foreign, corrupt, or truncated traces are
            refused up front with the failing byte offset (exit code
            2). --replay-workers N fans each continuous-mode
            FastTrack replay across N detection threads (0 = serial, the
            default); results are byte-identical at any worker count.

RESUME:     --resume takes a prior run's --events JSONL stream (campaign,
            ingest, fuzz); finished jobs are restored from it (validated
            by spec fingerprint) and only the remainder executes. The
            aggregate is byte-identical to an uninterrupted run. A
            checkpoint that does not parse, or was recorded for a
            different run, is refused (exit code 2). --resume may name
            the --events path: the checkpoint is read before the new
            stream is opened.

VARIANTS:   --cores-sweep N,N,... reruns every (workload, mode, seed)
            cell at each simulated core count. --variants takes a preset
            (`a3-cache` — the private-cache ladder; `smt-cores` — cores
            8,4,2,1) or comma-separated custom variants of the form
            name=key:value+key:value with keys cores, quantum, scale,
            detector, period, cooldown, l1-sets, l1-ways, l2-sets,
            l2-ways, l3-sets, l3-ways, e.g.
            `tiny=cores:2+l2-sets:32,tuned=period:64`.

SUITES:     phoenix | parsec | racy | sync | all
MODES:      native | continuous | demand-hitm | demand-oracle
SCALES:     test | small | large
DETECTORS:  fasttrack | djit | lockset
BENCHES:    see `ddrace list`";

/// The flags `command` accepts, space-separated, or `None` for an
/// unknown command.
fn known_flags(command: &str) -> Option<&'static str> {
    Some(match command {
        "list" | "help" | "--help" | "-h" => "",
        "run" => "bench spec inject-race scale seed cores mode detector json detail timeline",
        "compare" => "bench spec inject-race scale seed cores",
        "record" => "bench spec inject-race scale seed out",
        "analyze" => "trace cores mode detector json detail timeline",
        "ingest" => "traces modes detectors cores workers replay-workers resume events out quiet",
        "campaign" => {
            "suite modes scale seed seeds cores workers variants cores-sweep detector \
             timeout-secs resume events out quiet"
        }
        "fuzz" => "replay seed count workers fault resume events out repro-dir quiet",
        "native-probe" => "json",
        _ => return None,
    })
}

/// Parses `--key value` pairs and the value-less switches, refusing any
/// flag `command` does not take.
fn parse_flags(
    command: &str,
    known: &str,
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found `{}`", args[i]))?;
        if !known.split_whitespace().any(|k| k == key) {
            return Err(format!("`{command}` does not take --{key}"));
        }
        if key == "json" || key == "detail" || key == "timeline" || key == "quiet" {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn parse_mode(s: &str) -> Result<AnalysisMode, String> {
    Ok(match s {
        "native" => AnalysisMode::Native,
        "continuous" => AnalysisMode::Continuous,
        "demand-hitm" => AnalysisMode::demand_hitm(),
        "demand-oracle" => AnalysisMode::demand_oracle(),
        other => return Err(format!("unknown mode `{other}`")),
    })
}

/// Parses the numeric flag `--{key}`; `None` when it is absent.
fn num_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|s| s.parse().map_err(|_| format!("--{key} takes a number")))
        .transpose()
}

/// `--workers`, defaulting to every available core.
fn workers_flag(flags: &HashMap<String, String>) -> Result<usize, String> {
    Ok(num_flag(flags, "workers")?.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }))
}

fn parse_detector(s: &str) -> Result<DetectorKind, String> {
    Ok(match s {
        "fasttrack" => DetectorKind::FastTrack,
        "djit" => DetectorKind::Djit,
        "lockset" => DetectorKind::LockSet,
        other => return Err(format!("unknown detector `{other}`")),
    })
}

/// Parses `--variants`: a preset name or comma-separated
/// `name=key:value+key:value` variant specs.
fn parse_variants(spec: &str) -> Result<Vec<JobVariant>, String> {
    match spec {
        "a3-cache" => Ok(JobVariant::private_cache_sweep()),
        "smt-cores" => Ok([8, 4, 2, 1].map(JobVariant::with_cores).to_vec()),
        list => list.split(',').map(parse_variant).collect(),
    }
}

fn parse_variant(s: &str) -> Result<JobVariant, String> {
    let (name, overrides) = s.split_once('=').ok_or_else(|| {
        format!(
            "variant `{s}` needs the form name=key:value+key:value \
             (or a preset: a3-cache, smt-cores)"
        )
    })?;
    if name.is_empty() {
        return Err(format!("variant `{s}` has an empty name"));
    }
    let mut patch = ConfigPatch::default();
    // Cache-level overrides start from the Nehalem geometry so a lone
    // `l2-sets` tweak keeps the level's ways and latency sensible.
    let nehalem = CacheConfig::nehalem(1);
    for kv in overrides.split('+') {
        let (key, value) = kv
            .split_once(':')
            .ok_or_else(|| format!("variant override `{kv}` needs key:value"))?;
        let num = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("variant override `{key}` needs a number, got `{what}`"))
        };
        match key {
            "cores" => patch.cores = Some(num(value)? as usize),
            "quantum" => patch.quantum = Some(num(value)? as u32),
            "scale" => patch.scale = Some(Scale::from_name(value)?),
            "detector" => patch.detector_kind = Some(parse_detector(value)?),
            "period" => {
                let period = num(value)?;
                if period == 0 {
                    // Reachable user input headed straight for the
                    // sampling counter; refuse here (exit 2) instead of
                    // panicking deep in SharingIndicator construction.
                    return Err(format!(
                        "refused: --variants {name}: `period:0` is invalid — the \
                         sample-after value must be ≥ 1"
                    ));
                }
                patch.sample_period = Some(period);
            }
            "cooldown" => patch.cooldown_accesses = Some(num(value)?),
            "l1-sets" => patch.l1.get_or_insert(nehalem.l1).sets = num(value)? as usize,
            "l1-ways" => patch.l1.get_or_insert(nehalem.l1).ways = num(value)? as usize,
            "l2-sets" => patch.l2.get_or_insert(nehalem.l2).sets = num(value)? as usize,
            "l2-ways" => patch.l2.get_or_insert(nehalem.l2).ways = num(value)? as usize,
            "l3-sets" => patch.l3.get_or_insert(nehalem.l3).sets = num(value)? as usize,
            "l3-ways" => patch.l3.get_or_insert(nehalem.l3).ways = num(value)? as usize,
            other => {
                return Err(format!(
                    "unknown variant override key `{other}` (expected cores, quantum, \
                     scale, detector, period, cooldown, or l1/l2/l3-sets/-ways)"
                ))
            }
        }
    }
    if patch.is_identity() {
        return Err(format!("variant `{name}` overrides nothing"));
    }
    Ok(JobVariant::new(name, patch))
}

/// Parses `--cores-sweep`: a comma-separated core-count ladder, each
/// point becoming a `c{N}` variant.
fn parse_cores_sweep(list: &str) -> Result<Vec<JobVariant>, String> {
    let cores = list
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| "--cores-sweep takes comma-separated core counts, e.g. 1,2,4,8")?;
    if cores.is_empty() {
        return Err("--cores-sweep needs at least one core count".to_string());
    }
    for &c in &cores {
        if c == 0 || c > 64 {
            return Err(format!("--cores-sweep counts must be in 1..=64, got {c}"));
        }
    }
    Ok(cores.into_iter().map(JobVariant::with_cores).collect())
}

struct Common {
    spec: WorkloadSpec,
    scale: Scale,
    seed: u64,
    cores: usize,
}

fn parse_common(flags: &HashMap<String, String>) -> Result<Common, String> {
    let mut spec = if let Some(path) = flags.get("spec") {
        let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        ddrace::json::from_str::<WorkloadSpec>(&json)
            .map_err(|e| format!("invalid workload spec {path}: {e}"))?
    } else {
        let name = flags
            .get("bench")
            .ok_or("--bench NAME or --spec FILE is required")?;
        ddrace::workloads::by_name(name)
            .ok_or_else(|| format!("unknown benchmark `{name}` (try `ddrace list`)"))?
    };
    if let Some(pairs) = num_flag(flags, "inject-race")? {
        spec = spec.with_injected_race(pairs);
    }
    Ok(Common {
        spec,
        scale: Scale::from_name(flags.get("scale").map(String::as_str).unwrap_or("small"))?,
        seed: num_flag(flags, "seed")?.unwrap_or(42),
        cores: num_flag(flags, "cores")?.unwrap_or(8),
    })
}

fn sim_config(
    flags: &HashMap<String, String>,
    cores: usize,
    seed: u64,
) -> Result<SimConfig, String> {
    let mode = parse_mode(
        flags
            .get("mode")
            .map(String::as_str)
            .unwrap_or("demand-hitm"),
    )?;
    let mut cfg = SimConfig::new(cores, mode);
    cfg.scheduler = SchedulerConfig {
        quantum: 32,
        seed,
        jitter: true,
    };
    if let Some(d) = flags.get("detector") {
        cfg.detector_kind = parse_detector(d)?;
    }
    Ok(cfg)
}

fn print_result(r: &RunResult, json: bool, detail: bool, timeline: bool) -> Result<(), String> {
    if json {
        println!(
            "{}",
            ddrace::json::to_string_pretty(r).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("mode:               {}", r.mode);
    println!("makespan:           {} cycles", r.makespan);
    println!(
        "memory accesses:    {} ({} analyzed)",
        r.accesses_total, r.accesses_analyzed
    );
    println!("HITM loads:         {}", r.cache.total_hitm_loads());
    println!("PMIs delivered:     {}", r.pmis);
    if let Some(c) = r.controller {
        println!(
            "analysis toggles:   {} enables, {} disables",
            c.enables, c.disables
        );
    }
    println!("races (distinct):   {}", r.races.distinct);
    if timeline {
        println!("analysis timeline:  [{}]", ddrace::result_timeline(r, 60));
    }
    if detail {
        for (report, &occ) in r
            .races
            .reports
            .iter()
            .zip(&r.races.report_occurrences)
            .take(20)
        {
            println!();
            print!("{}", ddrace::detector::render_report(report, occ));
        }
    } else {
        for report in r.races.reports.iter().take(20) {
            println!("  {report}");
        }
    }
    if r.races.reports.len() > 20 {
        println!("  ... and {} more", r.races.reports.len() - 20);
    }
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    println!("{:<22} {:<8} {:>8}", "benchmark", "suite", "threads");
    println!("{}", "-".repeat(40));
    for spec in ddrace::workloads::all_benchmarks()
        .into_iter()
        .chain(ddrace::racy::kernels())
        .chain(ddrace::archetypes::suite())
    {
        println!(
            "{:<22} {:<8} {:>8}",
            spec.name,
            spec.suite.to_string(),
            spec.total_threads()
        );
    }
    Ok(())
}

/// `ddrace native-probe`: report which counter backend the demand
/// toggle would get on this host, and why.
fn cmd_native_probe(flags: &HashMap<String, String>) -> Result<(), String> {
    let report = ddrace::pmu::backend::probe();
    if flags.contains_key("json") {
        println!(
            "{}",
            ddrace::json::to_string(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("backend:    {}", report.backend);
    println!("event:      {}", report.event);
    match &report.fallback_reason {
        Some(reason) => println!("fallback:   {reason}"),
        None => println!("fallback:   none (hardware counter in use)"),
    }
    println!(
        "target:     {}/{} (linux-pmu compiled: {})",
        report.os, report.arch, report.feature_compiled
    );
    match report.paranoid {
        Some(p) => println!("paranoid:   {p}"),
        None => println!("paranoid:   unreadable"),
    }
    println!(
        "counter:    {} (value {}, scaled {}, ratio {}‰)",
        if report.counter_works { "ok" } else { "failed" },
        report.value,
        report.scaled_value,
        report.scale_ratio_permille
    );
    println!("overflows:  {} (lost {})", report.overflows, report.lost);
    Ok(())
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let common = parse_common(flags)?;
    let cfg = sim_config(flags, common.cores, common.seed)?;
    let result = Simulation::new(cfg)
        .run(common.spec.program(common.scale, common.seed))
        .map_err(|e| e.to_string())?;
    print_result(
        &result,
        flags.contains_key("json"),
        flags.contains_key("detail"),
        flags.contains_key("timeline"),
    )
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let common = parse_common(flags)?;
    let run = |mode| -> Result<RunResult, String> {
        let mut cfg = SimConfig::new(common.cores, mode);
        cfg.scheduler = SchedulerConfig {
            quantum: 32,
            seed: common.seed,
            jitter: true,
        };
        Simulation::new(cfg)
            .run(common.spec.program(common.scale, common.seed))
            .map_err(|e| e.to_string())
    };
    let native = run(AnalysisMode::Native)?;
    println!(
        "{:<14} {:>14} {:>10} {:>7} {:>10}",
        "mode", "cycles", "slowdown", "races", "analyzed"
    );
    println!("{}", "-".repeat(60));
    for mode in [
        AnalysisMode::Native,
        AnalysisMode::Continuous,
        AnalysisMode::demand_hitm(),
        AnalysisMode::demand_oracle(),
    ] {
        let r = run(mode)?;
        println!(
            "{:<14} {:>14} {:>9.1}x {:>7} {:>9.1}%",
            r.mode,
            r.makespan,
            r.slowdown_vs(&native),
            r.races.distinct,
            r.analyzed_fraction() * 100.0
        );
    }
    Ok(())
}

fn cmd_record(flags: &HashMap<String, String>) -> Result<(), String> {
    let common = parse_common(flags)?;
    let out = flags.get("out").ok_or("--out FILE is required")?;
    let scheduler = SchedulerConfig {
        quantum: 32,
        seed: common.seed,
        jitter: true,
    };
    let file = std::fs::File::create(out).map_err(|e| format!("--out {out}: {e}"))?;
    let mut writer =
        TraceWriter::new(std::io::BufWriter::new(file)).map_err(|e| format!("--out {out}: {e}"))?;
    // Events are encoded as the scheduler emits them; the run is never
    // held in memory.
    let mut threads = 0usize;
    let stats = Scheduler::new(common.spec.program(common.scale, common.seed), scheduler)
        .run(&mut |event: &TraceEvent| {
            threads += usize::from(matches!(event, TraceEvent::ThreadStarted { .. }));
            writer.record_event(event);
        })
        .map_err(|e| e.to_string())?;
    writer
        .finish()
        .and_then(|mut w| std::io::Write::flush(&mut w))
        .map_err(|e| format!("--out {out}: {e}"))?;
    println!(
        "recorded {} ops across {threads} threads to {out}",
        stats.ops_executed
    );
    Ok(())
}

fn cmd_campaign(flags: &HashMap<String, String>) -> Result<(), String> {
    let suite = flags.get("suite").map(String::as_str).unwrap_or("phoenix");
    let workloads = match suite {
        "phoenix" => ddrace::phoenix::suite(),
        "parsec" => ddrace::parsec::suite(),
        "racy" => ddrace::racy::kernels(),
        "sync" => ddrace::archetypes::suite(),
        "all" => ddrace::workloads::all_benchmarks()
            .into_iter()
            .chain(ddrace::racy::kernels())
            .chain(ddrace::archetypes::suite())
            .collect(),
        other => return Err(format!("unknown suite `{other}`")),
    };
    let modes = flags
        .get("modes")
        .map(String::as_str)
        .unwrap_or("native,continuous,demand-hitm")
        .split(',')
        .map(parse_mode)
        .collect::<Result<Vec<_>, _>>()?;
    let scale = Scale::from_name(flags.get("scale").map(String::as_str).unwrap_or("small"))?;
    let seed: u64 = num_flag(flags, "seed")?.unwrap_or(42);
    let seeds: Vec<u64> = match flags.get("seeds") {
        Some(list) => {
            if flags.contains_key("seed") {
                return Err("--seed and --seeds are mutually exclusive".to_string());
            }
            let seeds = list
                .split(',')
                .map(|s| s.trim().parse::<u64>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| "--seeds takes comma-separated numbers, e.g. 1,2,3")?;
            if seeds.is_empty() {
                return Err("--seeds needs at least one seed".to_string());
            }
            seeds
        }
        None => vec![seed],
    };

    let variants: Option<Vec<JobVariant>> = match (flags.get("variants"), flags.get("cores-sweep"))
    {
        (Some(_), Some(_)) => {
            return Err("--variants and --cores-sweep are mutually exclusive".to_string())
        }
        (Some(spec), None) => Some(parse_variants(spec)?),
        (None, Some(list)) => Some(parse_cores_sweep(list)?),
        (None, None) => None,
    };

    let mut builder = Campaign::builder(format!("{suite}-campaign"))
        .workloads(workloads)
        .modes(modes)
        .seeds(seeds)
        .scale(scale)
        .cores(num_flag(flags, "cores")?.unwrap_or(8));
    if let Some(variants) = variants {
        builder = builder.variants(variants);
    }
    if let Some(d) = flags.get("detector") {
        builder = builder.detector_kind(parse_detector(d)?);
    }
    if let Some(secs) = num_flag(flags, "timeout-secs")? {
        builder = builder.timeout(std::time::Duration::from_secs(secs));
    }
    run_campaign_or_resume(flags, &builder.build(), false)
}

/// The run-or-resume driver `campaign`, `ingest` and `fuzz` share.
///
/// It reads `--resume` *before* it opens `--events`, so resuming into the
/// events path the checkpoint came from does not truncate the checkpoint
/// first. It then builds the event sink (wall-clock fields zeroed when
/// `deterministic`), runs `run` (which resumes when handed a checkpoint),
/// writes the aggregate to `--out` or stdout, and returns the report so
/// each command keeps its own exit checks.
///
/// A checkpoint that cannot be read, does not parse, or was recorded for
/// a different run is refused: exit 2 with one `error:` line. `run` fails
/// only on such a refusal.
fn run_or_resume<R>(
    flags: &HashMap<String, String>,
    deterministic: bool,
    run: impl FnOnce(&EventSink, Option<&CheckpointLog>) -> Result<R, String>,
    aggregate: impl FnOnce(&R) -> ddrace::json::Value,
) -> Result<R, String> {
    let resume = match flags.get("resume") {
        Some(path) => {
            let log = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| CheckpointLog::parse(&text))
                .map_err(|e| format!("refused: --resume {path}: {e}"))?;
            Some((path, log))
        }
        None => None,
    };
    let jsonl: Option<Box<dyn std::io::Write + Send>> = match flags.get("events") {
        Some(path) if path == "-" => Some(Box::new(std::io::stdout())),
        Some(path) => Some(Box::new(
            std::fs::File::create(path).map_err(|e| format!("--events {path}: {e}"))?,
        )),
        None => None,
    };
    let quiet = flags.contains_key("quiet");
    let mut sink = EventSink::new(jsonl, !quiet);
    if deterministic {
        sink = sink.with_deterministic_wall();
    }
    let report = match &resume {
        None => run(&sink, None)?,
        Some((path, log)) => {
            let report =
                run(&sink, Some(log)).map_err(|e| format!("refused: --resume {path}: {e}"))?;
            if !quiet {
                eprintln!(
                    "resumed: {} of {} job(s) restored from the checkpoint",
                    log.finished.len(),
                    log.jobs_total
                );
            }
            report
        }
    };
    let text = ddrace::json::to_string_pretty(&aggregate(&report)).map_err(|e| e.to_string())?;
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("--out {path}: {e}"))?;
            eprintln!("aggregate written to {path}");
        }
        None => println!("{text}"),
    }
    Ok(report)
}

/// [`run_or_resume`] for a simulator campaign (`campaign` and `ingest`),
/// on `--workers` threads; fails if any job failed.
fn run_campaign_or_resume(
    flags: &HashMap<String, String>,
    campaign: &Campaign,
    deterministic: bool,
) -> Result<(), String> {
    let workers = workers_flag(flags)?;
    let report = run_or_resume(
        flags,
        deterministic,
        |sink, log| match log {
            Some(log) => resume_campaign(campaign, workers, sink, log),
            None => Ok(run_campaign(campaign, workers, sink)),
        },
        CampaignReport::aggregate_json,
    )?;
    if report.failed() > 0 {
        return Err(format!("{} job(s) failed", report.failed()));
    }
    Ok(())
}

fn cmd_fuzz(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("replay") {
        return cmd_fuzz_replay(path);
    }
    let cfg = ddrace::FuzzConfig {
        seed: num_flag(flags, "seed")?.unwrap_or(1),
        count: num_flag(flags, "count")?.unwrap_or(200),
        workers: workers_flag(flags)?,
        fault: ddrace::Fault::parse(flags.get("fault").map(String::as_str).unwrap_or("none"))?,
    };
    // Fuzz events are deterministic down to the byte (the ci.sh smoke
    // stage diffs two runs), so wall-clock fields are zeroed.
    let report = run_or_resume(
        flags,
        true,
        |sink, log| ddrace::run_fuzz(&cfg, sink, log),
        ddrace::conform::FuzzReport::aggregate_json,
    )?;

    // Write one replayable reproducer file per failing spec.
    let repro_dir = flags.get("repro-dir").map(String::as_str).unwrap_or(".");
    let mut repro_paths = Vec::new();
    if !report.failing_outcomes().is_empty() {
        std::fs::create_dir_all(repro_dir).map_err(|e| format!("--repro-dir {repro_dir}: {e}"))?;
    }
    for outcome in report.failing_outcomes() {
        if let Some(spec) = &outcome.reproducer {
            let path = format!("{repro_dir}/fuzz-repro-s{:016x}.json", outcome.spec_seed);
            let text = ddrace::json::to_string_pretty(&ddrace::conform::reproducer_json(
                report.fault,
                spec,
            ))
            .map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
            repro_paths.push(path);
        }
    }
    for path in &repro_paths {
        eprintln!("reproducer written to {path} (rerun with: ddrace fuzz --replay {path})");
    }

    if report.failed() > 0 {
        return Err(format!("{} fuzz job(s) failed to finish", report.failed()));
    }
    if report.violations_total() > 0 {
        return Err(format!(
            "{} oracle violation(s) across {} of {} spec(s)",
            report.violations_total(),
            report.failing_outcomes().len(),
            cfg.count
        ));
    }
    if !flags.contains_key("quiet") {
        eprintln!("fuzz: {} spec(s) checked, no oracle violations", cfg.count);
    }
    Ok(())
}

fn cmd_fuzz_replay(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--replay {path}: {e}"))?;
    let (fault, spec) =
        ddrace::conform::parse_reproducer(&text).map_err(|e| format!("--replay {path}: {e}"))?;
    let verdict = ddrace::conform::check_spec_with(&spec, fault);
    eprintln!(
        "replay: {} op(s), fault {}, races continuous {} / demand {}",
        spec.op_count(),
        fault.name(),
        verdict.races_continuous,
        verdict.races_demand
    );
    if verdict.violations.is_empty() {
        eprintln!("replay: the spec conforms — failure did not reproduce");
        return Ok(());
    }
    for v in &verdict.violations {
        eprintln!("violation [{}]: {}", v.oracle, v.detail);
    }
    Err(format!(
        "{} oracle violation(s) reproduced",
        verdict.violations.len()
    ))
}

fn cmd_analyze(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = flags.get("trace").ok_or("--trace FILE is required")?;
    let cfg = sim_config(flags, num_flag(flags, "cores")?.unwrap_or(8), 0)?;
    let file = std::fs::File::open(path).map_err(|e| format!("--trace {path}: {e}"))?;
    // Streamed: events go to the detector as they decode, so peak memory
    // is one codec frame rather than the whole trace.
    let result = replay(std::io::BufReader::new(file), cfg, 0)
        .map_err(|e| format!("refused: trace {path}: {e}"))?;
    print_result(
        &result,
        flags.contains_key("json"),
        flags.contains_key("detail"),
        flags.contains_key("timeline"),
    )
}

fn cmd_ingest(flags: &HashMap<String, String>) -> Result<(), String> {
    let list = flags
        .get("traces")
        .ok_or("--traces FILE[,FILE,...] is required")?;
    // A corrupt or foreign trace is refused up front, like a foreign
    // --resume checkpoint: exit 2 with the failing byte offset.
    let sources = list
        .split(',')
        .map(str::trim)
        .map(|path| TraceSource::load(path).map_err(|e| format!("refused: trace {path}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let modes = flags
        .get("modes")
        .map(String::as_str)
        .unwrap_or("continuous")
        .split(',')
        .map(parse_mode)
        .collect::<Result<Vec<_>, _>>()?;
    let detectors = flags
        .get("detectors")
        .map(String::as_str)
        .unwrap_or("fasttrack")
        .split(',')
        .map(parse_detector)
        .collect::<Result<Vec<_>, _>>()?;

    let mut builder = Campaign::builder("ingest")
        .trace_corpus(sources)
        .modes(modes)
        .seeds([0])
        .cores(num_flag(flags, "cores")?.unwrap_or(8))
        .replay_workers(num_flag(flags, "replay-workers")?.unwrap_or(0));
    match detectors.as_slice() {
        [single] => builder = builder.detector_kind(*single),
        many => {
            // Several detectors become a variant axis, so each trace ×
            // mode cell replays once per detector with a distinct label.
            builder = builder.variants(many.iter().map(|&kind| {
                let name = match kind {
                    DetectorKind::FastTrack => "fasttrack",
                    DetectorKind::Djit => "djit",
                    DetectorKind::LockSet => "lockset",
                };
                JobVariant::new(
                    name,
                    ConfigPatch {
                        detector_kind: Some(kind),
                        ..ConfigPatch::default()
                    },
                )
            }));
        }
    }
    // Replay is deterministic end to end, so the events stream is too:
    // wall-clock fields are zeroed as in `fuzz`.
    run_campaign_or_resume(flags, &builder.build(), true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_presets_expand() {
        let cache = parse_variants("a3-cache").unwrap();
        assert_eq!(cache.len(), 5);
        assert_eq!(cache[0].name, "16KiB");
        assert!(cache
            .iter()
            .all(|v| v.patch.l1.is_some() && v.patch.l2.is_some()));
        let smt = parse_variants("smt-cores").unwrap();
        let cores: Vec<usize> = smt.iter().map(|v| v.patch.cores.unwrap()).collect();
        assert_eq!(cores, [8, 4, 2, 1]);
    }

    #[test]
    fn custom_variants_parse_every_key() {
        let variants =
            parse_variants("tiny=cores:2+quantum:8+scale:test+detector:djit,tuned=period:64+cooldown:100+l2-sets:32")
                .unwrap();
        assert_eq!(variants.len(), 2);
        let tiny = &variants[0].patch;
        assert_eq!(variants[0].name, "tiny");
        assert_eq!(tiny.cores, Some(2));
        assert_eq!(tiny.quantum, Some(8));
        assert_eq!(tiny.scale, Some(Scale::TEST));
        assert_eq!(tiny.detector_kind, Some(DetectorKind::Djit));
        let tuned = &variants[1].patch;
        assert_eq!(tuned.sample_period, Some(64));
        assert_eq!(tuned.cooldown_accesses, Some(100));
        let l2 = tuned.l2.unwrap();
        // A lone l2-sets override keeps the Nehalem ways/latency.
        assert_eq!((l2.sets, l2.ways, l2.latency), (32, 8, 12));
    }

    #[test]
    fn bad_variants_are_rejected() {
        for bad in [
            "noequals",
            "empty=",
            "=cores:2",
            "v=cores",
            "v=cores:many",
            "v=wheels:4",
            "v=scale:huge",
        ] {
            assert!(parse_variants(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn cores_sweep_parses_and_validates() {
        let ladder = parse_cores_sweep("1, 2,4,8").unwrap();
        let names: Vec<&str> = ladder.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["c1", "c2", "c4", "c8"]);
        assert!(parse_cores_sweep("0").is_err());
        assert!(parse_cores_sweep("65").is_err());
        assert!(parse_cores_sweep("two").is_err());
    }
}
