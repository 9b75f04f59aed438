//! The offline pipeline: the recorded trace file, the trace-corpus
//! `Job::run` that `ddrace ingest` runs, and probes of its layers.

use crate::stats::timed;
use crate::workload::Input;
use ddrace_core::{AnalysisMode, RunResult, Simulation};
use ddrace_harness::{Job, TraceSource};
use ddrace_native::{ParallelReplayConfig, ParallelReplayDetector};
use ddrace_program::{Op, TraceEvent};
use ddrace_shadow::shard_of;
use ddrace_telemetry::Telemetry;
use ddrace_trace::{decode_events_into, decode_events_into_parallel, TraceWriter};
use std::path::PathBuf;

/// Replay workers for the parallel variant: the host's two cores.
pub const REPLAY_WORKERS: usize = 2;

/// Where recorded traces live while a run uses them: inside the
/// benchmark's own directory, removed when the run ends.
fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".scratch")
}

/// A trace recorded from the workload's program, on disk and in memory.
#[derive(Debug)]
pub struct TraceFile {
    pub bytes: Vec<u8>,
    pub source: TraceSource,
    /// Execution events the trace holds (what ingest replays).
    pub events: u64,
}

impl TraceFile {
    /// Records the program once under the simulator's recorder — the
    /// same schedule every mode sees — and writes it where a trace-corpus
    /// job can open it.
    pub fn record(input: &Input) -> TraceFile {
        let mut writer = TraceWriter::new(Vec::new()).expect("in-memory trace header");
        Simulation::new(input.sim_config(AnalysisMode::Native))
            .run_recorded(input.program(), &mut writer)
            .expect("benchmark workloads schedule without error");
        let bytes = writer.finish().expect("in-memory trace writes cannot fail");
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
        let path = dir.join(format!(
            "{}-{}-{}.ddrt",
            input.workload.name(),
            input.seed,
            std::process::id()
        ));
        std::fs::write(&path, &bytes).expect("write the recorded trace");
        let source = TraceSource::load(&path).expect("the recorded trace validates");
        let events = decode_events_into(bytes.as_slice(), |_| {})
            .expect("the recorded trace decodes")
            .events;
        TraceFile {
            bytes,
            source,
            events,
        }
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.source.path);
        // Succeeds only once the last run's trace is gone.
        let _ = std::fs::remove_dir(scratch_dir());
    }
}

/// The continuous-mode FastTrack trace job, serial (`workers == 0`) or
/// with parallel replay.
pub fn job(input: &Input, trace: &TraceFile, workers: usize) -> Job {
    input.job(
        AnalysisMode::Continuous,
        Some(trace.source.clone()),
        workers,
    )
}

/// Runs a job as the harness executor does — inside a telemetry sink —
/// and returns wall nanoseconds, the result and the collected counters.
pub fn run(job: &Job) -> (f64, RunResult, Telemetry) {
    ddrace_telemetry::install();
    let (ns, result) = timed(|| job.run());
    let telemetry = ddrace_telemetry::take().unwrap_or_default();
    (ns, result.expect("the recorded trace replays"), telemetry)
}

/// A job's outcome with the counters that describe the replay
/// configuration (`ingest.*`) removed: equal for serial and parallel
/// replay of one trace.
pub fn aggregate(result: &RunResult, telemetry: &Telemetry) -> String {
    let counters: Vec<_> = telemetry
        .counters()
        .filter(|(name, _)| !name.starts_with("ingest."))
        .collect();
    format!(
        "{}\n{counters:?}",
        ddrace_json::to_string(result).expect("RunResult serializes")
    )
}

/// One round of ingest layer probes, all in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct IngestProbe {
    pub read_ns: f64,
    pub decode_ns: f64,
    pub decode_parallel_ns: f64,
    /// Decode plus `ParallelReplayDetector::push_event` for every event.
    pub decode_walk_ns: f64,
    pub merge_ns: f64,
    pub batches: u64,
}

pub fn probe(trace: &TraceFile) -> IngestProbe {
    let (read_ns, bytes) =
        timed(|| std::fs::read(&trace.source.path).expect("read the recorded trace"));
    assert_eq!(bytes, trace.bytes, "the trace file changed during the run");
    let (decode_ns, _) = timed(|| decode_events_into(bytes.as_slice(), |_| {}));
    let (decode_parallel_ns, _) =
        timed(|| decode_events_into_parallel(bytes.as_slice(), REPLAY_WORKERS, |_| {}));
    let mut detector = ParallelReplayDetector::new(parallel_config());
    let (decode_walk_ns, _) =
        timed(|| decode_events_into(bytes.as_slice(), |e| detector.push_event(e)));
    let (merge_ns, outcome) = timed(|| detector.finish());
    IngestProbe {
        read_ns,
        decode_ns,
        decode_parallel_ns,
        decode_walk_ns,
        merge_ns,
        batches: outcome.batches,
    }
}

fn parallel_config() -> ParallelReplayConfig {
    ParallelReplayConfig {
        workers: REPLAY_WORKERS,
        ..ParallelReplayConfig::default()
    }
}

/// The largest share of data accesses any one replay worker checks:
/// shards are owned by worker `shard % workers`, so this is exact from
/// the addresses alone.
pub fn max_worker_load_fraction(trace: &TraceFile) -> f64 {
    let cfg = parallel_config();
    let mut load = vec![0u64; cfg.workers];
    decode_events_into(trace.bytes.as_slice(), |e| {
        if let TraceEvent::Op {
            op:
                Op::Read { addr }
                | Op::Write { addr }
                | Op::RelaxedLoad { addr }
                | Op::RelaxedStore { addr }
                | Op::RelaxedRmw { addr },
            ..
        } = e
        {
            let shard = shard_of(cfg.detector.granularity.key(*addr), cfg.shards);
            load[shard % cfg.workers] += 1;
        }
    })
    .expect("the recorded trace decodes");
    let total: u64 = load.iter().sum();
    load.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64
}
