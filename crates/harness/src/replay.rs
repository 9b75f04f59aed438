//! The single replay entry point: a DDRT trace in, a [`RunResult`] out.

use ddrace_core::{AnalysisMode, DetectorKind, RaceSummary, RunResult, SimConfig, Simulation};
use ddrace_native::{ParallelReplayConfig, ParallelReplayDetector};
use ddrace_trace::{decode_events_into, TraceError};
use std::io::Read;

/// Streams a DDRT trace through the simulator under `cfg` without
/// materializing the event list: peak memory is one frame of the trace
/// codec, regardless of trace length. Every trace consumer — `ddrace
/// analyze`, trace-corpus jobs, the conformance oracles — goes through
/// here.
///
/// The trace is decoded serially on this thread at every worker count.
/// `workers == 0` replays serially with the detector `cfg` names. With
/// `workers > 0`, continuous FastTrack analysis fans detection out across
/// a worker pool while the simulation itself — cache hierarchy, cost
/// model, schedule accounting — runs unchanged on this thread; the merged
/// detector outcome is spliced into the result afterwards, byte-identical
/// to the serial path. Other modes and detectors replay serially.
///
/// # Errors
///
/// Refuses foreign, corrupt or truncated input with the failing byte
/// offset; the verdict up to the failure point is discarded.
pub fn replay<R: Read>(input: R, cfg: SimConfig, workers: usize) -> Result<RunResult, TraceError> {
    let parallel = workers > 0
        && matches!(cfg.mode, AnalysisMode::Continuous)
        && cfg.detector_kind == DetectorKind::FastTrack;
    if !parallel {
        let sim = Simulation::new(cfg);
        let mut replay = sim.trace_replay();
        decode_events_into(input, |event| replay.push(event))?;
        return Ok(replay.finish());
    }
    // Wall-clock decode timing is nondeterministic, so it only enters
    // the (byte-reproducible) aggregate when explicitly requested.
    let timing = std::env::var("DDRACE_INGEST_TIMING").as_deref() == Ok("1");
    let started = timing.then(std::time::Instant::now);
    let mut detector = ParallelReplayDetector::new(ParallelReplayConfig {
        detector: cfg.detector,
        workers,
        ..ParallelReplayConfig::default()
    });
    let sim = Simulation::new(cfg);
    let mut replay = sim.trace_replay_with_detector(&mut detector);
    decode_events_into(input, |event| replay.push(event))?;
    let mut result = replay.finish();
    let outcome = detector.finish();
    // `finish` emitted zeros for `detector.*` (the in-run detector is a
    // stub); add the real counters so campaign totals match serial.
    outcome.stats.emit_telemetry();
    ddrace_telemetry::counter("ingest.batches", outcome.batches);
    ddrace_telemetry::counter("ingest.replay_workers", workers as u64);
    if let Some(started) = started {
        ddrace_telemetry::counter("ingest.decode_ns", started.elapsed().as_nanos() as u64);
    }
    let set = &outcome.reports;
    result.races = RaceSummary {
        distinct: set.distinct(),
        distinct_addresses: set.distinct_addresses(),
        occurrences: set.total_occurrences(),
        reports: set.reports().to_vec(),
        report_occurrences: set.occurrences().to_vec(),
    };
    result.detector = Some(outcome.stats);
    Ok(result)
}
