//! Cross-crate integration: record-once / analyze-many via DDRT traces,
//! all replayed through `ddrace::replay`.

use ddrace::{
    phoenix, racy, replay, AnalysisMode, RunResult, Scale, SchedulerConfig, SimConfig, Simulation,
    TraceWriter,
};
use ddrace_detector::{racy_keys, DetectorConfig};
use ddrace_native::Monitor;
use ddrace_program::{Addr, Trace};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn config(mode: AnalysisMode) -> SimConfig {
    let mut cfg = SimConfig::new(4, mode);
    cfg.scheduler = SchedulerConfig {
        quantum: 8,
        seed: 5,
        jitter: true,
    };
    cfg
}

/// `trace` in the DDRT format.
fn encode(trace: &Trace) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new()).unwrap();
    for event in trace.events() {
        writer.record_event(event);
    }
    writer.finish().unwrap()
}

/// Serial replay of DDRT `bytes` under `mode`.
fn analyze(bytes: &[u8], mode: AnalysisMode) -> RunResult {
    replay(bytes, config(mode), 0).unwrap()
}

#[test]
fn replayed_analysis_matches_direct_run() {
    let spec = racy::unprotected_counter();
    let scheduler = config(AnalysisMode::Continuous).scheduler;
    let trace = Trace::record(spec.program(Scale::TEST, 5), scheduler).unwrap();

    let direct = Simulation::new(config(AnalysisMode::Continuous))
        .run(spec.program(Scale::TEST, 5))
        .unwrap();
    let replayed = analyze(&encode(&trace), AnalysisMode::Continuous);

    // The trace carries the same interleaving the direct run used (same
    // seed), so analysis results are identical.
    assert_eq!(replayed.races.distinct, direct.races.distinct);
    assert_eq!(replayed.makespan, direct.makespan);
    assert_eq!(replayed.accesses_analyzed, direct.accesses_analyzed);
    assert_eq!(replayed.cache.sharing, direct.cache.sharing);
    assert_eq!(replayed.schedule.ops_executed, direct.schedule.ops_executed);
}

#[test]
fn one_trace_many_configurations() {
    let spec = racy::mostly_locked();
    let scheduler = config(AnalysisMode::Native).scheduler;
    let bytes = encode(&Trace::record(spec.program(Scale::TEST, 9), scheduler).unwrap());

    let native = analyze(&bytes, AnalysisMode::Native);
    let cont = analyze(&bytes, AnalysisMode::Continuous);
    let demand = analyze(&bytes, AnalysisMode::demand_hitm());

    assert_eq!(native.races.distinct, 0);
    assert!(cont.races.distinct > 0);
    assert!(native.makespan < demand.makespan);
    assert!(demand.makespan <= cont.makespan + 8 * 50_000 * 4); // toggle slack
                                                                // Identical traffic in all three analyses.
    assert_eq!(native.accesses_total, cont.accesses_total);
    assert_eq!(cont.accesses_total, demand.accesses_total);
}

#[test]
fn trace_ddrt_roundtrip() {
    let spec = phoenix::string_match();
    let scheduler = config(AnalysisMode::Native).scheduler;
    let trace = Trace::record(spec.program(Scale::TEST, 2), scheduler).unwrap();
    let bytes = encode(&trace);
    let mut decoded = Vec::new();
    let summary =
        ddrace::trace::decode_events_into(bytes.as_slice(), |e| decoded.push(e.clone())).unwrap();
    assert_eq!(decoded, trace.events());
    assert_eq!(summary.hitm_samples, 0);
    // And the decoded trace analyzes like a live run of the same schedule.
    let live = Simulation::new(config(AnalysisMode::Continuous))
        .run(spec.program(Scale::TEST, 2))
        .unwrap();
    let replayed = analyze(&bytes, AnalysisMode::Continuous);
    assert_eq!(replayed.makespan, live.makespan);
    assert_eq!(replayed.races.distinct, live.races.distinct);
}

/// An in-memory sink a recording monitor can own.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn native_recording_replays_to_the_live_racy_keys() {
    const ITERS: u64 = 1500;
    let sink = SharedBuf::default();
    let (monitor, root) = Monitor::recording(Box::new(sink.clone())).unwrap();
    let guard = Mutex::new(());
    let (racy_word, guarded_word) = (Addr(0x1000), Addr(0x2000));
    let tokens: Vec<_> = (0..4).map(|_| monitor.fork(root)).collect();
    std::thread::scope(|scope| {
        for (w, &token) in tokens.iter().enumerate() {
            let (monitor, guard) = (&monitor, &guard);
            scope.spawn(move || {
                let private = 0x10_0000 * (w as u64 + 1);
                for i in 0..ITERS {
                    let own = Addr(private + i % 512 * 8);
                    monitor.write(token, racy_word); // unsynchronized
                    monitor.read(token, own);
                    monitor.write(token, own);
                    let held = guard.lock().unwrap();
                    monitor.lock_acquired(token, 1);
                    monitor.read(token, guarded_word);
                    monitor.write(token, guarded_word);
                    monitor.lock_released(token, 1);
                    drop(held);
                }
            });
        }
    });
    for token in tokens {
        monitor.join(root, token);
    }
    monitor.finish_recording().unwrap();
    let bytes = sink.0.lock().unwrap().clone();
    assert!(bytes.len() > 64 * 1024, "only {} bytes", bytes.len());

    // Racy keys, not `races.distinct`: which access pairs are reported
    // depends on the order accesses reach the detector, and the live
    // threads and the recorded merge order may differ there.
    let live = racy_keys(&monitor.reports());
    let racy_key = DetectorConfig::default().granularity.key(racy_word);
    assert_eq!(live, [racy_key], "only the unsynchronized word races");
    let replayed = analyze(&bytes, AnalysisMode::Continuous);
    assert_eq!(racy_keys(&replayed.races.reports), live);
}
