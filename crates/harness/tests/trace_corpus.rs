//! Trace-corpus jobs: recorded traces registered via
//! [`CampaignBuilder::trace_corpus`] must replay to the same racy-key
//! set as the live run they were recorded from, occupy ordinary
//! workload slots in the report, and fold into a byte-deterministic
//! aggregate like any generator job.

use ddrace_core::{AnalysisMode, RunResult, SimConfig, Simulation};
use ddrace_harness::{fnv1a, run_campaign, Campaign, EventSink, TraceSource};
use ddrace_program::{Addr, ThreadId, TraceEvent};
use ddrace_trace::{decode_events_into, TraceRecord, TraceWriter};
use ddrace_workloads::{racy, Scale, WorkloadSpec};
use std::path::PathBuf;

/// The sorted racy-variable set of a run (what detectors must agree on).
fn racy_keys(result: &RunResult) -> Vec<u64> {
    let mut keys: Vec<u64> = result.races.reports.iter().map(|r| r.shadow_key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Records one continuous-mode run of `spec` into a fresh trace file in
/// a per-process temp dir; returns the path and the live result.
fn record(spec: &WorkloadSpec, seed: u64, tag: &str) -> (PathBuf, RunResult) {
    let dir = std::env::temp_dir().join(format!("ddrace-trace-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.ddrt"));
    let program = spec.program(Scale::TEST, seed);
    let mut cfg = SimConfig::new(4, AnalysisMode::Continuous);
    cfg.scheduler.seed = seed;
    let mut writer = TraceWriter::new(Vec::new()).unwrap();
    let live = Simulation::new(cfg)
        .run_recorded(program, &mut writer)
        .unwrap();
    std::fs::write(&path, writer.finish().unwrap()).unwrap();
    (path, live)
}

#[test]
fn replayed_trace_reproduces_the_live_racy_key_set() {
    let (path, live) = record(&racy::sparse_race(), 42, "faithful");
    assert!(!racy_keys(&live).is_empty(), "workload must race live");

    let source = TraceSource::load(&path).unwrap();
    assert!(source.records > 0);
    let campaign = Campaign::builder("trace-faithful")
        .modes([AnalysisMode::Continuous])
        .seeds([42])
        .cores(4)
        .trace_corpus([source])
        .build();
    assert_eq!(campaign.jobs.len(), 1);
    assert_eq!(campaign.workloads[0].suite.to_string(), "trace");

    let replayed = campaign.jobs[0].run().unwrap();
    assert_eq!(
        racy_keys(&replayed),
        racy_keys(&live),
        "offline detection must match live detection"
    );
}

#[test]
fn trace_jobs_share_the_report_grid_with_generator_jobs() {
    let (path, _) = record(&racy::sparse_race(), 7, "grid");
    let source = TraceSource::load(&path).unwrap();
    let campaign = Campaign::builder("trace-grid")
        .workloads([racy::sparse_race()])
        .modes([AnalysisMode::Continuous])
        .seeds([7])
        .scale(Scale::TEST)
        .cores(4)
        .trace_corpus([source])
        .build();
    // One generator slot + one trace slot, each 1 mode × 1 seed.
    assert_eq!(campaign.jobs.len(), 2);
    assert!(campaign.jobs[0].trace.is_none());
    assert!(campaign.jobs[1].trace.is_some());

    let a = run_campaign(&campaign, 1, &EventSink::null());
    let b = run_campaign(&campaign, 8, &EventSink::null());
    assert_eq!(a.finished(), 2);
    let rows = a.rows();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[1].suite, "trace");
    assert_eq!(
        ddrace_json::to_string_pretty(&a.aggregate_json()).unwrap(),
        ddrace_json::to_string_pretty(&b.aggregate_json()).unwrap(),
        "trace jobs must not break worker-count determinism"
    );
    // The replay phase shows up in the campaign's phase breakdown.
    assert!(a.totals.counter("ingest.events_replayed") > 0);
}

#[test]
fn trace_fingerprint_follows_content_not_path() {
    let (path, _) = record(&racy::sparse_race(), 42, "fp-a");
    let copy = path.with_file_name("fp-a-copy.ddrt");
    std::fs::copy(&path, &copy).unwrap();
    let (other, _) = record(&racy::sparse_race(), 43, "fp-b");

    let a = TraceSource::load(&path).unwrap();
    let b = TraceSource::load(&copy).unwrap();
    let c = TraceSource::load(&other).unwrap();
    assert_eq!(a.fingerprint, b.fingerprint, "same bytes, same fingerprint");
    assert_ne!(a.fingerprint, c.fingerprint, "different runs must differ");

    // Loading streams the file; the fingerprint must be the hash of the
    // whole file and the record count the decoder's, or `--resume` would
    // refuse checkpoints written before.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(a.fingerprint, fnv1a(&bytes));
    let decoded = decode_events_into(bytes.as_slice(), |_| {}).unwrap();
    assert_eq!(a.records, decoded.events + decoded.hitm_samples);

    // HITM samples count as records too (the job fingerprint hashes the
    // count), though the decoder does not deliver them as events.
    let mut writer = TraceWriter::new(Vec::new()).unwrap();
    writer.record_event(&TraceEvent::ThreadStarted {
        tid: ThreadId(0),
        parent: None,
    });
    writer.record(&TraceRecord::HitmSample {
        core: 0,
        addr: Addr(0x40),
    });
    let sampled = path.with_file_name("fp-hitm.ddrt");
    std::fs::write(&sampled, writer.finish().unwrap()).unwrap();
    assert_eq!(TraceSource::load(&sampled).unwrap().records, 2);
}

#[test]
fn corrupt_traces_are_rejected_at_load_time() {
    let (path, _) = record(&racy::sparse_race(), 42, "corrupt");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.truncate(bytes.len() - 3);
    let cut = path.with_file_name("corrupt-cut.ddrt");
    std::fs::write(&cut, &bytes).unwrap();
    let err = TraceSource::load(&cut).unwrap_err().to_string();
    assert!(
        err.contains("refusing to ingest"),
        "load must refuse corrupt traces: {err}"
    );

    let foreign = path.with_file_name("foreign.bin");
    std::fs::write(&foreign, b"not a trace at all").unwrap();
    let err = TraceSource::load(&foreign).unwrap_err().to_string();
    assert!(err.contains("refusing to ingest"), "{err}");
}
