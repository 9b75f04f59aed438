//! Trace-corpus jobs: recorded traces registered via
//! [`CampaignBuilder::trace_corpus`] must replay to the same racy-key
//! set as the live run they were recorded from, occupy ordinary
//! workload slots in the report, and fold into a byte-deterministic
//! aggregate like any generator job.

use ddrace_core::{AnalysisMode, DetectorKind, RunResult, SimConfig, Simulation};
use ddrace_harness::{fnv1a, replay, run_campaign, Campaign, EventSink, TraceSource};
use ddrace_program::{Addr, BarrierId, CondId, LockId, Op, SemId, ThreadId, TraceEvent};
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

/// Well-formed traces whose meaning no scheduler would produce: each one
/// must still replay to a result in every mode, under every detector.
#[test]
fn hostile_but_well_formed_traces_replay_everywhere() {
    use Op::*;
    let (t0, t1, t2, t_max) = (ThreadId(0), ThreadId(1), ThreadId(2), ThreadId(0xFFFF));
    let (x, far) = (Addr(0x1000), Addr(u64::MAX));
    let (lock, cond, sem) = (LockId(0), CondId(0), SemId(0));
    let (lock_max, cond_max, sem_max) = (LockId(u32::MAX), CondId(u32::MAX), SemId(u32::MAX));
    let op = |tid, op| TraceEvent::Op { tid, op };
    let started = |tid, parent| TraceEvent::ThreadStarted {
        tid,
        parent: Some(parent),
    };
    let barrier = |id, participants| Barrier {
        barrier: BarrierId(id),
        participants,
    };
    let released = |id, participants: &[ThreadId]| TraceEvent::BarrierReleased {
        barrier: BarrierId(id),
        participants: participants.to_vec(),
    };
    let cond_wait = |cond, lock| CondWait { cond, lock };
    // Each trace starts the main thread, then has it or others do:
    let cases = [
        // an unlock of an unheld lock,
        vec![op(t0, Unlock { lock })],
        // a join of a thread never forked,
        vec![op(t0, Join { child: t1 })],
        // a wake with no wait,
        vec![op(t0, CondWake { cond, lock })],
        // notifies with no waiter,
        vec![op(t0, NotifyOne { cond }), op(t0, NotifyAll { cond })],
        // a wait on a semaphore never posted,
        vec![op(t0, WaitSem { sem })],
        // activity after the thread has finished,
        vec![
            TraceEvent::ThreadFinished { tid: t0 },
            op(t0, Read { addr: x }),
        ],
        // ops by a thread that never started,
        vec![op(t1, Write { addr: x }), op(t0, Read { addr: x })],
        // a thread whose parent never started,
        vec![started(t2, t1), op(t2, Write { addr: x })],
        // a barrier release naming threads that never arrived,
        vec![released(0, &[t1, t2])],
        // a barrier of zero participants,
        vec![op(t0, barrier(0, 0)), released(0, &[])],
        // a self-fork,
        vec![op(t0, Fork { child: t0 })],
        // a thread started twice,
        vec![started(t1, t0), started(t1, t0)],
        // the highest thread id the reader admits,
        vec![started(t_max, t0), op(t_max, Write { addr: x })],
        // and u32::MAX sync-object ids and the last address.
        vec![
            op(t0, Lock { lock: lock_max }),
            op(t0, Unlock { lock: lock_max }),
        ],
        vec![op(t0, barrier(u32::MAX, 1)), released(u32::MAX, &[t0])],
        vec![
            op(t0, Post { sem: sem_max }),
            op(t0, WaitSem { sem: sem_max }),
        ],
        vec![
            op(t0, cond_wait(cond_max, lock_max)),
            op(t0, NotifyAll { cond: cond_max }),
        ],
        vec![op(t0, Write { addr: far }), op(t0, AtomicRmw { addr: far })],
    ];
    for events in cases {
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        writer.record_event(&TraceEvent::ThreadStarted {
            tid: t0,
            parent: None,
        });
        for event in &events {
            writer.record_event(event);
        }
        let bytes = writer.finish().unwrap();
        for mode in AnalysisMode::presets() {
            for detector in DetectorKind::ALL {
                let mut cfg = SimConfig::new(4, mode);
                cfg.detector_kind = detector;
                let result = replay(bytes.as_slice(), cfg, 0);
                assert!(
                    result.is_ok(),
                    "{events:?}, {mode:?}/{detector:?}: {result:?}"
                );
            }
        }
    }
}
