//! Parallel trace replay must be indistinguishable from serial replay:
//! same distinct reports in the same order, same occurrence counts, same
//! detector statistics, and byte-identical campaign aggregates across
//! worker counts (modulo the `ingest.replay_workers` counter, which
//! records the configuration by design).

use ddrace_core::{AnalysisMode, RunResult, SimConfig, Simulation};
use ddrace_harness::{replay, run_campaign, Campaign, CampaignReport, EventSink, TraceSource};
use ddrace_program::{ProgramBuilder, ThreadId};
use ddrace_trace::TraceWriter;
use ddrace_workloads::{racy, Scale, WorkloadSpec};
use std::path::PathBuf;

/// Records one continuous-mode run of `spec` into a fresh trace file in
/// a per-process temp dir; returns the path and the live result.
fn record(spec: &WorkloadSpec, seed: u64, tag: &str) -> (PathBuf, RunResult) {
    let dir = std::env::temp_dir().join(format!("ddrace-parallel-replay-{}", std::process::id()));
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

fn ingest_campaign(sources: Vec<TraceSource>, replay_workers: usize) -> Campaign {
    Campaign::builder("parallel-replay")
        .modes([AnalysisMode::Continuous])
        .seeds([0])
        .cores(4)
        .trace_corpus(sources)
        .replay_workers(replay_workers)
        .build()
}

/// The aggregate with the one intentionally config-dependent counter
/// pinned, so byte comparison across worker counts is meaningful.
fn normalized_aggregate(report: &CampaignReport) -> String {
    let text = ddrace_json::to_string_pretty(&report.aggregate_json()).unwrap();
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if let Some(idx) = line.find("replay_workers\": ") {
            out.push_str(&line[..idx]);
            out.push_str("replay_workers\": N");
            if line.trim_end().ends_with(',') {
                out.push(',');
            }
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn parallel_results_equal_serial_results() {
    let (racy_path, live) = record(&racy::sparse_race(), 11, "equiv-racy");
    assert!(live.races.distinct > 0, "workload must race live");
    let (clean_path, _) = record(&racy::mostly_locked(), 12, "equiv-clean");

    let sources = vec![
        TraceSource::load(&racy_path).unwrap(),
        TraceSource::load(&clean_path).unwrap(),
    ];
    let serial = ingest_campaign(sources.clone(), 0);
    let serial_results: Vec<RunResult> = serial.jobs.iter().map(|j| j.run().unwrap()).collect();
    assert!(serial_results.iter().any(|r| r.races.distinct > 0));

    for workers in [1, 4, 8] {
        let parallel = ingest_campaign(sources.clone(), workers);
        for (job, want) in parallel.jobs.iter().zip(&serial_results) {
            assert_eq!(job.replay_workers, workers);
            let got = job.run().unwrap();
            assert_eq!(
                got.races.reports, want.races.reports,
                "distinct reports and order ({workers} workers)"
            );
            assert_eq!(
                got.races.report_occurrences, want.races.report_occurrences,
                "occurrence counts ({workers} workers)"
            );
            assert_eq!(got.races.distinct, want.races.distinct);
            assert_eq!(got.races.distinct_addresses, want.races.distinct_addresses);
            assert_eq!(got.races.occurrences, want.races.occurrences);
            assert_eq!(got.detector, want.detector, "stats ({workers} workers)");
            // The simulation around the detector is untouched by the
            // parallel path: identical cycle/schedule accounting.
            assert_eq!(got.total_cycles, want.total_cycles);
            assert_eq!(got.schedule, want.schedule);
        }
    }
}

#[test]
fn aggregates_are_byte_identical_across_worker_counts() {
    let (path_a, _) = record(&racy::sparse_race(), 21, "agg-a");
    let (path_b, _) = record(&racy::shared_and_racy(), 22, "agg-b");
    let sources = vec![
        TraceSource::load(&path_a).unwrap(),
        TraceSource::load(&path_b).unwrap(),
    ];

    let baseline = normalized_aggregate(&run_campaign(
        &ingest_campaign(sources.clone(), 1),
        2,
        &EventSink::null(),
    ));
    for workers in [4, 8] {
        let report = run_campaign(
            &ingest_campaign(sources.clone(), workers),
            2,
            &EventSink::null(),
        );
        assert_eq!(report.failed(), 0);
        assert_eq!(
            normalized_aggregate(&report),
            baseline,
            "aggregate must not depend on replay worker count ({workers} workers)"
        );
        assert_eq!(
            report.totals.counter("ingest.replay_workers"),
            2 * workers as u64
        );
        assert!(report.totals.counter("ingest.batches") > 0);
        // Wall-clock decode timing stays out of the aggregate unless
        // explicitly requested via DDRACE_INGEST_TIMING.
        assert_eq!(report.totals.counter("ingest.decode_ns"), 0);
    }
}

#[test]
fn serial_and_parallel_rows_agree_in_the_report() {
    let (path, _) = record(&racy::sparse_race(), 31, "rows");
    let sources = vec![TraceSource::load(&path).unwrap()];

    let serial = run_campaign(&ingest_campaign(sources.clone(), 0), 1, &EventSink::null());
    let parallel = run_campaign(&ingest_campaign(sources, 8), 1, &EventSink::null());
    assert_eq!(serial.failed(), 0);
    assert_eq!(parallel.failed(), 0);

    let s = &serial.rows()[0].runs[0];
    let p = &parallel.rows()[0].runs[0];
    assert_eq!(s.races.reports, p.races.reports);
    assert_eq!(s.total_cycles, p.total_cycles);
    // Detector totals agree even though the parallel path re-emits them
    // after the run (the in-run detector is an enqueue-only stub).
    assert_eq!(
        serial.totals.counter("detector.shadow_ops"),
        parallel.totals.counter("detector.shadow_ops")
    );
    assert_eq!(
        serial.totals.counter("detector.races_observed"),
        parallel.totals.counter("detector.races_observed")
    );
    assert_eq!(
        serial.totals.counter("detector.sync_ops"),
        parallel.totals.counter("detector.sync_ops")
    );
}

#[test]
fn non_continuous_trace_jobs_fall_back_to_serial() {
    let (path, _) = record(&racy::sparse_race(), 41, "fallback");
    let source = TraceSource::load(&path).unwrap();
    // demand-hitm replay is controller-driven; the parallel gate must
    // route it to the serial path rather than mis-detect.
    let campaign = Campaign::builder("parallel-replay-fallback")
        .modes([AnalysisMode::Continuous, AnalysisMode::demand_hitm()])
        .seeds([0])
        .cores(4)
        .trace_corpus([source])
        .replay_workers(8)
        .build();
    let serial = Campaign::builder("parallel-replay-fallback")
        .modes([AnalysisMode::Continuous, AnalysisMode::demand_hitm()])
        .seeds([0])
        .cores(4)
        .trace_corpus(campaign.jobs[0].trace.clone())
        .build();
    for (job, want) in campaign.jobs.iter().zip(&serial.jobs) {
        let got = job.run().unwrap();
        let want = want.run().unwrap();
        assert_eq!(got.races.reports, want.races.reports);
        assert_eq!(got.detector, want.detector);
        assert_eq!(got.total_cycles, want.total_cycles);
    }
}

#[test]
fn refusals_do_not_depend_on_the_detection_pool() {
    // A small racy program: fork/join, an unprotected write pair, a
    // lock-protected pair and a barrier, so the pool has checks in flight
    // when the decoder refuses.
    let mut b = ProgramBuilder::new();
    let x = b.alloc_shared(64);
    let lock = b.new_lock();
    let bar = b.new_barrier();
    let t1 = b.add_thread();
    b.on(ThreadId::MAIN)
        .fork(t1)
        .write(x.index(0))
        .lock(lock)
        .write(x.index(8))
        .unlock(lock)
        .barrier(bar, 2)
        .read(x.index(0))
        .join(t1);
    b.on(t1)
        .write(x.index(0))
        .lock(lock)
        .read(x.index(8))
        .unlock(lock)
        .barrier(bar, 2);
    let cfg = SimConfig::new(2, AnalysisMode::Continuous);
    let mut writer = TraceWriter::new(Vec::new()).unwrap();
    Simulation::new(cfg)
        .run_recorded(b.build(), &mut writer)
        .unwrap();
    let bytes = writer.finish().unwrap();
    assert!(replay(bytes.as_slice(), cfg, 2).unwrap().races.distinct > 0);

    // Variant, offset and message: the whole refusal.
    let refusal = |input: &[u8], workers: usize| {
        let err = replay(input, cfg, workers).expect_err("a damaged trace must be refused");
        (format!("{err:?}"), err.to_string())
    };
    for cut in 0..bytes.len() {
        let cut = &bytes[..cut];
        assert_eq!(refusal(cut, 0), refusal(cut, 2), "cut at {}", cut.len());
    }
    // The last payload byte is thread 1's `ThreadFinished` opcode (0x01),
    // just before the end marker (0x00 and a one-byte record count).
    let opcode = bytes.len() - 3;
    assert_eq!(bytes[opcode..opcode + 2], [0x01, 0x00]);
    let mut corrupt = bytes.clone();
    corrupt[opcode] = 0x3f;
    let serial = refusal(&corrupt, 0);
    assert!(
        serial.1.contains("unknown record opcode 0x3f"),
        "{}",
        serial.1
    );
    assert_eq!(serial, refusal(&corrupt, 2));
}
