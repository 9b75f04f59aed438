//! Checkpoint/resume pins the harness's robustness guarantee: a campaign
//! killed mid-flight and resumed from its JSONL event stream produces an
//! aggregate byte-identical to an uninterrupted run, at any worker count.
//!
//! The kill is real: the event writer is rigged to panic partway through
//! the stream (truncating a line mid-write, as an abrupt death would),
//! the panic propagates through the worker scope, and `run_campaign`
//! itself dies. Resume then picks up from whatever reached the "disk".

use ddrace_core::AnalysisMode;
use ddrace_harness::{
    campaign_fingerprint, fingerprint_hex, resume_campaign, run_campaign, Campaign, CheckpointLog,
    EventSink, JobVariant,
};
use ddrace_workloads::{phoenix, racy, Scale};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Worker counts to exercise: 1 plus whatever `DDRACE_WORKERS` asks for
/// (ci.sh runs this test at 1 and 8 to pin worker-count independence).
fn worker_counts() -> Vec<usize> {
    let env = std::env::var("DDRACE_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    if env == 1 {
        vec![1]
    } else {
        vec![1, env]
    }
}

fn campaign() -> Campaign {
    Campaign::builder("resume-test")
        .workloads([phoenix::histogram(), racy::sparse_race()])
        .modes([AnalysisMode::Native, AnalysisMode::demand_hitm()])
        .seeds([42, 1337])
        .scale(Scale::TEST)
        .cores(4)
        .build()
}

/// An in-memory JSONL "file" that can be rigged to die mid-write after a
/// given number of event lines, truncating the final line — the on-disk
/// signature of a process killed while checkpointing.
#[derive(Clone)]
struct CrashyLog {
    buf: Arc<Mutex<Vec<u8>>>,
    /// Panic once this many newline-terminated lines have been written;
    /// `usize::MAX` never crashes.
    crash_after_lines: usize,
}

impl CrashyLog {
    fn reliable() -> CrashyLog {
        CrashyLog {
            buf: Arc::new(Mutex::new(Vec::new())),
            crash_after_lines: usize::MAX,
        }
    }

    fn crashing_after(lines: usize) -> CrashyLog {
        CrashyLog {
            buf: Arc::new(Mutex::new(Vec::new())),
            crash_after_lines: lines,
        }
    }

    /// Reads the buffer, recovering from the poison the injected panic
    /// leaves behind (the lock is held at the moment of "death").
    fn text(&self) -> String {
        let buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8(buf.clone()).unwrap()
    }

    fn lines_written(&self) -> usize {
        self.text().lines().count()
    }
}

impl Write for CrashyLog {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let mut buf = self.buf.lock().unwrap();
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        if lines >= self.crash_after_lines {
            // Half the payload lands, then the "process" dies.
            buf.extend_from_slice(&data[..data.len() / 2]);
            panic!("injected campaign kill");
        }
        buf.extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn aggregate(campaign: &Campaign, workers: usize, sink: &EventSink) -> String {
    let report = run_campaign(campaign, workers, sink);
    assert_eq!(report.failed(), 0);
    ddrace_json::to_string_pretty(&report.aggregate_json()).unwrap()
}

#[test]
fn killed_campaign_resumes_to_byte_identical_aggregate() {
    let spec = campaign();
    let baseline = aggregate(&spec, 2, &EventSink::null());

    for &workers in &worker_counts() {
        // Kill the campaign after the header plus three finished jobs.
        let log = CrashyLog::crashing_after(4);
        let sink = EventSink::new(Some(Box::new(log.clone())), false);
        let died = catch_unwind(AssertUnwindSafe(|| run_campaign(&spec, workers, &sink)));
        assert!(died.is_err(), "the injected kill must abort the campaign");
        drop(sink);

        let parsed = CheckpointLog::parse(&log.text()).expect("truncated stream still parses");
        assert!(
            parsed.finished.len() < spec.jobs.len(),
            "the kill must leave unfinished jobs ({} finished)",
            parsed.finished.len()
        );

        // Resume from the partial stream, capturing the new stream.
        let resumed_log = CrashyLog::reliable();
        let sink = EventSink::new(Some(Box::new(resumed_log.clone())), false);
        let report = resume_campaign(&spec, workers, &sink, &parsed).expect("resume validates");
        assert_eq!(report.failed(), 0);
        let resumed = ddrace_json::to_string_pretty(&report.aggregate_json()).unwrap();
        assert_eq!(
            baseline, resumed,
            "resumed aggregate must be byte-identical (workers={workers})"
        );

        // Only the remainder actually executed.
        let started = resumed_log
            .text()
            .lines()
            .filter(|l| l.contains("\"job_started\""))
            .count();
        assert_eq!(started, spec.jobs.len() - parsed.finished.len());

        // The resumed stream is itself a complete checkpoint: resuming
        // from it re-runs nothing and still reproduces the aggregate.
        let full = CheckpointLog::parse(&resumed_log.text()).unwrap();
        assert_eq!(full.finished.len(), spec.jobs.len());
        let silent = EventSink::null();
        let report = resume_campaign(&spec, workers, &silent, &full).unwrap();
        assert_eq!(
            baseline,
            ddrace_json::to_string_pretty(&report.aggregate_json()).unwrap(),
            "second-generation resume drifted (workers={workers})"
        );
    }
}

#[test]
fn resume_rejects_mismatched_campaign() {
    let spec = campaign();
    let log = CrashyLog::reliable();
    let sink = EventSink::new(Some(Box::new(log.clone())), false);
    run_campaign(&spec, 2, &sink);
    drop(sink);
    assert!(log.lines_written() > 0);
    let parsed = CheckpointLog::parse(&log.text()).unwrap();

    // Same name, same workloads — but a different seed axis.
    let other = Campaign::builder("resume-test")
        .workloads([phoenix::histogram(), racy::sparse_race()])
        .modes([AnalysisMode::Native, AnalysisMode::demand_hitm()])
        .seeds([42, 1338])
        .scale(Scale::TEST)
        .cores(4)
        .build();
    let err = resume_campaign(&other, 2, &EventSink::null(), &parsed).unwrap_err();
    // The CLI surfaces this string verbatim and exits non-zero on it; pin
    // the full shape so it stays an actionable refusal, not a bare code.
    let expected = format!(
        "resume log was recorded for campaign `resume-test` (fingerprint {}), but the \
         current campaign is `resume-test` (fingerprint {}); the job set, seeds, or \
         configuration differ — refusing to resume",
        fingerprint_hex(campaign_fingerprint(&spec)),
        fingerprint_hex(campaign_fingerprint(&other)),
    );
    assert_eq!(err, expected);
}

#[test]
fn duplicate_label_campaign_resumes_by_id_not_label() {
    // The same workload twice: jobs 0 and 1 share a label but differ in
    // id and fingerprint. Resume must restore the finished one by id.
    let spec = Campaign::builder("dup-labels")
        .workloads([racy::sparse_race(), racy::sparse_race()])
        .modes([AnalysisMode::demand_hitm()])
        .seeds([7])
        .scale(Scale::TEST)
        .cores(2)
        .build();
    assert_eq!(spec.jobs[0].label(), spec.jobs[1].label());
    let log = CrashyLog::reliable();
    let sink = EventSink::new(Some(Box::new(log.clone())), false);
    let baseline = aggregate(&spec, 1, &sink);
    drop(sink);

    // Keep the header and the *first* job_finished line only, simulating
    // an interruption after one of the two identically-labelled jobs.
    let text = log.text();
    let mut kept: Vec<&str> = Vec::new();
    for line in text.lines() {
        if line.contains("\"job_finished\"") {
            kept.push(line);
            break;
        }
        if line.contains("\"campaign_started\"") {
            kept.push(line);
        }
    }
    let partial = kept.join("\n");
    let parsed = CheckpointLog::parse(&partial).unwrap();
    assert_eq!(parsed.finished.len(), 1);
    let report = resume_campaign(&spec, 2, &EventSink::null(), &parsed).unwrap();
    assert_eq!(
        baseline,
        ddrace_json::to_string_pretty(&report.aggregate_json()).unwrap()
    );
}

#[test]
fn killed_variant_sweep_resumes_to_byte_identical_aggregate() {
    // The variant axis rides the same checkpoint machinery: kill a
    // cache-ladder + core-count sweep mid-flight, resume it, and the
    // aggregate must match an uninterrupted run byte for byte at every
    // worker count ci.sh pins (1 and 8).
    let spec = Campaign::builder("variant-resume-test")
        .workloads([racy::sparse_race()])
        .modes([AnalysisMode::Native, AnalysisMode::demand_hitm()])
        .variants([
            JobVariant::with_cores(2),
            JobVariant::private_cache("64KiB", 128),
        ])
        .seeds([42, 1337])
        .scale(Scale::TEST)
        .cores(4)
        .build();
    assert!(spec.has_variant_axis());
    let full_log = CrashyLog::reliable();
    let sink = EventSink::new(Some(Box::new(full_log.clone())), false);
    let baseline = aggregate(&spec, 2, &sink);
    drop(sink);
    // Variant fields reach the aggregate's per-job records and folds.
    assert!(baseline.contains("\"variant\": \"c2\""));
    assert!(baseline.contains("\"variant\": \"64KiB\""));

    // A checkpoint holding three finished variant jobs (however many
    // workers wrote the original stream, keeping the header plus the
    // first three job_finished lines models a mid-campaign death).
    let text = full_log.text();
    let partial: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"campaign_started\"") || l.contains("\"job_finished\""))
        .take(4)
        .collect();
    let partial = CheckpointLog::parse(&partial.join("\n")).unwrap();
    assert_eq!(partial.finished.len(), 3);

    for &workers in &worker_counts() {
        // Prefilled variant jobs skip execution and the aggregate still
        // comes out byte-identical.
        let report = resume_campaign(&spec, workers, &EventSink::null(), &partial)
            .expect("resume validates");
        assert_eq!(report.failed(), 0);
        assert_eq!(
            baseline,
            ddrace_json::to_string_pretty(&report.aggregate_json()).unwrap(),
            "resumed variant-sweep aggregate must be byte-identical (workers={workers})"
        );

        // And a real kill mid-stream: whatever reached the "disk" resumes
        // to the same bytes.
        let log = CrashyLog::crashing_after(4);
        let sink = EventSink::new(Some(Box::new(log.clone())), false);
        let died = catch_unwind(AssertUnwindSafe(|| run_campaign(&spec, workers, &sink)));
        assert!(died.is_err(), "the injected kill must abort the campaign");
        drop(sink);
        let parsed = CheckpointLog::parse(&log.text()).expect("truncated stream still parses");
        assert!(
            parsed.finished.len() < spec.jobs.len(),
            "the kill must leave unfinished jobs ({} finished)",
            parsed.finished.len()
        );
        let report =
            resume_campaign(&spec, workers, &EventSink::null(), &parsed).expect("resume validates");
        assert_eq!(report.failed(), 0);
        assert_eq!(
            baseline,
            ddrace_json::to_string_pretty(&report.aggregate_json()).unwrap(),
            "kill-resumed variant-sweep aggregate must be byte-identical (workers={workers})"
        );
    }
}

#[test]
fn multi_seed_aggregate_carries_seed_folds() {
    let spec = campaign();
    let report = run_campaign(&spec, 2, &EventSink::null());
    let rows = report.rows();
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert_eq!(row.seed_stats.len(), 2, "one fold per mode");
        for (m, fold) in row.seed_stats.iter().enumerate() {
            assert_eq!(fold.mode, spec.modes[m].label());
            assert_eq!(fold.seeds, 2);
            let cell = row.mode_runs(m, 2);
            let makespans: Vec<u64> = cell.iter().map(|r| r.makespan).collect();
            assert_eq!(fold.makespan.min, *makespans.iter().min().unwrap());
            assert_eq!(fold.makespan.max, *makespans.iter().max().unwrap());
            let mean = makespans.iter().sum::<u64>() as f64 / makespans.len() as f64;
            assert!((fold.makespan.mean - mean).abs() < 1e-9);
        }
    }
    // The folds land in the aggregate under rows[*].seed_stats...
    let json = report.aggregate_json();
    assert!(!json["rows"][0]["seed_stats"][0]["makespan"]["mean"].is_null());
    // ...but single-seed campaigns keep the historical row shape.
    let single = Campaign::builder("single-seed")
        .workloads([racy::sparse_race()])
        .modes([AnalysisMode::Native])
        .seeds([42])
        .scale(Scale::TEST)
        .cores(2)
        .build();
    let report = run_campaign(&single, 1, &EventSink::null());
    assert!(report.aggregate_json()["rows"][0]["seed_stats"].is_null());
}
