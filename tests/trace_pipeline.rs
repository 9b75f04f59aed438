//! End-to-end pins on the record → ingest pipeline: the binary format's
//! exact bytes (golden file, and `ddrace record`'s output), and
//! byte-identical `ddrace ingest` aggregates across a kill-then-resume at
//! any worker count.

use ddrace::{SchedulerConfig, TraceWriter};
use std::path::PathBuf;
use std::process::Command;

fn ddrace() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddrace"))
}

fn workers() -> String {
    // ci.sh reruns this test under DDRACE_WORKERS=1 and =8 to pin both
    // ends of the pool-size range.
    std::env::var("DDRACE_WORKERS").unwrap_or_else(|_| "2".to_string())
}

/// `unprotected_counter` at test scale, seed 42, scheduled as `ddrace
/// record` schedules it (`jittered(42)`: quantum 32), encoded from the
/// in-memory `Trace` with the given frame flush threshold.
fn counter_trace_bytes(threshold: usize) -> Vec<u8> {
    let program = ddrace::racy::unprotected_counter().program(ddrace::Scale::TEST, 42);
    let trace = ddrace::program::Trace::record(program, SchedulerConfig::jittered(42))
        .expect("deadlock-free by construction");
    let mut writer = TraceWriter::with_flush_threshold(Vec::new(), threshold).unwrap();
    for event in trace.events() {
        writer.record_event(event);
    }
    writer.finish().unwrap()
}

#[test]
fn recorded_trace_bytes_match_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_small.ddrt");
    // A tiny flush threshold, so the pin covers multi-frame layout.
    let actual = counter_trace_bytes(256);
    if std::env::var("DDRACE_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun with DDRACE_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "the on-disk trace format changed ({} vs {} bytes). Version-1 bytes \
         are pinned: bump FORMAT_VERSION for any layout change, then \
         regenerate with DDRACE_UPDATE_GOLDEN=1",
        expected.len(),
        actual.len()
    );
}

/// `ddrace record` streams scheduler events straight into the writer;
/// its file must equal a default-threshold writer fed the same run.
#[test]
fn cli_record_bytes_match_the_trace_writer() {
    let out = std::env::temp_dir().join(format!("ddrace-record-{}.ddrt", std::process::id()));
    let status = ddrace()
        .args([
            "record",
            "--bench",
            "unprotected_counter",
            "--scale",
            "test",
        ])
        .args(["--seed", "42", "--out", out.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());
    let actual = std::fs::read(&out).unwrap();
    std::fs::remove_file(&out).ok();
    let expected = counter_trace_bytes(ddrace::trace::DEFAULT_FLUSH_THRESHOLD);
    assert!(
        expected == actual,
        "record wrote {} bytes, the writer {}",
        actual.len(),
        expected.len()
    );
}

/// `ingest` promises a byte-reproducible event stream: wall-clock fields
/// are zeroed, span times included (spans keep their counts), so two
/// runs differ at most in line order.
#[test]
fn ingest_event_streams_are_byte_identical_when_sorted() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_small.ddrt");
    let sorted_events = |run: &str| {
        let events = std::env::temp_dir().join(format!(
            "ddrace-ingest-events-{}-{run}.jsonl",
            std::process::id()
        ));
        let output = ddrace()
            .args(["ingest", "--traces", golden.to_str().unwrap()])
            .args(["--detectors", "fasttrack,djit", "--workers", &workers()])
            .args(["--quiet", "--events", events.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(output.status.success(), "{output:?}");
        let text = std::fs::read_to_string(&events).unwrap();
        std::fs::remove_file(&events).ok();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines.sort();
        lines
    };
    let (first, second) = (sorted_events("a"), sorted_events("b"));
    assert!(
        first.iter().any(|l| l.contains("\"job.replay\"")),
        "{first:?}"
    );
    let differ = first.iter().zip(&second).find(|(a, b)| a != b);
    assert!(first == second, "the runs' streams differ: {differ:?}");
}

#[test]
fn ingest_resume_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!(
        "ddrace-ingest-resume-{}-{}",
        std::process::id(),
        workers()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let record = |bench: &str, file: &str| {
        let out = dir.join(file);
        let status = ddrace()
            .args([
                "record",
                "--bench",
                bench,
                "--scale",
                "test",
                "--out",
                out.to_str().unwrap(),
            ])
            .status()
            .unwrap();
        assert!(status.success());
        out
    };
    let a = record("sparse_race", "a.ddrt");
    let b = record("unprotected_counter", "b.ddrt");
    let traces = format!("{},{}", a.display(), b.display());

    let ingest = |extra: &[&str], events: &str, out: &str| {
        let events = dir.join(events);
        let out_path = dir.join(out);
        let mut cmd = ddrace();
        cmd.args([
            "ingest",
            "--traces",
            &traces,
            "--detectors",
            "fasttrack,djit",
            "--workers",
            &workers(),
            "--quiet",
            "--events",
            events.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ]);
        cmd.args(extra);
        let output = cmd.output().unwrap();
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        (
            std::fs::read_to_string(events).unwrap(),
            std::fs::read(out_path).unwrap(),
        )
    };

    let (full_events, want) = ingest(&[], "full.jsonl", "want.json");

    // "Kill" the run partway: keep only the first half of the event
    // stream as the checkpoint, then resume from it.
    let lines: Vec<&str> = full_events.lines().collect();
    let mut partial = lines[..lines.len() / 2].join("\n");
    partial.push('\n');
    let checkpoint = dir.join("partial.jsonl");
    std::fs::write(&checkpoint, partial).unwrap();

    let (_resumed_events, got) = ingest(
        &["--resume", checkpoint.to_str().unwrap()],
        "resumed.jsonl",
        "got.json",
    );
    assert_eq!(
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(&got),
        "resumed ingest aggregate must be byte-identical to an \
         uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}
