//! End-to-end tests of the `ddrace` CLI binary.

use ddrace::program::TraceEvent;
use std::process::Command;

fn ddrace() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddrace"))
}

fn stdout_of(mut cmd: Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn list_shows_all_suites() {
    let out = stdout_of({
        let mut c = ddrace();
        c.arg("list");
        c
    });
    for name in ["linear_regression", "canneal", "x264", "sparse_race"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn run_reports_races_on_a_racy_kernel() {
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "run",
            "--bench",
            "unprotected_counter",
            "--scale",
            "test",
            "--mode",
            "continuous",
        ]);
        c
    });
    assert!(out.contains("races (distinct)"));
    assert!(!out.contains("races (distinct):   0"), "{out}");
}

#[test]
fn run_with_timeline_and_detail() {
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "run",
            "--bench",
            "mostly_locked",
            "--scale",
            "test",
            "--mode",
            "demand-hitm",
            "--timeline",
            "--detail",
        ]);
        c
    });
    assert!(out.contains("analysis timeline:"));
    assert!(out.contains("WARNING: data race"));
}

#[test]
fn run_json_is_parseable() {
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "run",
            "--bench",
            "swaptions",
            "--scale",
            "test",
            "--mode",
            "native",
            "--json",
        ]);
        c
    });
    let v: ddrace::json::Value = ddrace::json::from_str(&out).expect("valid JSON");
    assert_eq!(v["mode"], "native");
    assert!(v["makespan"].as_u64().unwrap() > 0);
}

#[test]
fn compare_prints_all_modes() {
    let out = stdout_of({
        let mut c = ddrace();
        c.args(["compare", "--bench", "string_match", "--scale", "test"]);
        c
    });
    for mode in ["native", "continuous", "demand-hitm", "demand-oracle"] {
        assert!(out.contains(mode), "missing {mode} in:\n{out}");
    }
}

#[test]
fn record_then_analyze_roundtrip() {
    let dir = std::env::temp_dir().join(format!("ddrace-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.ddrt");

    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "record",
            "--bench",
            "sparse_race",
            "--scale",
            "test",
            "--out",
            trace_path.to_str().unwrap(),
        ]);
        c
    });
    assert!(out.contains("recorded"));

    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "analyze",
            "--trace",
            trace_path.to_str().unwrap(),
            "--mode",
            "continuous",
        ]);
        c
    });
    assert!(out.contains("races (distinct)"));
    assert!(!out.contains("races (distinct):   0"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_record_analyze_ingest_pipeline() {
    let dir = std::env::temp_dir().join(format!("ddrace-cli-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("sparse.ddrt");
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "record",
            "--bench",
            "sparse_race",
            "--scale",
            "test",
            "--out",
            trace.to_str().unwrap(),
        ]);
        c
    });
    assert!(out.contains("recorded"));
    assert_eq!(&std::fs::read(&trace).unwrap()[..4], b"DDRT");

    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "analyze",
            "--trace",
            trace.to_str().unwrap(),
            "--mode",
            "continuous",
        ]);
        c
    });
    assert!(out.contains("races (distinct)"));
    assert!(!out.contains("races (distinct):   0"), "{out}");

    // `ingest` replays it through both HB detectors; the aggregate is
    // byte-identical no matter how many workers ran the pool.
    let aggregate = |workers: &str, out: &std::path::Path| {
        stdout_of({
            let mut c = ddrace();
            c.args([
                "ingest",
                "--traces",
                trace.to_str().unwrap(),
                "--detectors",
                "fasttrack,djit",
                "--workers",
                workers,
                "--quiet",
                "--out",
                out.to_str().unwrap(),
            ]);
            c
        });
        std::fs::read(out).unwrap()
    };
    let one = aggregate("1", &dir.join("agg1.json"));
    let eight = aggregate("8", &dir.join("agg8.json"));
    assert!(!one.is_empty());
    assert_eq!(one, eight, "ingest aggregate must not depend on workers");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_traces_are_refused_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("ddrace-cli-refuse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("ok.ddrt");
    stdout_of({
        let mut c = ddrace();
        c.args([
            "record",
            "--bench",
            "sparse_race",
            "--scale",
            "test",
            "--out",
            trace.to_str().unwrap(),
        ]);
        c
    });

    let refuse = |path: &std::path::Path| -> String {
        let out = ddrace()
            .args(["ingest", "--traces", path.to_str().unwrap(), "--quiet"])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "corrupt traces must exit 2, got {:?}",
            out.status.code()
        );
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // Truncated mid-record: refused with the failing byte offset.
    let mut bytes = std::fs::read(&trace).unwrap();
    bytes.truncate(bytes.len() - 3);
    let cut = dir.join("cut.ddrt");
    std::fs::write(&cut, &bytes).unwrap();
    let stderr = refuse(&cut);
    assert!(stderr.contains("refusing to ingest"), "{stderr}");
    assert!(stderr.contains("byte"), "needs a byte offset: {stderr}");

    // A frame declaring a 2^40-byte stream behind a valid header: refused
    // as truncated, without allocating what it declares.
    let mut huge = bytes[..8].to_vec();
    huge.extend_from_slice(&[0x01, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0]);
    let huge_path = dir.join("huge.ddrt");
    std::fs::write(&huge_path, &huge).unwrap();
    let stderr = refuse(&huge_path);
    assert!(stderr.contains("byte offset 18"), "{stderr}");
    assert!(stderr.contains("truncated"), "{stderr}");

    // Well-formed traces naming thread 2^32 - 16: a lone read (28 bytes)
    // and a lone thread start (27 bytes). Replay indexes per-thread
    // tables by thread id, so both once aborted on a multi-gigabyte
    // allocation; the reader now refuses ids at or above MAX_THREADS.
    let huge = ddrace::ThreadId(0xFFFF_FFF0);
    let hostile = [
        TraceEvent::Op {
            tid: huge,
            op: ddrace::Op::Read {
                addr: ddrace::Addr(0x1000),
            },
        },
        TraceEvent::ThreadStarted {
            tid: huge,
            parent: None,
        },
    ];
    for (i, event) in hostile.iter().enumerate() {
        let mut writer = ddrace::TraceWriter::new(Vec::new()).unwrap();
        writer.record_event(event);
        let path = dir.join(format!("tid-{i}.ddrt"));
        std::fs::write(&path, writer.finish().unwrap()).unwrap();
        let stderr = refuse(&path);
        assert!(stderr.contains("thread id 4294967280"), "{stderr}");
        assert!(stderr.contains("byte offset 10"), "{stderr}");
        for mode in ["native", "continuous", "demand-hitm", "demand-oracle"] {
            let out = ddrace()
                .args(["analyze", "--trace", path.to_str().unwrap()])
                .args(["--mode", mode])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "analyze --mode {mode}: {stderr}"
            );
            assert!(stderr.contains("refusing to ingest"), "{stderr}");
        }
    }

    // Foreign file: refused on the magic check.
    let foreign = dir.join("foreign.ddrt");
    std::fs::write(&foreign, b"PNG\x0d\x0a not ours").unwrap();
    let stderr = refuse(&foreign);
    assert!(stderr.contains("refusing to ingest"), "{stderr}");

    // `analyze` reads only DDRT too: a JSON trace (the retired format)
    // is refused the same way.
    let json = dir.join("old.json");
    std::fs::write(&json, br#"{"events":[]}"#).unwrap();
    let out = ddrace()
        .args(["analyze", "--trace", json.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "non-DDRT input must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing to ingest"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_resume_checkpoints_are_refused_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("ddrace-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let d = dir.to_str().unwrap();
    assert!(!d.contains(' '), "the command lines below split on spaces");
    let cmd = |args: String| {
        let mut c = ddrace();
        c.args(args.split(' '));
        c
    };
    // Exit 2 with one `error: --resume` line (no usage text) naming `why`.
    let refused = |args: &str, checkpoint: &str, why: &str| {
        let out = cmd(format!("{args} --workers 1 --quiet --resume {checkpoint}"))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let one_line = stderr.lines().count() == 1 && stderr.starts_with("error: --resume ");
        assert!(
            out.status.code() == Some(2) && one_line && stderr.contains(why),
            "{args}: {:?}: {stderr}",
            out.status.code()
        );
    };
    for bench in ["sparse_race", "unprotected_counter"] {
        stdout_of(cmd(format!(
            "record --bench {bench} --scale test --out {d}/{bench}.ddrt"
        )));
    }
    // Each command writes a checkpoint, then resumes from it as a run
    // with another seed or trace.
    let campaign = "campaign --suite racy --scale test --modes native --seed";
    let ingest = format!("ingest --traces {d}/");
    let cases = [
        (format!("{campaign} 1"), format!("{campaign} 2")),
        (
            format!("{ingest}sparse_race.ddrt"),
            format!("{ingest}unprotected_counter.ddrt"),
        ),
        (
            "fuzz --count 2 --seed 1".into(),
            "fuzz --count 2 --seed 2".into(),
        ),
    ];
    for (i, (first, second)) in cases.iter().enumerate() {
        let events = format!("{d}/events-{i}.jsonl");
        stdout_of(cmd(format!(
            "{first} --workers 1 --quiet --events {events}"
        )));
        refused(second, &events, "refusing to resume");
    }
    // A file that is no checkpoint at all is refused the same way.
    std::fs::write(dir.join("junk.jsonl"), "not a checkpoint\n").unwrap();
    let junk = format!("{d}/junk.jsonl");
    refused(&format!("{campaign} 1"), &junk, "no campaign_started event");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_are_rejected() {
    // Each subcommand names the flags it takes; a misspelt or retired
    // flag is a usage error (exit 1) naming it, never silently ignored.
    let record = "record --bench unprotected_counter --format json --out unused.ddrt";
    let ingest = "ingest --traces unused.ddrt --replay-worker 2";
    for (args, flag) in [(record, "--format"), (ingest, "--replay-worker")] {
        let out = ddrace().args(args.split(' ')).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "names {flag}: {stderr}");
    }
}

#[test]
fn unknown_benchmark_fails_helpfully() {
    let out = ddrace()
        .args(["run", "--bench", "nonexistent"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark"), "{stderr}");
}

#[test]
fn zero_sample_period_is_refused_with_exit_2() {
    // `period:0` would previously panic deep inside SharingIndicator
    // construction; it must now be refused up front, naming the flag.
    let out = ddrace()
        .args([
            "campaign",
            "--suite",
            "parsec",
            "--scale",
            "test",
            "--variants",
            "bad=period:0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "refusals exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--variants"), "names the flag: {stderr}");
    assert!(stderr.contains("period:0"), "names the value: {stderr}");
    assert!(stderr.contains("must be ≥ 1"), "states the rule: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn native_probe_reports_a_backend() {
    let out = stdout_of({
        let mut c = ddrace();
        c.arg("native-probe");
        c
    });
    assert!(out.contains("backend:"), "{out}");
    assert!(out.contains("event:"), "{out}");
}

#[test]
fn native_probe_json_falls_back_with_structured_reason() {
    // DDRACE_PMU_DISABLE pins the ladder outcome on any host: the probe
    // must still exit 0 and report the simulator plus a machine-readable
    // reason rather than failing.
    let out = stdout_of({
        let mut c = ddrace();
        c.args(["native-probe", "--json"]);
        c.env("DDRACE_PMU_DISABLE", "1");
        c
    });
    let v: ddrace::json::Value = ddrace::json::from_str(&out).expect("valid JSON");
    assert_eq!(v["backend"], "sim");
    assert_eq!(v["fallback_reason"], "disabled by DDRACE_PMU_DISABLE=1");
    assert_eq!(v["counter_works"], true);
}

#[test]
fn inject_race_flag_plants_races() {
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "run",
            "--bench",
            "string_match",
            "--scale",
            "test",
            "--mode",
            "continuous",
            "--inject-race",
            "50",
        ]);
        c
    });
    assert!(!out.contains("races (distinct):   0"), "{out}");
}
