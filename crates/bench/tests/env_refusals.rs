//! A malformed or out-of-range `DDRACE_*` setting must stop an experiment
//! binary with exit code 2 and one `error:` line naming the variable —
//! never run a different experiment on a default in its place.

use std::process::Command;

#[test]
fn bad_environment_settings_exit_2() {
    let results = std::env::temp_dir().join(format!("ddrace-env-refusals-{}", std::process::id()));
    // The A3 sweep reads every knob: scale, seed and cores at start-up,
    // the seed axis, then the worker count as its campaign starts.
    let cases = [
        ("DDRACE_SCALE", "huge"),
        ("DDRACE_SEED", "forty-two"),
        ("DDRACE_SEEDS", "1,x"),
        ("DDRACE_CORES", "eight"),
        ("DDRACE_CORES", "0"),
        ("DDRACE_CORES", "65"),
        ("DDRACE_WORKERS", "many"),
        ("DDRACE_WORKERS", "0"),
    ];
    for (name, value) in cases {
        // Only the child's environment is set; should a refusal regress,
        // the run stays small and writes nothing under `results/`.
        let out = Command::new(env!("CARGO_BIN_EXE_exp_a3_cache_sweep"))
            .env("DDRACE_SCALE", "test")
            .env("DDRACE_RESULTS_DIR", &results)
            .env(name, value)
            .output()
            .expect("the experiment binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}={value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}={value}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{name}={value}: {stderr}");
        assert!(
            errors[0].starts_with(&format!("error: {name}: ")),
            "{name}={value}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn refused_worker_count_leaves_the_checkpoint_intact() {
    // Resuming into the stream being replayed is allowed, and opening the
    // events path truncates it, so a bad setting must be refused first.
    let dir = std::env::temp_dir().join(format!("ddrace-env-checkpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("events.jsonl");
    // A header the resume reader accepts, so the run gets as far as the
    // events path.
    let text =
        "{\"event\":\"campaign_started\",\"campaign\":\"a3\",\"fingerprint\":\"0\",\"jobs\":1}\n";
    std::fs::write(&checkpoint, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_exp_a3_cache_sweep"))
        .env("DDRACE_SCALE", "test")
        .env("DDRACE_RESULTS_DIR", &dir)
        .env("DDRACE_WORKERS", "0")
        .env("DDRACE_RESUME", &checkpoint)
        .env("DDRACE_EVENTS", &checkpoint)
        .output()
        .expect("the experiment binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: DDRACE_WORKERS: "), "{stderr}");
    assert_eq!(std::fs::read_to_string(&checkpoint).unwrap(), text);
    std::fs::remove_dir_all(&dir).ok();
}
