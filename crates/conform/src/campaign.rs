//! The fuzz campaign: many specs through the oracle battery on the
//! harness worker pool, with JSONL checkpoint events, resume, and a
//! byte-deterministic aggregate.
//!
//! Each job is one spec index: generate the spec from its derived seed,
//! run [`check_spec_with`], and — when an oracle fails — shrink the spec
//! and embed the minimized reproducer in the job's outcome. Oracle
//! violations are *data*, not job failures: the job still finishes (so
//! its payload lands in the checkpoint and survives a resume), and the
//! caller counts violations after the run.
//!
//! Determinism contract: with [`EventSink::with_deterministic_wall`] the
//! event stream is byte-identical across reruns up to line order (sort to
//! compare across worker counts — the `campaign_started` line also
//! differs in its `workers` field), and [`FuzzReport::aggregate_json`]
//! is byte-identical unconditionally.

use crate::gen::generate;
use crate::oracles::{check_spec_with, Violation};
use crate::refdet::Fault;
use crate::shrink::shrink_spec;
use crate::spec::FuzzSpec;
use ddrace_harness::{
    fingerprint_hex, fingerprint_of_jobs, fnv1a, run_checkpointed, CheckpointLog, EventSink,
    JobRecord, RawJob,
};
use ddrace_json::{FromJson, ToJson, Value};
use std::time::Duration;

/// What one fuzz job concluded; the checkpointable unit of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOutcome {
    /// The derived generator seed of this job's spec.
    pub spec_seed: u64,
    /// The generated spec's operation count.
    pub ops: u64,
    /// Distinct racy variables under continuous analysis.
    pub races_continuous: u64,
    /// Distinct racy variables under demand-HITM analysis.
    pub races_demand: u64,
    /// Demand misses attributed to a quiet HITM indicator.
    pub quiet_indicator_misses: u64,
    /// Demand misses attributed to enable latency.
    pub enable_latency_misses: u64,
    /// Every oracle violation (empty = the spec conforms).
    pub violations: Vec<Violation>,
    /// The shrunken still-failing spec, when there were violations.
    pub reproducer: Option<FuzzSpec>,
}

/// Parameters of one fuzz campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// The campaign seed; per-spec seeds derive from it.
    pub seed: u64,
    /// How many specs to generate and check.
    pub count: usize,
    /// Worker threads for the pool.
    pub workers: usize,
    /// The planted reference-detector defect (`Fault::None` in real use).
    pub fault: Fault,
}

impl FuzzConfig {
    /// The campaign's name: encodes the identity knobs so checkpoints
    /// from a different configuration are visibly foreign.
    pub fn campaign_name(&self) -> String {
        let mut name = format!("conform-fuzz-s{}-n{}", self.seed, self.count);
        if self.fault != Fault::None {
            name.push_str("-fault-");
            name.push_str(self.fault.name());
        }
        name
    }

    /// The generator seed of spec index `i`: an odd-constant multiply
    /// keeps distinct indices on distinct seeds, the xor folds in the
    /// campaign seed. Fixed formula — reproducer seeds stay meaningful
    /// across runs.
    pub fn spec_seed(&self, i: usize) -> u64 {
        self.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn job_label(&self, i: usize) -> String {
        format!("spec{:04}/s{:016x}", i, self.spec_seed(i))
    }

    /// The per-job fingerprint: spec seed, fault, and a generator version
    /// tag, so a checkpoint recorded before a generator change refuses to
    /// resume instead of silently mixing spec populations.
    pub fn job_fingerprint(&self, i: usize) -> u64 {
        fnv1a(
            format!(
                "fuzz-job;gen=2;spec_seed={:016x};fault={}",
                self.spec_seed(i),
                self.fault.name()
            )
            .as_bytes(),
        )
    }

    /// The campaign fingerprint over every job fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let fps: Vec<u64> = (0..self.count).map(|i| self.job_fingerprint(i)).collect();
        fingerprint_of_jobs(&self.campaign_name(), fps)
    }
}

/// The finished campaign: per-job records plus the identity under which
/// they were produced.
#[derive(Debug)]
pub struct FuzzReport {
    /// The campaign name the run was keyed by.
    pub name: String,
    /// The campaign fingerprint.
    pub fingerprint: u64,
    /// The planted fault the battery ran with.
    pub fault: Fault,
    /// One record per spec, in index order.
    pub records: Vec<JobRecord<FuzzOutcome>>,
    /// Wall-clock duration (never part of any deterministic output).
    pub wall: Duration,
}

impl FuzzReport {
    /// Jobs that did not finish (panicked or timed out — distinct from
    /// oracle violations, which are data inside finished jobs).
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.is_err()).count()
    }

    /// Finished outcomes, in index order.
    pub fn outcomes(&self) -> impl Iterator<Item = &FuzzOutcome> {
        self.records.iter().filter_map(|r| r.outcome.as_ref().ok())
    }

    /// Total oracle violations across all specs.
    pub fn violations_total(&self) -> usize {
        self.outcomes().map(|o| o.violations.len()).sum()
    }

    /// Outcomes that violated at least one oracle.
    pub fn failing_outcomes(&self) -> Vec<&FuzzOutcome> {
        self.outcomes()
            .filter(|o| !o.violations.is_empty())
            .collect()
    }

    /// The deterministic aggregate document: campaign identity, headline
    /// counters, and the full violation/reproducer detail for every
    /// failing spec. Contains no wall-clock or host data — byte-identical
    /// across reruns and worker counts.
    pub fn aggregate_json(&self) -> Value {
        let sum = |f: fn(&FuzzOutcome) -> u64| Value::UInt(self.outcomes().map(f).sum());
        let failures: Vec<Value> = self
            .failing_outcomes()
            .iter()
            .map(|o| {
                Value::Object(vec![
                    ("spec_seed".to_string(), Value::UInt(o.spec_seed)),
                    ("ops".to_string(), Value::UInt(o.ops)),
                    ("violations".to_string(), o.violations.to_json()),
                    (
                        "reproducer".to_string(),
                        o.reproducer
                            .as_ref()
                            .map_or(Value::Null, |spec| spec.to_json()),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("campaign".to_string(), Value::Str(self.name.clone())),
            (
                "fingerprint".to_string(),
                Value::Str(fingerprint_hex(self.fingerprint)),
            ),
            (
                "fault".to_string(),
                Value::Str(self.fault.name().to_string()),
            ),
            ("specs".to_string(), Value::UInt(self.records.len() as u64)),
            ("jobs_failed".to_string(), Value::UInt(self.failed() as u64)),
            (
                "violations".to_string(),
                Value::UInt(self.violations_total() as u64),
            ),
            (
                "failing_specs".to_string(),
                Value::UInt(self.failing_outcomes().len() as u64),
            ),
            ("races_continuous".to_string(), sum(|o| o.races_continuous)),
            ("races_demand".to_string(), sum(|o| o.races_demand)),
            (
                "quiet_indicator_misses".to_string(),
                sum(|o| o.quiet_indicator_misses),
            ),
            (
                "enable_latency_misses".to_string(),
                sum(|o| o.enable_latency_misses),
            ),
            ("failures".to_string(), Value::Array(failures)),
        ])
    }
}

/// Runs (or resumes) a fuzz campaign on the harness worker pool.
///
/// # Errors
///
/// Returns an error when `resume` holds a checkpoint recorded for a
/// different campaign (name, fingerprint, or job set) or with undecodable
/// payloads — the same refusal, with the same words, as the simulator
/// campaign's resume path.
pub fn run_fuzz(
    cfg: &FuzzConfig,
    sink: &EventSink,
    resume: Option<&CheckpointLog>,
) -> Result<FuzzReport, String> {
    let name = cfg.campaign_name();
    let fingerprint = cfg.fingerprint();
    let job_fps: Vec<u64> = (0..cfg.count).map(|i| cfg.job_fingerprint(i)).collect();

    let prefilled = match resume {
        Some(log) => log.prefill_with(&name, fingerprint, &job_fps)?,
        None => Vec::new(),
    };

    let jobs: Vec<RawJob<FuzzOutcome>> = (0..cfg.count)
        .map(|i| {
            let spec_seed = cfg.spec_seed(i);
            let fault = cfg.fault;
            RawJob {
                id: i,
                label: cfg.job_label(i),
                timeout: None,
                summary: Some(Box::new(outcome_summary)),
                resume_payload: Some(Box::new(|o: &FuzzOutcome| o.to_json())),
                meta: vec![
                    ("spec_seed".to_string(), Value::UInt(spec_seed)),
                    (
                        "fingerprint".to_string(),
                        Value::Str(fingerprint_hex(cfg.job_fingerprint(i))),
                    ),
                ],
                body: Box::new(move |_token| Ok(run_one(spec_seed, fault))),
            }
        })
        .collect();

    let run = run_checkpointed(&name, fingerprint, jobs, prefilled, cfg.workers, sink);
    Ok(FuzzReport {
        name,
        fingerprint,
        fault: cfg.fault,
        records: run.records,
        wall: run.wall,
    })
}

/// One fuzz job: generate, check, shrink on failure.
fn run_one(spec_seed: u64, fault: Fault) -> FuzzOutcome {
    let spec = generate(spec_seed);
    let verdict = check_spec_with(&spec, fault);
    let reproducer = (!verdict.violations.is_empty()).then(|| shrink_spec(&spec, fault).value);
    FuzzOutcome {
        spec_seed,
        ops: spec.op_count() as u64,
        races_continuous: verdict.races_continuous,
        races_demand: verdict.races_demand,
        quiet_indicator_misses: verdict.quiet_indicator_misses,
        enable_latency_misses: verdict.enable_latency_misses,
        violations: verdict.violations,
        reproducer,
    }
}

fn outcome_summary(o: &FuzzOutcome) -> Value {
    Value::Object(vec![
        ("ops".to_string(), Value::UInt(o.ops)),
        (
            "races_continuous".to_string(),
            Value::UInt(o.races_continuous),
        ),
        ("races_demand".to_string(), Value::UInt(o.races_demand)),
        (
            "violations".to_string(),
            Value::UInt(o.violations.len() as u64),
        ),
    ])
}

/// Serializes a reproducer file: the fault the battery ran with and the
/// shrunken spec, replayable with `ddrace fuzz --replay FILE`.
pub fn reproducer_json(fault: Fault, spec: &FuzzSpec) -> Value {
    Value::Object(vec![
        ("fault".to_string(), Value::Str(fault.name().to_string())),
        ("spec".to_string(), spec.to_json()),
    ])
}

/// Parses a reproducer file back into its fault and spec.
///
/// # Errors
///
/// Returns a message naming the malformed part.
pub fn parse_reproducer(text: &str) -> Result<(Fault, FuzzSpec), String> {
    let value = Value::parse(text).map_err(|e| format!("reproducer is not valid JSON: {e}"))?;
    let fault = Fault::parse(
        value["fault"]
            .as_str()
            .ok_or("reproducer is missing the `fault` field")?,
    )?;
    let spec = FuzzSpec::from_json(&value["spec"])
        .map_err(|e| format!("reproducer has an invalid `spec`: {e}"))?;
    Ok((fault, spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64, count: usize, workers: usize, fault: Fault) -> FuzzConfig {
        FuzzConfig {
            seed,
            count,
            workers,
            fault,
        }
    }

    #[test]
    fn spec_seeds_are_distinct_and_stable() {
        let c = cfg(1, 64, 1, Fault::None);
        let seeds: std::collections::HashSet<u64> = (0..64).map(|i| c.spec_seed(i)).collect();
        assert_eq!(seeds.len(), 64);
        assert_eq!(c.spec_seed(0), cfg(1, 8, 4, Fault::None).spec_seed(0));
    }

    #[test]
    fn clean_campaign_has_no_violations_and_is_deterministic() {
        let c = cfg(1, 6, 2, Fault::None);
        let a = run_fuzz(&c, &EventSink::null(), None).unwrap();
        let b = run_fuzz(&c, &EventSink::null(), None).unwrap();
        assert_eq!(a.violations_total(), 0);
        assert_eq!(a.failed(), 0);
        assert_eq!(
            a.aggregate_json().to_compact(),
            b.aggregate_json().to_compact()
        );
    }

    #[test]
    fn aggregate_is_identical_across_worker_counts() {
        let one = run_fuzz(&cfg(3, 8, 1, Fault::None), &EventSink::null(), None).unwrap();
        let many = run_fuzz(&cfg(3, 8, 7, Fault::None), &EventSink::null(), None).unwrap();
        assert_eq!(
            one.aggregate_json().to_compact(),
            many.aggregate_json().to_compact()
        );
    }

    #[test]
    fn faulty_campaign_produces_shrunken_reproducers() {
        let report = run_fuzz(
            &cfg(1, 8, 2, Fault::DropWriteWrite),
            &EventSink::null(),
            None,
        )
        .unwrap();
        assert!(report.violations_total() > 0, "the fault must be caught");
        let failing = report.failing_outcomes();
        for outcome in &failing {
            let spec = outcome.reproducer.as_ref().expect("reproducer present");
            assert!(
                !check_spec_with(spec, Fault::DropWriteWrite)
                    .violations
                    .is_empty(),
                "reproducer must still fail"
            );
            assert!(
                spec.op_count() <= 8,
                "reproducer too large: {} ops",
                spec.op_count()
            );
        }
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let outcome = run_one(
            cfg(1, 8, 1, Fault::DropWriteWrite).spec_seed(0),
            Fault::DropWriteWrite,
        );
        let back = FuzzOutcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(back, outcome);
    }

    #[test]
    fn campaign_resumes_from_its_own_events() {
        let c = cfg(5, 6, 2, Fault::None);
        let buffer = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = EventSink::new(Some(Box::new(SharedBuf(buffer.clone()))), false)
            .with_deterministic_wall();
        let full = run_fuzz(&c, &sink, None).unwrap();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let log = CheckpointLog::parse(&text).unwrap();
        assert_eq!(log.finished.len(), 6);
        let resumed = run_fuzz(&c, &EventSink::null(), Some(&log)).unwrap();
        assert_eq!(
            resumed.aggregate_json().to_compact(),
            full.aggregate_json().to_compact()
        );
    }

    #[test]
    fn resume_refuses_a_foreign_checkpoint() {
        let c = cfg(5, 6, 2, Fault::None);
        let buffer = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = EventSink::new(Some(Box::new(SharedBuf(buffer.clone()))), false);
        run_fuzz(&c, &sink, None).unwrap();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let log = CheckpointLog::parse(&text).unwrap();
        let other = cfg(6, 6, 2, Fault::None);
        let err = run_fuzz(&other, &EventSink::null(), Some(&log)).unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
        assert!(err.contains(&fingerprint_hex(c.fingerprint())), "{err}");
    }

    #[test]
    fn reproducer_files_round_trip() {
        let spec = generate(9);
        let text = reproducer_json(Fault::IgnoreUnlock, &spec).to_compact();
        let (fault, back) = parse_reproducer(&text).unwrap();
        assert_eq!(fault, Fault::IgnoreUnlock);
        assert_eq!(back, spec);
        assert!(parse_reproducer("{}").is_err());
        assert!(parse_reproducer("not json").is_err());
    }

    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}

ddrace_json::json_struct!(FuzzOutcome {
    spec_seed,
    ops,
    races_continuous,
    races_demand,
    quiet_indicator_misses,
    enable_latency_misses,
    violations,
    reproducer
});
