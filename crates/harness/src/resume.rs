//! Checkpoint/resume: replaying a prior run's JSONL event stream so an
//! interrupted sweep only re-runs the jobs that never finished.
//!
//! The event stream is the checkpoint — no extra state file. A
//! `campaign_started` event carries a **spec fingerprint** (a hash over
//! the run name and every job's full configuration), and each
//! `job_finished` event carries its job's own fingerprint plus the full
//! `result` payload and telemetry counters.
//!
//! [`CheckpointLog`] is the one reader. [`CheckpointLog::parse`] reads
//! any harness event stream, keeping each finished job's `result` as raw
//! JSON; [`CheckpointLog::prefill_with`] validates the log against the
//! run about to execute (run fingerprint, job count, per-job
//! fingerprints) and decodes the finished jobs into typed
//! [`JobRecord`](crate::JobRecord)s. Simulator campaigns
//! ([`resume_campaign`](crate::resume_campaign)) and the conformance
//! fuzzer (`ddrace fuzz --resume`) both go through it, so both refuse a
//! foreign checkpoint with the same words. Because an aggregate document
//! is a function of per-job results alone, a resumed run reproduces the
//! uninterrupted aggregate byte for byte.
//!
//! Jobs are keyed by **id + fingerprint**, never by label: two jobs of a
//! campaign may share a label (the same workload listed twice), but ids
//! are dense and fingerprints pin the exact configuration.

use crate::executor::JobRecord;
use crate::job::{Campaign, Job};
use ddrace_json::{FromJson, ToJson, Value};
use ddrace_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::time::Duration;

/// A 64-bit FNV-1a hash of `bytes` — the hash behind every harness
/// fingerprint. Public so other checkpointed runs (the conformance
/// fuzzer) fingerprint their job specs the same way.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV1A_OFFSET, bytes)
}

/// The FNV-1a starting state: [`fnv1a`] of no bytes.
pub(crate) const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a `hash`. The hash is byte-sequential,
/// so folding a stream piece by piece equals [`fnv1a`] of the whole.
pub(crate) fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical JSON a job's fingerprint hashes: every field that
/// affects its result, in a fixed order. Baseline jobs hash exactly the
/// historical field set, so checkpoints recorded before the variant axis
/// existed stay resumable; a non-baseline variant appends its name and
/// patch, making every swept configuration point distinct.
fn job_spec_json(job: &Job) -> Value {
    let mut fields = vec![
        ("id".to_string(), Value::UInt(job.id as u64)),
        ("workload".to_string(), job.workload.to_json()),
        ("mode".to_string(), job.mode.to_json()),
        ("seed".to_string(), Value::UInt(job.seed)),
        ("scale".to_string(), job.scale.to_json()),
        ("cores".to_string(), Value::UInt(job.cores as u64)),
        ("quantum".to_string(), Value::UInt(u64::from(job.quantum))),
        ("detector_kind".to_string(), job.detector_kind.to_json()),
        (
            "timeout_ms".to_string(),
            match job.timeout {
                Some(t) => Value::UInt(t.as_millis() as u64),
                None => Value::Null,
            },
        ),
    ];
    if !job.variant.is_baseline() {
        fields.push((
            "variant".to_string(),
            Value::Object(vec![
                ("name".to_string(), Value::Str(job.variant.name.clone())),
                ("patch".to_string(), job.variant.patch.to_json()),
            ]),
        ));
    }
    // Like the variant field, appended only when present so generator-job
    // fingerprints keep their historical values. The content hash (not
    // the path) is what matters: a checkpoint is only resumable against
    // byte-identical trace input.
    if let Some(trace) = &job.trace {
        fields.push((
            "trace".to_string(),
            Value::Object(vec![
                ("name".to_string(), Value::Str(trace.name.clone())),
                (
                    "content".to_string(),
                    Value::Str(format!("{:016x}", trace.fingerprint)),
                ),
                ("records".to_string(), Value::UInt(trace.records)),
            ]),
        ));
    }
    Value::Object(fields)
}

/// Fingerprint of one job's full configuration (including its id).
pub fn job_fingerprint(job: &Job) -> u64 {
    fnv1a(job_spec_json(job).to_compact().as_bytes())
}

/// Fingerprint of a whole campaign: its name plus every job fingerprint,
/// in id order. Any change to the job set — reordered axes, a different
/// seed list, a config tweak — yields a different value.
pub fn campaign_fingerprint(campaign: &Campaign) -> u64 {
    fingerprint_of_jobs(
        &campaign.name,
        campaign
            .jobs
            .iter()
            .map(job_fingerprint)
            .collect::<Vec<_>>(),
    )
}

/// Combines a run name and its per-job fingerprints (in id order) into
/// one run fingerprint, the way [`campaign_fingerprint`] does — shared
/// with other checkpointed runs so every stream validates identically.
pub fn fingerprint_of_jobs(name: &str, job_fingerprints: impl AsRef<[u64]>) -> u64 {
    let mut canonical = format!("campaign:{name}");
    for fp in job_fingerprints.as_ref() {
        canonical.push_str(&format!(";{fp:016x}"));
    }
    fnv1a(canonical.as_bytes())
}

/// Formats a fingerprint the way events carry it: 16 lowercase hex digits.
pub fn fingerprint_hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// One finished job recovered from a prior event stream, its `result`
/// payload still raw JSON until [`CheckpointLog::prefill_with`] decodes
/// it.
#[derive(Debug, Clone)]
pub struct RecordedJob {
    /// The job's label as recorded.
    pub label: String,
    /// The job's spec fingerprint as recorded.
    pub fingerprint: u64,
    /// The event's `result` payload, undecoded ([`Value::Null`] when the
    /// event carried none).
    pub result: Value,
    /// Telemetry counters (and spans) as recorded, if any.
    pub telemetry: Option<Telemetry>,
    /// The recorded wall-clock time of the original run.
    pub wall: Duration,
}

/// A parsed prior event stream with raw result payloads: the run
/// identity it was recorded for and every job that finished before the
/// interruption. Result-type agnostic until
/// [`CheckpointLog::prefill_with`] decodes the payloads.
#[derive(Debug, Clone)]
pub struct CheckpointLog {
    /// The recorded campaign name.
    pub campaign: String,
    /// The recorded campaign fingerprint.
    pub fingerprint: u64,
    /// The recorded job count.
    pub jobs_total: usize,
    /// Finished jobs keyed by id. Failed jobs are deliberately absent —
    /// resume re-runs them.
    pub finished: BTreeMap<usize, RecordedJob>,
    /// Lines that did not parse as JSON (a kill can truncate the final
    /// line mid-write); kept as a count for diagnostics.
    pub malformed_lines: usize,
}

impl CheckpointLog {
    /// Parses a JSONL event stream produced by a prior harness run.
    ///
    /// Tolerates a truncated trailing line (the usual signature of a
    /// mid-write kill) and ignores event kinds it does not need;
    /// requires exactly one `campaign_started` event.
    pub fn parse(text: &str) -> Result<CheckpointLog, String> {
        let mut header: Option<(String, u64, usize)> = None;
        let mut finished = BTreeMap::new();
        let mut malformed_lines = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(event) = Value::parse(line) else {
                malformed_lines += 1;
                continue;
            };
            match event["event"].as_str() {
                Some("campaign_started") => {
                    let name = event["campaign"]
                        .as_str()
                        .ok_or("campaign_started: missing campaign name")?
                        .to_string();
                    let fingerprint = parse_fingerprint(&event)
                        .ok_or("campaign_started: missing or invalid fingerprint (stream predates resume support?)")?;
                    let jobs_total = event["jobs"]
                        .as_u64()
                        .ok_or("campaign_started: missing job count")?
                        as usize;
                    if header.is_some() {
                        return Err(
                            "resume log contains more than one campaign_started event".to_string()
                        );
                    }
                    header = Some((name, fingerprint, jobs_total));
                }
                Some("job_finished") => {
                    let id = event["id"].as_u64().ok_or("job_finished: missing id")? as usize;
                    let label = event["label"]
                        .as_str()
                        .ok_or_else(|| format!("job_finished #{id}: missing label"))?
                        .to_string();
                    let fingerprint = parse_fingerprint(&event).ok_or_else(|| {
                        format!("job_finished #{id} ({label}): missing or invalid fingerprint")
                    })?;
                    let telemetry = if event["telemetry"].is_null() {
                        None
                    } else {
                        Some(Telemetry::from_json(&event["telemetry"]).map_err(|e| {
                            format!("job_finished #{id} ({label}): invalid telemetry: {e}")
                        })?)
                    };
                    let wall = event["wall_ms"]
                        .as_f64()
                        .filter(|ms| ms.is_finite() && *ms >= 0.0)
                        .map(|ms| Duration::from_secs_f64(ms / 1e3))
                        .unwrap_or_default();
                    finished.insert(
                        id,
                        RecordedJob {
                            label,
                            fingerprint,
                            result: event["result"].clone(),
                            telemetry,
                            wall,
                        },
                    );
                }
                // Failures re-run; start/finish markers carry no state.
                Some(_) => {}
                None => malformed_lines += 1,
            }
        }
        let (campaign, fingerprint, jobs_total) =
            header.ok_or("resume log has no campaign_started event")?;
        Ok(CheckpointLog {
            campaign,
            fingerprint,
            jobs_total,
            finished,
            malformed_lines,
        })
    }

    /// Validates this log against the run about to execute — `name`,
    /// its run `fingerprint`, and the expected per-job fingerprints in
    /// id order — then decodes each finished job's `result` payload into
    /// a prefilled record.
    ///
    /// This is the one place a checkpoint is checked. It refuses a log
    /// whose run fingerprint differs (different name, job set, seeds, or
    /// configuration), whose job count differs, or whose finished jobs
    /// do not match their slots by id **and** fingerprint — resume never
    /// trusts labels alone — and a payload that does not decode as `T`.
    pub fn prefill_with<T: FromJson>(
        &self,
        name: &str,
        fingerprint: u64,
        job_fingerprints: &[u64],
    ) -> Result<Vec<JobRecord<T>>, String> {
        if self.fingerprint != fingerprint {
            return Err(format!(
                "resume log was recorded for campaign `{}` (fingerprint {}), \
                 but the current campaign is `{name}` (fingerprint {}); \
                 the job set, seeds, or configuration differ — refusing to resume",
                self.campaign,
                fingerprint_hex(self.fingerprint),
                fingerprint_hex(fingerprint),
            ));
        }
        if self.jobs_total != job_fingerprints.len() {
            return Err(format!(
                "resume log recorded {} jobs, current campaign has {}",
                self.jobs_total,
                job_fingerprints.len()
            ));
        }
        self.finished
            .iter()
            .map(|(&id, done)| {
                let expected = *job_fingerprints.get(id).ok_or_else(|| {
                    format!("resume log finished job #{id} is out of range for this campaign")
                })?;
                if done.fingerprint != expected {
                    return Err(format!(
                        "resume log job #{id} ({}) has fingerprint {}, expected {}",
                        done.label,
                        fingerprint_hex(done.fingerprint),
                        fingerprint_hex(expected),
                    ));
                }
                let result = T::from_json(&done.result).map_err(|e| {
                    format!(
                        "job_finished #{id} ({}): invalid result payload: {e}",
                        done.label
                    )
                })?;
                Ok(JobRecord {
                    id,
                    label: done.label.clone(),
                    outcome: Ok(result),
                    telemetry: done.telemetry.clone(),
                    wall: done.wall,
                })
            })
            .collect()
    }
}

fn parse_fingerprint(event: &Value) -> Option<u64> {
    u64::from_str_radix(event["fingerprint"].as_str()?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrace_core::AnalysisMode;
    use ddrace_workloads::{racy, Scale};

    fn campaign() -> Campaign {
        Campaign::builder("fp-test")
            .workloads([racy::sparse_race()])
            .modes([AnalysisMode::Native, AnalysisMode::Continuous])
            .seeds([1, 2])
            .scale(Scale::TEST)
            .cores(2)
            .build()
    }

    #[test]
    fn fingerprints_are_stable_and_config_sensitive() {
        let a = campaign_fingerprint(&campaign());
        let b = campaign_fingerprint(&campaign());
        assert_eq!(a, b, "same spec, same fingerprint");
        let other = Campaign::builder("fp-test")
            .workloads([racy::sparse_race()])
            .modes([AnalysisMode::Native, AnalysisMode::Continuous])
            .seeds([1, 3]) // one seed differs
            .scale(Scale::TEST)
            .cores(2)
            .build();
        assert_ne!(a, campaign_fingerprint(&other));
    }

    #[test]
    fn job_fingerprint_distinguishes_duplicate_labels() {
        let spec = Campaign::builder("dups")
            .workloads([racy::sparse_race(), racy::sparse_race()])
            .seeds([7])
            .scale(Scale::TEST)
            .build();
        assert_eq!(spec.jobs[0].label(), spec.jobs[1].label());
        // Same label, different id — fingerprints must differ so resume
        // can never cross-wire the two.
        assert_ne!(
            job_fingerprint(&spec.jobs[0]),
            job_fingerprint(&spec.jobs[1])
        );
    }

    #[test]
    fn fingerprints_distinguish_variants() {
        use crate::variant::{ConfigPatch, JobVariant};
        let with_variants = |variants: Vec<JobVariant>| {
            Campaign::builder("fp-variants")
                .workloads([racy::sparse_race()])
                .modes([AnalysisMode::demand_hitm()])
                .seeds([7])
                .scale(Scale::TEST)
                .variants(variants)
                .build()
        };
        // Same slot (id 0), same workload/mode/seed — only the variant
        // differs. Every pair of fingerprints must differ, including
        // nested-only patches (cache geometry, demand knobs) that never
        // touch the job's scalar fields.
        let variants = [
            JobVariant::baseline(),
            JobVariant::with_cores(2),
            JobVariant::private_cache("16KiB", 32),
            JobVariant::private_cache("64KiB", 128),
            JobVariant::new(
                "cooldown",
                ConfigPatch {
                    cooldown_accesses: Some(999),
                    ..ConfigPatch::default()
                },
            ),
        ];
        let prints: Vec<u64> = variants
            .iter()
            .map(|v| job_fingerprint(&with_variants(vec![v.clone()]).jobs[0]))
            .collect();
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(
                    prints[i], prints[j],
                    "variants `{}` and `{}` collide",
                    variants[i].name, variants[j].name
                );
            }
        }
        // The baseline variant hashes to the pre-variant-axis fingerprint:
        // old checkpoints stay resumable.
        let plain = Campaign::builder("fp-variants")
            .workloads([racy::sparse_race()])
            .modes([AnalysisMode::demand_hitm()])
            .seeds([7])
            .scale(Scale::TEST)
            .build();
        assert_eq!(prints[0], job_fingerprint(&plain.jobs[0]));
    }

    #[test]
    fn parse_rejects_streams_without_header() {
        let err = CheckpointLog::parse("{\"event\":\"job_started\",\"id\":0}\n").unwrap_err();
        assert!(err.contains("no campaign_started"), "{err}");
    }

    #[test]
    fn parse_tolerates_truncated_tail() {
        let spec = campaign();
        let head = format!(
            "{{\"event\":\"campaign_started\",\"campaign\":\"fp-test\",\"jobs\":4,\"workers\":1,\"fingerprint\":\"{}\"}}\n{{\"event\":\"job_finis",
            fingerprint_hex(campaign_fingerprint(&spec))
        );
        let log = CheckpointLog::parse(&head).unwrap();
        assert_eq!(log.malformed_lines, 1);
        assert!(log.finished.is_empty());
        assert_eq!(log.jobs_total, 4);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn prefill_with_checks_every_finished_job() {
        let spec = campaign();
        let fps: Vec<u64> = spec.jobs.iter().map(job_fingerprint).collect();
        let head = format!(
            "{{\"event\":\"campaign_started\",\"campaign\":\"fp-test\",\"jobs\":4,\"workers\":1,\"fingerprint\":\"{}\"}}\n",
            fingerprint_hex(campaign_fingerprint(&spec))
        );
        // Job #1 finished, recorded with fingerprint `fp` and an empty result.
        let finished = |fp: u64| {
            format!(
                "{{\"event\":\"job_finished\",\"id\":1,\"label\":\"x\",\"fingerprint\":\"{}\",\"result\":{{}}}}\n",
                fingerprint_hex(fp)
            )
        };
        let refusal = |text: String| {
            CheckpointLog::parse(&text)
                .unwrap()
                .prefill_with::<ddrace_core::RunResult>(
                    &spec.name,
                    campaign_fingerprint(&spec),
                    &fps,
                )
                .unwrap_err()
        };
        assert_eq!(
            refusal(head.clone() + &finished(fps[0])),
            format!(
                "resume log job #1 (x) has fingerprint {}, expected {}",
                fingerprint_hex(fps[0]),
                fingerprint_hex(fps[1])
            )
        );
        let err = refusal(head + &finished(fps[1]));
        assert!(
            err.starts_with("job_finished #1 (x): invalid result payload"),
            "{err}"
        );
    }

    #[test]
    fn fingerprint_of_jobs_matches_campaign_fingerprint() {
        let spec = campaign();
        let fps: Vec<u64> = spec.jobs.iter().map(job_fingerprint).collect();
        assert_eq!(
            fingerprint_of_jobs(&spec.name, &fps),
            campaign_fingerprint(&spec)
        );
    }
}
