//! # ddrace-harness — the parallel campaign runner
//!
//! The paper's evaluation is a *campaign*: analysis modes × workloads ×
//! sensitivity sweeps. This crate is the layer that runs such campaigns
//! well: declaratively built job sets, a fixed `std::thread` worker pool
//! with panic isolation and per-job timeouts, structured telemetry, and a
//! JSON Lines event stream next to a deterministic aggregate document.
//!
//! ## Pieces
//!
//! - [`Job`] / [`Campaign`] / [`CampaignBuilder`] — the job model. A job is
//!   (workload, mode, variant, seed, config overrides); a campaign is the
//!   cross product of sweep axes, with ids in declaration order.
//! - [`JobVariant`] / [`ConfigPatch`] — the variant axis: named per-job
//!   configuration overrides (cache geometry, core count, quantum, scale,
//!   detector, demand-mode knobs) for the paper's sensitivity sweeps (A3
//!   cache ladder, A5 SMT core packing). Variants flow into labels,
//!   events, fingerprints, and the aggregate.
//! - [`replay`] — the single entry point from a DDRT trace to a
//!   [`RunResult`], serial or with parallel detection; trace-corpus jobs,
//!   `ddrace analyze` and the conformance oracles all go through it.
//! - [`run_campaign`] — drains the jobs through a worker pool. Results are
//!   keyed by job id, so the aggregate is **byte-identical no matter how
//!   many workers ran it** — the property the determinism test pins down.
//! - [`RawJob`] / [`run_raw`] — the untyped executor underneath, also used
//!   to inject faults (panicking and hanging jobs) in tests.
//! - [`telemetry`] (re-exported `ddrace-telemetry`) — the span/counter sink
//!   `ddrace-core::sim` and `ddrace-detector` emit into while a job runs.
//! - [`EventSink`] — `job_started`/`job_finished`/`job_failed` JSONL events
//!   with telemetry payloads, plus human progress on stderr. The stream
//!   carries spec fingerprints and full result payloads, making it a
//!   checkpoint.
//! - [`CheckpointLog`] / [`resume_campaign`] — parse a prior run's event
//!   stream, validate it against the campaign by fingerprint, and re-run
//!   only the jobs that never finished. The resumed aggregate is
//!   byte-identical to an uninterrupted run's. The conformance fuzzer
//!   resumes through the same reader.
//! - [`CampaignReport`] — per-job records, campaign-total counters, and the
//!   aggregate JSON whose `rows` field keeps the historical `results/`
//!   schema, plus per-(workload, mode) mean/min/max fold-downs across the
//!   seed axis when a campaign sweeps more than one seed.
//!
//! ## Example
//!
//! ```
//! use ddrace_harness::{Campaign, EventSink, run_campaign};
//! use ddrace_core::AnalysisMode;
//! use ddrace_workloads::{phoenix, Scale};
//!
//! let campaign = Campaign::builder("doc-example")
//!     .workloads([phoenix::histogram()])
//!     .modes([AnalysisMode::Native, AnalysisMode::demand_hitm()])
//!     .scale(Scale::TEST)
//!     .cores(4)
//!     .build();
//! let report = run_campaign(&campaign, 2, &EventSink::null());
//! assert_eq!(report.finished(), 2);
//! assert!(report.totals.counter("sim.cycles") > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod events;
mod executor;
mod job;
mod replay;
mod report;
mod resume;
mod variant;

pub use ddrace_telemetry as telemetry;
pub use events::EventSink;
pub use executor::{run_raw, run_raw_prefilled, CancelToken, FailReason, JobRecord, RawJob};
pub use job::{Campaign, CampaignBuilder, Job, TraceSource};
pub use replay::replay;
pub use report::{AxisStat, CampaignReport, SeedFold, SuiteRow};
pub use resume::{
    campaign_fingerprint, fingerprint_hex, fingerprint_of_jobs, fnv1a, job_fingerprint,
    CheckpointLog, RecordedJob,
};
pub use variant::{ConfigPatch, JobVariant};

use ddrace_core::RunResult;
use ddrace_json::{ToJson, Value};
use ddrace_telemetry::Telemetry;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Runs every job of `campaign` on a pool of `workers` threads, streaming
/// events into `sink`, and returns the full report.
///
/// Job *scheduling* is nondeterministic; job *results* are not. Each
/// simulation is single-threaded and seeded, records land in id-indexed
/// slots, and the aggregate exposes no wall-clock data — so the same
/// campaign produces the same [`CampaignReport::aggregate_json`] at any
/// worker count.
pub fn run_campaign(campaign: &Campaign, workers: usize, sink: &EventSink) -> CampaignReport {
    run_campaign_prefilled(campaign, workers, sink, Vec::new())
}

/// Resumes an interrupted campaign from a prior run's parsed event stream.
///
/// The log is validated against `campaign` by
/// [`CheckpointLog::prefill_with`] — the campaign fingerprint (name +
/// full per-job configuration) must match, and every finished job is
/// checked by id **and** job fingerprint — then the jobs the log records
/// as finished are pre-filled from their decoded `result` payloads and
/// only the remainder executes. The resulting
/// [`CampaignReport::aggregate_json`] is byte-identical to an
/// uninterrupted run's, and the new event stream re-lists the prefilled
/// jobs (marked `"resumed": true`), so it is itself a complete
/// checkpoint for any further resume.
///
/// # Errors
///
/// Returns an error when the log's fingerprint does not match the
/// campaign (different job set, seeds, or configuration), a recorded
/// job does not line up with its slot, or a `result` payload is not a
/// [`RunResult`].
pub fn resume_campaign(
    campaign: &Campaign,
    workers: usize,
    sink: &EventSink,
    log: &CheckpointLog,
) -> Result<CampaignReport, String> {
    let job_fingerprints: Vec<u64> = campaign.jobs.iter().map(job_fingerprint).collect();
    let prefilled = log.prefill_with(
        &campaign.name,
        fingerprint_of_jobs(&campaign.name, &job_fingerprints),
        &job_fingerprints,
    )?;
    Ok(run_campaign_prefilled(campaign, workers, sink, prefilled))
}

/// Extra event fields every campaign job carries: its seed and its spec
/// fingerprint (the keys the resume reader validates against), plus its
/// variant name when the job sits on a swept variant axis.
fn job_event_meta(job: &Job) -> Vec<(String, Value)> {
    let mut meta = vec![
        ("seed".to_string(), Value::UInt(job.seed)),
        (
            "fingerprint".to_string(),
            Value::Str(fingerprint_hex(job_fingerprint(job))),
        ),
    ];
    if !job.variant.is_baseline() {
        meta.push(("variant".to_string(), Value::Str(job.variant.name.clone())));
    }
    meta
}

/// The outcome of [`run_checkpointed`]: id-indexed records plus the
/// run's wall-clock time (which never reaches any deterministic output).
#[derive(Debug)]
pub struct CheckpointedRun<T> {
    /// One record per job, in id order.
    pub records: Vec<JobRecord<T>>,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
}

/// Runs an arbitrary checkpointable job set on the worker pool with the
/// full campaign event protocol — `campaign_started` (carrying
/// `fingerprint`), per-job start/finish/fail events, prefilled-job
/// replay, `campaign_finished` — without assuming the jobs are
/// simulator [`Job`]s. [`run_campaign`] is this function applied to a
/// campaign's typed jobs; the conformance fuzzer applies it to fuzz
/// specs.
///
/// `jobs` must contain **every** job of the run (ids dense, `jobs[i].id
/// == i`), including those already in `prefilled`: a prefilled job's
/// `meta`, `summary`, and `resume_payload` hooks are used to re-emit its
/// `job_finished` event (marked `"resumed": true`, with its full
/// `result` payload) so the new stream alone can drive the next resume.
/// Only the jobs absent from `prefilled` execute.
///
/// # Panics
///
/// Panics if job ids are not dense or a prefilled id has no job.
pub fn run_checkpointed<T: Send + 'static>(
    name: &str,
    fingerprint: u64,
    jobs: Vec<RawJob<T>>,
    prefilled: Vec<JobRecord<T>>,
    workers: usize,
    sink: &EventSink,
) -> CheckpointedRun<T> {
    let start = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        assert_eq!(job.id, i, "job ids must be dense and in order");
    }
    sink.campaign_started(name, jobs.len(), workers, &fingerprint_hex(fingerprint));
    let skip: HashSet<usize> = prefilled.iter().map(|r| r.id).collect();
    // Replay finished events for prefilled jobs (with their full result
    // payloads) so the new stream alone can drive the next resume.
    for record in &prefilled {
        if let Ok(result) = &record.outcome {
            let job = &jobs[record.id];
            let mut extra = job.meta.clone();
            extra.push(("resumed".to_string(), Value::Bool(true)));
            if let Some(payload) = &job.resume_payload {
                extra.push(("result".to_string(), payload(result)));
            }
            let summary = job.summary.as_ref().map(|s| s(result));
            sink.job_finished(record, summary, &extra);
        }
    }
    let remaining: Vec<RawJob<T>> = jobs.into_iter().filter(|j| !skip.contains(&j.id)).collect();
    let records = run_raw_prefilled(remaining, prefilled, workers, sink);
    let finished = records.iter().filter(|r| r.outcome.is_ok()).count();
    let wall = start.elapsed();
    sink.campaign_finished(name, finished, records.len() - finished, wall);
    CheckpointedRun { records, wall }
}

fn run_campaign_prefilled(
    campaign: &Campaign,
    workers: usize,
    sink: &EventSink,
    prefilled: Vec<JobRecord<RunResult>>,
) -> CampaignReport {
    let raw: Vec<RawJob<RunResult>> = campaign
        .jobs
        .iter()
        .cloned()
        .map(|job| RawJob {
            id: job.id,
            label: job.label(),
            timeout: job.timeout,
            summary: Some(Box::new(job_summary)),
            resume_payload: Some(Box::new(|result: &RunResult| result.to_json())),
            meta: job_event_meta(&job),
            body: Box::new(move |token| {
                if token.cancelled() {
                    return Err("cancelled before start".to_string());
                }
                let _span = telemetry::span("job.run");
                job.run()
            }),
        })
        .collect();
    let run = run_checkpointed(
        &campaign.name,
        campaign_fingerprint(campaign),
        raw,
        prefilled,
        workers,
        sink,
    );
    let mut totals = Telemetry::new();
    for record in &run.records {
        if let Some(t) = &record.telemetry {
            totals.merge(t);
        }
    }
    CampaignReport {
        spec: campaign.clone(),
        records: run.records,
        totals,
        wall: run.wall,
    }
}

/// The compact per-job summary attached to `job_finished` events: the
/// headline numbers, not the full `RunResult`.
fn job_summary(result: &RunResult) -> Value {
    Value::Object(vec![
        ("mode".to_string(), Value::Str(result.mode.clone())),
        ("makespan".to_string(), Value::UInt(result.makespan)),
        (
            "races_distinct".to_string(),
            Value::UInt(result.races.distinct as u64),
        ),
        ("pmis".to_string(), Value::UInt(result.pmis)),
        (
            "accesses_analyzed".to_string(),
            Value::UInt(result.accesses_analyzed),
        ),
        (
            "enabled_cycles".to_string(),
            Value::UInt(result.enabled_cycles),
        ),
        ("total_cycles".to_string(), Value::UInt(result.total_cycles)),
    ])
}
