//! Structured campaign output: a JSON Lines event stream plus a human
//! progress summary on stderr.
//!
//! Each event is one compact JSON object per line with an `"event"`
//! discriminator — `campaign_started`, `job_started`, `job_finished`,
//! `job_failed`, `campaign_finished` — so the stream can be tailed and
//! post-processed with line-oriented tools. Events interleave in completion
//! order; consumers correlate on the `id` field. Wall-clock timings appear
//! *only* here, never in the deterministic aggregate.
//!
//! The stream doubles as a **checkpoint** (see [`crate::CheckpointLog`]):
//! `campaign_started` carries the campaign spec fingerprint, and each
//! `job_finished` carries the job's own fingerprint, seed, full `result`
//! payload, and telemetry — everything needed to skip the job on a
//! subsequent `--resume` run. `job_failed` events carry a machine-readable
//! `kind` (`panic` | `timeout` | `error`) next to the human `reason`, plus
//! whatever telemetry the failing body had already recorded.

use crate::executor::{FailReason, JobRecord};
use ddrace_json::{ToJson, Value};
use ddrace_telemetry::Telemetry;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Where campaign events go: an optional JSONL writer and an optional
/// stderr progress feed. Shared by all workers; internally synchronized.
pub struct EventSink {
    jsonl: Option<Mutex<Box<dyn Write + Send>>>,
    progress: bool,
    /// Report `wall_ms` as `0.0`, and telemetry span times as 0, in
    /// JSONL events (stderr progress keeps real timings). Runs that
    /// promise byte-reproducible event streams (`ddrace fuzz` and
    /// `ddrace ingest`) set this; wall clock is the only nondeterministic
    /// content an event otherwise carries.
    zero_wall: bool,
    total: AtomicUsize,
    done: AtomicUsize,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink")
            .field("jsonl", &self.jsonl.is_some())
            .field("progress", &self.progress)
            .finish()
    }
}

impl EventSink {
    /// A sink that discards everything (used by tests and library callers
    /// that only want the returned records).
    pub fn null() -> EventSink {
        EventSink::new(None, false)
    }

    /// A sink writing JSONL events to `jsonl` (if given) and, when
    /// `progress` is set, human summary lines to stderr.
    pub fn new(jsonl: Option<Box<dyn Write + Send>>, progress: bool) -> EventSink {
        EventSink {
            jsonl: jsonl.map(Mutex::new),
            progress,
            zero_wall: false,
            total: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
        }
    }

    /// Makes the JSONL stream byte-deterministic: every `wall_ms` field
    /// is written as `0.0`, and every telemetry span keeps its `count`
    /// but reports `total_ns` as 0. Line *order* still follows
    /// completion order; consumers wanting byte-identical streams across
    /// worker counts sort the lines (each line is self-contained).
    /// Stderr progress is unaffected and keeps real timings.
    pub fn with_deterministic_wall(mut self) -> EventSink {
        self.zero_wall = true;
        self
    }

    fn wall_field(&self, wall: Duration) -> Value {
        Value::Float(if self.zero_wall { 0.0 } else { ms(wall) })
    }

    fn telemetry_field(&self, telemetry: &Telemetry) -> Value {
        if self.zero_wall {
            telemetry.with_zeroed_span_times().to_json()
        } else {
            telemetry.to_json()
        }
    }

    fn emit(&self, event: &str, mut fields: Vec<(String, Value)>) {
        let Some(writer) = &self.jsonl else {
            return;
        };
        let mut pairs = vec![("event".to_string(), Value::Str(event.to_string()))];
        pairs.append(&mut fields);
        let line = Value::Object(pairs).to_compact();
        let mut w = writer.lock().unwrap();
        // Event loss must not kill the campaign; the aggregate still lands.
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }

    fn note(&self, line: &str) {
        if self.progress {
            eprintln!("{line}");
        }
    }

    pub(crate) fn campaign_started(
        &self,
        name: &str,
        jobs: usize,
        workers: usize,
        fingerprint: &str,
    ) {
        self.total.store(jobs, Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
        self.emit(
            "campaign_started",
            vec![
                ("campaign".to_string(), Value::Str(name.to_string())),
                ("jobs".to_string(), Value::UInt(jobs as u64)),
                ("workers".to_string(), Value::UInt(workers as u64)),
                (
                    "fingerprint".to_string(),
                    Value::Str(fingerprint.to_string()),
                ),
            ],
        );
        self.note(&format!(
            "campaign {name}: {jobs} jobs on {workers} workers"
        ));
    }

    /// Emits a `job_started` event. `extra` fields (job fingerprint,
    /// seed, variant name) are appended after the standard ones so
    /// stream consumers can attribute a start line without waiting for
    /// the finish event.
    pub(crate) fn job_started(&self, id: usize, label: &str, extra: &[(String, Value)]) {
        let mut fields = vec![
            ("id".to_string(), Value::UInt(id as u64)),
            ("label".to_string(), Value::Str(label.to_string())),
        ];
        fields.extend(extra.iter().cloned());
        self.emit("job_started", fields);
    }

    /// Emits a `job_finished` event. `extra` fields (job fingerprint,
    /// seed, the full `result` payload, a `resumed` marker) are appended
    /// after the standard ones; the resume reader keys on them.
    pub(crate) fn job_finished<T>(
        &self,
        record: &JobRecord<T>,
        summary: Option<Value>,
        extra: &[(String, Value)],
    ) {
        let mut fields = vec![
            ("id".to_string(), Value::UInt(record.id as u64)),
            ("label".to_string(), Value::Str(record.label.clone())),
            ("wall_ms".to_string(), self.wall_field(record.wall)),
        ];
        if let Some(t) = &record.telemetry {
            fields.push(("telemetry".to_string(), self.telemetry_field(t)));
        }
        if let Some(s) = summary {
            fields.push(("summary".to_string(), s));
        }
        fields.extend(extra.iter().cloned());
        self.emit("job_finished", fields);
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.note(&format!(
            "[{done}/{}] ok   {} ({:.1} ms)",
            self.total.load(Ordering::Relaxed),
            record.label,
            ms(record.wall),
        ));
    }

    /// Emits a `job_failed` event: a machine-readable `kind`
    /// (`panic` | `timeout` | `error`) next to the human-readable
    /// `reason`, plus any telemetry the failing body recorded before it
    /// died — counters from failed runs still reach post-processing.
    pub(crate) fn job_failed<T>(
        &self,
        record: &JobRecord<T>,
        reason: &FailReason,
        extra: &[(String, Value)],
    ) {
        let mut fields = vec![
            ("id".to_string(), Value::UInt(record.id as u64)),
            ("label".to_string(), Value::Str(record.label.clone())),
            ("kind".to_string(), Value::Str(reason.kind().to_string())),
            ("reason".to_string(), Value::Str(reason.to_string())),
            ("wall_ms".to_string(), self.wall_field(record.wall)),
        ];
        if let Some(t) = &record.telemetry {
            fields.push(("telemetry".to_string(), self.telemetry_field(t)));
        }
        fields.extend(extra.iter().cloned());
        self.emit("job_failed", fields);
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.note(&format!(
            "[{done}/{}] FAIL {}: {reason}",
            self.total.load(Ordering::Relaxed),
            record.label,
        ));
    }

    pub(crate) fn campaign_finished(
        &self,
        name: &str,
        finished: usize,
        failed: usize,
        wall: Duration,
    ) {
        self.emit(
            "campaign_finished",
            vec![
                ("campaign".to_string(), Value::Str(name.to_string())),
                ("finished".to_string(), Value::UInt(finished as u64)),
                ("failed".to_string(), Value::UInt(failed as u64)),
                ("wall_ms".to_string(), self.wall_field(wall)),
            ],
        );
        self.note(&format!(
            "campaign {name}: {finished} finished, {failed} failed in {:.1} ms",
            ms(wall)
        ));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
