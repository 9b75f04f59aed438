//! # ddrace-telemetry — spans and counters for campaign observability
//!
//! A deliberately tiny telemetry layer with no external dependencies. The
//! simulator (`ddrace-core::sim`) and the race detectors (`ddrace-detector`)
//! emit **counters** (cycles simulated, HITM interrupts, shadow-memory
//! operations, enable/disable transitions) and **spans** (wall-clock timings
//! of named phases) into a thread-local [`Telemetry`] sink; the campaign
//! harness installs a sink around each job and collects it afterwards.
//!
//! Two properties matter:
//!
//! - **Zero cost when idle.** When no sink is installed (every non-campaign
//!   use of the simulator), [`counter`] and [`span`] are a thread-local flag
//!   check and nothing else.
//! - **Counters are deterministic, spans are not.** Counters reflect
//!   simulated quantities and are byte-reproducible across runs and worker
//!   counts; spans measure host wall-clock. The harness therefore puts
//!   counters in the deterministic aggregate JSON and spans only in the
//!   per-job JSONL event stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ddrace_json::{FromJson, JsonError, ToJson, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    static SINK: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
}

/// Aggregated wall-clock statistics for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// How many times the span was entered.
    pub count: u64,
    /// Total nanoseconds spent inside the span.
    pub total_ns: u64,
}

/// A collected set of counters and span timings.
///
/// Keys are `&'static str` names like `"sim.pmis"`; [`BTreeMap`] keeps
/// serialization order stable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    counters: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, SpanStats>,
}

impl Telemetry {
    /// An empty collection.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Adds `delta` to a named counter.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Records one completed span occurrence.
    pub fn add_span(&mut self, name: &'static str, elapsed_ns: u64) {
        let s = self.spans.entry(name).or_default();
        s.count += 1;
        s.total_ns += elapsed_ns;
    }

    /// Sets a named counter to `value`, overwriting any prior value —
    /// gauge semantics for quantities that are levels rather than sums
    /// (e.g. a multiplexing ratio). Merging still *adds* gauges like any
    /// counter, so keep gauge names out of cross-job aggregates.
    pub fn set(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
    }

    /// Reads a counter; missing counters read as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates spans in name order.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, SpanStats)> + '_ {
        self.spans.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges another collection into this one (used for campaign totals).
    pub fn merge(&mut self, other: &Telemetry) {
        for (name, value) in &other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, stats) in &other.spans {
            let s = self.spans.entry(name).or_default();
            s.count += stats.count;
            s.total_ns += stats.total_ns;
        }
    }

    /// A copy whose spans keep their counts but report zero nanoseconds:
    /// the part of the spans that does not depend on the wall clock.
    pub fn with_zeroed_span_times(&self) -> Telemetry {
        let mut t = self.clone();
        for s in t.spans.values_mut() {
            s.total_ns = 0;
        }
        t
    }

    /// The deterministic half only: counters, no wall-clock spans.
    pub fn counters_json(&self) -> Value {
        Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
                .collect(),
        )
    }
}

/// Interns a counter/span name, returning a `'static` reference.
///
/// Live telemetry uses `&'static str` literals as keys; telemetry parsed
/// back from a JSONL event stream (campaign resume) has owned strings.
/// Interning routes both through the same keyspace. Names come from a
/// small fixed vocabulary, so the registry stays tiny.
pub fn intern(name: &str) -> &'static str {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = registry.lock().unwrap();
    if let Some(&interned) = map.get(name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(name.to_string(), leaked);
    leaked
}

impl ToJson for Telemetry {
    fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|(k, s)| {
                (
                    k.to_string(),
                    Value::Object(vec![
                        ("count".to_string(), Value::UInt(s.count)),
                        ("total_ns".to_string(), Value::UInt(s.total_ns)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("counters".to_string(), self.counters_json()),
            ("spans".to_string(), Value::Object(spans)),
        ])
    }
}

impl FromJson for Telemetry {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let mut t = Telemetry::new();
        let counters = value.get_or_null("counters");
        if let Some(pairs) = counters.as_object() {
            for (name, v) in pairs {
                let n = v
                    .as_u64()
                    .ok_or_else(|| JsonError::decode(format!("counter `{name}`: not a u64")))?;
                t.add(intern(name), n);
            }
        } else if !counters.is_null() {
            return Err(JsonError::decode("telemetry counters: not an object"));
        }
        let spans = value.get_or_null("spans");
        if let Some(pairs) = spans.as_object() {
            for (name, v) in pairs {
                let stats = SpanStats {
                    count: ddrace_json::field(v, "count")?,
                    total_ns: ddrace_json::field(v, "total_ns")?,
                };
                let s = t.spans.entry(intern(name)).or_default();
                s.count += stats.count;
                s.total_ns += stats.total_ns;
            }
        } else if !spans.is_null() {
            return Err(JsonError::decode("telemetry spans: not an object"));
        }
        Ok(t)
    }
}

/// Installs a fresh sink on this thread, returning whether one was replaced.
///
/// The harness calls this at the start of each job; nested installs reset
/// the sink, which keeps a panicking job from leaking counters into the
/// next job run on the same worker.
pub fn install() -> bool {
    SINK.with(|s| s.borrow_mut().replace(Telemetry::new()).is_some())
}

/// Removes and returns this thread's sink, if any.
pub fn take() -> Option<Telemetry> {
    SINK.with(|s| s.borrow_mut().take())
}

/// True when a sink is installed on this thread.
pub fn active() -> bool {
    SINK.with(|s| s.borrow().is_some())
}

/// Adds `delta` to a named counter on the current sink; no-op when inactive.
pub fn counter(name: &'static str, delta: u64) {
    SINK.with(|s| {
        if let Some(t) = s.borrow_mut().as_mut() {
            t.add(name, delta);
        }
    });
}

/// Sets a named gauge on the current sink (overwrite, not accumulate);
/// no-op when inactive.
pub fn gauge(name: &'static str, value: u64) {
    SINK.with(|s| {
        if let Some(t) = s.borrow_mut().as_mut() {
            t.set(name, value);
        }
    });
}

/// Opens a wall-clock span; the elapsed time is recorded when the returned
/// guard drops. No-op (and no clock read) when no sink is installed.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: active().then(Instant::now),
    }
}

/// Guard returned by [`span`]; records elapsed time on drop.
#[must_use = "a span measures until the guard drops"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SINK.with(|s| {
                if let Some(t) = s.borrow_mut().as_mut() {
                    t.add_span(self.name, ns);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_only_while_installed() {
        counter("x", 5); // no sink: dropped
        install();
        counter("x", 2);
        counter("x", 3);
        {
            let _g = span("phase");
        }
        let t = take().unwrap();
        assert_eq!(t.counter("x"), 5);
        assert_eq!(t.spans().count(), 1);
        assert!(take().is_none());
    }

    #[test]
    fn gauge_overwrites_instead_of_accumulating() {
        install();
        gauge("ratio", 900);
        gauge("ratio", 750);
        counter("ratio.seen", 1);
        let t = take().unwrap();
        assert_eq!(t.counter("ratio"), 750, "last write wins");
        assert_eq!(t.counter("ratio.seen"), 1);
    }

    #[test]
    fn merge_sums_both_halves() {
        let mut a = Telemetry::new();
        a.add("n", 1);
        a.add_span("s", 10);
        let mut b = Telemetry::new();
        b.add("n", 2);
        b.add("m", 7);
        b.add_span("s", 5);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.counter("m"), 7);
        assert_eq!(
            a.spans().collect::<Vec<_>>(),
            vec![(
                "s",
                SpanStats {
                    count: 2,
                    total_ns: 15
                }
            )]
        );
    }

    #[test]
    fn telemetry_roundtrips_through_json() {
        let mut t = Telemetry::new();
        t.add("sim.cycles", 12);
        t.add("det.reads", 3);
        t.add_span("job.run", 450);
        let text = ddrace_json::to_string(&t).unwrap();
        let back: Telemetry = ddrace_json::from_str(&text).unwrap();
        assert_eq!(back, t);
        // Counter keys survive intact (interned, not literal) — the
        // deterministic half re-serializes byte-identically.
        assert_eq!(
            back.counters_json().to_compact(),
            t.counters_json().to_compact()
        );
    }

    #[test]
    fn intern_is_stable() {
        let a = intern("some.counter");
        let b = intern("some.counter");
        assert!(std::ptr::eq(a, b));
        assert_eq!(intern("sim.cycles"), "sim.cycles");
    }

    #[test]
    fn counters_json_is_name_ordered() {
        let mut t = Telemetry::new();
        t.add("z.last", 1);
        t.add("a.first", 2);
        assert_eq!(
            ddrace_json::to_string(&t.counters_json()).unwrap(),
            r#"{"a.first":2,"z.last":1}"#
        );
    }
}
