//! Offline-ingest throughput bench: measures trace decode and replay —
//! serial versus the parallel epoch-partitioned replayer — and emits the
//! machine-readable `BENCH_ingest.json` at the repo root.
//!
//! Matrix: one synthetic recorded trace, replayed serially (streaming
//! decode feeding an inline FastTrack) and in parallel at workers
//! {1, 4, 8} × shards {1, 64}, plus decode-only and check-only rates.
//! Every cell consumes the *same* encoded byte stream, and every
//! parallel cell's outcome is asserted equal to the serial detector's
//! (reports, order, occurrences, stats) before its time is accepted.
//!
//! Two throughput views, as in `bench_native`, because wall clock alone
//! cannot show fan-out on a host with fewer cores than replay threads:
//!
//! * **wall** — events/s over the real pipelined run (decode thread plus
//!   worker pool).
//! * **capacity** — the pipeline ceiling implied by the structure:
//!   `min(decode-only rate, single-thread check rate ÷ max worker-load
//!   fraction)`. The load fraction is *exact* — the access stream is
//!   replayed through [`shard_of`] and the static `shard % workers`
//!   ownership map. With one shard a single worker owns everything
//!   (fraction 1.0, no fan-out); with 64 shards and 8 workers a balanced
//!   stream admits ~8 concurrent checkers, bounded by the serial decode
//!   stage. This is the quantity the parallel replayer changes, and it
//!   is host-parallelism-independent.
//!
//! The summary's `basis` field records which view the headline
//! `parallel_vs_serial_8w` ratio uses: `"wall"` when the host offers
//! ≥ 8 hardware threads, `"capacity"` otherwise.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ddrace-bench --bin bench_ingest          # full run, writes JSON
//! cargo run -p ddrace-bench --bin bench_ingest -- --smoke         # tiny budget, no JSON (CI)
//! ```
//!
//! `DDRACE_BENCH_OUT` overrides the output path.

use ddrace_detector::{DetectorConfig, DetectorStats, FastTrack, RaceDetector, RaceReportSet};
use ddrace_json::Value;
use ddrace_native::{ParallelReplayConfig, ParallelReplayDetector};
use ddrace_program::{Addr, LockId, Op, ThreadId, TraceEvent};
use ddrace_shadow::shard_of;
use ddrace_trace::{decode_events_into, decode_events_into_parallel, TraceWriter};
use std::time::Instant;

/// Replaying threads recorded in the synthetic trace.
const TRACE_THREADS: u32 = 8;
/// Worker counts exercised by the parallel cells.
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];
/// Shard counts exercised by the parallel cells.
const SHARD_COUNTS: [usize; 2] = [1, 64];

/// splitmix64 finalizer: deterministic address generation.
#[inline(always)]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic access for recorded thread `t`, local index `i` —
/// the same shape as `bench_native`'s stream: 1-in-16 events read one of
/// 64 shared words, the rest hit a 4096-word private region per thread
/// (1-in-4 as writes). Race-free by construction, so replay measures the
/// check path rather than report bookkeeping.
#[inline(always)]
fn access(t: u32, i: u64) -> (Addr, bool) {
    let r = mix((t as u64) << 32 | i);
    if r.is_multiple_of(16) {
        (Addr(0x5000_0000 + (r >> 32) % 64 * 8), false)
    } else {
        let base = 0x1000_0000 + 0x10_0000 * (t as u64 + 1);
        (Addr(base + (r >> 32) % 4096 * 8), r.is_multiple_of(4))
    }
}

/// Builds the synthetic recorded trace: `TRACE_THREADS` threads forked
/// from main, accesses interleaved round-robin, a shared lock cycled
/// every 64 accesses per thread (sync edges exercise the cut-point
/// machinery), and a clean shutdown. Returns the encoded bytes and the
/// data-access count.
fn build_trace(accesses_per_thread: u64) -> (Vec<u8>, u64) {
    let mut writer = TraceWriter::new(Vec::new()).expect("in-memory trace writer");
    let mut rec = |e: TraceEvent| writer.record_event(&e);
    rec(TraceEvent::ThreadStarted {
        tid: ThreadId::MAIN,
        parent: None,
    });
    for t in 1..=TRACE_THREADS {
        rec(TraceEvent::ThreadStarted {
            tid: ThreadId(t),
            parent: Some(ThreadId::MAIN),
        });
    }
    let lock = LockId(1);
    let mut accesses = 0u64;
    for i in 0..accesses_per_thread {
        for t in 1..=TRACE_THREADS {
            let tid = ThreadId(t);
            if i.is_multiple_of(64) {
                rec(TraceEvent::Op {
                    tid,
                    op: Op::Lock { lock },
                });
                rec(TraceEvent::Op {
                    tid,
                    op: Op::Unlock { lock },
                });
            }
            let (addr, write) = access(t, i);
            let op = if write {
                Op::Write { addr }
            } else {
                Op::Read { addr }
            };
            rec(TraceEvent::Op { tid, op });
            accesses += 1;
        }
    }
    for t in 1..=TRACE_THREADS {
        rec(TraceEvent::ThreadFinished { tid: ThreadId(t) });
    }
    rec(TraceEvent::ThreadFinished {
        tid: ThreadId::MAIN,
    });
    (writer.finish().expect("finish trace"), accesses)
}

/// One measured cell.
struct Run {
    label: String,
    median_ns: u64,
    events: u64,
}

impl Run {
    fn events_per_s(&self) -> f64 {
        self.events as f64 * 1e9 / self.median_ns.max(1) as f64
    }
}

fn measure(
    label: impl Into<String>,
    events: u64,
    samples: usize,
    mut f: impl FnMut() -> u64,
) -> Run {
    let mut times: Vec<u64> = (0..samples).map(|_| f().max(1)).collect();
    times.sort_unstable();
    Run {
        label: label.into(),
        median_ns: times[times.len() / 2],
        events,
    }
}

/// The serial detector outcome every parallel cell must reproduce.
struct Expected {
    reports: RaceReportSet,
    stats: DetectorStats,
}

/// Exact maximum worker-load fraction of the trace's access stream under
/// the static `shard % workers` ownership map.
fn max_worker_load_fraction(bytes: &[u8], shards: usize, workers: usize) -> f64 {
    let gran = DetectorConfig::default().granularity;
    let mut loads = vec![0u64; workers];
    let mut total = 0u64;
    decode_events_into(bytes, |event| {
        if let TraceEvent::Op {
            op: Op::Read { addr } | Op::Write { addr },
            ..
        } = event
        {
            loads[shard_of(gran.key(*addr), shards) % workers] += 1;
            total += 1;
        }
    })
    .expect("well-formed trace");
    let max = loads.iter().copied().max().unwrap_or(0);
    max as f64 / total.max(1) as f64
}

fn measurement_json(r: &Run) -> Value {
    Value::Object(vec![
        ("label".into(), Value::Str(r.label.clone())),
        ("median_ns".into(), Value::UInt(r.median_ns)),
        ("events".into(), Value::UInt(r.events)),
        ("events_per_s".into(), Value::Float(r.events_per_s())),
    ])
}

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--smoke") || std::env::var("DDRACE_BENCH_SMOKE").is_ok();
    let samples = if smoke { 2 } else { 5 };
    let per_thread: u64 = if smoke { 1 << 10 } else { 1 << 17 };
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());

    let (bytes, accesses) = build_trace(per_thread);
    println!(
        "ingest bench: {accesses} accesses ({} trace bytes), {samples} samples, host parallelism {parallelism}{}",
        bytes.len(),
        if smoke { " (smoke)" } else { "" }
    );

    // The serialized ground truth (also the check-only rate input).
    let mut decoded: Vec<TraceEvent> = Vec::new();
    decode_events_into(bytes.as_slice(), |e| decoded.push(e.clone())).expect("decode trace");
    let expected = {
        let mut ft = FastTrack::new(DetectorConfig::default());
        for event in &decoded {
            ft.replay_event(event);
        }
        assert_eq!(
            ft.reports().distinct(),
            0,
            "bench trace must be race-free so replay measures checks, not reports"
        );
        Expected {
            reports: ft.reports().clone(),
            stats: ft.stats(),
        }
    };

    let decode_only = measure("decode_only", accesses, samples, || {
        let mut n = 0u64;
        let start = Instant::now();
        decode_events_into(bytes.as_slice(), |_| n += 1).expect("decode trace");
        let ns = start.elapsed().as_nanos() as u64;
        criterion::black_box(n);
        ns
    });
    let check_only = measure("check_only", accesses, samples, || {
        let mut ft = FastTrack::new(DetectorConfig::default());
        let start = Instant::now();
        for event in &decoded {
            ft.replay_event(event);
        }
        let ns = start.elapsed().as_nanos() as u64;
        criterion::black_box(ft.stats().accesses_checked);
        ns
    });
    // The production ingest pipeline's decode side: frame payloads decode
    // on a pool while this thread walks the merge order. On a single-core
    // host the wall time is decode work + walk work + handoff, which is
    // exactly what the capacity model needs to isolate the walk stage.
    let pipe_decode = measure("pipe_decode", accesses, samples, || {
        let mut n = 0u64;
        let start = Instant::now();
        decode_events_into_parallel(bytes.as_slice(), 2, |_| n += 1).expect("decode trace");
        let ns = start.elapsed().as_nanos() as u64;
        criterion::black_box(n);
        ns
    });
    let serial = measure("serial", accesses, samples, || {
        let mut ft = FastTrack::new(DetectorConfig::default());
        let start = Instant::now();
        decode_events_into(bytes.as_slice(), |event| ft.replay_event(event)).expect("decode trace");
        start.elapsed().as_nanos() as u64
    });

    let mut runs: Vec<Run> = vec![decode_only, check_only, pipe_decode, serial];
    for &shards in &SHARD_COUNTS {
        for &workers in &WORKER_COUNTS {
            let run = measure(
                format!("parallel_w{workers}_s{shards}"),
                accesses,
                samples,
                || {
                    let mut det = ParallelReplayDetector::new(ParallelReplayConfig {
                        detector: DetectorConfig::default(),
                        shards,
                        workers,
                        ..ParallelReplayConfig::default()
                    });
                    let start = Instant::now();
                    decode_events_into_parallel(bytes.as_slice(), workers.min(8), |event| {
                        det.replay_event(event)
                    })
                    .expect("decode trace");
                    let out = det.finish();
                    let ns = start.elapsed().as_nanos() as u64;
                    assert_eq!(
                        out.reports.reports(),
                        expected.reports.reports(),
                        "parallel replay diverged from serial (w{workers} s{shards})"
                    );
                    assert_eq!(out.stats, expected.stats);
                    ns
                },
            );
            runs.push(run);
        }
    }
    for r in &runs {
        println!("  {:<18} {:>14.0} events/s", r.label, r.events_per_s());
        assert!(r.events_per_s() > 0.0, "throughput must be nonzero");
    }

    let rate = |label: &str| -> f64 {
        runs.iter()
            .find(|r| r.label == label)
            .expect("matrix cell present")
            .events_per_s()
    };

    // Capacity ceilings for the three pipeline stages. Decode fans out
    // over per-thread frame payloads (up to `workers` decode threads) and
    // checks fan out over shard owners; the only stage pinned to one
    // thread is the merge-order walk that delivers events and routes
    // accesses. Its per-event cost is isolated as the single-core
    // pipelined wall time minus the pure decode work (the handoff
    // overhead is charged to the walk, the conservative side).
    let walk_ns = {
        let pipe = 1e9 / rate("pipe_decode");
        let decode = 1e9 / rate("decode_only");
        (pipe - decode).max(1.0)
    };
    let walk_rate = 1e9 / walk_ns;
    let capacity = |workers: usize, shards: usize| -> f64 {
        let frac = max_worker_load_fraction(&bytes, shards, workers);
        (rate("check_only") / frac)
            .min(rate("decode_only") * workers.min(8) as f64)
            .min(walk_rate)
    };
    let frac_8w_64s = max_worker_load_fraction(&bytes, 64, 8);
    let cap_8w_64s = capacity(8, 64);
    let cap_8w_1s = capacity(8, 1);

    let wall_ratio = rate("parallel_w8_s64") / rate("serial");
    let capacity_ratio = cap_8w_64s / rate("serial");
    let basis = if parallelism >= 8 { "wall" } else { "capacity" };
    let ratio = if basis == "wall" {
        wall_ratio
    } else {
        capacity_ratio
    };
    let pass = ratio >= 3.0;
    println!(
        "summary: parallel_vs_serial_8w {ratio:.2}x ({basis} basis; wall {wall_ratio:.2}x, capacity {capacity_ratio:.2}x)"
    );

    let doc = Value::Object(vec![
        ("bench".into(), Value::Str("ingest_replay".into())),
        (
            "build".into(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("smoke".into(), Value::Bool(smoke)),
        ("host_parallelism".into(), Value::UInt(parallelism as u64)),
        (
            "config".into(),
            Value::Object(vec![
                ("trace_threads".into(), Value::UInt(TRACE_THREADS as u64)),
                ("accesses".into(), Value::UInt(accesses)),
                ("trace_bytes".into(), Value::UInt(bytes.len() as u64)),
                ("samples".into(), Value::UInt(samples as u64)),
                (
                    "workload".into(),
                    Value::Str(
                        "race-free mix: 1/16 shared reads, private 3:1 read:write, \
                         lock cycle per 64 accesses/thread"
                            .into(),
                    ),
                ),
            ]),
        ),
        (
            "runs".into(),
            Value::Array(runs.iter().map(measurement_json).collect()),
        ),
        (
            "capacity_8w".into(),
            Value::Object(vec![
                (
                    "check_only_events_per_s".into(),
                    Value::Float(rate("check_only")),
                ),
                (
                    "decode_only_events_per_s".into(),
                    Value::Float(rate("decode_only")),
                ),
                (
                    "max_worker_load_fraction_64s".into(),
                    Value::Float(frac_8w_64s),
                ),
                ("walk_stage_ns_per_event".into(), Value::Float(walk_ns)),
                ("walk_stage_events_per_s".into(), Value::Float(walk_rate)),
                ("shards_1_events_per_s".into(), Value::Float(cap_8w_1s)),
                ("shards_64_events_per_s".into(), Value::Float(cap_8w_64s)),
            ]),
        ),
        (
            "summary".into(),
            Value::Object(vec![
                (
                    "parallel_vs_serial_8w".into(),
                    Value::Object(vec![
                        ("basis".into(), Value::Str(basis.into())),
                        ("ratio".into(), Value::Float(ratio)),
                        ("wall_ratio".into(), Value::Float(wall_ratio)),
                        ("capacity_ratio".into(), Value::Float(capacity_ratio)),
                    ]),
                ),
                (
                    "acceptance".into(),
                    Value::Object(vec![
                        ("parallel_3x_at_8w".into(), Value::Bool(pass)),
                        ("pass".into(), Value::Bool(pass)),
                    ]),
                ),
            ]),
        ),
    ]);

    let json = ddrace_json::to_string_pretty(&doc).expect("serialize bench doc");
    if smoke {
        // Schema sanity for CI: the full document must build and carry
        // every field a consumer depends on; the file itself only comes
        // from full runs so the committed numbers stay release-grade.
        for field in [
            "events_per_s",
            "decode_only",
            "check_only",
            "pipe_decode",
            "parallel_w8_s64",
            "capacity_8w",
            "max_worker_load_fraction_64s",
            "walk_stage_events_per_s",
            "parallel_vs_serial_8w",
            "parallel_3x_at_8w",
        ] {
            assert!(json.contains(field), "smoke schema check: missing {field}");
        }
        println!("smoke mode: skipping BENCH_ingest.json");
        return;
    }
    let out = std::env::var("DDRACE_BENCH_OUT").unwrap_or_else(|_| "BENCH_ingest.json".into());
    std::fs::write(&out, json + "\n").expect("write bench JSON");
    println!("wrote {out}");
}
