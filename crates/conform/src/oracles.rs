//! The oracle battery: every conformance check one fuzzed spec must pass.
//!
//! **Differential oracles** compare independent implementations on the
//! *same interleaving* (a recorded [`Trace`], so scheduling can never
//! explain a difference). Every simulator run replays the trace's DDRT
//! encoding through [`ddrace_harness::replay`], the path `ddrace ingest`
//! and `ddrace analyze` take:
//!
//! - *record-replay* — the DDRT round trip is invisible: the decoded
//!   events equal the recorded ones, so every replay below sees exactly
//!   the recorded interleaving;
//! - *detector agreement* — FastTrack and Djit⁺ must report the same
//!   racy-variable set ([`ddrace_detector::racy_keys`]);
//! - *reference divergence* — the production Djit⁺ must match [`RefHb`]
//!   (an independent reimplementation over `HashMap` instead of the
//!   open-addressed shadow table) **byte-for-byte** on report vectors;
//! - *demand subset* — demand-driven analysis may only ever report a
//!   subset of the continuous racy-variable set, with the controller's
//!   bookkeeping consistent (no PMIs ⇒ no reports; no enables ⇒ no
//!   analyzed accesses). Each miss is then mechanically attributed: if
//!   the *eager* oracle-indicator configuration (never disables once on)
//!   still catches the race, the demand miss is charged to a **quiet
//!   HITM indicator**; if even the eager run misses it, the racy write
//!   predates any possible enable — **enable latency**.
//!
//! **Metamorphic oracles** transform the trace in ways that provably
//! preserve (or shift, predictably) the race verdict and re-run the full
//! continuous stack: thread-id permutation, uniform data-address
//! translation, detector-invisible compute padding, and relaxed→acq/rel
//! upgrades (which only add happens-before edges, so the racy-variable
//! set may only shrink).
//!
//! The **relaxed-soundness** oracle restricts the comparison to shadow
//! keys touched by relaxed atomics: all three detector implementations
//! must report exactly the same racy set there, because relaxed accesses
//! are ordinary checked data accesses with no edge semantics to diverge
//! on.

use crate::refdet::{Fault, RefHb};
use crate::spec::FuzzSpec;
use ddrace_core::{AnalysisMode, DetectorKind, RunResult, SimConfig};
use ddrace_detector::{racy_keys, DetectorConfig, RaceDetector};
use ddrace_program::{AddressSpace, Op, SchedulerConfig, ThreadId, Trace, TraceEvent};
use ddrace_trace::{decode_events_into, TraceWriter};

/// One failed oracle check: which oracle, and a human-readable account of
/// the disagreement. Serialized into fuzz events and reproducer files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The oracle's stable name (e.g. `detector-agreement`).
    pub oracle: String,
    /// What disagreed, with enough numbers to start debugging.
    pub detail: String,
}

impl Violation {
    fn new(oracle: &str, detail: String) -> Violation {
        Violation {
            oracle: oracle.to_string(),
            detail,
        }
    }
}

/// Everything the oracle battery concluded about one spec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpecVerdict {
    /// Every oracle violation (empty = the spec conforms).
    pub violations: Vec<Violation>,
    /// Distinct racy variables under continuous FastTrack analysis.
    pub races_continuous: u64,
    /// Distinct racy variables under demand-HITM analysis.
    pub races_demand: u64,
    /// Demand misses attributed to a quiet HITM indicator.
    pub quiet_indicator_misses: u64,
    /// Demand misses attributed to enable latency.
    pub enable_latency_misses: u64,
}

/// Runs the full oracle battery on `spec` with a faithful reference
/// detector.
pub fn check_spec(spec: &FuzzSpec) -> SpecVerdict {
    check_spec_with(spec, Fault::None)
}

/// Runs the full oracle battery with a (possibly faulty) reference
/// detector — the fault hook the self-test and the shrinker tests use.
pub fn check_spec_with(spec: &FuzzSpec, fault: Fault) -> SpecVerdict {
    let mut verdict = SpecVerdict::default();
    let scheduler = SchedulerConfig::jittered(spec.seed);

    let trace = match Trace::record(spec.to_program(), scheduler) {
        Ok(t) => t,
        Err(e) => {
            // Specs are deadlock-free by construction; a schedule error is
            // itself a conformance failure.
            verdict
                .violations
                .push(Violation::new("schedule-error", e.to_string()));
            return verdict;
        }
    };

    // Record/replay faithfulness, first: every later oracle replays the
    // trace's DDRT encoding, so a lossy round trip must stop the battery
    // here. Decoding streams through the codec one frame at a time, each
    // decoded event compared as it arrives.
    let bytes = encode(&trace);
    let mut decoded = 0usize;
    let mut mismatch = false;
    let outcome = decode_events_into(bytes.as_slice(), |event| {
        mismatch |= trace.events().get(decoded) != Some(event);
        decoded += 1;
    });
    let lossy = match outcome {
        Err(e) => Some(format!("trace round-trip failed: {e}")),
        Ok(_) if mismatch || decoded != trace.events().len() => Some(format!(
            "decoded event stream differs from the recorded one ({decoded} vs {} events)",
            trace.events().len()
        )),
        Ok(_) => None,
    };
    if let Some(detail) = lossy {
        verdict
            .violations
            .push(Violation::new("record-replay", detail));
        return verdict;
    }

    // Continuous runs of both production detectors on the same trace.
    let ft = run(
        spec,
        AnalysisMode::Continuous,
        DetectorKind::FastTrack,
        &bytes,
    );
    let dj = run(spec, AnalysisMode::Continuous, DetectorKind::Djit, &bytes);
    let keys_ft = racy_keys(&ft.races.reports);
    let keys_dj = racy_keys(&dj.races.reports);
    verdict.races_continuous = keys_ft.len() as u64;
    if keys_ft != keys_dj {
        verdict.violations.push(Violation::new(
            "detector-agreement",
            format!(
                "FastTrack and Djit disagree on the racy-variable set: \
                 {keys_ft:?} vs {keys_dj:?}"
            ),
        ));
    }

    // Reference divergence: Djit vs the independent HashMap-backed
    // reimplementation, byte-for-byte.
    let mut reference = RefHb::with_fault(DetectorConfig::default(), fault);
    for event in trace.events() {
        reference.replay_event(event);
    }
    if reference.reports().reports() != dj.races.reports.as_slice()
        || reference.reports().occurrences() != dj.races.report_occurrences.as_slice()
    {
        verdict.violations.push(Violation::new(
            "reference-divergence",
            format!(
                "Djit and the reference detector diverge: {} vs {} distinct \
                 reports (occurrences {:?} vs {:?})",
                dj.races.distinct,
                reference.reports().distinct(),
                dj.races.report_occurrences,
                reference.reports().occurrences(),
            ),
        ));
    }

    // Relaxed soundness: on the shadow keys relaxed atomics touch, all
    // three implementations must report the identical racy set.
    let relaxed_touched = relaxed_keys_of(&trace);
    if !relaxed_touched.is_empty() {
        let restrict = |keys: &[u64]| -> Vec<u64> {
            keys.iter()
                .copied()
                .filter(|k| relaxed_touched.binary_search(k).is_ok())
                .collect()
        };
        let r_ft = restrict(&keys_ft);
        let r_dj = restrict(&keys_dj);
        let r_ref = restrict(&racy_keys(reference.reports().reports()));
        if r_ft != r_dj || r_ft != r_ref {
            verdict.violations.push(Violation::new(
                "relaxed-soundness",
                format!(
                    "relaxed-only racy sets diverge: FastTrack {r_ft:?}, \
                     Djit {r_dj:?}, reference {r_ref:?}"
                ),
            ));
        }
    }

    // Demand subset + miss attribution.
    let demand = run(
        spec,
        AnalysisMode::demand_hitm(),
        DetectorKind::FastTrack,
        &bytes,
    );
    let eager = run(
        spec,
        AnalysisMode::demand_oracle_eager(),
        DetectorKind::FastTrack,
        &bytes,
    );
    let keys_demand = racy_keys(&demand.races.reports);
    let keys_eager = racy_keys(&eager.races.reports);
    verdict.races_demand = keys_demand.len() as u64;
    for (label, keys) in [("demand-hitm", &keys_demand), ("demand-eager", &keys_eager)] {
        let stray: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|k| keys_ft.binary_search(k).is_err())
            .collect();
        if !stray.is_empty() {
            verdict.violations.push(Violation::new(
                "demand-subset",
                format!("{label} reported races continuous never saw, on shadow keys {stray:?}"),
            ));
        }
    }
    if demand.pmis == 0 && !keys_demand.is_empty() {
        verdict.violations.push(Violation::new(
            "demand-subset",
            format!(
                "demand-hitm reported {} racy variables with zero PMIs delivered",
                keys_demand.len()
            ),
        ));
    }
    let enables = demand.controller.map_or(0, |c| c.enables);
    if enables == 0 && demand.accesses_analyzed > 0 {
        verdict.violations.push(Violation::new(
            "demand-subset",
            format!(
                "demand-hitm analyzed {} accesses without a single enable",
                demand.accesses_analyzed
            ),
        ));
    }
    for key in keys_ft
        .iter()
        .filter(|k| keys_demand.binary_search(k).is_err())
    {
        if keys_eager.binary_search(key).is_ok() {
            verdict.quiet_indicator_misses += 1;
        } else {
            verdict.enable_latency_misses += 1;
        }
    }

    // Metamorphic: thread-id permutation (rotate every tid) must not
    // change the racy-variable set — addresses are untouched and the
    // happens-before relation is invariant under renaming.
    let threads = trace.thread_count() as u32;
    if threads > 1 {
        let permuted = encode(&map_tids(&trace, |t| ThreadId((t.0 + 1) % threads)));
        let run_p = run(
            spec,
            AnalysisMode::Continuous,
            DetectorKind::FastTrack,
            &permuted,
        );
        let keys_p = racy_keys(&run_p.races.reports);
        if keys_p != keys_ft {
            verdict.violations.push(Violation::new(
                "metamorphic-tid-permutation",
                format!("racy-variable set changed under renaming: {keys_ft:?} vs {keys_p:?}"),
            ));
        }
    }

    // Metamorphic: translating every data address by a uniform delta must
    // shift the racy-variable set by exactly delta >> granularity.
    const DELTA: u64 = 0x4_0000;
    let translated = encode(&map_data_addrs(&trace, DELTA));
    let run_t = run(
        spec,
        AnalysisMode::Continuous,
        DetectorKind::FastTrack,
        &translated,
    );
    let keys_t = racy_keys(&run_t.races.reports);
    let shift = DELTA >> ddrace_detector::Granularity::default().shift();
    let expected: Vec<u64> = keys_ft.iter().map(|k| k + shift).collect();
    if keys_t != expected {
        verdict.violations.push(Violation::new(
            "metamorphic-address-translation",
            format!(
                "racy-variable set did not shift uniformly by {shift}: \
                 expected {expected:?}, got {keys_t:?}"
            ),
        ));
    }

    // Metamorphic: detector-invisible compute padding must leave the
    // report vector byte-identical.
    let padded = encode(&pad_with_compute(&trace));
    let run_c = run(
        spec,
        AnalysisMode::Continuous,
        DetectorKind::FastTrack,
        &padded,
    );
    if run_c.races.reports != ft.races.reports
        || run_c.races.report_occurrences != ft.races.report_occurrences
    {
        verdict.violations.push(Violation::new(
            "metamorphic-compute-padding",
            format!(
                "compute padding changed the reports: {} vs {} distinct",
                ft.races.distinct, run_c.races.distinct
            ),
        ));
    }

    // Metamorphic: upgrading every relaxed atomic to its acq/rel
    // counterpart only adds happens-before edges (and removes the relaxed
    // accesses from the checked set), so the racy-variable set may only
    // shrink — never gain a key.
    if !relaxed_touched.is_empty() {
        let upgraded = encode(&upgrade_relaxed(&trace));
        let run_u = run(
            spec,
            AnalysisMode::Continuous,
            DetectorKind::FastTrack,
            &upgraded,
        );
        let keys_u = racy_keys(&run_u.races.reports);
        let gained: Vec<u64> = keys_u
            .iter()
            .copied()
            .filter(|k| keys_ft.binary_search(k).is_err())
            .collect();
        if !gained.is_empty() {
            verdict.violations.push(Violation::new(
                "metamorphic-relaxed-upgrade",
                format!(
                    "upgrading relaxed→acq/rel grew the racy-variable set by \
                     {gained:?} (was {keys_ft:?}, now {keys_u:?})"
                ),
            ));
        }
    }

    verdict
}

/// The sorted shadow keys that relaxed atomic ops touch in `trace`.
fn relaxed_keys_of(trace: &Trace) -> Vec<u64> {
    let granularity = ddrace_detector::Granularity::default();
    let mut keys: Vec<u64> = trace
        .events()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Op {
                op: Op::RelaxedLoad { addr } | Op::RelaxedStore { addr } | Op::RelaxedRmw { addr },
                ..
            } => Some(granularity.key(*addr)),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Rewrites every relaxed atomic op in `trace` to its acquire/release
/// counterpart (`RelaxedRmw` → the edge-carrying `AtomicRmw`).
fn upgrade_relaxed(trace: &Trace) -> Trace {
    trace
        .events()
        .iter()
        .map(|event| match event {
            TraceEvent::Op { tid, op } => TraceEvent::Op {
                tid: *tid,
                op: match op {
                    Op::RelaxedLoad { addr } => Op::AtomicLoad { addr: *addr },
                    Op::RelaxedStore { addr } => Op::AtomicStore { addr: *addr },
                    Op::RelaxedRmw { addr } => Op::AtomicRmw { addr: *addr },
                    other => *other,
                },
            },
            other => other.clone(),
        })
        .collect()
}

/// `trace` in the DDRT format.
fn encode(trace: &Trace) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new()).expect("in-memory trace header");
    for event in trace.events() {
        writer.record_event(event);
    }
    writer.finish().expect("in-memory trace writes cannot fail")
}

/// Replays the DDRT trace `bytes` under `mode` with `detector` on the
/// spec's core count.
fn run(spec: &FuzzSpec, mode: AnalysisMode, detector: DetectorKind, bytes: &[u8]) -> RunResult {
    let mut cfg = SimConfig::new(spec.cores.max(1) as usize, mode);
    cfg.scheduler = SchedulerConfig::jittered(spec.seed);
    cfg.detector_kind = detector;
    ddrace_harness::replay(bytes, cfg, 0).expect("a freshly encoded trace decodes")
}

/// Rewrites every thread id in `trace` through `f` — events, parents,
/// fork/join operands, and barrier participant lists alike.
fn map_tids(trace: &Trace, f: impl Fn(ThreadId) -> ThreadId) -> Trace {
    trace
        .events()
        .iter()
        .map(|event| match event {
            TraceEvent::ThreadStarted { tid, parent } => TraceEvent::ThreadStarted {
                tid: f(*tid),
                parent: parent.map(&f),
            },
            TraceEvent::ThreadFinished { tid } => TraceEvent::ThreadFinished { tid: f(*tid) },
            TraceEvent::BarrierReleased {
                barrier,
                participants,
            } => TraceEvent::BarrierReleased {
                barrier: *barrier,
                participants: participants.iter().map(|t| f(*t)).collect(),
            },
            TraceEvent::Op { tid, op } => TraceEvent::Op {
                tid: f(*tid),
                op: match op {
                    Op::Fork { child } => Op::Fork { child: f(*child) },
                    Op::Join { child } => Op::Join { child: f(*child) },
                    other => *other,
                },
            },
        })
        .collect()
}

/// Adds `delta` to every *data* address (below the synchronization
/// region) in memory-access ops. Sync objects are addressed by id, not by
/// these fields, so they are untouched by construction.
fn map_data_addrs(trace: &Trace, delta: u64) -> Trace {
    let shift = |addr: ddrace_program::Addr| {
        if addr.0 < AddressSpace::SYNC_BASE {
            ddrace_program::Addr(addr.0 + delta)
        } else {
            addr
        }
    };
    trace
        .events()
        .iter()
        .map(|event| match event {
            TraceEvent::Op { tid, op } => TraceEvent::Op {
                tid: *tid,
                op: match op {
                    Op::Read { addr } => Op::Read { addr: shift(*addr) },
                    Op::Write { addr } => Op::Write { addr: shift(*addr) },
                    Op::AtomicRmw { addr } => Op::AtomicRmw { addr: shift(*addr) },
                    Op::AtomicLoad { addr } => Op::AtomicLoad { addr: shift(*addr) },
                    Op::AtomicStore { addr } => Op::AtomicStore { addr: shift(*addr) },
                    Op::RelaxedLoad { addr } => Op::RelaxedLoad { addr: shift(*addr) },
                    Op::RelaxedStore { addr } => Op::RelaxedStore { addr: shift(*addr) },
                    Op::RelaxedRmw { addr } => Op::RelaxedRmw { addr: shift(*addr) },
                    other => *other,
                },
            },
            other => other.clone(),
        })
        .collect()
}

/// Interleaves a detector-invisible `Compute` op (on the same thread)
/// after every executed operation.
fn pad_with_compute(trace: &Trace) -> Trace {
    let mut events = Vec::with_capacity(trace.events().len() * 2);
    for event in trace.events() {
        events.push(event.clone());
        if let TraceEvent::Op { tid, .. } = event {
            events.push(TraceEvent::Op {
                tid: *tid,
                op: Op::Compute { cycles: 3 },
            });
        }
    }
    events.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::spec::{FuzzOp, FuzzRound};

    fn racy_spec() -> FuzzSpec {
        FuzzSpec {
            seed: 11,
            workers: 2,
            vars: 1,
            locks: 1,
            cores: 2,
            rounds: vec![FuzzRound {
                ops: vec![
                    vec![FuzzOp::Write { var: 0 }],
                    vec![FuzzOp::Write { var: 0 }],
                ],
                barrier_after: false,
            }],
        }
    }

    fn locked_spec() -> FuzzSpec {
        FuzzSpec {
            seed: 11,
            workers: 2,
            vars: 1,
            locks: 1,
            cores: 2,
            rounds: vec![FuzzRound {
                ops: vec![
                    vec![FuzzOp::Locked {
                        lock: 0,
                        ops: vec![FuzzOp::Write { var: 0 }],
                    }],
                    vec![FuzzOp::Locked {
                        lock: 0,
                        ops: vec![FuzzOp::Write { var: 0 }],
                    }],
                ],
                barrier_after: false,
            }],
        }
    }

    #[test]
    fn faithful_stack_conforms_on_handwritten_specs() {
        for spec in [racy_spec(), locked_spec()] {
            let verdict = check_spec(&spec);
            assert_eq!(verdict.violations, vec![], "spec {spec:?}");
        }
        assert!(check_spec(&racy_spec()).races_continuous > 0);
        assert_eq!(check_spec(&locked_spec()).races_continuous, 0);
    }

    #[test]
    fn faithful_stack_conforms_on_generated_specs() {
        for seed in 0..25 {
            let verdict = check_spec(&generate(seed));
            assert_eq!(verdict.violations, vec![], "seed {seed}");
        }
    }

    #[test]
    fn planted_faults_are_caught() {
        // A fault only shows where its trigger exists: WW races for
        // DropWriteWrite, critical sections for IgnoreUnlock.
        let ww = check_spec_with(&racy_spec(), Fault::DropWriteWrite);
        assert!(
            ww.violations
                .iter()
                .any(|v| v.oracle == "reference-divergence"),
            "{:?}",
            ww.violations
        );
        let ul = check_spec_with(&locked_spec(), Fault::IgnoreUnlock);
        assert!(
            ul.violations
                .iter()
                .any(|v| v.oracle == "reference-divergence"),
            "{:?}",
            ul.violations
        );
    }

    /// Worker 0 publishes a payload behind a flag; workers 1.. consume.
    /// `relaxed` picks the broken variant (no release→acquire edge).
    fn publication_spec(seed: u64, relaxed: bool) -> FuzzSpec {
        let (store, load) = if relaxed {
            (
                FuzzOp::RelaxedStore { var: 0 },
                FuzzOp::RelaxedLoad { var: 0 },
            )
        } else {
            (
                FuzzOp::AtomicStore { var: 0 },
                FuzzOp::AtomicLoad { var: 0 },
            )
        };
        FuzzSpec {
            seed,
            workers: 2,
            vars: 2,
            locks: 1,
            cores: 2,
            rounds: vec![FuzzRound {
                ops: vec![
                    vec![FuzzOp::Write { var: 1 }, store],
                    vec![load, FuzzOp::Read { var: 1 }],
                ],
                barrier_after: false,
            }],
        }
    }

    #[test]
    fn relaxed_publication_conforms_and_races() {
        // The relaxed variant must pass every oracle (the three detectors
        // agree that it races) on every seed; at least one seed must
        // surface the race, whatever the interleaving jitter does.
        let mut raced = false;
        for seed in 0..10 {
            let v = check_spec(&publication_spec(seed, true));
            assert_eq!(v.violations, vec![], "seed {seed}");
            raced |= v.races_continuous > 0;
        }
        assert!(raced, "relaxed publication never raced on any seed");
    }

    #[test]
    fn acqrel_publication_conforms() {
        for seed in 0..10 {
            let v = check_spec(&publication_spec(seed, false));
            assert_eq!(v.violations, vec![], "seed {seed}");
        }
    }

    #[test]
    fn drop_acquire_fault_is_caught() {
        // The fault only diverges when the trace orders the release store
        // before the acquire load, so scan a few interleavings.
        let caught = (0..10).any(|seed| {
            check_spec_with(&publication_spec(seed, false), Fault::DropAcquire)
                .violations
                .iter()
                .any(|v| v.oracle == "reference-divergence")
        });
        assert!(caught, "DropAcquire fault never diverged on any seed");
    }

    #[test]
    fn condvar_specs_conform() {
        let spec = FuzzSpec {
            seed: 3,
            workers: 2,
            vars: 2,
            locks: 1,
            cores: 2,
            rounds: vec![FuzzRound {
                ops: vec![
                    vec![
                        FuzzOp::Locked {
                            lock: 0,
                            ops: vec![FuzzOp::Write { var: 0 }],
                        },
                        FuzzOp::Notify {
                            cond: 0,
                            all: false,
                        },
                    ],
                    vec![
                        FuzzOp::Wait { cond: 0 },
                        FuzzOp::Locked {
                            lock: 0,
                            ops: vec![FuzzOp::Read { var: 0 }],
                        },
                    ],
                ],
                barrier_after: false,
            }],
        };
        let v = check_spec(&spec);
        assert_eq!(v.violations, vec![]);
    }

    #[test]
    fn misses_are_attributed_exhaustively() {
        for seed in 0..15 {
            let v = check_spec(&generate(seed));
            assert!(
                v.races_demand + v.quiet_indicator_misses + v.enable_latency_misses
                    >= v.races_continuous,
                "seed {seed}: misses not fully attributed: {v:?}"
            );
        }
    }

    #[test]
    fn verdict_counters_are_deterministic() {
        let a = check_spec(&generate(7));
        let b = check_spec(&generate(7));
        assert_eq!(a, b);
    }
}

ddrace_json::json_struct!(Violation { oracle, detail });
