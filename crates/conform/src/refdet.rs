//! The independent reference detector.
//!
//! [`RefHb`] re-implements the Djit⁺ algorithm *from its specification* —
//! full read/write vector clocks per shadow word over [`HbClocks`] — but
//! on top of `std::collections::HashMap` instead of the production
//! `ddrace_shadow::ShadowTable`. Comparing its report vector
//! **byte-for-byte** against the production `Djit` run on the same trace
//! therefore discharges two oracles at once: a third independent
//! happens-before implementation must agree, and the open-addressed
//! shadow table must behave exactly like the reference map.
//!
//! [`Fault`] is the test-only defect hook: the fuzz harness proves it can
//! catch (and shrink) real detector bugs by switching a deliberate one on
//! and watching the differential oracle fail.
//!
//! A recorded trace reaches it, like any detector, through
//! [`RaceDetector::replay_event`].

use ddrace_detector::{
    AccessReport, DetectorConfig, DetectorStats, Granularity, HbClocks, RaceAccess, RaceDetector,
    RaceKind, RaceReport, RaceReportSet, VectorClock,
};
use ddrace_program::{AccessKind, Addr, BarrierId, Op, ThreadId};
use std::collections::HashMap;

/// A deliberately planted detector defect, for validating that the
/// differential oracles (and the shrinker behind them) actually fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No defect: the faithful reference.
    #[default]
    None,
    /// Silently drop write-write races — the classic "first writer wins"
    /// metadata-update-before-check bug.
    DropWriteWrite,
    /// Ignore `Unlock` in the clock machinery, so lock releases publish
    /// nothing and lock-protected accesses look racy.
    IgnoreUnlock,
    /// Drop the release→acquire edge: acquire-side joins (`AtomicLoad`,
    /// `CondWake`) publish nothing, so release/acquire publication looks
    /// racy — the "relaxed where acquire was meant" memory-model bug.
    DropAcquire,
}

impl Fault {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Result<Fault, String> {
        Ok(match s {
            "none" => Fault::None,
            "drop-write-write" => Fault::DropWriteWrite,
            "ignore-unlock" => Fault::IgnoreUnlock,
            "drop-acquire" => Fault::DropAcquire,
            other => {
                return Err(format!(
                    "unknown fault `{other}` (expected none, drop-write-write, \
                     ignore-unlock, drop-acquire)"
                ))
            }
        })
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::DropWriteWrite => "drop-write-write",
            Fault::IgnoreUnlock => "ignore-unlock",
            Fault::DropAcquire => "drop-acquire",
        }
    }
}

#[derive(Debug, Clone, Default)]
struct VarState {
    reads: VectorClock,
    writes: VectorClock,
    last_writer: Option<ThreadId>,
}

/// The reference happens-before detector (see module docs).
#[derive(Debug, Clone)]
pub struct RefHb {
    clocks: HbClocks,
    shadow: HashMap<u64, VarState>,
    reports: RaceReportSet,
    stats: DetectorStats,
    granularity: Granularity,
    max_reports: usize,
    fault: Fault,
}

impl RefHb {
    /// A faithful reference detector.
    pub fn new(config: DetectorConfig) -> Self {
        RefHb::with_fault(config, Fault::None)
    }

    /// A reference detector with a planted defect.
    pub fn with_fault(config: DetectorConfig, fault: Fault) -> Self {
        RefHb {
            clocks: HbClocks::new(),
            shadow: HashMap::new(),
            reports: RaceReportSet::new(),
            stats: DetectorStats::default(),
            granularity: config.granularity,
            max_reports: config.max_reports,
            fault,
        }
    }

    fn record(&mut self, report: RaceReport) {
        self.stats.races_observed += 1;
        if self.reports.distinct() < self.max_reports {
            self.reports.record(report);
        } else {
            self.reports.merge_only(&report);
        }
    }
}

impl RaceDetector for RefHb {
    fn on_thread_start(&mut self, tid: ThreadId, parent: Option<ThreadId>) {
        self.clocks.on_thread_start(tid, parent);
    }

    fn on_thread_finish(&mut self, tid: ThreadId) {
        self.clocks.on_thread_finish(tid);
    }

    fn on_sync(&mut self, tid: ThreadId, op: &Op) {
        if op.is_sync() {
            self.stats.sync_ops += 1;
        }
        if self.fault == Fault::IgnoreUnlock && matches!(op, Op::Unlock { .. }) {
            return;
        }
        if self.fault == Fault::DropAcquire
            && matches!(op, Op::AtomicLoad { .. } | Op::CondWake { .. })
        {
            return;
        }
        self.clocks.on_sync(tid, op);
    }

    fn on_barrier_release(&mut self, barrier: BarrierId, participants: &[ThreadId]) {
        self.clocks.on_barrier_release(barrier, participants);
    }

    fn on_access(&mut self, tid: ThreadId, addr: Addr, kind: AccessKind) -> AccessReport {
        self.stats.accesses_checked += 1;
        let key = self.granularity.key(addr);
        let tvc = self.clocks.thread(tid);
        let my_clock = tvc.get(tid);
        let var = self.shadow.entry(key).or_default();

        let shared = var.last_writer.is_some_and(|w| w != tid)
            || (0..var.reads.width() as u32).any(|u| u != tid.0 && var.reads.get(ThreadId(u)) > 0);

        let mut race = None;
        if let Some(witness) = var.writes.first_excess(tvc) {
            race = Some(RaceReport {
                addr,
                shadow_key: key,
                kind: if kind.is_write() {
                    RaceKind::WriteWrite
                } else {
                    RaceKind::WriteRead
                },
                prior: RaceAccess {
                    tid: witness,
                    kind: AccessKind::Write,
                    clock: var.writes.get(witness),
                },
                current: RaceAccess {
                    tid,
                    kind,
                    clock: my_clock,
                },
            });
        } else if kind.is_write() {
            if let Some(witness) = var.reads.first_excess(tvc) {
                race = Some(RaceReport {
                    addr,
                    shadow_key: key,
                    kind: RaceKind::ReadWrite,
                    prior: RaceAccess {
                        tid: witness,
                        kind: AccessKind::Read,
                        clock: var.reads.get(witness),
                    },
                    current: RaceAccess {
                        tid,
                        kind,
                        clock: my_clock,
                    },
                });
            }
        }

        if kind.is_write() {
            var.writes.set(tid, my_clock);
            var.last_writer = Some(tid);
        } else {
            var.reads.set(tid, my_clock);
        }

        if self.fault == Fault::DropWriteWrite {
            race = race.filter(|r| r.kind != RaceKind::WriteWrite);
        }

        let raced = race.is_some();
        if let Some(report) = race {
            self.record(report);
        }
        AccessReport {
            race: raced,
            shared,
        }
    }

    fn reports(&self) -> &RaceReportSet {
        &self.reports
    }

    fn stats(&self) -> DetectorStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "ref-hb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrace_program::{ProgramBuilder, SchedulerConfig, Trace};

    fn feed(trace: &Trace, detector: &mut dyn RaceDetector) {
        for event in trace.events() {
            detector.replay_event(event);
        }
    }

    fn racy_trace(seed: u64) -> Trace {
        let mut b = ProgramBuilder::new();
        let shared = b.alloc_shared(64);
        let x = shared.base();
        let l = b.new_lock();
        let t1 = b.add_thread();
        b.on(ThreadId::MAIN)
            .fork(t1)
            .write(x)
            .lock(l)
            .write(shared.base().offset(8))
            .unlock(l)
            .join(t1);
        b.on(t1)
            .write(x)
            .lock(l)
            .read(shared.base().offset(8))
            .unlock(l);
        Trace::record(b.build(), SchedulerConfig::jittered(seed)).unwrap()
    }

    #[test]
    fn faithful_reference_matches_production_djit() {
        let trace = racy_trace(5);
        let mut reference = RefHb::new(DetectorConfig::default());
        let mut production = ddrace_detector::Djit::new(DetectorConfig::default());
        feed(&trace, &mut reference);
        feed(&trace, &mut production);
        assert_eq!(
            reference.reports().reports(),
            production.reports().reports()
        );
        assert_eq!(
            reference.reports().occurrences(),
            production.reports().occurrences()
        );
        assert!(!reference.reports().is_empty());
    }

    #[test]
    fn drop_write_write_fault_diverges() {
        let trace = racy_trace(5);
        let mut faulty = RefHb::with_fault(DetectorConfig::default(), Fault::DropWriteWrite);
        let mut production = ddrace_detector::Djit::new(DetectorConfig::default());
        feed(&trace, &mut faulty);
        feed(&trace, &mut production);
        assert_ne!(faulty.reports().reports(), production.reports().reports());
    }

    #[test]
    fn ignore_unlock_fault_reports_phantom_races() {
        let trace = racy_trace(5);
        let mut faulty = RefHb::with_fault(DetectorConfig::default(), Fault::IgnoreUnlock);
        let mut production = ddrace_detector::Djit::new(DetectorConfig::default());
        feed(&trace, &mut faulty);
        feed(&trace, &mut production);
        // The lock-protected word (offset 8, shadow key 0x1000/8 + 1) must
        // now look racy to the faulty detector.
        assert!(faulty.reports().distinct() > production.reports().distinct());
    }

    #[test]
    fn fault_names_round_trip() {
        for fault in [
            Fault::None,
            Fault::DropWriteWrite,
            Fault::IgnoreUnlock,
            Fault::DropAcquire,
        ] {
            assert_eq!(Fault::parse(fault.name()), Ok(fault));
        }
        assert!(Fault::parse("bogus").is_err());
    }
}
