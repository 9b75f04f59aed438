//! The common interface every race detector implements, plus shared
//! configuration and statistics.

use crate::report::RaceReportSet;
use ddrace_program::{AccessKind, Addr, BarrierId, Op, ThreadId, TraceEvent};

/// Shadow-memory granularity: the unit at which accesses are checked.
///
/// Commercial detectors commonly shadow at 4- or 8-byte granularity;
/// line granularity trades false sharing for memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// Every byte is its own shadow unit.
    Byte,
    /// 8-byte units (the default; workload generators emit word-aligned
    /// accesses).
    #[default]
    Word,
    /// 64-byte cache-line units.
    Line,
}

impl Granularity {
    /// The right-shift that maps a byte address to its shadow key.
    pub fn shift(self) -> u32 {
        match self {
            Granularity::Byte => 0,
            Granularity::Word => 3,
            Granularity::Line => 6,
        }
    }

    /// Maps an address to its shadow key.
    pub fn key(self, addr: Addr) -> u64 {
        addr.0 >> self.shift()
    }
}

/// Configuration shared by all detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Shadow granularity.
    pub granularity: Granularity,
    /// Cap on *distinct* reports retained (repeat occurrences of known
    /// races are always counted). Prevents pathological blowup.
    pub max_reports: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            granularity: Granularity::Word,
            max_reports: 10_000,
        }
    }
}

/// What one checked access told the analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessReport {
    /// A (new or repeated) race was detected on this access.
    pub race: bool,
    /// The access touched data previously accessed by a different thread —
    /// the *software-observed sharing* signal the demand controller uses
    /// to decide when it is safe to switch analysis back off.
    pub shared: bool,
}

/// Work counters for a detector, used by the cost model and ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Memory accesses checked.
    pub accesses_checked: u64,
    /// Accesses handled by a same-epoch O(1) fast path.
    pub fast_path_hits: u64,
    /// Read states escalated from epoch to full vector clock.
    pub escalations: u64,
    /// Racy events observed (including duplicates).
    pub races_observed: u64,
    /// Sync operations processed.
    pub sync_ops: u64,
}

impl DetectorStats {
    /// Flushes these counters into the ambient [`ddrace_telemetry`] sink
    /// under `detector.*` names; a no-op outside a campaign job.
    ///
    /// `accesses_checked` is reported as `detector.shadow_ops`: every
    /// checked access is exactly one shadow-memory lookup/update.
    pub fn emit_telemetry(&self) {
        use ddrace_telemetry::counter;
        counter("detector.shadow_ops", self.accesses_checked);
        counter("detector.fast_path_hits", self.fast_path_hits);
        counter("detector.escalations", self.escalations);
        counter("detector.races_observed", self.races_observed);
        counter("detector.sync_ops", self.sync_ops);
    }
}

/// A dynamic data-race detector fed by the execution event stream.
///
/// Synchronization callbacks (`on_sync`, `on_barrier_release`, thread
/// lifecycle) must be invoked for the **whole** execution even while
/// memory-access analysis is disabled; `on_access` is only called for the
/// accesses the tool chooses to analyze. This split is exactly how the
/// paper's modified Inspector XE works: sync tracking is cheap and always
/// on, per-access instrumentation is the expensive part that demand-driven
/// analysis toggles.
pub trait RaceDetector {
    /// A thread became runnable; `parent` is `None` only for the root.
    fn on_thread_start(&mut self, tid: ThreadId, parent: Option<ThreadId>);

    /// A thread executed its last operation.
    fn on_thread_finish(&mut self, tid: ThreadId);

    /// A synchronization operation executed. Implementations must ignore
    /// non-sync ops so callers may forward everything.
    fn on_sync(&mut self, tid: ThreadId, op: &Op);

    /// A barrier released all its participants.
    fn on_barrier_release(&mut self, barrier: BarrierId, participants: &[ThreadId]);

    /// Checks one analyzed memory access.
    fn on_access(&mut self, tid: ThreadId, addr: Addr, kind: AccessKind) -> AccessReport;

    /// The races found so far.
    fn reports(&self) -> &RaceReportSet;

    /// Work counters.
    fn stats(&self) -> DetectorStats;

    /// A short name for tables ("fasttrack", "djit", "lockset").
    fn name(&self) -> &'static str;

    /// Feeds one recorded event to the detector under continuous
    /// analysis: the one place that maps the event stream onto the hooks
    /// above. An op that touches memory ([`Op::memory_word`]) and is not
    /// synchronization ([`Op::is_sync`]) is a checked access: plain and
    /// relaxed loads, stores and RMWs, since relaxed atomics carry no
    /// happens-before edge. Every other op, acq/rel atomics included,
    /// goes to [`RaceDetector::on_sync`], which ignores `Compute`.
    fn replay_event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::ThreadStarted { tid, parent } => self.on_thread_start(*tid, *parent),
            TraceEvent::ThreadFinished { tid } => self.on_thread_finish(*tid),
            TraceEvent::BarrierReleased {
                barrier,
                participants,
            } => self.on_barrier_release(*barrier, participants),
            TraceEvent::Op { tid, op } => match op.memory_word() {
                Some((addr, kind)) if !op.is_sync() => {
                    self.on_access(*tid, addr, kind);
                }
                _ => self.on_sync(*tid, op),
            },
        }
    }
}

/// Forwarding impl so a caller can lend a detector to a pipeline (e.g. a
/// replay run) and keep ownership — `Box<&mut D>` coerces to a boxed
/// trait object without moving `D`.
impl<T: RaceDetector + ?Sized> RaceDetector for &mut T {
    fn on_thread_start(&mut self, tid: ThreadId, parent: Option<ThreadId>) {
        (**self).on_thread_start(tid, parent);
    }

    fn on_thread_finish(&mut self, tid: ThreadId) {
        (**self).on_thread_finish(tid);
    }

    fn on_sync(&mut self, tid: ThreadId, op: &Op) {
        (**self).on_sync(tid, op);
    }

    fn on_barrier_release(&mut self, barrier: BarrierId, participants: &[ThreadId]) {
        (**self).on_barrier_release(barrier, participants);
    }

    fn on_access(&mut self, tid: ThreadId, addr: Addr, kind: AccessKind) -> AccessReport {
        (**self).on_access(tid, addr, kind)
    }

    fn reports(&self) -> &RaceReportSet {
        (**self).reports()
    }

    fn stats(&self) -> DetectorStats {
        (**self).stats()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_keys() {
        assert_eq!(Granularity::Byte.key(Addr(0x47)), 0x47);
        assert_eq!(Granularity::Word.key(Addr(0x47)), 0x8);
        assert_eq!(Granularity::Line.key(Addr(0x47)), 0x1);
        assert_eq!(Granularity::default(), Granularity::Word);
    }

    #[test]
    fn word_granularity_groups_same_word() {
        let g = Granularity::Word;
        assert_eq!(g.key(Addr(0x40)), g.key(Addr(0x47)));
        assert_ne!(g.key(Addr(0x40)), g.key(Addr(0x48)));
    }

    #[test]
    fn default_config() {
        let c = DetectorConfig::default();
        assert_eq!(c.granularity, Granularity::Word);
        assert!(c.max_reports > 0);
    }

    /// Logs the hook each replayed op reaches — `Some(kind)` for
    /// `on_access`, `None` for `on_sync` — and forwards it to FastTrack.
    struct Probe(crate::FastTrack, Vec<Option<AccessKind>>);

    impl RaceDetector for Probe {
        fn on_thread_start(&mut self, tid: ThreadId, parent: Option<ThreadId>) {
            self.0.on_thread_start(tid, parent);
        }
        fn on_thread_finish(&mut self, tid: ThreadId) {
            self.0.on_thread_finish(tid);
        }
        fn on_sync(&mut self, tid: ThreadId, op: &Op) {
            self.1.push(None);
            self.0.on_sync(tid, op);
        }
        fn on_barrier_release(&mut self, barrier: BarrierId, participants: &[ThreadId]) {
            self.0.on_barrier_release(barrier, participants);
        }
        fn on_access(&mut self, tid: ThreadId, addr: Addr, kind: AccessKind) -> AccessReport {
            self.1.push(Some(kind));
            self.0.on_access(tid, addr, kind)
        }
        fn reports(&self) -> &RaceReportSet {
            self.0.reports()
        }
        fn stats(&self) -> DetectorStats {
            self.0.stats()
        }
        fn name(&self) -> &'static str {
            "probe"
        }
    }

    #[test]
    fn replay_event_routes_every_op() {
        use ddrace_program::{CondId, LockId, SemId};
        // Per op: the hook it must reach, and how many sync ops FastTrack
        // counts for it. Exhaustive, so a new `Op` variant must be added.
        let expected = |op: &Op| match op {
            Op::Read { .. } => (Some(AccessKind::Read), 0),
            Op::Write { .. } => (Some(AccessKind::Write), 0),
            Op::RelaxedLoad { .. } => (Some(AccessKind::RelaxedLoad), 0),
            Op::RelaxedStore { .. } => (Some(AccessKind::RelaxedStore), 0),
            Op::RelaxedRmw { .. } => (Some(AccessKind::RelaxedRmw), 0),
            Op::AtomicRmw { .. }
            | Op::AtomicLoad { .. }
            | Op::AtomicStore { .. }
            | Op::Lock { .. }
            | Op::Unlock { .. }
            | Op::Barrier { .. }
            | Op::Fork { .. }
            | Op::Join { .. }
            | Op::Post { .. }
            | Op::WaitSem { .. }
            | Op::CondWait { .. }
            | Op::CondWake { .. }
            | Op::NotifyOne { .. }
            | Op::NotifyAll { .. } => (None, 1),
            // Reaches `on_sync`, which ignores it.
            Op::Compute { .. } => (None, 0),
        };
        let (addr, barrier, child) = (Addr(0x40), BarrierId::new(0), ThreadId::new(1));
        let (lock, cond, sem) = (LockId::new(0), CondId::new(0), SemId::new(0));
        let ops = [
            Op::Read { addr },
            Op::Write { addr },
            Op::AtomicRmw { addr },
            Op::AtomicLoad { addr },
            Op::AtomicStore { addr },
            Op::RelaxedLoad { addr },
            Op::RelaxedStore { addr },
            Op::RelaxedRmw { addr },
            Op::Lock { lock },
            Op::Unlock { lock },
            Op::Barrier {
                barrier,
                participants: 2,
            },
            Op::Fork { child },
            Op::Join { child },
            Op::Post { sem },
            Op::WaitSem { sem },
            Op::CondWait { cond, lock },
            Op::CondWake { cond, lock },
            Op::NotifyOne { cond },
            Op::NotifyAll { cond },
            Op::Compute { cycles: 5 },
        ];
        let kinds: std::collections::HashSet<_> = ops.iter().map(Op::kind_name).collect();
        assert_eq!(kinds.len(), ops.len(), "one sample per Op variant");

        let mut probe = Probe(crate::FastTrack::new(DetectorConfig::default()), Vec::new());
        for (tid, parent) in [(ThreadId::MAIN, None), (child, Some(ThreadId::MAIN))] {
            probe.replay_event(&TraceEvent::ThreadStarted { tid, parent });
        }
        for op in ops {
            let before = probe.stats();
            probe.1.clear();
            let tid = ThreadId::MAIN;
            probe.replay_event(&TraceEvent::Op { tid, op });
            let after = probe.stats();
            let (hook, synced) = expected(&op);
            assert_eq!(probe.1, [hook], "{op:?}");
            let checked = after.accesses_checked - before.accesses_checked;
            assert_eq!(checked, u64::from(hook.is_some()), "{op:?}");
            assert_eq!(after.sync_ops - before.sync_ops, synced, "{op:?}");
        }
    }
}

ddrace_json::json_unit_enum!(Granularity { Byte, Word, Line });
ddrace_json::json_struct!(DetectorConfig {
    granularity,
    max_reports
});
ddrace_json::json_struct!(DetectorStats {
    accesses_checked,
    fast_path_hits,
    escalations,
    races_observed,
    sync_ops
});
