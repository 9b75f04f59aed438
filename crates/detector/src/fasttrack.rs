//! The FastTrack happens-before race detector (Flanagan & Freund, PLDI
//! 2009) — the algorithm class behind commercial tools like the Intel
//! Inspector XE detector the paper modifies.
//!
//! Per shadow unit, FastTrack keeps the last write as a scalar **epoch**
//! and the read state *adaptively*: a single epoch while one thread (or a
//! happens-after chain) reads, escalating to a full vector clock only for
//! genuinely concurrent read sharing. The common case is O(1).

use crate::detector::{AccessReport, DetectorConfig, DetectorStats, Granularity, RaceDetector};
use crate::hb::HbClocks;
use crate::report::{RaceAccess, RaceKind, RaceReport, RaceReportSet};
use crate::vc::{Epoch, VectorClock};
use ddrace_program::{AccessKind, Addr, BarrierId, Op, ThreadId};
use ddrace_shadow::ShadowTable;

/// Adaptive read representation.
///
/// The escalated clock is boxed so the common case — epoch reads — keeps
/// the whole shadow entry small enough for one cache line in the open
/// table; escalations are rare (see `DetectorStats::escalations`), so the
/// indirection is off the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ReadState {
    /// Reads are totally ordered; the last one suffices.
    Epoch(Epoch),
    /// Concurrent readers: full vector clock of last reads.
    Vc(Box<VectorClock>),
}

/// One shadow unit's FastTrack state: the last write as a scalar epoch
/// plus the adaptive read representation.
///
/// Public so external engines (the sharded native monitor) can keep
/// per-shard `ShadowTable<FtVarState>`s and run the exact production
/// check via [`ft_check_read`]/[`ft_check_write`] — one implementation of
/// the FastTrack rules, shared by construction, so sharded and serialized
/// deployments cannot drift apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtVarState {
    write: Epoch,
    read: ReadState,
}

impl FtVarState {
    /// The state of a never-accessed shadow unit.
    pub fn fresh() -> Self {
        FtVarState {
            write: Epoch::ZERO,
            read: ReadState::Epoch(Epoch::ZERO),
        }
    }
}

/// Applies the FastTrack *read* rules to one shadow unit.
///
/// `epoch` must be `tid`'s current epoch and `tvc` its current vector
/// clock (FastTrack derives both from its own [`HbClocks`]; the sharded
/// native monitor passes its per-thread cache, which is refreshed at
/// every sync point and therefore identical between sync points).
/// Returns the access verdict plus the race to report, if any; the
/// caller owns report recording and the `races_observed` counter.
pub fn ft_check_read(
    var: &mut FtVarState,
    tid: ThreadId,
    addr: Addr,
    key: u64,
    epoch: Epoch,
    tvc: &VectorClock,
    stats: &mut DetectorStats,
) -> (AccessReport, Option<RaceReport>) {
    // Same-epoch fast path: this thread already read at this epoch.
    if let ReadState::Epoch(r) = var.read {
        if r == epoch {
            stats.fast_path_hits += 1;
            let shared = !var.write.is_zero() && var.write.tid != tid;
            return (
                AccessReport {
                    race: false,
                    shared,
                },
                None,
            );
        }
    }

    let shared = (!var.write.is_zero() && var.write.tid != tid)
        || match &var.read {
            ReadState::Epoch(r) => !r.is_zero() && r.tid != tid,
            ReadState::Vc(_) => true,
        };

    // Write→read race check.
    let race = if !var.write.visible_to(tvc) {
        let prior = var.write;
        Some(RaceReport {
            addr,
            shadow_key: key,
            kind: RaceKind::WriteRead,
            prior: RaceAccess {
                tid: prior.tid,
                kind: AccessKind::Write,
                clock: prior.clock,
            },
            current: RaceAccess {
                tid,
                kind: AccessKind::Read,
                clock: epoch.clock,
            },
        })
    } else {
        None
    };

    // Update read state.
    match &mut var.read {
        ReadState::Epoch(r) => {
            if r.visible_to(tvc) {
                *r = epoch;
            } else {
                // Concurrent with the previous reader: escalate.
                let mut vc = VectorClock::new();
                vc.set(r.tid, r.clock);
                vc.set(tid, epoch.clock);
                var.read = ReadState::Vc(Box::new(vc));
                stats.escalations += 1;
            }
        }
        ReadState::Vc(vc) => vc.set(tid, epoch.clock),
    }

    (
        AccessReport {
            race: race.is_some(),
            shared,
        },
        race,
    )
}

/// Applies the FastTrack *write* rules to one shadow unit; the contract
/// mirrors [`ft_check_read`].
pub fn ft_check_write(
    var: &mut FtVarState,
    tid: ThreadId,
    addr: Addr,
    key: u64,
    epoch: Epoch,
    tvc: &VectorClock,
    stats: &mut DetectorStats,
) -> (AccessReport, Option<RaceReport>) {
    // Same-epoch fast path: this thread already wrote at this epoch.
    if var.write == epoch {
        stats.fast_path_hits += 1;
        return (
            AccessReport {
                race: false,
                shared: false,
            },
            None,
        );
    }

    let shared = (!var.write.is_zero() && var.write.tid != tid)
        || match &var.read {
            ReadState::Epoch(r) => !r.is_zero() && r.tid != tid,
            ReadState::Vc(_) => true,
        };

    // Write→write, then read→write.
    let race = if !var.write.visible_to(tvc) {
        Some(RaceReport {
            addr,
            shadow_key: key,
            kind: RaceKind::WriteWrite,
            prior: RaceAccess {
                tid: var.write.tid,
                kind: AccessKind::Write,
                clock: var.write.clock,
            },
            current: RaceAccess {
                tid,
                kind: AccessKind::Write,
                clock: epoch.clock,
            },
        })
    } else {
        match &var.read {
            ReadState::Epoch(r) if !r.visible_to(tvc) => Some(RaceReport {
                addr,
                shadow_key: key,
                kind: RaceKind::ReadWrite,
                prior: RaceAccess {
                    tid: r.tid,
                    kind: AccessKind::Read,
                    clock: r.clock,
                },
                current: RaceAccess {
                    tid,
                    kind: AccessKind::Write,
                    clock: epoch.clock,
                },
            }),
            ReadState::Vc(vc) => vc.first_excess(tvc).map(|witness| RaceReport {
                addr,
                shadow_key: key,
                kind: RaceKind::ReadWrite,
                prior: RaceAccess {
                    tid: witness,
                    kind: AccessKind::Read,
                    clock: vc.get(witness),
                },
                current: RaceAccess {
                    tid,
                    kind: AccessKind::Write,
                    clock: epoch.clock,
                },
            }),
            _ => None,
        }
    };

    // FastTrack write rules: record the write epoch; a shared read set
    // is discarded (subsequent reads rebuild it).
    var.write = epoch;
    if matches!(var.read, ReadState::Vc(_)) {
        var.read = ReadState::Epoch(Epoch::ZERO);
    }

    (
        AccessReport {
            race: race.is_some(),
            shared,
        },
        race,
    )
}

/// One pending access in a batch replay run: the access itself plus the
/// acting thread's clock snapshot at that point of the execution. Batches
/// let a caller that routes accesses to per-shard shadow tables amortize
/// one table (and lock) acquisition over a whole run of same-shard
/// accesses instead of paying it per access.
#[derive(Debug, Clone, Copy)]
pub struct FtBatchAccess<'a> {
    /// The accessing thread.
    pub tid: ThreadId,
    /// The byte address accessed.
    pub addr: Addr,
    /// The shadow key (address at detector granularity).
    pub key: u64,
    /// `tid`'s epoch at the access.
    pub epoch: Epoch,
    /// `tid`'s vector clock at the access.
    pub tvc: &'a VectorClock,
    /// Caller-defined sequence number (e.g. the global trace index),
    /// passed through to the race callback untouched.
    pub seq: u64,
}

/// Applies the FastTrack *read* rules to a run of accesses against one
/// shadow table, invoking `on_race(report, seq)` per racy access.
///
/// Unlike [`ft_check_read`], the batch entry points own the
/// `accesses_checked` and `races_observed` counters (the caller already
/// hands over `stats`); report recording stays with the callback.
pub fn ft_check_read_batch(
    shadow: &mut ShadowTable<FtVarState>,
    batch: &[FtBatchAccess<'_>],
    stats: &mut DetectorStats,
    mut on_race: impl FnMut(RaceReport, u64),
) {
    for a in batch {
        stats.accesses_checked += 1;
        let var = shadow.get_or_insert_with(a.key, FtVarState::fresh);
        let (_, race) = ft_check_read(var, a.tid, a.addr, a.key, a.epoch, a.tvc, stats);
        if let Some(report) = race {
            stats.races_observed += 1;
            on_race(report, a.seq);
        }
    }
}

/// Applies the FastTrack *write* rules to a run of accesses against one
/// shadow table; the contract mirrors [`ft_check_read_batch`].
pub fn ft_check_write_batch(
    shadow: &mut ShadowTable<FtVarState>,
    batch: &[FtBatchAccess<'_>],
    stats: &mut DetectorStats,
    mut on_race: impl FnMut(RaceReport, u64),
) {
    for a in batch {
        stats.accesses_checked += 1;
        let var = shadow.get_or_insert_with(a.key, FtVarState::fresh);
        let (_, race) = ft_check_write(var, a.tid, a.addr, a.key, a.epoch, a.tvc, stats);
        if let Some(report) = race {
            stats.races_observed += 1;
            on_race(report, a.seq);
        }
    }
}

/// The FastTrack detector.
///
/// # Examples
///
/// Two unsynchronized threads writing the same word race; adding a lock
/// removes the race:
///
/// ```
/// use ddrace_detector::{FastTrack, DetectorConfig, RaceDetector};
/// use ddrace_program::{AccessKind, Addr, ThreadId};
///
/// let mut d = FastTrack::new(DetectorConfig::default());
/// d.on_thread_start(ThreadId(0), None);
/// d.on_thread_start(ThreadId(1), Some(ThreadId(0)));
/// d.on_access(ThreadId(0), Addr(0x40), AccessKind::Write);
/// let r = d.on_access(ThreadId(1), Addr(0x40), AccessKind::Write);
/// assert!(r.race);
/// assert_eq!(d.reports().distinct(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FastTrack {
    clocks: HbClocks,
    shadow: ShadowTable<FtVarState>,
    reports: RaceReportSet,
    stats: DetectorStats,
    granularity: Granularity,
    max_reports: usize,
}

impl FastTrack {
    /// Creates a detector.
    pub fn new(config: DetectorConfig) -> Self {
        FastTrack {
            clocks: HbClocks::new(),
            shadow: ShadowTable::new(),
            reports: RaceReportSet::new(),
            stats: DetectorStats::default(),
            granularity: config.granularity,
            max_reports: config.max_reports,
        }
    }

    /// Shadow units currently tracked.
    pub fn shadow_size(&self) -> usize {
        self.shadow.len()
    }

    fn record(&mut self, report: RaceReport) {
        self.stats.races_observed += 1;
        if self.reports.distinct() < self.max_reports {
            self.reports.record(report);
        } else {
            // At the cap: still merge occurrences of known races, but
            // record no new distinct reports.
            self.reports.merge_only(&report);
        }
    }

    fn check_read(&mut self, tid: ThreadId, addr: Addr, key: u64) -> AccessReport {
        // The epoch is a single counter read and the vector clock is a
        // borrow (clocks, shadow, and stats are disjoint fields, so the
        // borrows coexist without a clone).
        let e = self.clocks.epoch(tid);
        let tvc = self.clocks.thread(tid);
        let var = self.shadow.get_or_insert_with(key, FtVarState::fresh);
        let (verdict, race) = ft_check_read(var, tid, addr, key, e, tvc, &mut self.stats);
        if let Some(report) = race {
            self.record(report);
        }
        verdict
    }

    fn check_write(&mut self, tid: ThreadId, addr: Addr, key: u64) -> AccessReport {
        let e = self.clocks.epoch(tid);
        let tvc = self.clocks.thread(tid);
        let var = self.shadow.get_or_insert_with(key, FtVarState::fresh);
        let (verdict, race) = ft_check_write(var, tid, addr, key, e, tvc, &mut self.stats);
        if let Some(report) = race {
            self.record(report);
        }
        verdict
    }
}

impl RaceDetector for FastTrack {
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
        self.clocks.on_sync(tid, op);
    }

    fn on_barrier_release(&mut self, barrier: BarrierId, participants: &[ThreadId]) {
        self.clocks.on_barrier_release(barrier, participants);
    }

    fn on_access(&mut self, tid: ThreadId, addr: Addr, kind: AccessKind) -> AccessReport {
        self.stats.accesses_checked += 1;
        let key = self.granularity.key(addr);
        if kind.is_write() {
            self.check_write(tid, addr, key)
        } else {
            self.check_read(tid, addr, key)
        }
    }

    fn reports(&self) -> &RaceReportSet {
        &self.reports
    }

    fn stats(&self) -> DetectorStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "fasttrack"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrace_program::LockId;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);
    const X: Addr = Addr(0x40);

    fn detector_with_threads(n: u32) -> FastTrack {
        let mut d = FastTrack::new(DetectorConfig::default());
        d.on_thread_start(T0, None);
        for i in 1..n {
            d.on_thread_start(ThreadId(i), Some(T0));
        }
        d
    }

    #[test]
    fn unsynchronized_write_write_races() {
        let mut d = detector_with_threads(2);
        assert!(!d.on_access(T0, X, AccessKind::Write).race);
        let r = d.on_access(T1, X, AccessKind::Write);
        assert!(r.race);
        assert!(r.shared);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn unsynchronized_write_read_races() {
        let mut d = detector_with_threads(2);
        d.on_access(T0, X, AccessKind::Write);
        let r = d.on_access(T1, X, AccessKind::Read);
        assert!(r.race);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn unsynchronized_read_write_races() {
        let mut d = detector_with_threads(2);
        d.on_access(T0, X, AccessKind::Read);
        let r = d.on_access(T1, X, AccessKind::Write);
        assert!(r.race);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn read_read_never_races() {
        let mut d = detector_with_threads(4);
        for t in 0..4 {
            assert!(!d.on_access(ThreadId(t), X, AccessKind::Read).race);
        }
        assert!(d.reports().is_empty());
        // Concurrent readers escalated the read state.
        assert!(d.stats().escalations >= 1);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let mut d = detector_with_threads(2);
        let l = LockId(0);
        d.on_sync(T0, &Op::Lock { lock: l });
        d.on_access(T0, X, AccessKind::Write);
        d.on_sync(T0, &Op::Unlock { lock: l });
        d.on_sync(T1, &Op::Lock { lock: l });
        let r = d.on_access(T1, X, AccessKind::Write);
        d.on_sync(T1, &Op::Unlock { lock: l });
        assert!(!r.race);
        assert!(r.shared, "lock-protected sharing is still sharing");
        assert!(d.reports().is_empty());
    }

    #[test]
    fn fork_join_ordering_prevents_race() {
        let mut d = FastTrack::new(DetectorConfig::default());
        d.on_thread_start(T0, None);
        d.on_access(T0, X, AccessKind::Write); // before fork
        d.on_thread_start(T1, Some(T0));
        assert!(
            !d.on_access(T1, X, AccessKind::Write).race,
            "fork edge orders"
        );
        d.on_thread_finish(T1);
        d.on_sync(T0, &Op::Join { child: T1 });
        assert!(
            !d.on_access(T0, X, AccessKind::Read).race,
            "join edge orders"
        );
        assert!(d.reports().is_empty());
    }

    #[test]
    fn barrier_separates_phases() {
        let mut d = detector_with_threads(2);
        d.on_access(T0, X, AccessKind::Write);
        let b = BarrierId(0);
        d.on_sync(
            T0,
            &Op::Barrier {
                barrier: b,
                participants: 2,
            },
        );
        d.on_sync(
            T1,
            &Op::Barrier {
                barrier: b,
                participants: 2,
            },
        );
        d.on_barrier_release(b, &[T0, T1]);
        assert!(!d.on_access(T1, X, AccessKind::Write).race);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn same_epoch_accesses_take_fast_path() {
        let mut d = detector_with_threads(1);
        d.on_access(T0, X, AccessKind::Write);
        let before = d.stats().fast_path_hits;
        for _ in 0..10 {
            d.on_access(T0, X, AccessKind::Write);
        }
        assert_eq!(d.stats().fast_path_hits, before + 10);
    }

    #[test]
    fn private_data_is_not_shared() {
        let mut d = detector_with_threads(2);
        let r1 = d.on_access(T0, X, AccessKind::Write);
        assert!(!r1.shared);
        let r2 = d.on_access(T0, X, AccessKind::Read);
        assert!(!r2.shared);
    }

    #[test]
    fn shared_flag_without_race() {
        // T0 writes before forking T1: ordered (no race) but T1's read is
        // still inter-thread sharing.
        let mut d = FastTrack::new(DetectorConfig::default());
        d.on_thread_start(T0, None);
        d.on_access(T0, X, AccessKind::Write);
        d.on_thread_start(T1, Some(T0));
        let r = d.on_access(T1, X, AccessKind::Read);
        assert!(!r.race);
        assert!(r.shared);
    }

    #[test]
    fn duplicate_races_merge() {
        // Alternating unsynchronized writers race on every write (each is
        // unordered with the other thread's previous write); the same
        // (prior, current) pairs merge instead of growing the report set.
        let mut d = detector_with_threads(2);
        for _ in 0..5 {
            d.on_access(T0, X, AccessKind::Write);
            d.on_access(T1, X, AccessKind::Write);
        }
        assert_eq!(d.reports().distinct(), 2); // T0→T1 and T1→T0 pairs
        assert!(d.stats().races_observed >= 5);
        assert!(d.reports().total_occurrences() >= 5);
    }

    #[test]
    fn report_cap_limits_distinct_reports() {
        let mut d = FastTrack::new(DetectorConfig {
            max_reports: 3,
            ..DetectorConfig::default()
        });
        d.on_thread_start(T0, None);
        d.on_thread_start(T1, Some(T0));
        for i in 0..10u64 {
            d.on_access(T0, Addr(0x100 + i * 8), AccessKind::Write);
            d.on_access(T1, Addr(0x100 + i * 8), AccessKind::Write);
        }
        assert_eq!(d.reports().distinct(), 3);
        assert_eq!(d.stats().races_observed, 10);
    }

    #[test]
    fn write_after_shared_read_checks_all_readers() {
        let mut d = detector_with_threads(3);
        d.on_access(T1, X, AccessKind::Read);
        d.on_access(T2, X, AccessKind::Read);
        let r = d.on_access(T0, X, AccessKind::Write);
        assert!(r.race);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::ReadWrite);
        // The witness is one of the concurrent readers.
        let witness = d.reports().reports()[0].prior.tid;
        assert!(witness == T1 || witness == T2);
    }

    #[test]
    fn granularity_affects_detection() {
        // Two different words on the same line: word granularity sees no
        // race, line granularity reports (false-sharing style) one.
        let mut word = detector_with_threads(2);
        word.on_access(T0, Addr(0x40), AccessKind::Write);
        assert!(!word.on_access(T1, Addr(0x48), AccessKind::Write).race);

        let mut line = FastTrack::new(DetectorConfig {
            granularity: Granularity::Line,
            ..DetectorConfig::default()
        });
        line.on_thread_start(T0, None);
        line.on_thread_start(T1, Some(T0));
        line.on_access(T0, Addr(0x40), AccessKind::Write);
        assert!(line.on_access(T1, Addr(0x48), AccessKind::Write).race);
    }

    #[test]
    fn atomic_rmw_through_on_sync_orders_plain_accesses() {
        // A flag-style publication: T0 writes data, RMWs flag; T1 RMWs
        // flag, reads data. No race.
        let mut d = detector_with_threads(2);
        let data = Addr(0x100);
        let flag = Addr(0x200);
        d.on_access(T0, data, AccessKind::Write);
        d.on_sync(T0, &Op::AtomicRmw { addr: flag });
        d.on_sync(T1, &Op::AtomicRmw { addr: flag });
        assert!(!d.on_access(T1, data, AccessKind::Read).race);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn name_and_shadow_size() {
        let mut d = detector_with_threads(1);
        assert_eq!(d.name(), "fasttrack");
        assert_eq!(d.shadow_size(), 0);
        d.on_access(T0, X, AccessKind::Read);
        assert_eq!(d.shadow_size(), 1);
    }
}
