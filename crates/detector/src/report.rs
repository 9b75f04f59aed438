//! Race reports and their deduplicated collection.

use ddrace_program::{AccessKind, Addr, ThreadId};
use std::collections::HashMap;
use std::fmt;

/// The temporal shape of a detected race: which unordered pair was seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// A write unordered with a prior write.
    WriteWrite,
    /// A read unordered with a prior write.
    WriteRead,
    /// A write unordered with a prior read.
    ReadWrite,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::WriteRead => "write-read",
            RaceKind::ReadWrite => "read-write",
        };
        f.write_str(s)
    }
}

/// One side of a racy pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RaceAccess {
    /// The thread that performed the access.
    pub tid: ThreadId,
    /// What it did.
    pub kind: AccessKind,
    /// The thread's logical clock (epoch) at the access — the detector's
    /// timestamp, useful for relating reports to program phases. Zero
    /// when the detector does not track clocks (lockset).
    pub clock: u32,
}

/// A detected data race: two accesses to the same shadow unit, at least
/// one a write, with no happens-before edge between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceReport {
    /// Representative byte address (the first access observed racing).
    pub addr: Addr,
    /// The shadow-memory unit (address at detector granularity).
    pub shadow_key: u64,
    /// The pair's shape.
    pub kind: RaceKind,
    /// The earlier access of the pair.
    pub prior: RaceAccess,
    /// The access that exposed the race.
    pub current: RaceAccess,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} race on {}: {} {} vs {} {}",
            self.kind,
            self.addr,
            self.prior.tid,
            self.prior.kind,
            self.current.tid,
            self.current.kind
        )
    }
}

/// Deduplicated collection of race reports.
///
/// Commercial tools report each racy *program location* once; lacking code
/// locations, we deduplicate by `(shadow_key, kind, prior thread, current
/// thread)` and count repeat occurrences.
///
/// # Examples
///
/// ```
/// use ddrace_detector::{RaceReportSet, RaceReport, RaceKind, RaceAccess};
/// use ddrace_program::{AccessKind, Addr, ThreadId};
///
/// let mut set = RaceReportSet::new();
/// let report = RaceReport {
///     addr: Addr(0x40),
///     shadow_key: 8,
///     kind: RaceKind::WriteRead,
///     prior: RaceAccess { tid: ThreadId(0), kind: AccessKind::Write, clock: 1 },
///     current: RaceAccess { tid: ThreadId(1), kind: AccessKind::Read, clock: 1 },
/// };
/// assert!(set.record(report));   // new
/// assert!(!set.record(report));  // duplicate, merged
/// assert_eq!(set.distinct(), 1);
/// assert_eq!(set.total_occurrences(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RaceReportSet {
    reports: Vec<RaceReport>,
    occurrences: Vec<u64>,
    index: HashMap<(u64, RaceKind, ThreadId, ThreadId), usize>,
}

impl RaceReportSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a race. Returns `true` if it is a new distinct race,
    /// `false` if it merged into an existing report.
    pub fn record(&mut self, report: RaceReport) -> bool {
        let key = (
            report.shadow_key,
            report.kind,
            report.prior.tid,
            report.current.tid,
        );
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.occurrences[*e.get()] += 1;
                false
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.reports.len());
                self.reports.push(report);
                self.occurrences.push(1);
                true
            }
        }
    }

    /// Increments the occurrence count if an identical race is already
    /// recorded; otherwise drops the report. Used once a detector's
    /// distinct-report cap is reached. Returns `true` if it merged.
    pub fn merge_only(&mut self, report: &RaceReport) -> bool {
        let key = (
            report.shadow_key,
            report.kind,
            report.prior.tid,
            report.current.tid,
        );
        if let Some(&i) = self.index.get(&key) {
            self.occurrences[i] += 1;
            true
        } else {
            false
        }
    }

    /// All distinct reports, in first-detection order.
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Occurrence counts aligned with [`reports`](Self::reports).
    pub fn occurrences(&self) -> &[u64] {
        &self.occurrences
    }

    /// Number of distinct races.
    pub fn distinct(&self) -> usize {
        self.reports.len()
    }

    /// Number of distinct shadow units (≈ variables) involved in races.
    pub fn distinct_addresses(&self) -> usize {
        let mut keys: Vec<u64> = self.reports.iter().map(|r| r.shadow_key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Total racy events observed, counting duplicates.
    pub fn total_occurrences(&self) -> u64 {
        self.occurrences.iter().sum()
    }

    /// Returns `true` if no race has been recorded.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Appends a report carrying a pre-merged occurrence count. Used when
    /// rebuilding a global set from per-shard sets whose occurrences were
    /// already accumulated; the caller guarantees the dedup key is not
    /// yet present (each key lives in exactly one shard).
    pub fn record_merged(&mut self, report: RaceReport, occurrences: u64) {
        let key = (
            report.shadow_key,
            report.kind,
            report.prior.tid,
            report.current.tid,
        );
        debug_assert!(!self.index.contains_key(&key));
        self.index.insert(key, self.reports.len());
        self.reports.push(report);
        self.occurrences.push(occurrences);
    }
}

/// A [`RaceReportSet`] that remembers a *global* first-detection sequence
/// number per distinct race, issued from a shared atomic ticket.
///
/// The sharded native monitor keeps one of these per shard. Each dedup
/// key `(shadow_key, kind, prior.tid, current.tid)` maps to exactly one
/// shard (it is a function of `shadow_key`), so per-shard dedup equals
/// global dedup, and a ticket drawn only for *new* distinct races
/// reproduces the serialized detector's first-detection order and its
/// `max_reports` cap exactly: [`merge_seq_report_sets_capped`] sorts by
/// ticket.
#[derive(Debug, Clone, Default)]
pub struct SeqReportSet {
    set: RaceReportSet,
    seqs: Vec<u64>,
}

impl SeqReportSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observed race, mirroring the serialized detector's
    /// cap semantics branch for branch: a duplicate merges into its
    /// existing report (regardless of the cap); a new distinct race draws
    /// a ticket and is kept only while fewer than `max_distinct` tickets
    /// have been issued globally. Returns `true` for a new kept report.
    pub fn record(
        &mut self,
        report: RaceReport,
        ticket: &std::sync::atomic::AtomicU64,
        max_distinct: usize,
    ) -> bool {
        if self.set.merge_only(&report) {
            return false;
        }
        // New distinct race: claim a global first-detection slot, but
        // only if the global cap has room (exact via CAS, so concurrent
        // shards cannot jointly overshoot).
        let seq = ticket.fetch_update(
            std::sync::atomic::Ordering::Relaxed,
            std::sync::atomic::Ordering::Relaxed,
            |c| (c < max_distinct as u64).then_some(c + 1),
        );
        match seq {
            Ok(prev) => {
                let was_new = self.set.record(report);
                debug_assert!(was_new);
                self.seqs.push(prev);
                true
            }
            Err(_) => false,
        }
    }

    /// Records one observed race under an *externally assigned* global
    /// sequence number — for offline replay, the trace index of the
    /// first-detecting access — instead of drawing from a live ticket.
    ///
    /// No cap is applied at record time: a replay worker cannot know how
    /// many distinct races other shards detected *earlier in the trace*,
    /// so it records everything and [`merge_seq_report_sets_capped`]
    /// applies the serialized detector's `max_reports` cap after the
    /// deterministic ascending-seq merge. A duplicate merges into its
    /// existing report; returns `true` for a new distinct report.
    pub fn record_at(&mut self, report: RaceReport, seq: u64) -> bool {
        if self.set.merge_only(&report) {
            return false;
        }
        let was_new = self.set.record(report);
        debug_assert!(was_new);
        self.seqs.push(seq);
        true
    }

    /// The underlying deduplicated set (shard-local order).
    pub fn set(&self) -> &RaceReportSet {
        &self.set
    }

    /// Global first-detection sequence numbers aligned with
    /// `set().reports()`.
    pub fn seqs(&self) -> &[u64] {
        &self.seqs
    }
}

/// Merges per-shard [`SeqReportSet`]s into one [`RaceReportSet`] in
/// global first-detection order (ascending seq), preserving merged
/// occurrence counts, then applies a serialized detector's `max_reports`
/// cap: the first `max_distinct` distinct races in that order are kept,
/// and later distinct races are dropped entirely. That is exactly what a
/// serialized detector at its cap does — a race first seen past the cap
/// never enters its set, so none of that race's occurrences merge either.
/// The live monitor's tickets ([`SeqReportSet::record`]) never exceed the
/// cap, so for it the cap changes nothing; offline replay records
/// uncapped via [`SeqReportSet::record_at`] and relies on it.
pub fn merge_seq_report_sets_capped<'a>(
    shards: impl Iterator<Item = &'a SeqReportSet>,
    max_distinct: usize,
) -> RaceReportSet {
    let mut entries: Vec<(u64, RaceReport, u64)> = Vec::new();
    for shard in shards {
        let reports = shard.set.reports();
        let occurrences = shard.set.occurrences();
        for (i, &seq) in shard.seqs.iter().enumerate() {
            entries.push((seq, reports[i], occurrences[i]));
        }
    }
    entries.sort_unstable_by_key(|&(seq, _, _)| seq);
    entries.truncate(max_distinct);
    let mut merged = RaceReportSet::new();
    for (_, report, occurrences) in entries {
        merged.record_merged(report, occurrences);
    }
    merged
}

/// The sorted, deduplicated shadow keys a slice of reports covers — the
/// *racy-variable set* of a run. This is the granularity at which
/// detector variants are expected to agree (each reports the first race
/// per variable against whatever prior access its metadata retained, so
/// exact pairs differ while the variable set must not), and the
/// granularity at which demand-driven analysis is a subset of
/// continuous. Differential oracles compare runs on it.
pub fn racy_keys(reports: &[RaceReport]) -> Vec<u64> {
    let mut keys: Vec<u64> = reports.iter().map(|r| r.shadow_key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(key: u64, kind: RaceKind, t0: u32, t1: u32) -> RaceReport {
        RaceReport {
            addr: Addr(key * 8),
            shadow_key: key,
            kind,
            prior: RaceAccess {
                tid: ThreadId(t0),
                kind: AccessKind::Write,
                clock: 1,
            },
            current: RaceAccess {
                tid: ThreadId(t1),
                kind: AccessKind::Read,
                clock: 1,
            },
        }
    }

    #[test]
    fn dedup_merges_same_pair() {
        let mut set = RaceReportSet::new();
        assert!(set.record(report(1, RaceKind::WriteRead, 0, 1)));
        assert!(!set.record(report(1, RaceKind::WriteRead, 0, 1)));
        assert_eq!(set.distinct(), 1);
        assert_eq!(set.total_occurrences(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn different_kinds_are_distinct() {
        let mut set = RaceReportSet::new();
        set.record(report(1, RaceKind::WriteRead, 0, 1));
        set.record(report(1, RaceKind::WriteWrite, 0, 1));
        assert_eq!(set.distinct(), 2);
        assert_eq!(set.distinct_addresses(), 1);
    }

    #[test]
    fn different_threads_are_distinct() {
        let mut set = RaceReportSet::new();
        set.record(report(1, RaceKind::WriteRead, 0, 1));
        set.record(report(1, RaceKind::WriteRead, 2, 1));
        set.record(report(1, RaceKind::WriteRead, 0, 2));
        assert_eq!(set.distinct(), 3);
    }

    #[test]
    fn different_addresses_are_distinct() {
        let mut set = RaceReportSet::new();
        set.record(report(1, RaceKind::WriteRead, 0, 1));
        set.record(report(2, RaceKind::WriteRead, 0, 1));
        assert_eq!(set.distinct_addresses(), 2);
    }

    #[test]
    fn empty_set() {
        let set = RaceReportSet::new();
        assert!(set.is_empty());
        assert_eq!(set.distinct(), 0);
        assert_eq!(set.total_occurrences(), 0);
        assert_eq!(set.distinct_addresses(), 0);
        assert!(set.reports().is_empty());
    }

    #[test]
    fn racy_keys_sorts_and_dedups() {
        let reports = [
            report(9, RaceKind::WriteRead, 0, 1),
            report(2, RaceKind::WriteWrite, 0, 1),
            report(9, RaceKind::ReadWrite, 1, 0),
        ];
        assert_eq!(racy_keys(&reports), vec![2, 9]);
        assert_eq!(racy_keys(&[]), Vec::<u64>::new());
    }

    #[test]
    fn seq_sets_merge_in_ticket_order_with_exact_cap() {
        use std::sync::atomic::AtomicU64;
        let ticket = AtomicU64::new(0);
        let mut a = SeqReportSet::new();
        let mut b = SeqReportSet::new();
        // Interleave detections across two "shards"; key 1 → a, key 2 → b.
        assert!(a.record(report(1, RaceKind::WriteRead, 0, 1), &ticket, 3));
        assert!(b.record(report(2, RaceKind::WriteRead, 0, 1), &ticket, 3));
        assert!(!a.record(report(1, RaceKind::WriteRead, 0, 1), &ticket, 3)); // dup merges
        assert!(a.record(report(3, RaceKind::WriteWrite, 0, 1), &ticket, 3));
        // Cap reached globally: a new distinct race is dropped...
        assert!(!b.record(report(4, RaceKind::WriteWrite, 1, 0), &ticket, 3));
        // ...but duplicates of kept races still merge occurrences.
        assert!(!b.record(report(2, RaceKind::WriteRead, 0, 1), &ticket, 3));

        let merged = merge_seq_report_sets_capped([&a, &b].into_iter(), 3);
        assert_eq!(merged.distinct(), 3);
        let keys: Vec<u64> = merged.reports().iter().map(|r| r.shadow_key).collect();
        assert_eq!(keys, vec![1, 2, 3], "global first-detection order");
        assert_eq!(merged.occurrences(), &[2, 2, 1]);
        assert_eq!(merged.total_occurrences(), 5);
    }

    #[test]
    fn record_at_with_capped_merge_matches_serial_cap_semantics() {
        // Offline replay: workers record every race with its global trace
        // index; the cap is applied post-merge. A serialized detector with
        // max_reports=2 fed the same first-detection order keeps races 1
        // and 2 with all their occurrences and drops race 3 entirely.
        let mut a = SeqReportSet::new();
        let mut b = SeqReportSet::new();
        assert!(a.record_at(report(1, RaceKind::WriteRead, 0, 1), 10));
        assert!(b.record_at(report(2, RaceKind::WriteRead, 0, 1), 20));
        assert!(b.record_at(report(3, RaceKind::WriteWrite, 0, 1), 30)); // past cap
        assert!(!a.record_at(report(1, RaceKind::WriteRead, 0, 1), 40)); // dup merges
        assert!(!b.record_at(report(3, RaceKind::WriteWrite, 0, 1), 50)); // dup of dropped

        let merged = merge_seq_report_sets_capped([&a, &b].into_iter(), 2);
        let keys: Vec<u64> = merged.reports().iter().map(|r| r.shadow_key).collect();
        assert_eq!(keys, vec![1, 2]);
        assert_eq!(merged.occurrences(), &[2, 1]);
        // A cap above the race count keeps everything, in first-detection
        // order.
        let full = merge_seq_report_sets_capped([&a, &b].into_iter(), 3);
        let keys: Vec<u64> = full.reports().iter().map(|r| r.shadow_key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(full.occurrences(), &[2, 1, 2]);
    }

    #[test]
    fn record_merged_preserves_counts_and_dedup_index() {
        let mut set = RaceReportSet::new();
        set.record_merged(report(7, RaceKind::ReadWrite, 1, 0), 42);
        assert_eq!(set.distinct(), 1);
        assert_eq!(set.total_occurrences(), 42);
        // The rebuilt index still dedups follow-on records.
        assert!(!set.record(report(7, RaceKind::ReadWrite, 1, 0)));
        assert_eq!(set.total_occurrences(), 43);
    }

    #[test]
    fn display_is_readable() {
        let r = report(1, RaceKind::WriteRead, 0, 1);
        let text = format!("{r}");
        assert!(text.contains("write-read"));
        assert!(text.contains("T0"));
        assert!(text.contains("T1"));
    }
}

ddrace_json::json_unit_enum!(RaceKind {
    WriteWrite,
    WriteRead,
    ReadWrite
});
ddrace_json::json_struct!(RaceAccess { tid, kind, clock });
ddrace_json::json_struct!(RaceReport {
    addr,
    shadow_key,
    kind,
    prior,
    current
});
