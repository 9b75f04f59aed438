//! The sharded FastTrack engine behind [`crate::Monitor`].
//!
//! The serialized prototype funneled every hook through one global
//! `Mutex<FastTrack>`. This engine splits that state along its natural
//! seams so the data-access hot path — the part executed per memory
//! access — touches only state *local* to the access:
//!
//! * **One cell per thread.** FastTrack needs the acting thread's epoch
//!   on every access, and its vector clock only when the shadow unit was
//!   last touched by another thread or a write meets an escalated read
//!   set. In the monitor API a thread's clock is only ever advanced by
//!   calls made with its own token (fork and join are the *parent's*
//!   calls; see `ThreadToken`), so a copy refreshed at the thread's own
//!   sync points is exact between sync points — the data path reads it
//!   without the sync lock. The cell keeps the epoch's clock in an atomic,
//!   which the check reads without a lock, beside a slot mutex that holds
//!   the vector clock and the thread's trace records not yet flushed,
//!   already encoded as its trace stream bytes and flushed as one run
//!   (see `recorder.rs`). A check locks the slot at most once, and only
//!   when it needs another thread's component; a recording monitor locks
//!   it once more after the check, to buffer the record.
//! * **Address-sharded shadow state.** The `u64 → FtVarState` shadow map
//!   becomes `N` [`ShadowTable`] shards behind per-shard mutexes, routed
//!   by [`shard_of`]. Accesses to different shards never contend; the
//!   FastTrack check itself is the exact production code
//!   ([`ft_check_read`]/[`ft_check_write`]), shared with the serialized
//!   detector by construction.
//! * **A global first-detection ticket.** Each per-shard
//!   [`SeqReportSet`] draws a sequence number from one shared atomic
//!   only for *new* distinct races, respecting the `max_reports` cap
//!   exactly (CAS, no overshoot). Because a race's dedup key is a
//!   function of its shadow key, each distinct race lives in exactly one
//!   shard, so sorting by ticket reproduces the serialized detector's
//!   first-detection report order — pinned byte-stable by the
//!   equivalence tests.
//!
//! Synchronization serializes on one sync lock, through one entry point,
//! [`Engine::on_events`]: it runs the caller's recording step and applies
//! the events to the happens-before clocks in the same critical section,
//! so the recorded sync order is the order the clocks saw. Sync is the
//! rare path; the paper's premise is that data accesses outnumber sync
//! by orders of magnitude.
//!
//! Lock order: `sync ≺ shard ≺ slot ≺ writer`. The data path holds one
//! shard and, only when its check needs another thread's clock
//! component, its own slot inside it; it records after releasing the
//! shard, holding its slot and then the trace writer (only to flush a
//! full buffer). Sync-path callers hold the sync lock and lock slots one
//! at a time, each then the writer to flush it. [`Engine::report_set`]
//! holds every shard, taken in index order, and nothing else. Nothing
//! holds two slots, nothing holding a slot or the writer waits for a
//! shard, and nothing takes the sync lock after a shard or slot.

use ddrace_detector::{
    ft_check_read, ft_check_read_batch, ft_check_write, ft_check_write_batch,
    merge_seq_report_sets_capped, AccessReport, ClockView, DetectorConfig, DetectorStats, Epoch,
    FtBatchAccess, FtVarState, Granularity, HbClocks, RaceReportSet, SeqReportSet, VectorClock,
};
use ddrace_program::{AccessKind, Addr, ThreadId, TraceEvent};
use ddrace_shadow::{shard_of, ShadowTable};
use ddrace_trace::EncodedOps;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Maximum registry segments: segment `s` holds `2^s` thread cells, so 32
/// segments cover every representable `ThreadId`.
const REGISTRY_SEGMENTS: usize = 32;

/// One thread's entry in the registry: its own clock component, read by
/// its data hooks without a lock, beside its slot.
#[derive(Debug, Default)]
pub(crate) struct ThreadCell {
    /// The thread's own component of its clock, i.e. its epoch's clock.
    /// Written by [`Engine::refresh`] under the sync lock, by calls made
    /// with the thread's own token or its parent's fork (the
    /// `ThreadToken` contract), so a relaxed load on the thread's own
    /// data path sees the latest value.
    clock: AtomicU32,
    slot: Mutex<ThreadSlot>,
}

impl ThreadCell {
    /// The thread's slot, locked (`slot` in the lock order). Inline: out
    /// of line, it made the data hooks measurably slower.
    #[inline]
    pub(crate) fn slot(&self) -> MutexGuard<'_, ThreadSlot> {
        self.slot.lock().unwrap()
    }

    /// `tid`'s current epoch; `self` must be `tid`'s cell.
    #[inline]
    fn epoch(&self, tid: ThreadId) -> Epoch {
        Epoch::new(tid, self.clock.load(Ordering::Relaxed))
    }
}

/// One thread's slot: its cached vector clock, and the data ops it
/// recorded since its last flush.
#[derive(Debug, Default)]
pub(crate) struct ThreadSlot {
    vc: VectorClock,
    /// Trace records not yet flushed to the writer, already in stream
    /// bytes; always empty on a monitor that does not record.
    pub(crate) pending: EncodedOps,
}

/// The acting thread's clock as its data-path check reads it: its own
/// component from the cell's epoch, without a lock; another thread's
/// component, or the whole clock, from its slot, which the first such
/// read locks while the caller holds a shard (`shard ≺ slot`) and which
/// stays locked until the check ends, so a check locks it at most once.
struct CellClock<'a> {
    epoch: Epoch,
    cell: &'a ThreadCell,
    slot: OnceCell<MutexGuard<'a, ThreadSlot>>,
}

impl CellClock<'_> {
    #[cold]
    fn vc(&self) -> &VectorClock {
        &self.slot.get_or_init(|| self.cell.slot()).vc
    }
}

impl ClockView for CellClock<'_> {
    #[inline]
    fn component(&self, tid: ThreadId) -> u32 {
        if tid == self.epoch.tid {
            self.epoch.clock
        } else {
            self.vc().get(tid)
        }
    }

    fn with_clock<R>(&self, f: impl FnOnce(&VectorClock) -> R) -> R {
        f(self.vc())
    }
}

/// Lock-free-growable registry of per-thread cells.
///
/// A `Vec` behind an `RwLock` would put a shared read lock on every data
/// access; instead, cells live in power-of-two segments that are
/// allocated at most once each (`OnceLock`), so looking up a cell is an
/// index computation plus one atomic load — no lock shared across
/// threads. Cell `i` (thread `ThreadId(i)`) lives in segment
/// `log2(i+1)` at offset `i+1 - 2^seg`.
#[derive(Default)]
struct ThreadRegistry {
    segments: [OnceLock<Box<[ThreadCell]>>; REGISTRY_SEGMENTS],
}

impl ThreadRegistry {
    /// The cell for `tid`, allocating its segment on first touch.
    #[inline]
    fn cell(&self, tid: ThreadId) -> &ThreadCell {
        let n = tid.index() + 1;
        let seg = n.ilog2() as usize;
        let segment = self.segments[seg].get_or_init(|| {
            (0..(1usize << seg))
                .map(|_| ThreadCell::default())
                .collect()
        });
        &segment[n - (1usize << seg)]
    }
}

impl std::fmt::Debug for ThreadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRegistry").finish_non_exhaustive()
    }
}

/// State mutated only under the sync lock.
#[derive(Debug, Default)]
struct SyncState {
    clocks: HbClocks,
    sync_ops: u64,
}

/// One shard: a slice of the shadow map plus its reports and counters.
#[derive(Debug, Default)]
struct Shard {
    shadow: ShadowTable<FtVarState>,
    reports: SeqReportSet,
    stats: DetectorStats,
    /// Checks of [`Engine::on_access`] whose verdict was `shared`: the
    /// demand controller's input (see `sampler.rs`). Kept out of
    /// [`DetectorStats`], whose fields every `RunResult` serializes.
    shared: u64,
}

/// The sharded engine. See the module docs for the architecture.
#[derive(Debug)]
pub(crate) struct Engine {
    sync: Mutex<SyncState>,
    threads: ThreadRegistry,
    shards: Box<[Mutex<Shard>]>,
    /// Global first-detection ticket; its value is the number of distinct
    /// races kept so far (see [`SeqReportSet::record`]).
    ticket: AtomicU64,
    granularity: Granularity,
    max_reports: usize,
}

impl Engine {
    /// Builds an engine with `shards` shards (power of two, ≥ 1).
    pub(crate) fn new(config: DetectorConfig, shards: usize) -> Engine {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        Engine {
            sync: Mutex::default(),
            threads: ThreadRegistry::default(),
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            ticket: AtomicU64::new(0),
            granularity: config.granularity,
            max_reports: config.max_reports,
        }
    }

    /// Number of shadow shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `tid`'s registry cell: one lookup serves both steps of a data
    /// hook, its check and its record.
    #[inline]
    pub(crate) fn cell(&self, tid: ThreadId) -> &ThreadCell {
        self.threads.cell(tid)
    }

    /// Runs `f` on every allocated slot in thread-id order, locking one
    /// slot at a time. Forks draw ids before they reach the sync lock, so
    /// segments may be allocated out of order: a missing one is skipped.
    pub(crate) fn for_each_slot(&self, mut f: impl FnMut(ThreadId, &mut ThreadSlot)) {
        for (seg, segment) in self.threads.segments.iter().enumerate() {
            let Some(cells) = segment.get() else { continue };
            for (i, cell) in cells.iter().enumerate() {
                let tid = ThreadId(((1usize << seg) - 1 + i) as u32);
                f(tid, &mut cell.slot());
            }
        }
    }

    /// Refreshes `tid`'s cached clock, and the epoch beside it, from the
    /// authoritative clocks; the caller holds the sync lock
    /// (`sync ≺ slot`).
    fn refresh(&self, sync: &SyncState, tid: ThreadId) {
        let cell = self.cell(tid);
        let vc = sync.clocks.thread(tid);
        cell.slot().vc.clone_from(vc);
        cell.clock.store(vc.get(tid), Ordering::Relaxed);
    }

    /// The one sync entry point. Under the sync lock, runs `record`, then
    /// applies `events` to the clocks in order — thread start, thread
    /// finish, sync op, barrier release — and refreshes the slot of every
    /// thread whose clock they advance. Recording and applying share one
    /// critical section, so recorded order is clock order. Data-access
    /// events are not passed here (their clocks do not move). Returns what
    /// `record` returns.
    pub(crate) fn on_events<R>(&self, events: &[TraceEvent], record: impl FnOnce() -> R) -> R {
        let mut sync = self.sync.lock().unwrap();
        let recorded = record();
        for event in events {
            match event {
                TraceEvent::ThreadStarted { tid, parent } => {
                    sync.clocks.on_thread_start(*tid, *parent);
                    self.refresh(&sync, *tid);
                    // Fork advances the parent's clock too.
                    if let Some(p) = parent {
                        self.refresh(&sync, *p);
                    }
                }
                TraceEvent::ThreadFinished { tid } => sync.clocks.on_thread_finish(*tid),
                TraceEvent::Op { tid, op } => {
                    if op.is_sync() {
                        sync.sync_ops += 1;
                    }
                    sync.clocks.on_sync(*tid, op);
                    self.refresh(&sync, *tid);
                }
                TraceEvent::BarrierReleased {
                    barrier,
                    participants,
                } => {
                    sync.clocks.on_barrier_release(*barrier, participants);
                    for &p in participants {
                        self.refresh(&sync, p);
                    }
                }
            }
        }
        recorded
    }

    /// Snapshot of `tid`'s cached `(epoch, vector clock)`. Between two of
    /// `tid`'s sync points the cached clock is exact (see the module
    /// docs), so a replay driver that snapshots lazily after each sync
    /// event gets the same clocks a serialized detector would read at
    /// access time.
    pub(crate) fn clone_cached_clock(&self, tid: ThreadId) -> (Epoch, VectorClock) {
        let cell = self.cell(tid);
        (cell.epoch(tid), cell.slot().vc.clone())
    }

    /// Replays a run of read (or, if `write`, write) accesses that all
    /// map to `shard`, under one shard-lock acquisition. Races are
    /// recorded with their caller-chosen sequence numbers
    /// ([`SeqReportSet::record_at`]): offline replay uses the access's
    /// global trace index, so the post-merge sort reproduces the
    /// serialized detector's first-detection order without the live
    /// ticket.
    pub(crate) fn replay_batch(&self, shard: usize, write: bool, batch: &[FtBatchAccess<'_>]) {
        let mut shard = self.shards[shard].lock().unwrap();
        let Shard {
            shadow,
            reports,
            stats,
            ..
        } = &mut *shard;
        let on_race = |report, seq| {
            reports.record_at(report, seq);
        };
        if write {
            ft_check_write_batch(shadow, batch, stats, on_race);
        } else {
            ft_check_read_batch(shadow, batch, stats, on_race);
        }
    }

    /// Checks one data access by `tid`, whose registry cell is `cell`:
    /// the hot path. Locks the address's shard and reads `tid`'s epoch
    /// without a lock; it locks `tid`'s slot, under the shard and at most
    /// once, only when the check needs another thread's clock component
    /// or the whole clock (see [`ft_check_read`]) — never the sync lock. Inline: its
    /// one caller is in `lib.rs`, and without the hint the release build
    /// calls it out of line, about 2 ns slower per hook.
    #[inline]
    pub(crate) fn on_access(
        &self,
        tid: ThreadId,
        cell: &ThreadCell,
        addr: Addr,
        kind: AccessKind,
    ) -> AccessReport {
        let epoch = cell.epoch(tid);
        let clock = CellClock {
            epoch,
            cell,
            slot: OnceCell::new(),
        };
        let key = self.granularity.key(addr);
        let mut shard = self.shards[shard_of(key, self.shards.len())]
            .lock()
            .unwrap();
        // Split borrows so the shadow entry, report set, and counters can
        // be touched together.
        let Shard {
            shadow,
            reports,
            stats,
            shared,
        } = &mut *shard;
        stats.accesses_checked += 1;
        let var = shadow.get_or_insert_with(key, FtVarState::fresh);
        let (verdict, race) = if kind.is_write() {
            ft_check_write(var, tid, addr, key, epoch, &clock, stats)
        } else {
            ft_check_read(var, tid, addr, key, epoch, &clock, stats)
        };
        *shared += u64::from(verdict.shared);
        if let Some(report) = race {
            stats.races_observed += 1;
            reports.record(report, &self.ticket, self.max_reports);
        }
        verdict
    }

    /// Number of distinct races kept so far — the ticket value, exact by
    /// construction (one ticket per kept distinct race).
    pub(crate) fn race_count(&self) -> usize {
        self.ticket.load(std::sync::atomic::Ordering::Relaxed) as usize
    }

    /// Merges per-shard report sets into global first-detection order,
    /// applying the `max_reports` cap *after* the merge. Live hooks never
    /// issue more tickets than the cap, so there it changes nothing.
    /// Offline replay ([`Engine::replay_batch`]) records uncapped, and the cap here
    /// equals a serialized detector capping at first detection: a race
    /// whose first-detection seq sorts past the cap never entered a
    /// serialized set either (so none of its occurrences merged).
    pub(crate) fn report_set(&self) -> RaceReportSet {
        let guards: Vec<MutexGuard<'_, Shard>> =
            self.shards.iter().map(|s| s.lock().unwrap()).collect();
        merge_seq_report_sets_capped(guards.iter().map(|g| &g.reports), self.max_reports)
    }

    /// Accesses checked and how many of them were `shared`, summed over
    /// the shards one lock at a time as [`Engine::stats`] does: a check
    /// racing the sum may be counted in this call or the next. Only
    /// [`Engine::on_access`] counts `shared`; offline replay has no
    /// demand toggle to feed.
    pub(crate) fn checked_and_shared(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(checked, shared), shard| {
            let shard = shard.lock().unwrap();
            (
                checked + shard.stats.accesses_checked,
                shared + shard.shared,
            )
        })
    }

    /// Aggregated detector statistics: per-shard counters summed, plus
    /// the sync-path operation count. Deterministic (sums commute).
    pub(crate) fn stats(&self) -> DetectorStats {
        let mut total = DetectorStats {
            sync_ops: self.sync.lock().unwrap().sync_ops,
            ..DetectorStats::default()
        };
        for shard in self.shards.iter() {
            let s = shard.lock().unwrap().stats;
            total.accesses_checked += s.accesses_checked;
            total.fast_path_hits += s.fast_path_hits;
            total.escalations += s.escalations;
            total.races_observed += s.races_observed;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_check_locks_the_slot_only_for_another_threads_component_and_then_keeps_it() {
        let (me, other) = (ThreadId(1), ThreadId(0));
        let cell = ThreadCell::default();
        cell.clock.store(3, Ordering::Relaxed);
        cell.slot().vc.set(other, 5);
        let clock = CellClock {
            epoch: cell.epoch(me),
            cell: &cell,
            slot: OnceCell::new(),
        };
        assert_eq!(clock.component(me), 3);
        assert!(cell.slot.try_lock().is_ok(), "own component: no lock");
        assert_eq!(clock.component(other), 5);
        assert!(cell.slot.try_lock().is_err(), "held to the check's end");
        assert_eq!(clock.component(ThreadId(2)), 0);
        assert_eq!(clock.with_clock(|vc| vc.get(other)), 5);
        drop(clock);
        assert!(cell.slot.try_lock().is_ok(), "released with the check");
    }
}
