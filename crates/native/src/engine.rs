//! The sharded FastTrack engine behind [`crate::Monitor`].
//!
//! The serialized prototype funneled every hook through one global
//! `Mutex<FastTrack>`. This engine splits that state along its natural
//! seams so the data-access hot path — the part executed per memory
//! access — touches only state *local* to the access:
//!
//! * **One slot per thread.** FastTrack needs the acting thread's epoch
//!   and vector clock on every access. In the monitor API a thread's
//!   clock is only ever advanced by calls made with its own token (fork
//!   and join are the *parent's* calls), so a copy refreshed at the
//!   thread's own sync points is exact between sync points — the data
//!   path reads it without the sync lock. The same slot holds the
//!   thread's trace records not yet flushed, already encoded as its
//!   trace stream bytes and flushed as one run (see `recorder.rs`), so
//!   a recorded access locks one per-thread mutex for both.
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
//! Lock order: `sync ≺ slot ≺ {shard, writer}`. Sync-path callers hold
//! the sync lock and lock slots one at a time; the data path holds its
//! own slot, then takes the trace writer (only to flush a full buffer)
//! and one shard, one after the other, never both. Nothing holds two
//! slots or two shards, or takes the sync lock after a slot or shard.

use ddrace_detector::{
    ft_check_read, ft_check_read_batch, ft_check_write, ft_check_write_batch,
    merge_seq_report_sets_capped, AccessReport, DetectorConfig, DetectorStats, Epoch,
    FtBatchAccess, FtVarState, Granularity, HbClocks, RaceReportSet, SeqReportSet, VectorClock,
};
use ddrace_program::{AccessKind, Addr, ThreadId, TraceEvent};
use ddrace_shadow::{shard_of, ShadowTable};
use ddrace_trace::EncodedOps;
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Maximum registry segments: segment `s` holds `2^s` thread slots, so 32
/// segments cover every representable `ThreadId`.
const REGISTRY_SEGMENTS: usize = 32;

/// One thread's slot: its cached view of its own happens-before clock,
/// and the data ops it recorded since its last flush.
#[derive(Debug)]
pub(crate) struct ThreadSlot {
    epoch: Epoch,
    vc: VectorClock,
    /// Trace records not yet flushed to the writer, already in stream
    /// bytes; always empty on a monitor that does not record.
    pub(crate) pending: EncodedOps,
}

impl ThreadSlot {
    fn empty() -> Self {
        ThreadSlot {
            epoch: Epoch::ZERO,
            vc: VectorClock::new(),
            pending: EncodedOps::default(),
        }
    }
}

/// Lock-free-growable registry of per-thread slots.
///
/// A `Vec` behind an `RwLock` would put a shared read lock on every data
/// access; instead, slots live in power-of-two segments that are
/// allocated at most once each (`OnceLock`), so looking up a slot is an
/// index computation plus one atomic load — no lock shared across
/// threads. Slot `i` (thread `ThreadId(i)`) lives in segment
/// `log2(i+1)` at offset `i+1 - 2^seg`.
#[derive(Default)]
struct ThreadRegistry {
    segments: [OnceLock<Box<[Mutex<ThreadSlot>]>>; REGISTRY_SEGMENTS],
}

impl ThreadRegistry {
    /// The slot for `tid`, allocating its segment on first touch.
    fn slot(&self, tid: ThreadId) -> &Mutex<ThreadSlot> {
        let n = tid.index() + 1;
        let seg = n.ilog2() as usize;
        let segment = self.segments[seg].get_or_init(|| {
            (0..(1usize << seg))
                .map(|_| Mutex::new(ThreadSlot::empty()))
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

    /// `tid`'s slot, locked (`slot` in the lock order). Inline: out of
    /// line, it made the enabled data hook measurably slower.
    #[inline]
    pub(crate) fn slot(&self, tid: ThreadId) -> MutexGuard<'_, ThreadSlot> {
        self.threads.slot(tid).lock().unwrap()
    }

    /// Runs `f` on every allocated slot in thread-id order, locking one
    /// slot at a time. Forks draw ids before they reach the sync lock, so
    /// segments may be allocated out of order: a missing one is skipped.
    pub(crate) fn for_each_slot(&self, mut f: impl FnMut(ThreadId, &mut ThreadSlot)) {
        for (seg, segment) in self.threads.segments.iter().enumerate() {
            let Some(slots) = segment.get() else { continue };
            for (i, slot) in slots.iter().enumerate() {
                let tid = ThreadId(((1usize << seg) - 1 + i) as u32);
                f(tid, &mut slot.lock().unwrap());
            }
        }
    }

    /// Refreshes `tid`'s cached clock from the authoritative clocks; the
    /// caller holds the sync lock (`sync ≺ slot`).
    fn refresh(&self, sync: &SyncState, tid: ThreadId) {
        let mut slot = self.slot(tid);
        slot.epoch = sync.clocks.epoch(tid);
        slot.vc.clone_from(sync.clocks.thread(tid));
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
        let slot = self.slot(tid);
        (slot.epoch, slot.vc.clone())
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

    /// Checks one data access by `tid`: the hot path. Locks `tid`'s
    /// slot, runs `record` on its pending trace records, then checks the
    /// access under the same guard, locking the address's shard — never
    /// the sync lock.
    pub(crate) fn on_access(
        &self,
        tid: ThreadId,
        addr: Addr,
        kind: AccessKind,
        record: impl FnOnce(&mut EncodedOps),
    ) -> AccessReport {
        let mut slot = self.slot(tid);
        record(&mut slot.pending);
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
            ft_check_write(var, tid, addr, key, slot.epoch, &slot.vc, stats)
        } else {
            ft_check_read(var, tid, addr, key, slot.epoch, &slot.vc, stats)
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
