//! Parallel offline trace replay through the sharded [`Engine`].
//!
//! Offline detection (`ddrace ingest`) replays a recorded trace through
//! a detector. Serial replay pays the full FastTrack check on the one
//! thread that decodes the trace, so a corpus analyzes no faster than it
//! was recorded. This module fans the expensive part — the per-access
//! shadow checks — out across a worker pool while keeping the result
//! **byte-identical** to serial replay, in two phases per chunk:
//!
//! 1. **Cut-point pass (serial).** The decode thread drives every
//!    synchronization event through the engine's one sync entry point
//!    (the same [`HbClocks`](ddrace_detector::HbClocks) + per-thread
//!    slot machinery the live monitor uses). A thread's vector clock only
//!    changes at its own sync events (plus fork as parent, join, and
//!    barrier releases naming it), so between two consecutive cut points
//!    a lazily taken `(epoch, vc)` snapshot of its slot is *exactly*
//!    what a serialized detector would read at access time. Each data
//!    access becomes a small descriptor — `(global seq, tid, addr,
//!    shadow key, snapshot id)` — appended to the list of its
//!    [`shard_of`] shard.
//! 2. **Replay pass (parallel).** At every chunk boundary the per-shard
//!    descriptor lists ship to a fixed owner worker (`shard % workers`,
//!    so one shard's accesses are always replayed in global trace order
//!    by one worker). Workers split each list into maximal same-kind
//!    runs and drive them through the engine's batch entry points —
//!    one shard-lock acquisition per run
//!    ([`ft_check_read_batch`](ddrace_detector::ft_check_read_batch) /
//!    [`ft_check_write_batch`](ddrace_detector::ft_check_write_batch)).
//!
//! **Why the merge is deterministic.** Shadow state for one variable
//! lives in exactly one shard and that shard's accesses replay in global
//! trace order, so every individual check sees the same shadow state and
//! the same clocks as serial replay — same verdict, same occurrence
//! counts. New distinct races record their *first-detecting access's
//! global trace index* as the sequence number
//! ([`SeqReportSet::record_at`](ddrace_detector::SeqReportSet)); the
//! final merge sorts by that index and applies the `max_reports` cap
//! after sorting, which is precisely the serialized cap (a race first
//! detected past the cap never enters a serialized set, so none of its
//! later occurrences merge either). Report identity, order, occurrence
//! counts, and detector statistics are pinned against the serialized
//! oracle by the `parallel_equivalence` suites.
//!
//! The chunking bounds memory: snapshots and descriptor lists reset at
//! every flush, so peak state is one chunk plus whatever the (bounded)
//! worker channels hold, independent of trace length.

use crate::engine::Engine;
use ddrace_detector::{
    AccessReport, DetectorConfig, DetectorStats, Epoch, FtBatchAccess, Granularity, RaceDetector,
    RaceReportSet, VectorClock,
};
use ddrace_program::{AccessKind, Addr, BarrierId, Op, ThreadId, TraceEvent};
use ddrace_shadow::shard_of;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default accesses buffered per chunk before a flush to the worker
/// pool. Large enough to amortize channel and snapshot overhead, small
/// enough that peak descriptor memory stays a few megabytes.
pub const DEFAULT_CHUNK_ACCESSES: usize = 32 * 1024;

/// In-flight chunks each worker's channel may hold before the decode
/// thread blocks (backpressure bound).
const CHANNEL_DEPTH: usize = 2;

/// Configuration for [`ParallelReplayDetector`].
#[derive(Debug, Clone)]
pub struct ParallelReplayConfig {
    /// Detector settings (granularity, report cap) — must match what a
    /// serial replay of the same trace would use for equivalence.
    pub detector: DetectorConfig,
    /// Shadow shards (power of two, ≥ 1); [`crate::DEFAULT_SHARDS`] by
    /// default.
    pub shards: usize,
    /// Worker threads replaying data accesses (≥ 1).
    pub workers: usize,
    /// Data accesses per chunk between worker flushes.
    pub chunk_accesses: usize,
}

impl Default for ParallelReplayConfig {
    fn default() -> Self {
        ParallelReplayConfig {
            detector: DetectorConfig::default(),
            shards: crate::DEFAULT_SHARDS,
            workers: 4,
            chunk_accesses: DEFAULT_CHUNK_ACCESSES,
        }
    }
}

/// What a finished parallel replay produced.
#[derive(Debug)]
pub struct ParallelReplayOutcome {
    /// Distinct races in the serialized detector's first-detection
    /// order, occurrence counts merged, `max_reports` cap applied.
    pub reports: RaceReportSet,
    /// Detector work counters, identical to a serialized replay.
    pub stats: DetectorStats,
    /// Data accesses replayed (reads + writes).
    pub accesses: u64,
    /// Shard-lock batch acquisitions across all workers. A function of
    /// the trace and the chunk size only — *not* of the worker count —
    /// so it is safe in the byte-reproducible campaign aggregate.
    pub batches: u64,
}

/// One thread's frozen `(epoch, vector clock)` between two cut points.
struct ClockSnap {
    epoch: Epoch,
    vc: VectorClock,
}

/// One data access, deferred for sharded replay.
struct AccessRec {
    /// Global trace index of the access (race sequence number).
    seq: u64,
    /// Shadow key (`granularity.key(addr)`).
    key: u64,
    addr: Addr,
    tid: ThreadId,
    /// Index into the owning chunk's snapshot table.
    snap: u32,
    write: bool,
}

/// One flushed chunk: the snapshot table plus this worker's shard lists.
struct Chunk {
    snaps: Arc<Vec<ClockSnap>>,
    lists: Vec<(u32, Vec<AccessRec>)>,
}

/// The parallel offline replayer. It implements [`RaceDetector`] so the
/// simulator's trace-replay pipeline can run unchanged with detection
/// handed to the worker pool: `on_access` only enqueues a descriptor
/// (and returns a default [`AccessReport`] — suitable for continuous
/// analysis, whose controller ignores per-access verdicts), while sync
/// events update the engine clocks inline. Call
/// [`ParallelReplayDetector::finish`] to drain the workers and collect
/// the merged, serialized-order outcome; until then
/// [`RaceDetector::reports`] and [`RaceDetector::stats`] answer empty.
pub struct ParallelReplayDetector {
    engine: Arc<Engine>,
    granularity: Granularity,
    shards: usize,
    chunk_accesses: usize,
    workers: Vec<JoinHandle<u64>>,
    senders: Vec<SyncSender<Chunk>>,
    /// Snapshot table of the chunk being built.
    snaps: Vec<ClockSnap>,
    /// `thread_snap[tid] = Some(i)` while `snaps[i]` is `tid`'s current
    /// snapshot; invalidated whenever `tid`'s clock may have changed.
    thread_snap: Vec<Option<u32>>,
    /// Per-shard descriptor lists of the chunk being built.
    lists: Vec<Vec<AccessRec>>,
    /// Accesses buffered since the last flush.
    pending: usize,
    /// Total data accesses seen; doubles as the global seq counter.
    accesses: u64,
    /// What `RaceDetector::reports` returns while the run is live.
    empty: RaceReportSet,
}

impl ParallelReplayDetector {
    /// Builds the engine and spawns the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, `chunk_accesses == 0`, or `shards` is
    /// not a power of two.
    pub fn new(config: ParallelReplayConfig) -> ParallelReplayDetector {
        assert!(config.workers >= 1, "parallel replay needs >= 1 worker");
        assert!(config.chunk_accesses >= 1, "chunk size must be positive");
        let engine = Arc::new(Engine::new(config.detector, config.shards));
        let mut senders = Vec::with_capacity(config.workers);
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let (tx, rx) = sync_channel::<Chunk>(CHANNEL_DEPTH);
            let engine = Arc::clone(&engine);
            let handle = std::thread::Builder::new()
                .name(format!("ddrace-replay-{w}"))
                .spawn(move || run_worker(&engine, &rx))
                .expect("spawn replay worker");
            senders.push(tx);
            workers.push(handle);
        }
        ParallelReplayDetector {
            granularity: config.detector.granularity,
            shards: config.shards,
            chunk_accesses: config.chunk_accesses,
            engine,
            workers,
            senders,
            snaps: Vec::new(),
            thread_snap: Vec::new(),
            lists: (0..config.shards).map(|_| Vec::new()).collect(),
            pending: 0,
            accesses: 0,
            empty: RaceReportSet::new(),
        }
    }

    /// [`RaceDetector::replay_event`] under an inherent name. Kept only
    /// for the end-to-end benchmark (`bench_e2e/`), which names it.
    pub fn push_event(&mut self, event: &TraceEvent) {
        self.replay_event(event);
    }

    /// Flushes the final partial chunk, joins the workers, and merges
    /// the per-shard results into the serialized detector's order.
    ///
    /// # Panics
    ///
    /// Propagates a worker panic (a bug in the detector core).
    pub fn finish(mut self) -> ParallelReplayOutcome {
        self.flush_chunk();
        // Closing the channels is the shutdown signal; workers drain
        // what is in flight and return their batch counts.
        self.senders.clear();
        let mut batches = 0u64;
        for handle in self.workers.drain(..) {
            batches += handle.join().expect("replay worker panicked");
        }
        ParallelReplayOutcome {
            reports: self.engine.report_set(),
            stats: self.engine.stats(),
            accesses: self.accesses,
            batches,
        }
    }

    /// Marks `tid`'s snapshot stale after a clock-changing event.
    fn invalidate(&mut self, tid: ThreadId) {
        let slot = self.slot(tid);
        self.thread_snap[slot] = None;
    }

    fn slot(&mut self, tid: ThreadId) -> usize {
        let idx = tid.index();
        if self.thread_snap.len() <= idx {
            self.thread_snap.resize(idx + 1, None);
        }
        idx
    }

    /// Ships the chunk under construction to the worker pool. Shard
    /// `s` always goes to worker `s % workers`, and each channel is
    /// FIFO, so one shard's accesses replay in global order no matter
    /// how chunks interleave across workers.
    fn flush_chunk(&mut self) {
        if self.pending == 0 {
            return;
        }
        let snaps = Arc::new(std::mem::take(&mut self.snaps));
        let workers = self.senders.len();
        let mut per_worker: Vec<Vec<(u32, Vec<AccessRec>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (shard, list) in self.lists.iter_mut().enumerate() {
            if list.is_empty() {
                continue;
            }
            per_worker[shard % workers].push((shard as u32, std::mem::take(list)));
        }
        for (w, lists) in per_worker.into_iter().enumerate() {
            if lists.is_empty() {
                continue;
            }
            self.senders[w]
                .send(Chunk {
                    snaps: Arc::clone(&snaps),
                    lists,
                })
                .expect("replay worker exited early");
        }
        // The snapshot table was moved out; every cached id is stale.
        self.thread_snap.fill(None);
        self.pending = 0;
    }
}

impl RaceDetector for ParallelReplayDetector {
    fn on_thread_start(&mut self, tid: ThreadId, parent: Option<ThreadId>) {
        self.engine
            .on_events(&[TraceEvent::ThreadStarted { tid, parent }], || {});
        self.invalidate(tid);
        if let Some(p) = parent {
            self.invalidate(p);
        }
    }

    fn on_thread_finish(&mut self, _tid: ThreadId) {
        // Happens-before clocks are untouched by thread finish (the
        // ordering edge is the parent's join) — same as the serial path.
    }

    fn on_sync(&mut self, tid: ThreadId, op: &Op) {
        self.engine
            .on_events(&[TraceEvent::Op { tid, op: *op }], || {});
        self.invalidate(tid);
    }

    fn on_barrier_release(&mut self, barrier: BarrierId, participants: &[ThreadId]) {
        // The copy is rare: one per barrier episode.
        self.engine.on_events(
            &[TraceEvent::BarrierReleased {
                barrier,
                participants: participants.to_vec(),
            }],
            || {},
        );
        for &p in participants {
            self.invalidate(p);
        }
    }

    fn on_access(&mut self, tid: ThreadId, addr: Addr, kind: AccessKind) -> AccessReport {
        let seq = self.accesses;
        self.accesses += 1;
        let key = self.granularity.key(addr);
        let shard = shard_of(key, self.shards);
        let slot = self.slot(tid);
        let snap = match self.thread_snap[slot] {
            Some(snap) => snap,
            None => {
                let (epoch, vc) = self.engine.clone_cached_clock(tid);
                let snap = u32::try_from(self.snaps.len()).expect("chunk snapshot table overflow");
                self.snaps.push(ClockSnap { epoch, vc });
                self.thread_snap[slot] = Some(snap);
                snap
            }
        };
        self.lists[shard].push(AccessRec {
            seq,
            key,
            addr,
            tid,
            write: kind.is_write(),
            snap,
        });
        self.pending += 1;
        if self.pending >= self.chunk_accesses {
            self.flush_chunk();
        }
        AccessReport::default()
    }

    fn reports(&self) -> &RaceReportSet {
        &self.empty
    }

    fn stats(&self) -> DetectorStats {
        DetectorStats::default()
    }

    fn name(&self) -> &'static str {
        "fasttrack-parallel"
    }
}

impl std::fmt::Debug for ParallelReplayDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelReplayDetector")
            .field("shards", &self.shards)
            .field("workers", &self.workers.len())
            .field("accesses", &self.accesses)
            .finish_non_exhaustive()
    }
}

/// Worker loop: replays each shard list of each received chunk through
/// the engine in maximal same-kind runs (one shard lock per run).
/// Returns the number of batch lock acquisitions performed.
fn run_worker(engine: &Engine, rx: &Receiver<Chunk>) -> u64 {
    let mut batches = 0u64;
    while let Ok(chunk) = rx.recv() {
        let snaps = chunk.snaps.as_slice();
        for (shard, list) in &chunk.lists {
            let entries: Vec<FtBatchAccess<'_>> = list
                .iter()
                .map(|a| {
                    let snap = &snaps[a.snap as usize];
                    FtBatchAccess {
                        tid: a.tid,
                        addr: a.addr,
                        key: a.key,
                        epoch: snap.epoch,
                        tvc: &snap.vc,
                        seq: a.seq,
                    }
                })
                .collect();
            let mut i = 0;
            while i < list.len() {
                let write = list[i].write;
                let mut j = i + 1;
                while j < list.len() && list[j].write == write {
                    j += 1;
                }
                engine.replay_batch(*shard as usize, write, &entries[i..j]);
                batches += 1;
                i = j;
            }
        }
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrace_detector::FastTrack;
    use ddrace_program::{LockId, ProgramBuilder, SchedulerConfig, Trace};

    /// A workload with every event class the replayer handles: fork and
    /// join edges, lock-protected and unprotected sharing, a barrier,
    /// and enough mixed reads/writes to spread across shards and split
    /// into many homogeneous-kind runs.
    fn busy_trace(seed: u64) -> Trace {
        let mut b = ProgramBuilder::new();
        let shared = b.alloc_shared(512);
        let guarded = b.alloc_shared(64);
        let lock = LockId(1);
        let workers: Vec<_> = (0..4).map(|_| b.add_thread()).collect();
        let mut main = b.on(ddrace_program::ThreadId::MAIN);
        for &t in &workers {
            main = main.fork(t);
        }
        main = main.barrier(ddrace_program::BarrierId(1), 5);
        for &t in &workers {
            main = main.join(t);
        }
        main.read(shared.base());
        for (i, &t) in workers.iter().enumerate() {
            let mut c = b.on(t);
            for k in 0..96u64 {
                // Deterministic per-thread scatter over the shared region.
                let a = Addr(shared.base().0 + (((seed ^ ((i as u64) << 7)) + k * 17) % 64) * 8);
                c = if k % 3 == 0 { c.write(a) } else { c.read(a) };
                if k % 8 == 0 {
                    c = c
                        .lock(lock)
                        .write(Addr(guarded.base().0 + (k % 8) * 8))
                        .unlock(lock);
                }
            }
            c.barrier(ddrace_program::BarrierId(1), 5);
        }
        Trace::record(
            b.build(),
            SchedulerConfig {
                quantum: 7,
                seed,
                jitter: true,
            },
        )
        .expect("record busy trace")
    }

    fn parallel_outcome(
        trace: &Trace,
        detector: DetectorConfig,
        shards: usize,
        workers: usize,
        chunk_accesses: usize,
    ) -> ParallelReplayOutcome {
        let mut par = ParallelReplayDetector::new(ParallelReplayConfig {
            detector,
            shards,
            workers,
            chunk_accesses,
        });
        for event in trace.events() {
            par.replay_event(event);
        }
        par.finish()
    }

    fn assert_matches_serial(
        trace: &Trace,
        detector: DetectorConfig,
        shards: usize,
        workers: usize,
    ) {
        let mut serial = FastTrack::new(detector);
        for event in trace.events() {
            serial.replay_event(event);
        }
        // A tiny chunk forces many flushes, so inter-chunk ordering is
        // actually exercised.
        let out = parallel_outcome(trace, detector, shards, workers, 64);
        assert_eq!(
            out.reports.reports(),
            serial.reports().reports(),
            "distinct reports / order (shards={shards}, workers={workers})"
        );
        assert_eq!(
            out.reports.occurrences(),
            serial.reports().occurrences(),
            "occurrence counts (shards={shards}, workers={workers})"
        );
        assert_eq!(
            out.stats,
            serial.stats(),
            "detector stats (shards={shards}, workers={workers})"
        );
    }

    #[test]
    fn matches_serial_across_shards_and_workers() {
        for seed in [1, 9] {
            let trace = busy_trace(seed);
            for shards in [1, 64] {
                for workers in [1, 4, 8] {
                    assert_matches_serial(&trace, DetectorConfig::default(), shards, workers);
                }
            }
        }
    }

    #[test]
    fn report_cap_matches_serial_semantics() {
        let trace = busy_trace(3);
        let capped = DetectorConfig {
            max_reports: 2,
            ..DetectorConfig::default()
        };
        let mut serial = FastTrack::new(capped);
        for event in trace.events() {
            serial.replay_event(event);
        }
        assert_eq!(serial.reports().distinct(), 2, "workload must hit the cap");
        let out = parallel_outcome(&trace, capped, 64, 4, 64);
        assert_eq!(out.reports.reports(), serial.reports().reports());
        assert_eq!(out.reports.occurrences(), serial.reports().occurrences());
    }

    #[test]
    fn batch_count_is_worker_invariant() {
        let trace = busy_trace(5);
        let cfg = DetectorConfig::default();
        let baseline = parallel_outcome(&trace, cfg, 64, 1, 256);
        assert!(baseline.batches > 0);
        for workers in [2, 8] {
            let out = parallel_outcome(&trace, cfg, 64, workers, 256);
            assert_eq!(
                out.batches, baseline.batches,
                "batches must not depend on worker count (workers={workers})"
            );
            assert_eq!(out.accesses, baseline.accesses);
        }
    }
}
