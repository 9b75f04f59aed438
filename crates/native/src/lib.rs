//! Race detection for **real threads**: a manual-instrumentation monitor
//! backed by the same FastTrack rules the simulator uses, running on a
//! sharded, demand-driven engine built for many-thread scale.
//!
//! The simulation crates reproduce the paper's hardware mechanism; this
//! crate is the deployment surface: annotate the memory accesses and
//! synchronization of a concurrent component, run it on real
//! `std::thread`s, and get happens-before race reports. Three properties
//! make it production-shaped rather than a test-only prototype:
//!
//! * **Sharded shadow state.** Data-access checks touch only the acting
//!   thread's cached clock and the accessed address's shard (N
//!   address-sharded `ShadowTable`s behind per-shard locks), so accesses
//!   to different data never contend. Only synchronization operations —
//!   the rare path — serialize on a global lock. See `engine.rs` and
//!   DESIGN.md ("Sharded shadow state").
//! * **A demand-driven toggle.** [`Monitor::disable`] turns the
//!   data-access hooks into a single relaxed atomic load, mirroring the
//!   paper's demand-driven mode on real threads: keep monitoring dormant
//!   until some indicator (a performance counter, a phase change, a
//!   user signal) demands analysis, then [`Monitor::enable`] it.
//!   Synchronization hooks stay on while disabled — exactly the paper's
//!   split — so the happens-before clocks remain correct and enabling is
//!   sound at any sync boundary.
//! * **Accounted recording.** With [`Monitor::recording`], every issued
//!   access record either reaches the trace or is counted in
//!   [`Monitor::dropped_records`] — shutdown seals buffers instead of
//!   silently clearing them (see `recorder.rs`).
//!
//! Because detection is happens-before-based, verdicts do not depend on
//! the actual interleaving the OS produced: two accesses with no
//! monitor-visible synchronization between them are racy on *every*
//! schedule, so tests written against [`Monitor`] are deterministic. The
//! sharded engine preserves this: reports, their order, and detector
//! statistics are byte-stable versus a serialized
//! [`FastTrack`](ddrace_detector::FastTrack) fed the same events (pinned
//! by the `shard_equivalence` test suite).
//!
//! # Example
//!
//! ```
//! use ddrace_native::{addr_of, Monitor};
//!
//! let (monitor, main_token) = Monitor::new();
//! let data = 42u64;
//! let addr = addr_of(&data);
//!
//! let child_token = monitor.fork(main_token);
//! let m = monitor.clone();
//! let handle = std::thread::spawn(move || {
//!     m.write(child_token, addr); // unsynchronized with main's read
//! });
//! monitor.read(main_token, addr);
//! handle.join().unwrap();
//! monitor.join(main_token, child_token);
//!
//! assert!(monitor.race_count() >= 1);
//! ```
//!
//! ## Hook placement
//!
//! * Call [`Monitor::read`]/[`Monitor::write`] adjacent to the access they
//!   describe (immediately before or after; the tiny window between hook
//!   and access is the usual manual-instrumentation caveat).
//! * Call [`Monitor::lock_acquired`] **after** acquiring the real lock and
//!   [`Monitor::lock_released`] **before** releasing it: the recorded
//!   critical section then nests inside the real one, which can only
//!   under-approximate ordering — conservative in the false-positive-free
//!   direction is impossible for manual hooks, but this placement keeps
//!   the recorded edges truthful.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod engine;
mod parallel;
mod recorder;
mod sampler;

use engine::Engine;
use recorder::Recorder;

pub use parallel::{
    ParallelReplayConfig, ParallelReplayDetector, ParallelReplayOutcome, DEFAULT_CHUNK_ACCESSES,
};
pub use sampler::{PmuToggle, ToggleConfig, ToggleStats};

use ddrace_detector::{DetectorConfig, DetectorStats, RaceReport, RaceReportSet};
use ddrace_program::{AccessKind, Addr, CondId, LockId, Op, ThreadId, TraceEvent};
use ddrace_trace::TraceWriter;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Buffered data accesses per thread before the recorder flushes them to
/// the shared trace writer. Flushing is the *only* point where the data
/// hot path touches a shared lock.
pub const RECORD_FLUSH_THRESHOLD: usize = 1024;

/// Default number of shadow-state shards. 64 keeps per-shard contention
/// negligible at the thread counts the benchmarks exercise (64 real
/// threads) while the per-shard tables stay dense; see DESIGN.md.
pub const DEFAULT_SHARDS: usize = 64;

/// Identifies one registered thread to the monitor. Cheap to copy; send
/// it into the thread it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadToken {
    tid: ThreadId,
}

impl ThreadToken {
    /// The underlying detector thread id.
    pub fn thread_id(self) -> ThreadId {
        self.tid
    }
}

/// Monitor-level configuration: the detector settings plus the engine
/// geometry.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Detector settings (granularity, report cap).
    pub detector: DetectorConfig,
    /// Number of shadow-state shards; must be a power of two. `1` is the
    /// degenerate serialized layout (useful for differential tests).
    pub shards: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            detector: DetectorConfig::default(),
            shards: DEFAULT_SHARDS,
        }
    }
}

/// The race monitor: FastTrack for real threads on a sharded engine.
///
/// Data-access hooks lock only the address's shard (plus the calling
/// thread's own clock cache); sync hooks serialize on one sync lock, as
/// they must — they mutate the global happens-before order. When
/// disabled, data-access hooks are a single atomic load.
#[derive(Debug)]
pub struct Monitor {
    engine: Engine,
    /// The demand-driven gate; checked first on the data-access path.
    enabled: AtomicBool,
    next_tid: AtomicU32,
    recorder: Option<Recorder>,
}

impl Monitor {
    /// Creates a monitor and registers the calling thread as the root.
    pub fn new() -> (Arc<Monitor>, ThreadToken) {
        Self::with_monitor_config(MonitorConfig::default())
    }

    /// Creates a monitor with full control of detector and engine
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is not a power of two.
    pub fn with_monitor_config(config: MonitorConfig) -> (Arc<Monitor>, ThreadToken) {
        Self::build(config, None)
    }

    /// Creates a monitor that also records the monitored execution as a
    /// binary trace into `out` (see `ddrace-trace`). Call
    /// [`Monitor::finish_recording`] after all threads are joined to
    /// flush buffers and write the end-of-trace marker.
    ///
    /// # Errors
    ///
    /// Fails if the trace header cannot be written to `out`.
    pub fn recording(out: Box<dyn Write + Send>) -> io::Result<(Arc<Monitor>, ThreadToken)> {
        Self::recording_with_monitor_config(MonitorConfig::default(), out)
    }

    /// [`Monitor::recording`] with full monitor configuration.
    ///
    /// # Errors
    ///
    /// Fails if the trace header cannot be written to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is not a power of two.
    pub fn recording_with_monitor_config(
        config: MonitorConfig,
        out: Box<dyn Write + Send>,
    ) -> io::Result<(Arc<Monitor>, ThreadToken)> {
        let mut writer = TraceWriter::new(out)?;
        writer.record_event(&TraceEvent::ThreadStarted {
            tid: ThreadId(0),
            parent: None,
        });
        let recorder = Recorder::new(writer, RECORD_FLUSH_THRESHOLD);
        Ok(Self::build(config, Some(recorder)))
    }

    fn build(config: MonitorConfig, recorder: Option<Recorder>) -> (Arc<Monitor>, ThreadToken) {
        let monitor = Arc::new(Monitor {
            engine: Engine::new(config.detector, config.shards),
            enabled: AtomicBool::new(true),
            next_tid: AtomicU32::new(1),
            recorder,
        });
        let root = ThreadToken { tid: ThreadId(0) };
        monitor.engine.on_thread_start(root.tid, None, || {});
        (monitor, root)
    }

    /// Turns data-access analysis (and recording) on. Sound at any sync
    /// boundary: sync hooks run even while disabled, so the
    /// happens-before clocks are always current.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns data-access analysis (and recording) off: subsequent
    /// [`Monitor::read`]/[`Monitor::write`] hooks return after a single
    /// relaxed atomic load. Races completed while disabled are missed —
    /// that is the demand-driven trade the paper quantifies; the
    /// indicator deciding *when* to enable lives outside this crate.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether data-access analysis is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Number of shadow-state shards the engine runs with.
    pub fn shard_count(&self) -> usize {
        self.engine.shard_count()
    }

    /// Flushes every per-thread buffer, seals them (late records are
    /// counted in [`Monitor::dropped_records`], not lost silently),
    /// writes the end-of-trace marker, and returns the number of records
    /// written. Call once, after all monitored threads are joined.
    ///
    /// # Errors
    ///
    /// Fails if the monitor is not recording, if recording was already
    /// finished, or if any trace write failed.
    pub fn finish_recording(&self) -> Result<u64, String> {
        let rec = self
            .recorder
            .as_ref()
            .ok_or("monitor was not created with Monitor::recording")?;
        // Holding the sync lock quiesces sync hooks so the final flush
        // order is a valid continuation of the recorded order; sealing
        // (inside `finish`) closes the data-path straggler window.
        self.engine.with_sync_held(|| rec.finish())
    }

    /// Records that arrived after [`Monitor::finish_recording`] and were
    /// dropped from the trace — counted, never silently discarded.
    /// Always zero for a quiesced shutdown (all threads joined first).
    pub fn dropped_records(&self) -> u64 {
        self.recorder.as_ref().map_or(0, Recorder::dropped)
    }

    /// Registers a new thread forked by `parent`, recording the creation
    /// happens-before edge. Call before (or as the first act of) the new
    /// thread.
    pub fn fork(&self, parent: ThreadToken) -> ThreadToken {
        let tid = ThreadId(self.next_tid.fetch_add(1, Ordering::Relaxed));
        self.engine.on_thread_start(tid, Some(parent.tid), || {
            if let Some(rec) = &self.recorder {
                rec.register(tid);
                rec.flush(parent.tid);
                // Only the ThreadStarted edge: it is exactly what the
                // live engine sees, so replay matches.
                rec.append(TraceEvent::ThreadStarted {
                    tid,
                    parent: Some(parent.tid),
                });
            }
        });
        ThreadToken { tid }
    }

    /// Records that `parent` joined `child` (call **after** the real
    /// `JoinHandle::join` returns).
    pub fn join(&self, parent: ThreadToken, child: ThreadToken) {
        self.engine.on_join(parent.tid, child.tid, || {
            if let Some(rec) = &self.recorder {
                rec.flush(child.tid);
                rec.flush(parent.tid);
                rec.append(TraceEvent::ThreadFinished { tid: child.tid });
                rec.append(TraceEvent::Op {
                    tid: parent.tid,
                    op: Op::Join { child: child.tid },
                });
            }
        });
    }

    /// Records a read of `addr` by the calling thread. Returns `true` if
    /// this access completed a race. A single atomic load when the
    /// monitor is disabled.
    #[inline]
    pub fn read(&self, token: ThreadToken, addr: Addr) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        if let Some(rec) = &self.recorder {
            rec.buffer(token.tid, AccessKind::Read, addr);
        }
        self.engine
            .on_access(token.tid, addr, AccessKind::Read)
            .race
    }

    /// Records a write of `addr` by the calling thread. Returns `true`
    /// if this access completed a race. A single atomic load when the
    /// monitor is disabled.
    #[inline]
    pub fn write(&self, token: ThreadToken, addr: Addr) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        if let Some(rec) = &self.recorder {
            rec.buffer(token.tid, AccessKind::Write, addr);
        }
        self.engine
            .on_access(token.tid, addr, AccessKind::Write)
            .race
    }

    /// Records that the calling thread acquired lock `lock_id` (call
    /// after the real acquisition).
    pub fn lock_acquired(&self, token: ThreadToken, lock_id: u32) {
        self.sync_op(
            token,
            Op::Lock {
                lock: LockId(lock_id),
            },
        );
    }

    /// Records that the calling thread is about to release lock
    /// `lock_id` (call before the real release).
    pub fn lock_released(&self, token: ThreadToken, lock_id: u32) {
        self.sync_op(
            token,
            Op::Unlock {
                lock: LockId(lock_id),
            },
        );
    }

    /// Records an acquire-release atomic on `addr` (e.g. around a real
    /// `AtomicUsize` the component synchronizes through).
    pub fn atomic(&self, token: ThreadToken, addr: Addr) {
        self.sync_op(token, Op::AtomicRmw { addr });
    }

    /// Records a load-acquire of `addr`: synchronization only (adopts
    /// clocks released into the address), never a checked access.
    pub fn atomic_load(&self, token: ThreadToken, addr: Addr) {
        self.sync_op(token, Op::AtomicLoad { addr });
    }

    /// Records a store-release to `addr`: synchronization only
    /// (publishes the thread's clock to the address).
    pub fn atomic_store(&self, token: ThreadToken, addr: Addr) {
        self.sync_op(token, Op::AtomicStore { addr });
    }

    /// Records a relaxed atomic load of `addr`. Relaxed atomics create
    /// no happens-before edges, so this is a *checked* access like
    /// [`read`](Self::read), just tagged with its own kind. Returns
    /// `true` if it completed a race.
    #[inline]
    pub fn relaxed_load(&self, token: ThreadToken, addr: Addr) -> bool {
        self.relaxed_access(token, addr, AccessKind::RelaxedLoad)
    }

    /// Records a relaxed atomic store to `addr` (checked like
    /// [`write`](Self::write)). Returns `true` if it completed a race.
    #[inline]
    pub fn relaxed_store(&self, token: ThreadToken, addr: Addr) -> bool {
        self.relaxed_access(token, addr, AccessKind::RelaxedStore)
    }

    /// Records a relaxed atomic read-modify-write on `addr` (checked as
    /// its write half). Returns `true` if it completed a race.
    #[inline]
    pub fn relaxed_rmw(&self, token: ThreadToken, addr: Addr) -> bool {
        self.relaxed_access(token, addr, AccessKind::RelaxedRmw)
    }

    #[inline]
    fn relaxed_access(&self, token: ThreadToken, addr: Addr, kind: AccessKind) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        if let Some(rec) = &self.recorder {
            rec.buffer(token.tid, kind, addr);
        }
        self.engine.on_access(token.tid, addr, kind).race
    }

    /// Records that the calling thread is arriving at a condvar wait on
    /// `cond_id` while holding guard `lock_id` (call *before* the real
    /// wait: the arrival is the implicit guard release).
    pub fn cond_waiting(&self, token: ThreadToken, cond_id: u32, lock_id: u32) {
        self.sync_op(
            token,
            Op::CondWait {
                cond: CondId(cond_id),
                lock: LockId(lock_id),
            },
        );
    }

    /// Records that the calling thread woke from a condvar wait on
    /// `cond_id` and re-acquired guard `lock_id` (call *after* the real
    /// wait returns: the wake acquires the notifier's clock plus the
    /// guard's).
    pub fn cond_woken(&self, token: ThreadToken, cond_id: u32, lock_id: u32) {
        self.sync_op(
            token,
            Op::CondWake {
                cond: CondId(cond_id),
                lock: LockId(lock_id),
            },
        );
    }

    /// Records a notify-one on `cond_id` (call before the real notify).
    pub fn notify_one(&self, token: ThreadToken, cond_id: u32) {
        self.sync_op(
            token,
            Op::NotifyOne {
                cond: CondId(cond_id),
            },
        );
    }

    /// Records a notify-all on `cond_id` (call before the real notify).
    pub fn notify_all(&self, token: ThreadToken, cond_id: u32) {
        self.sync_op(
            token,
            Op::NotifyAll {
                cond: CondId(cond_id),
            },
        );
    }

    /// Applies one sync op: recorded into the trace and the clocks
    /// inside the same sync critical section, pinning recorded order to
    /// processing order. Sync hooks run even while disabled.
    fn sync_op(&self, token: ThreadToken, op: Op) {
        self.engine.on_sync(token.tid, &op, || {
            if let Some(rec) = &self.recorder {
                rec.flush(token.tid);
                rec.append(TraceEvent::Op { tid: token.tid, op });
            }
        });
    }

    /// Number of distinct races found so far.
    pub fn race_count(&self) -> usize {
        self.engine.race_count()
    }

    /// Snapshot of the distinct race reports found so far, in global
    /// first-detection order.
    pub fn reports(&self) -> Vec<RaceReport> {
        self.engine.report_set().reports().to_vec()
    }

    /// Snapshot of the full deduplicated report set (reports plus
    /// occurrence counts), merged across shards into global
    /// first-detection order.
    pub fn report_set(&self) -> RaceReportSet {
        self.engine.report_set()
    }

    /// Aggregated detector statistics across all shards plus the sync
    /// path.
    pub fn stats(&self) -> DetectorStats {
        self.engine.stats()
    }
}

/// The monitor-visible address of a value: its real memory address. Stable
/// for the value's lifetime, which is all a race check needs.
pub fn addr_of<T>(value: &T) -> Addr {
    Addr(value as *const T as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrace_detector::{FastTrack, RaceDetector};
    use std::sync::{Arc as StdArc, Mutex};

    #[test]
    fn unsynchronized_threads_race_deterministically() {
        // No monitor-level sync edges between the children: flagged on
        // every OS schedule.
        for _ in 0..10 {
            let (monitor, root) = Monitor::new();
            let data = 0u64;
            let addr = addr_of(&data);
            let t1 = monitor.fork(root);
            let t2 = monitor.fork(root);
            let m1 = monitor.clone();
            let m2 = monitor.clone();
            let h1 = std::thread::spawn(move || {
                m1.write(t1, addr);
            });
            let h2 = std::thread::spawn(move || {
                m2.write(t2, addr);
            });
            h1.join().unwrap();
            h2.join().unwrap();
            monitor.join(root, t1);
            monitor.join(root, t2);
            assert_eq!(monitor.race_count(), 1, "write-write race must be found");
        }
    }

    #[test]
    fn lock_protected_threads_never_race() {
        for _ in 0..10 {
            let (monitor, root) = Monitor::new();
            let shared = StdArc::new(Mutex::new(0u64));
            let addr = addr_of(&*shared);
            let mut tokens = Vec::new();
            let mut handles = Vec::new();
            for _ in 0..4 {
                let token = monitor.fork(root);
                tokens.push(token);
                let m = monitor.clone();
                let s = shared.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..100 {
                        let mut guard = s.lock().unwrap();
                        m.lock_acquired(token, 0);
                        m.read(token, addr);
                        *guard += 1;
                        m.write(token, addr);
                        m.lock_released(token, 0);
                        drop(guard);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            for token in tokens {
                monitor.join(root, token);
            }
            assert_eq!(monitor.race_count(), 0, "lock discipline must be clean");
            assert_eq!(*shared.lock().unwrap(), 400);
        }
    }

    #[test]
    fn fork_and_join_edges_order_accesses() {
        let (monitor, root) = Monitor::new();
        let data = 7u64;
        let addr = addr_of(&data);
        // Parent writes before fork: ordered.
        assert!(!monitor.write(root, addr));
        let child = monitor.fork(root);
        let m = monitor.clone();
        let h = std::thread::spawn(move || !m.read(child, addr));
        assert!(h.join().unwrap(), "fork edge must order the read");
        monitor.join(root, child);
        assert!(!monitor.write(root, addr), "join edge must order the write");
        assert_eq!(monitor.race_count(), 0);
    }

    #[test]
    fn atomic_publication_is_clean() {
        let (monitor, root) = Monitor::new();
        let data = 1u64;
        let flag = 0u64;
        let (daddr, faddr) = (addr_of(&data), addr_of(&flag));
        let child = monitor.fork(root);

        // Producer (this thread): write data, release via atomic.
        monitor.write(root, daddr);
        monitor.atomic(root, faddr);

        // Consumer: acquire via atomic, read data.
        let m = monitor.clone();
        let h = std::thread::spawn(move || {
            m.atomic(child, faddr);
            m.read(child, daddr)
        });
        assert!(!h.join().unwrap());
        monitor.join(root, child);
        assert_eq!(monitor.race_count(), 0);
    }

    #[test]
    fn missing_release_hook_is_reported() {
        // The consumer reads without the acquire hook: the monitor cannot
        // see an ordering edge, so it (correctly, per its inputs) reports
        // a race.
        let (monitor, root) = Monitor::new();
        let data = 1u64;
        let daddr = addr_of(&data);
        let child = monitor.fork(root);
        let m = monitor.clone();
        let h = std::thread::spawn(move || m.read(child, daddr));
        // The parent's write is unordered with the child's read (no
        // release/acquire hooks, and the join hook has not run yet).
        monitor.write(root, daddr);
        h.join().unwrap();
        monitor.join(root, child);
        assert!(monitor.race_count() >= 1);
    }

    #[test]
    fn reports_are_inspectable() {
        let (monitor, root) = Monitor::new();
        let data = 0u8;
        let addr = addr_of(&data);
        let child = monitor.fork(root);
        let m = monitor.clone();
        std::thread::spawn(move || {
            m.write(child, addr);
        })
        .join()
        .unwrap();
        monitor.write(root, addr);
        let reports = monitor.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].addr, addr);
        let set = monitor.report_set();
        assert_eq!(set.distinct(), 1);
        assert_eq!(set.total_occurrences(), 1);
    }

    #[test]
    fn disabled_hooks_see_nothing() {
        let (monitor, root) = Monitor::new();
        let data = 0u64;
        let addr = addr_of(&data);
        let child = monitor.fork(root);
        monitor.disable();
        assert!(!monitor.is_enabled());
        let m = monitor.clone();
        std::thread::spawn(move || {
            m.write(child, addr);
        })
        .join()
        .unwrap();
        assert!(!monitor.write(root, addr), "disabled hooks report no race");
        assert_eq!(monitor.race_count(), 0);
        assert_eq!(monitor.stats().accesses_checked, 0);
        // Re-enabled: the same unsynchronized pair is caught again.
        monitor.enable();
        let child2 = monitor.fork(root);
        let m = monitor.clone();
        std::thread::spawn(move || {
            m.write(child2, addr);
        })
        .join()
        .unwrap();
        monitor.write(root, addr);
        assert_eq!(monitor.race_count(), 1);
    }

    #[test]
    fn sync_stays_on_while_disabled() {
        // Disable across a lock handoff; after enabling, the accesses are
        // ordered by the edges tracked while disabled.
        let (monitor, root) = Monitor::new();
        let data = 0u64;
        let addr = addr_of(&data);
        let child = monitor.fork(root);
        monitor.disable();
        monitor.lock_acquired(root, 1);
        monitor.write(root, addr); // unanalyzed
        monitor.lock_released(root, 1);
        monitor.enable();
        monitor.write(root, addr);
        let m = monitor.clone();
        let h = std::thread::spawn(move || {
            m.lock_acquired(child, 1);
            let raced = m.read(child, addr);
            m.lock_released(child, 1);
            raced
        });
        assert!(
            h.join().unwrap(),
            "no HB edge: lock edge alone orders \
            nothing without a release-acquire pair in the right direction"
        );
        monitor.join(root, child);
        assert!(monitor.stats().sync_ops >= 4);
    }

    #[test]
    fn shard_count_is_configurable_and_checked() {
        let (m, _) = Monitor::with_monitor_config(MonitorConfig {
            shards: 4,
            ..MonitorConfig::default()
        });
        assert_eq!(m.shard_count(), 4);
        let (m, _) = Monitor::new();
        assert_eq!(m.shard_count(), DEFAULT_SHARDS);
        assert!(std::panic::catch_unwind(|| {
            Monitor::with_monitor_config(MonitorConfig {
                shards: 3,
                ..MonitorConfig::default()
            })
        })
        .is_err());
    }

    /// A shared `Vec<u8>` sink threads can write into and the test can
    /// read back after `finish_recording`.
    #[derive(Clone, Default, Debug)]
    struct SharedBuf(StdArc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn decode(buf: &SharedBuf) -> Vec<TraceEvent> {
        let bytes = buf.0.lock().unwrap().clone();
        let mut events = Vec::new();
        ddrace_trace::decode_events_into(bytes.as_slice(), |e| events.push(e.clone())).unwrap();
        events
    }

    #[test]
    fn recording_reproduces_the_live_racy_key_set() {
        let sink = SharedBuf::default();
        let (monitor, root) = Monitor::recording(Box::new(sink.clone())).unwrap();
        let racy = 0u64;
        let guarded = Mutex::new(0u64);
        let (racy_addr, guarded_addr) = (addr_of(&racy), addr_of(&guarded));

        let mut tokens = Vec::new();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let token = monitor.fork(root);
                tokens.push(token);
                let monitor = &monitor;
                let guarded_ref = &guarded;
                scope.spawn(move || {
                    for _ in 0..50 {
                        monitor.write(token, racy_addr); // unsynchronized
                        let g = guarded_ref.lock().unwrap();
                        monitor.lock_acquired(token, 1);
                        monitor.read(token, guarded_addr);
                        monitor.write(token, guarded_addr);
                        monitor.lock_released(token, 1);
                        drop(g);
                    }
                });
            }
        });
        for token in tokens {
            monitor.join(root, token);
        }
        let records = monitor.finish_recording().unwrap();
        assert!(records > 0);
        assert!(
            monitor.finish_recording().is_err(),
            "double finish must be rejected"
        );
        assert_eq!(
            monitor.dropped_records(),
            0,
            "quiesced shutdown drops nothing"
        );

        let live_keys = ddrace_detector::racy_keys(&monitor.reports());
        assert!(!live_keys.is_empty(), "the unguarded word must race");

        // Offline re-detection from the recorded trace.
        let events = decode(&sink);
        let mut offline = FastTrack::new(DetectorConfig::default());
        for event in &events {
            offline.replay_event(event);
        }
        let offline_keys = ddrace_detector::racy_keys(offline.reports().reports());
        assert_eq!(offline_keys, live_keys);
    }

    #[test]
    fn recorded_stream_preserves_per_thread_program_order() {
        let sink = SharedBuf::default();
        let (monitor, root) = Monitor::recording(Box::new(sink.clone())).unwrap();
        let words = [0u64; 8];
        // Interleave syncs so the buffer flushes mid-sequence.
        for (i, w) in words.iter().enumerate() {
            monitor.write(root, addr_of(w));
            if i % 3 == 2 {
                monitor.atomic(root, addr_of(&words));
            }
        }
        monitor.finish_recording().unwrap();
        let recorded: Vec<Addr> = decode(&sink)
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Op {
                    op: Op::Write { addr },
                    ..
                } => Some(addr),
                _ => None,
            })
            .collect();
        let expected: Vec<Addr> = words.iter().map(addr_of).collect();
        assert_eq!(recorded, expected, "program order must survive buffering");
    }

    #[test]
    fn post_finish_hooks_are_counted_not_lost() {
        // Regression test for the silent-drop bug: hook traffic after
        // `finish_recording` used to vanish from both trace and
        // accounting. Now every late record lands in `dropped_records`.
        let sink = SharedBuf::default();
        let (monitor, root) = Monitor::recording(Box::new(sink.clone())).unwrap();
        let data = 0u64;
        let addr = addr_of(&data);
        monitor.write(root, addr);
        monitor.finish_recording().unwrap();
        assert_eq!(monitor.dropped_records(), 0);
        // Late data accesses: sealed out of the trace, counted.
        monitor.write(root, addr);
        monitor.read(root, addr);
        assert_eq!(monitor.dropped_records(), 2);
        // Late sync ops: the trace event is dropped and counted (the
        // clock edge itself still applies).
        monitor.atomic(root, addr);
        assert_eq!(monitor.dropped_records(), 3);
        // The recorded trace still decodes cleanly and contains exactly
        // the pre-finish access.
        let writes = decode(&sink)
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Op {
                        op: Op::Write { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(writes, 1);
    }

    #[test]
    fn non_recording_monitor_refuses_finish() {
        let (monitor, _root) = Monitor::new();
        assert!(monitor.finish_recording().is_err());
        assert_eq!(monitor.dropped_records(), 0);
    }

    #[test]
    fn scoped_threads_work_too() {
        let (monitor, root) = Monitor::new();
        let counter = Mutex::new(0u32);
        let addr = addr_of(&counter);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let token = monitor.fork(root);
                let monitor = &monitor;
                let counter = &counter;
                scope.spawn(move || {
                    let mut g = counter.lock().unwrap();
                    monitor.lock_acquired(token, 9);
                    monitor.write(token, addr);
                    *g += 1;
                    monitor.lock_released(token, 9);
                    drop(g);
                });
            }
        });
        assert_eq!(monitor.race_count(), 0);
        assert_eq!(*counter.lock().unwrap(), 3);
    }
}
