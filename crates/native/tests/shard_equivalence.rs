//! Pins the sharded engine to the serialized FastTrack detector: same
//! reports (values *and* first-detection order), same occurrence counts,
//! same statistics, and byte-identical recorded traces, at every shard
//! count — so sharding is a pure performance change.
//!
//! Two layers:
//!
//! * A **scripted serial driver** feeds one deterministic pseudorandom
//!   event sequence (fork/join/locks/atomics/reads/writes) from a single
//!   OS thread to monitors at shard counts 1/4/64 and to a raw
//!   [`FastTrack`] fed the exact hook semantics. Serial driving makes
//!   processing order deterministic, so equality is exact, not modulo
//!   schedule.
//! * **Real-thread runs** (thread counts 1/8/64, selectable via
//!   `DDRACE_NATIVE_THREADS` for CI matrixing) assert the
//!   schedule-independent invariants: the live racy-key set matches the
//!   offline replay of the recorded trace, and is identical across shard
//!   counts.
//!
//! Every recording both layers make must also equal the one-record-at-a-
//! time re-encoding of its own events (`common::decode_recording`): the
//! monitor appends each thread's flushed records as one run, and frames
//! must still close after the same record.

mod common;

use common::{decode_recording, thread_counts, SharedBuf};
use ddrace_detector::{racy_keys, DetectorConfig, FastTrack, RaceDetector};
use ddrace_native::{Monitor, MonitorConfig, ThreadToken, DEFAULT_SHARDS, RECORD_FLUSH_THRESHOLD};
use ddrace_program::{AccessKind, Addr, CondId, LockId, Op, ThreadId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// One scripted event; thread slots index into the tokens the driver
/// accumulated so far.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Fork { parent: usize },
    Join { parent: usize, child: usize },
    Lock { slot: usize, lock: u32 },
    Unlock { slot: usize, lock: u32 },
    Atomic { slot: usize, addr: Addr },
    AtomicLoad { slot: usize, addr: Addr },
    AtomicStore { slot: usize, addr: Addr },
    RelaxedLoad { slot: usize, addr: Addr },
    RelaxedStore { slot: usize, addr: Addr },
    RelaxedRmw { slot: usize, addr: Addr },
    CondWait { slot: usize, cond: u32, lock: u32 },
    CondWake { slot: usize, cond: u32, lock: u32 },
    NotifyOne { slot: usize, cond: u32 },
    NotifyAll { slot: usize, cond: u32 },
    Read { slot: usize, addr: Addr },
    Write { slot: usize, addr: Addr },
}

/// Deterministic script: a splitmix64-driven mix of racy and guarded
/// traffic across `threads` logical threads. Slot 0 is the root.
fn script(threads: usize, events: usize, seed: u64) -> Vec<Ev> {
    let mut state = seed;
    let mut rng = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut evs = Vec::with_capacity(events + 2 * threads);
    let mut live = 1usize; // slot 0 exists
    let mut held: Vec<Option<u32>> = vec![None; threads];
    for _ in 0..events {
        let r = rng();
        if live < threads && r % 97 == 0 {
            evs.push(Ev::Fork {
                parent: (r >> 8) as usize % live,
            });
            live += 1;
            continue;
        }
        let slot = (r >> 8) as usize % live;
        let addr = Addr(0x1000 + (r >> 24) % 256 * 8);
        let sync_addr = Addr(0x8000 + (r >> 16) % 4 * 8);
        match r % 19 {
            0..=5 => evs.push(Ev::Write { slot, addr }),
            6..=10 => evs.push(Ev::Read { slot, addr }),
            11 => match held[slot] {
                // Locks strictly nest per thread: one at a time, released
                // before the next acquire.
                None => {
                    let lock = ((r >> 16) % 3) as u32;
                    held[slot] = Some(lock);
                    evs.push(Ev::Lock { slot, lock });
                }
                Some(lock) => {
                    held[slot] = None;
                    evs.push(Ev::Unlock { slot, lock });
                }
            },
            12 => evs.push(Ev::Atomic {
                slot,
                addr: sync_addr,
            }),
            13 => evs.push(Ev::AtomicLoad {
                slot,
                addr: sync_addr,
            }),
            14 => evs.push(Ev::AtomicStore {
                slot,
                addr: sync_addr,
            }),
            15 => evs.push(match (r >> 20) % 3 {
                0 => Ev::RelaxedLoad { slot, addr },
                1 => Ev::RelaxedStore { slot, addr },
                _ => Ev::RelaxedRmw { slot, addr },
            }),
            16 => {
                // A wait/wake pair under whichever lock the slot holds
                // (acquiring one first if needed), mirroring how the
                // native hooks bracket a real condvar wait.
                let cond = ((r >> 16) % 2) as u32;
                let lock = match held[slot] {
                    Some(lock) => lock,
                    None => {
                        let lock = ((r >> 20) % 3) as u32;
                        held[slot] = Some(lock);
                        evs.push(Ev::Lock { slot, lock });
                        lock
                    }
                };
                evs.push(Ev::CondWait { slot, cond, lock });
                evs.push(Ev::CondWake { slot, cond, lock });
            }
            17 => evs.push(Ev::NotifyOne {
                slot,
                cond: ((r >> 16) % 2) as u32,
            }),
            _ => evs.push(Ev::NotifyAll {
                slot,
                cond: ((r >> 16) % 2) as u32,
            }),
        }
    }
    for (slot, h) in held.iter_mut().enumerate() {
        if let Some(lock) = h.take() {
            evs.push(Ev::Unlock { slot, lock });
        }
    }
    // Root joins every forked thread.
    for child in 1..live {
        evs.push(Ev::Join { parent: 0, child });
    }
    evs
}

/// Drives a script into a monitor from the current thread.
fn drive_monitor(monitor: &Monitor, root: ThreadToken, evs: &[Ev]) {
    let mut tokens = vec![root];
    for ev in evs {
        match *ev {
            Ev::Fork { parent } => {
                let t = monitor.fork(tokens[parent]);
                tokens.push(t);
            }
            Ev::Join { parent, child } => monitor.join(tokens[parent], tokens[child]),
            Ev::Lock { slot, lock } => monitor.lock_acquired(tokens[slot], lock),
            Ev::Unlock { slot, lock } => monitor.lock_released(tokens[slot], lock),
            Ev::Atomic { slot, addr } => monitor.atomic(tokens[slot], addr),
            Ev::AtomicLoad { slot, addr } => monitor.atomic_load(tokens[slot], addr),
            Ev::AtomicStore { slot, addr } => monitor.atomic_store(tokens[slot], addr),
            Ev::RelaxedLoad { slot, addr } => {
                monitor.relaxed_load(tokens[slot], addr);
            }
            Ev::RelaxedStore { slot, addr } => {
                monitor.relaxed_store(tokens[slot], addr);
            }
            Ev::RelaxedRmw { slot, addr } => {
                monitor.relaxed_rmw(tokens[slot], addr);
            }
            Ev::CondWait { slot, cond, lock } => monitor.cond_waiting(tokens[slot], cond, lock),
            Ev::CondWake { slot, cond, lock } => monitor.cond_woken(tokens[slot], cond, lock),
            Ev::NotifyOne { slot, cond } => monitor.notify_one(tokens[slot], cond),
            Ev::NotifyAll { slot, cond } => monitor.notify_all(tokens[slot], cond),
            Ev::Read { slot, addr } => {
                monitor.read(tokens[slot], addr);
            }
            Ev::Write { slot, addr } => {
                monitor.write(tokens[slot], addr);
            }
        }
    }
}

/// Drives a script into a raw detector with the exact semantics the
/// monitor hooks use — the serialized oracle.
fn drive_oracle(d: &mut FastTrack, evs: &[Ev]) {
    let mut tids = vec![ThreadId(0)];
    d.on_thread_start(ThreadId(0), None);
    for ev in evs {
        match *ev {
            Ev::Fork { parent } => {
                let tid = ThreadId(tids.len() as u32);
                d.on_thread_start(tid, Some(tids[parent]));
                tids.push(tid);
            }
            Ev::Join { parent, child } => {
                d.on_thread_finish(tids[child]);
                d.on_sync(tids[parent], &Op::Join { child: tids[child] });
            }
            Ev::Lock { slot, lock } => d.on_sync(tids[slot], &Op::Lock { lock: LockId(lock) }),
            Ev::Unlock { slot, lock } => d.on_sync(tids[slot], &Op::Unlock { lock: LockId(lock) }),
            Ev::Atomic { slot, addr } => d.on_sync(tids[slot], &Op::AtomicRmw { addr }),
            Ev::AtomicLoad { slot, addr } => d.on_sync(tids[slot], &Op::AtomicLoad { addr }),
            Ev::AtomicStore { slot, addr } => d.on_sync(tids[slot], &Op::AtomicStore { addr }),
            Ev::RelaxedLoad { slot, addr } => {
                d.on_access(tids[slot], addr, AccessKind::RelaxedLoad);
            }
            Ev::RelaxedStore { slot, addr } => {
                d.on_access(tids[slot], addr, AccessKind::RelaxedStore);
            }
            Ev::RelaxedRmw { slot, addr } => {
                d.on_access(tids[slot], addr, AccessKind::RelaxedRmw);
            }
            Ev::CondWait { slot, cond, lock } => d.on_sync(
                tids[slot],
                &Op::CondWait {
                    cond: CondId(cond),
                    lock: LockId(lock),
                },
            ),
            Ev::CondWake { slot, cond, lock } => d.on_sync(
                tids[slot],
                &Op::CondWake {
                    cond: CondId(cond),
                    lock: LockId(lock),
                },
            ),
            Ev::NotifyOne { slot, cond } => {
                d.on_sync(tids[slot], &Op::NotifyOne { cond: CondId(cond) })
            }
            Ev::NotifyAll { slot, cond } => {
                d.on_sync(tids[slot], &Op::NotifyAll { cond: CondId(cond) })
            }
            Ev::Read { slot, addr } => {
                d.on_access(tids[slot], addr, AccessKind::Read);
            }
            Ev::Write { slot, addr } => {
                d.on_access(tids[slot], addr, AccessKind::Write);
            }
        }
    }
}

fn monitor_at(shards: usize, config: DetectorConfig) -> (Arc<Monitor>, ThreadToken) {
    Monitor::with_monitor_config(MonitorConfig {
        detector: config,
        shards,
    })
}

#[test]
fn scripted_drive_matches_serialized_fasttrack_at_every_shard_count() {
    for (seed, config) in [
        (1u64, DetectorConfig::default()),
        (2, DetectorConfig::default()),
        // A tight report cap exercises the global ticket's exact-cap CAS.
        (
            3,
            DetectorConfig {
                max_reports: 5,
                ..DetectorConfig::default()
            },
        ),
    ] {
        let evs = script(12, 6000, seed);
        let mut oracle = FastTrack::new(config);
        drive_oracle(&mut oracle, &evs);
        let expected_stats = oracle.stats();

        for shards in [1usize, 4, 64] {
            let (monitor, root) = monitor_at(shards, config);
            drive_monitor(&monitor, root, &evs);

            assert_eq!(
                monitor.reports(),
                oracle.reports().reports(),
                "seed {seed}, {shards} shards: reports (values and order)"
            );
            let set = monitor.report_set();
            assert_eq!(
                set.occurrences(),
                oracle.reports().occurrences(),
                "seed {seed}, {shards} shards: occurrence counts"
            );
            assert_eq!(
                set.total_occurrences(),
                oracle.reports().total_occurrences()
            );
            assert_eq!(monitor.race_count(), oracle.reports().distinct());
            assert_eq!(
                monitor.stats(),
                expected_stats,
                "seed {seed}, {shards} shards: statistics"
            );
        }
    }
}

/// Records the scripted drive at `shards` shards, then a forked thread
/// whose writes cross the flush threshold three times, then its join.
fn scripted_recording(shards: usize) -> Vec<u8> {
    let sink = SharedBuf::default();
    let (monitor, root) = Monitor::recording_with_monitor_config(
        MonitorConfig {
            detector: DetectorConfig::default(),
            shards,
        },
        Box::new(sink.clone()),
    )
    .unwrap();
    drive_monitor(&monitor, root, &script(8, 4000, 7));
    let child = monitor.fork(root);
    for i in 0..3 * RECORD_FLUSH_THRESHOLD as u64 + 37 {
        monitor.write(child, Addr(0x20_0000 + i * 8));
    }
    monitor.join(root, child);
    monitor.finish_recording().unwrap();
    assert_eq!(monitor.dropped_records(), 0);
    let bytes = sink.0.lock().unwrap().clone();
    decode_recording(&bytes);
    bytes
}

#[test]
fn scripted_recording_is_byte_identical_across_shard_counts() {
    let traces = [1usize, 4, 64].map(scripted_recording);
    assert!(!traces[0].is_empty());
    assert_eq!(traces[0], traces[1], "1 vs 4 shards: trace bytes");
    assert_eq!(traces[1], traces[2], "4 vs 64 shards: trace bytes");
}

/// Pins the recorder's exact output at the default geometry (what
/// `Monitor::recording` builds). Flush points decide where each thread's
/// accesses land between the sync events, so a change to them shows up
/// here even if it moves every shard count the same way.
#[test]
fn scripted_recording_bytes_match_golden() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scripted_recording.ddrt");
    let actual = scripted_recording(DEFAULT_SHARDS);
    if std::env::var("DDRACE_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun with DDRACE_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "the native recording changed ({} vs {} bytes); if that is \
         intentional, regenerate with DDRACE_UPDATE_GOLDEN=1",
        expected.len(),
        actual.len()
    );
}

/// The real-thread workload: each worker hammers one racy word, one
/// relaxed-atomic word (racy — relaxed carries no edge), one
/// lock-guarded word, and a private word; worker 0 additionally
/// release-publishes a payload the others acquire-consume, and every
/// guarded section exercises the condvar hooks under the real mutex.
/// Addresses are fixed synthetic constants (the monitor never
/// dereferences them), so the racy-key sets are comparable across
/// separate runs; the `Mutex` and the real flag still provide the real
/// ordering the hooks describe.
fn run_workers(monitor: &Arc<Monitor>, root: ThreadToken, workers: usize, iters: usize) {
    let guarded = Arc::new(Mutex::new(0u64));
    let flag = Arc::new(AtomicBool::new(false));
    let racy_addr = Addr(0x1000);
    let relaxed_addr = Addr(0x1800);
    let guarded_addr = Addr(0x2000);
    let payload_addr = Addr(0x3000);
    let flag_addr = Addr(0x3800);
    let mut tokens = Vec::new();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let token = monitor.fork(root);
            tokens.push(token);
            let monitor = Arc::clone(monitor);
            let guarded = Arc::clone(&guarded);
            let flag = Arc::clone(&flag);
            scope.spawn(move || {
                let private_addr = Addr(0x10_0000 * (w as u64 + 1));
                if w == 0 {
                    // Publish: payload write, release store (hook before
                    // the real store so the trace orders them), real flag.
                    monitor.write(token, payload_addr);
                    monitor.atomic_store(token, flag_addr);
                    flag.store(true, Ordering::Release);
                } else {
                    // Consume: real flag first, then the hooks — the
                    // acquire edge makes the payload read race-free.
                    while !flag.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    monitor.atomic_load(token, flag_addr);
                    monitor.read(token, payload_addr);
                }
                for i in 0..iters {
                    monitor.write(token, racy_addr); // unsynchronized
                    monitor.relaxed_store(token, relaxed_addr); // no edge: racy
                    monitor.relaxed_load(token, relaxed_addr);
                    monitor.relaxed_rmw(token, relaxed_addr);
                    monitor.read(token, private_addr);
                    monitor.write(token, private_addr);
                    let g = guarded.lock().unwrap();
                    monitor.lock_acquired(token, 1);
                    monitor.read(token, guarded_addr);
                    monitor.write(token, guarded_addr);
                    if i == 0 {
                        // The condvar vocabulary under the real mutex: a
                        // self-contained wait/wake bracket plus a notify.
                        monitor.notify_one(token, 9);
                        monitor.cond_waiting(token, 9, 1);
                        monitor.cond_woken(token, 9, 1);
                    }
                    monitor.lock_released(token, 1);
                    drop(g);
                }
            });
        }
    });
    for token in tokens {
        monitor.join(root, token);
    }
}

#[test]
fn real_threads_record_vs_live_and_shard_counts_agree() {
    for workers in thread_counts(&[1, 8, 64]) {
        let iters = if workers >= 64 { 20 } else { 60 };
        let mut key_sets = Vec::new();
        for shards in [1usize, 64] {
            let sink = SharedBuf::default();
            let (monitor, root) = Monitor::recording_with_monitor_config(
                MonitorConfig {
                    detector: DetectorConfig::default(),
                    shards,
                },
                Box::new(sink.clone()),
            )
            .unwrap();
            run_workers(&monitor, root, workers, iters);
            monitor.finish_recording().unwrap();
            // Every data hook is checked, whatever the interleaving: one
            // payload access per worker, then 8 per iteration.
            assert_eq!(
                monitor.stats().accesses_checked,
                (workers * (1 + 8 * iters)) as u64,
                "{workers} threads, {shards} shards: every data hook is checked"
            );
            assert_eq!(
                monitor.dropped_records(),
                0,
                "{workers} threads, {shards} shards: quiesced shutdown drops nothing"
            );

            let live_keys = racy_keys(&monitor.reports());
            if workers > 1 {
                assert!(!live_keys.is_empty(), "the racy word must be caught");
            }

            // Offline replay reproduces the live racy-key set.
            let mut offline = FastTrack::new(DetectorConfig::default());
            for event in &sink.events() {
                offline.replay_event(event);
            }
            assert_eq!(
                racy_keys(offline.reports().reports()),
                live_keys,
                "{workers} threads, {shards} shards: record/replay oracle"
            );
            key_sets.push(live_keys);
        }
        assert_eq!(
            key_sets[0], key_sets[1],
            "{workers} threads: racy keys must not depend on shard count"
        );
    }
}
