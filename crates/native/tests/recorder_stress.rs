//! Stress tests proving the recorder never *silently* drops an access
//! record: every issued record is either decoded from the trace or
//! counted in [`Monitor::dropped_records`]. Regression coverage for the
//! two shutdown bugs sealing fixed (a writer-less flush clearing
//! buffers, and the quiescence gap between the final drain and taking
//! the writer).
//!
//! Each recording must also equal the one-record-at-a-time re-encoding
//! of its own events (`common::decode_recording`); at 8 threads and up
//! it spans several frames, so a frame closes inside a flushed run.
//!
//! `DDRACE_NATIVE_THREADS` selects one worker count (CI matrixes over
//! 1, 8 and 64); default runs 1 and 8.

mod common;

use common::{thread_counts, SharedBuf};
use ddrace_native::Monitor;
use ddrace_program::{Op, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts decoded plain data accesses (reads + writes; sync ops are
/// appended directly by sync hooks and are not part of the accounting).
fn data_events(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Op {
                    op: Op::Read { .. } | Op::Write { .. },
                    ..
                }
            )
        })
        .count()
}

#[test]
fn quiesced_shutdown_records_every_issued_access() {
    for workers in thread_counts(&[1, 8]) {
        // Enough accesses per thread to cross the flush threshold several
        // times, interleaved with syncs that force mid-stream flushes.
        let per_thread = 3 * ddrace_native::RECORD_FLUSH_THRESHOLD + 37;
        let sink = SharedBuf::default();
        let (monitor, root) = Monitor::recording(Box::new(sink.clone())).unwrap();
        let issued = AtomicU64::new(0);
        let mut tokens = Vec::new();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let token = monitor.fork(root);
                tokens.push(token);
                let monitor = &monitor;
                let issued = &issued;
                scope.spawn(move || {
                    // Per-thread distinct addresses, ascending: lets the
                    // decoder check program order per thread below.
                    let base = 0x10_0000 * (w as u64 + 1);
                    for i in 0..per_thread {
                        monitor.write(token, ddrace_program::Addr(base + i as u64 * 8));
                        issued.fetch_add(1, Ordering::Relaxed);
                        if i % 701 == 700 {
                            monitor.atomic(token, ddrace_program::Addr(0x42));
                        }
                    }
                });
            }
        });
        for token in tokens {
            monitor.join(root, token);
        }
        monitor.finish_recording().unwrap();

        let events = sink.events();
        assert_eq!(
            data_events(&events) as u64,
            issued.load(Ordering::Relaxed),
            "{workers} workers: every issued access must be in the trace"
        );
        assert_eq!(
            monitor.dropped_records(),
            0,
            "{workers} workers: a quiesced shutdown drops nothing"
        );

        // Per-thread program order survives buffering and flushes.
        for w in 0..workers {
            let base = 0x10_0000 * (w as u64 + 1);
            let addrs: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Op {
                        op: Op::Write { addr },
                        ..
                    } if addr.0 >= base && addr.0 < base + 0x10_0000 => Some(addr.0),
                    _ => None,
                })
                .collect();
            let expected: Vec<u64> = (0..per_thread).map(|i| base + i as u64 * 8).collect();
            assert_eq!(addrs, expected, "worker {w}: program order");
        }
    }
}

#[test]
fn concurrent_finish_accounts_for_every_access() {
    // Threads keep issuing accesses *while* the main thread finishes the
    // recording — the exact straggler window the sealed buffers close.
    // No record may be silently lost: decoded + dropped == issued.
    for workers in thread_counts(&[1, 8]) {
        let sink = SharedBuf::default();
        let (monitor, root) = Monitor::recording(Box::new(sink.clone())).unwrap();
        let issued = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..workers {
                // Intentionally no monitor.join afterwards: joins after
                // finish would append (counted) sync events and muddy the
                // data-access equation below.
                let token = monitor.fork(root);
                let monitor = &monitor;
                let issued = &issued;
                scope.spawn(move || {
                    let base = 0x10_0000 * (w as u64 + 1);
                    for i in 0..20_000u64 {
                        monitor.write(token, ddrace_program::Addr(base + (i % 512) * 8));
                        issued.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Finish mid-stream, racing the workers.
            monitor.finish_recording().unwrap();
        });

        let decoded = data_events(&sink.events()) as u64;
        let dropped = monitor.dropped_records();
        let total = issued.load(Ordering::Relaxed);
        // The invariant is the equation, not any particular split: on a
        // busy (or single-CPU) host the finish can win the race before
        // any worker runs, making decoded == 0 a legitimate outcome.
        assert_eq!(
            decoded + dropped,
            total,
            "{workers} workers: decoded ({decoded}) + dropped ({dropped}) must equal issued ({total})"
        );
    }
}
