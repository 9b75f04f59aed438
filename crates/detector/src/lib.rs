//! Dynamic data-race detectors for the ddrace reproduction of
//! *"Demand-driven software race detection using hardware performance
//! counters"* (Greathouse et al., ISCA 2011).
//!
//! The paper modifies the happens-before race detector inside Intel
//! Inspector XE. This crate provides that substrate from scratch:
//!
//! * [`FastTrack`] — the epoch-optimized happens-before detector
//!   (Flanagan & Freund), the algorithm class commercial tools use. This
//!   is the detector the demand-driven controller toggles.
//! * [`Djit`] — a full-vector-clock happens-before detector, the design
//!   point FastTrack improves on; kept for the A1 ablation.
//! * [`LockSet`] — an Eraser-style lockset detector as the classic
//!   pre-happens-before baseline.
//!
//! All three implement [`RaceDetector`]: synchronization callbacks stay on
//! for the whole run (cheap, keeps clocks correct), while per-access
//! checking — the expensive part — is invoked only for analyzed accesses.
//!
//! # Example
//!
//! ```
//! use ddrace_detector::{DetectorConfig, FastTrack, RaceDetector};
//! use ddrace_program::{AccessKind, Addr, LockId, Op, ThreadId};
//!
//! let mut d = FastTrack::new(DetectorConfig::default());
//! d.on_thread_start(ThreadId(0), None);
//! d.on_thread_start(ThreadId(1), Some(ThreadId(0)));
//!
//! // Lock-protected accesses: no race.
//! d.on_sync(ThreadId(0), &Op::Lock { lock: LockId(0) });
//! d.on_access(ThreadId(0), Addr(0x40), AccessKind::Write);
//! d.on_sync(ThreadId(0), &Op::Unlock { lock: LockId(0) });
//! d.on_sync(ThreadId(1), &Op::Lock { lock: LockId(0) });
//! let checked = d.on_access(ThreadId(1), Addr(0x40), AccessKind::Read);
//! assert!(!checked.race);
//! assert!(checked.shared); // ...but it *is* inter-thread sharing
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod detector;
mod djit;
mod fasttrack;
mod hb;
mod lockset;
mod render;
mod report;
mod vc;

pub use detector::{AccessReport, DetectorConfig, DetectorStats, Granularity, RaceDetector};
pub use djit::Djit;
pub use fasttrack::{
    ft_check_read, ft_check_read_batch, ft_check_write, ft_check_write_batch, FastTrack,
    FtBatchAccess, FtVarState,
};
pub use hb::HbClocks;
pub use lockset::LockSet;
pub use render::{render_report, render_summary};
pub use report::{
    merge_seq_report_sets_capped, racy_keys, RaceAccess, RaceKind, RaceReport, RaceReportSet,
    SeqReportSet,
};
pub use vc::{Epoch, VectorClock, INLINE_THREADS};
