//! Simulated performance monitoring unit (PMU) for the ddrace reproduction
//! of *"Demand-driven software race detection using hardware performance
//! counters"* (Greathouse et al., ISCA 2011).
//!
//! Models what the paper uses on real Nehalem hardware: a programmable
//! [`Counter`] with event selection, sampling ("sample-after"
//! thresholds), overflow interrupts, and configurable interrupt **skid**
//! — plus the [`SharingIndicator`] the demand-driven controller consumes,
//! which programs one such counter per core, in three flavors: realistic
//! HITM sampling, the idealized oracle, and disabled.
//!
//! # Example
//!
//! ```
//! use ddrace_pmu::{IndicatorMode, SharingIndicator};
//! use ddrace_cache::{CacheConfig, CacheHierarchy, CoreId};
//! use ddrace_program::{AccessKind, Addr};
//!
//! let mut mem = CacheHierarchy::new(CacheConfig::nehalem(2));
//! let mut indicator = SharingIndicator::new(IndicatorMode::hitm_default(), 2);
//!
//! mem.access(CoreId(0), Addr(0x40), AccessKind::Write);
//! let r = mem.access(CoreId(1), Addr(0x40), AccessKind::Read);
//! // With the default 20-access skid the signal arrives a little later;
//! // the HITM itself is already counted.
//! indicator.observe(CoreId(1), &r, AccessKind::Read);
//! assert_eq!(indicator.events_counted(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The perf_event_open driver (feature `linux-pmu`) is the one place the
// crate speaks raw syscalls; everything else stays safe code. Without
// the feature the crate forbids unsafe outright, as it always has.
#![cfg_attr(not(feature = "linux-pmu"), forbid(unsafe_code))]
#![deny(unsafe_code)]

pub mod backend;
mod counter;
mod event;
mod indicator;

pub use counter::{Counter, CounterConfig, Overflow, PmuConfigError};
pub use event::PmuEventKind;
pub use indicator::{IndicatorMode, SharingIndicator, SharingSignal};
