//! Counter backends: where the sharing indicator's numbers come from.
//!
//! The simulator ([`SharingIndicator`](crate::SharingIndicator), one
//! [`Counter`](crate::Counter) per core) models the paper's hardware;
//! this module abstracts the *source* of the counts so the
//! demand-driven toggle can also be driven by a real PMU on a real
//! thread. [`PmuBackend`] is the contract; two implementations
//! exist:
//!
//! * [`SimPmu`] — the deterministic simulator counter, always available,
//!   default everywhere. Campaign/fuzz/ingest aggregates never consume
//!   anything else, so determinism-sensitive paths are unaffected by
//!   whatever hardware the host has.
//! * `LinuxPerf` (feature `linux-pmu`, Linux on x86_64/aarch64 only) — a
//!   raw-syscall `perf_event_open(2)` driver: HITM-class raw events with
//!   generic fallbacks, enable/disable/reset ioctls, an mmap'd ring
//!   buffer for sampling overflows, and multiplexing scaling from
//!   `time_enabled`/`time_running`.
//!
//! [`open_backend`] is the factory: it walks the fallback ladder
//! (env-disable → feature/OS/arch gates → per-event open attempts) and
//! *always* returns a working backend — falling back to [`SimPmu`] with a
//! structured [`BackendError`] explaining why hardware was not used.

use std::fmt;

pub mod probe;
pub mod sim;

#[cfg(all(
    target_os = "linux",
    feature = "linux-pmu",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod perf;

#[cfg(all(
    target_os = "linux",
    feature = "linux-pmu",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use perf::LinuxPerf;
pub use probe::{probe, ProbeReport};
pub use sim::{SimFeeder, SimPmu};

/// Hardware event class a backend is asked to count.
///
/// Deliberately coarser than [`PmuEventKind`](crate::PmuEventKind): real
/// hardware exposes model-specific encodings, so the driver maps each
/// class to whatever the host supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwEvent {
    /// HITM-class sharing event: loads served from a modified line in
    /// another core's cache (the paper's trigger). Model-specific; the
    /// Linux driver tries known raw encodings plus the
    /// `DDRACE_PERF_RAW_HITM` override before giving up.
    Hitm,
    /// Generic fallback: last-level-cache misses. Over-approximates
    /// sharing (any miss fires) but exists on effectively every core.
    CacheMisses,
    /// Software fallback: the kernel's task clock. Always openable even
    /// under strict `perf_event_paranoid`; time-based, so it degrades the
    /// indicator to periodic wakeups.
    TaskClock,
}

impl fmt::Display for HwEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HwEvent::Hitm => "hitm",
            HwEvent::CacheMisses => "cache-misses",
            HwEvent::TaskClock => "task-clock",
        };
        f.write_str(s)
    }
}

/// What to open: the event class and an optional sampling period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendConfig {
    /// Event class to count.
    pub event: HwEvent,
    /// Overflow threshold: interrupt every `period` events. `None` opens
    /// a counting-only backend (no overflow stream).
    pub period: Option<u64>,
}

impl BackendConfig {
    /// The demand-driven default: sample HITM-class events with the
    /// given period.
    pub fn hitm_sampling(period: u64) -> Self {
        BackendConfig {
            event: HwEvent::Hitm,
            period: Some(period),
        }
    }

    /// A counting-only configuration for `event`.
    pub fn counting(event: HwEvent) -> Self {
        BackendConfig {
            event,
            period: None,
        }
    }
}

/// A snapshot of a backend's counter value with multiplexing metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterReading {
    /// Raw counter value as read.
    pub value: u64,
    /// Nanoseconds the event was enabled (wall time it *wanted* to run).
    pub time_enabled_ns: u64,
    /// Nanoseconds the event was actually scheduled on a hardware
    /// counter. Less than `time_enabled_ns` when the kernel multiplexes
    /// more events than the PMU has slots.
    pub time_running_ns: u64,
}

impl CounterReading {
    /// The value scaled up for multiplexing:
    /// `value * time_enabled / time_running` (the standard perf
    /// estimate). Equal to `value` when the event ran the whole time or
    /// never ran.
    pub fn scaled(&self) -> u64 {
        if self.time_running_ns == 0 || self.time_running_ns >= self.time_enabled_ns {
            return self.value;
        }
        let scaled = u128::from(self.value) * u128::from(self.time_enabled_ns)
            / u128::from(self.time_running_ns);
        u64::try_from(scaled).unwrap_or(u64::MAX)
    }

    /// Fraction of enabled time the event actually ran, in permille
    /// (1000 = never multiplexed). 1000 when the event never ran at all
    /// (nothing was lost to multiplexing).
    pub fn ratio_permille(&self) -> u64 {
        if self.time_enabled_ns == 0 {
            return 1000;
        }
        let r = u128::from(self.time_running_ns) * 1000 / u128::from(self.time_enabled_ns);
        u64::try_from(r).unwrap_or(1000).min(1000)
    }
}

/// One sampling overflow delivered by a backend, with skid metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowSample {
    /// Instruction pointer at delivery (0 if the source has none). With
    /// interrupt skid this points *near* the triggering access, not at
    /// it — exactly the imprecision the simulator's `skid` models.
    pub ip: u64,
    /// Thread id the interrupt was delivered on (0 if unknown).
    pub tid: u32,
    /// Delivery timestamp: nanoseconds for hardware, a logical access
    /// index for the simulator.
    pub time_ns: u64,
}

/// Why a hardware backend could not be used (or failed mid-flight).
///
/// Structured so callers can report and fall back instead of panicking;
/// the variants mirror the fallback ladder in [`open_backend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// `DDRACE_PMU_DISABLE=1` forces the simulator (CI uses this to make
    /// fallback assertions deterministic on capable hosts).
    DisabledByEnv,
    /// The crate was built without the `linux-pmu` feature.
    FeatureNotCompiled,
    /// Built with the feature, but the target OS/arch has no driver.
    UnsupportedPlatform {
        /// Operating system of the build target.
        os: &'static str,
        /// CPU architecture of the build target.
        arch: &'static str,
    },
    /// The kernel refused the event for permission reasons
    /// (`perf_event_paranoid` too strict for an unprivileged process).
    PermissionDenied {
        /// Value of `/proc/sys/kernel/perf_event_paranoid`, if readable.
        paranoid: Option<i64>,
    },
    /// Every candidate encoding for the requested event class was
    /// rejected; `tried` lists `name (errno N)` entries in attempt order.
    EventUnavailable {
        /// Candidate encodings attempted, with the errno each produced.
        tried: Vec<String>,
    },
    /// A syscall failed after the counter was already open.
    Syscall {
        /// Which call failed (`ioctl(ENABLE)`, `read`, `mmap`, …).
        call: &'static str,
        /// The raw errno.
        errno: i32,
    },
    /// An overflow drain was requested on a counting-only backend.
    NotSampling,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::DisabledByEnv => f.write_str("disabled by DDRACE_PMU_DISABLE=1"),
            BackendError::FeatureNotCompiled => f.write_str("built without the linux-pmu feature"),
            BackendError::UnsupportedPlatform { os, arch } => {
                write!(f, "no PMU driver for {os}/{arch}")
            }
            BackendError::PermissionDenied { paranoid } => match paranoid {
                Some(p) => write!(f, "perf_event_open denied (perf_event_paranoid={p})"),
                None => f.write_str("perf_event_open denied (perf_event_paranoid unreadable)"),
            },
            BackendError::EventUnavailable { tried } => {
                write!(f, "no usable event; tried [{}]", tried.join(", "))
            }
            BackendError::Syscall { call, errno } => {
                write!(f, "{call} failed (errno {errno})")
            }
            BackendError::NotSampling => f.write_str("backend opened without a sampling period"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Which implementation a backend is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The deterministic simulator counter.
    Sim,
    /// The raw-syscall `perf_event_open(2)` driver.
    LinuxPerf,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "sim",
            BackendKind::LinuxPerf => "linux-perf",
        })
    }
}

/// A source of counter values and sampling overflows for one thread.
///
/// The contract every implementation honors:
///
/// * `enable`/`disable`/`reset` map to the hardware's PMI-enable bit,
///   and a `reset` while sampling rearms the period.
/// * [`read`](PmuBackend::read) never blocks and reports multiplexing
///   metadata so callers can scale.
/// * [`drain`](PmuBackend::drain) moves every overflow delivered since
///   the last drain into `out` and returns how many the source itself
///   dropped (ring-buffer overwrite, simulator suppression) — lost
///   samples are *counted*, never silent.
pub trait PmuBackend: fmt::Debug + Send {
    /// Which implementation this is.
    fn kind(&self) -> BackendKind;
    /// Human-readable name of the event actually programmed (the
    /// selected candidate, not just the requested class).
    fn event_name(&self) -> String;
    /// Starts counting (sets the PMI-enable bit).
    fn enable(&mut self) -> Result<(), BackendError>;
    /// Stops counting.
    fn disable(&mut self) -> Result<(), BackendError>;
    /// Zeroes the counter and rearms the sampling period.
    fn reset(&mut self) -> Result<(), BackendError>;
    /// Reads the current value with multiplexing metadata.
    fn read(&mut self) -> Result<CounterReading, BackendError>;
    /// Appends all overflows delivered since the last drain to `out`;
    /// returns the number of samples the source dropped in the same
    /// window. Errors with [`BackendError::NotSampling`] on a
    /// counting-only backend.
    fn drain(&mut self, out: &mut Vec<OverflowSample>) -> Result<u64, BackendError>;
}

/// The outcome of [`open_backend`]: a working backend, plus the reason
/// hardware was not used when `backend` is the simulator fallback.
#[derive(Debug)]
pub struct BackendSelection {
    /// The backend to drive. Always usable.
    pub backend: Box<dyn PmuBackend>,
    /// `Some(reason)` when the hardware ladder failed and `backend` is a
    /// [`SimPmu`]; `None` when real hardware was opened.
    pub fallback: Option<BackendError>,
}

/// Opens the best available backend for `config` on the calling thread.
///
/// Fallback ladder, first failure wins the explanation:
///
/// 1. `DDRACE_PMU_DISABLE=1` → simulator ([`BackendError::DisabledByEnv`]).
/// 2. Feature/OS/arch gates → simulator with the matching reason.
/// 3. `perf_event_open` candidate events in preference order → the first
///    that opens; permission errors short-circuit to
///    [`BackendError::PermissionDenied`].
/// 4. Nothing opened → simulator with [`BackendError::EventUnavailable`].
///
/// Never fails: the simulator is always available.
pub fn open_backend(config: BackendConfig) -> BackendSelection {
    match try_open_hardware(config) {
        Ok(backend) => BackendSelection {
            backend,
            fallback: None,
        },
        Err(reason) => BackendSelection {
            backend: Box::new(SimPmu::new(config)),
            fallback: Some(reason),
        },
    }
}

fn try_open_hardware(config: BackendConfig) -> Result<Box<dyn PmuBackend>, BackendError> {
    if std::env::var_os("DDRACE_PMU_DISABLE").is_some_and(|v| v == "1") {
        return Err(BackendError::DisabledByEnv);
    }
    #[cfg(all(
        target_os = "linux",
        feature = "linux-pmu",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        Ok(Box::new(perf::LinuxPerf::open(config)?))
    }
    #[cfg(not(all(
        target_os = "linux",
        feature = "linux-pmu",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = config;
        if cfg!(feature = "linux-pmu") {
            Err(BackendError::UnsupportedPlatform {
                os: std::env::consts::OS,
                arch: std::env::consts::ARCH,
            })
        } else {
            Err(BackendError::FeatureNotCompiled)
        }
    }
}

/// Serializes tests that mutate `DDRACE_PMU_DISABLE` (the env is
/// process-global and the test harness runs threads in parallel).
#[cfg(test)]
pub(crate) static ENV_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_identity_when_not_multiplexed() {
        let r = CounterReading {
            value: 42,
            time_enabled_ns: 1_000,
            time_running_ns: 1_000,
        };
        assert_eq!(r.scaled(), 42);
        assert_eq!(r.ratio_permille(), 1000);
    }

    #[test]
    fn scaling_extrapolates_multiplexed_values() {
        let r = CounterReading {
            value: 100,
            time_enabled_ns: 4_000,
            time_running_ns: 1_000,
        };
        assert_eq!(r.scaled(), 400);
        assert_eq!(r.ratio_permille(), 250);
    }

    #[test]
    fn scaling_handles_never_ran() {
        let r = CounterReading {
            value: 0,
            time_enabled_ns: 4_000,
            time_running_ns: 0,
        };
        assert_eq!(r.scaled(), 0);
        assert_eq!(r.ratio_permille(), 0);
    }

    #[test]
    fn env_disable_forces_sim_with_structured_reason() {
        let _guard = ENV_TEST_LOCK.lock().unwrap();
        std::env::set_var("DDRACE_PMU_DISABLE", "1");
        let sel = open_backend(BackendConfig::hitm_sampling(1000));
        assert_eq!(sel.backend.kind(), BackendKind::Sim);
        assert_eq!(sel.fallback, Some(BackendError::DisabledByEnv));
        std::env::remove_var("DDRACE_PMU_DISABLE");

        // Without the env override the ladder still returns a usable
        // backend; if it fell back the reason is structured, not a panic.
        let sel = open_backend(BackendConfig::hitm_sampling(1000));
        match sel.fallback {
            None => assert_eq!(sel.backend.kind(), BackendKind::LinuxPerf),
            Some(reason) => {
                assert_eq!(sel.backend.kind(), BackendKind::Sim);
                assert!(!reason.to_string().is_empty());
            }
        }
    }
}
