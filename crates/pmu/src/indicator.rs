//! The sharing indicator: the paper's hardware trigger, packaged.
//!
//! The demand-driven controller does not care about raw counters; it asks
//! one question — *"did this access suggest inter-thread sharing?"* —
//! and three answers exist:
//!
//! * [`IndicatorMode::HitmSampling`]: the realistic answer. A performance
//!   counter samples HITM loads with a configurable sample-after value and
//!   interrupt skid. Misses sharing that hardware misses (evicted modified
//!   lines, W→W/R→W-only communication) and fires spuriously on false
//!   sharing — exactly the trade-offs the paper evaluates.
//! * [`IndicatorMode::Oracle`]: the idealized answer used for the paper's
//!   "perfect hardware sharing detector" comparison: every true
//!   communication event fires, immediately, with no skid.
//! * [`IndicatorMode::Disabled`]: never fires (native execution, or
//!   continuous-analysis mode where no trigger is needed).

use crate::counter::{Counter, CounterConfig, PmuConfigError};
use crate::event::PmuEventKind;
use ddrace_cache::{AccessResult, CoreId};
use ddrace_program::AccessKind;

/// How the sharing indicator is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndicatorMode {
    /// Sample the HITM-load performance counter.
    HitmSampling {
        /// Sample-after value: interrupt every `period` HITM events.
        period: u64,
        /// Interrupt skid in retired accesses.
        skid: u32,
        /// Also count RFO-HITMs (stores hitting remote modified lines) —
        /// a capability real Nehalem load-event hardware lacks; exposed as
        /// an ablation.
        include_rfo: bool,
    },
    /// Perfect indicator: every ground-truth communication fires.
    Oracle,
    /// Never fires.
    Disabled,
}

impl IndicatorMode {
    /// The paper's default realistic configuration: interrupt on every
    /// HITM load (sample-after 1) with a small skid.
    pub fn hitm_default() -> Self {
        IndicatorMode::HitmSampling {
            period: 1,
            skid: 20,
            include_rfo: false,
        }
    }
}

impl Default for IndicatorMode {
    fn default() -> Self {
        Self::hitm_default()
    }
}

/// A delivered sharing signal (in hardware terms, the PMI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingSignal {
    /// Core on which the interrupt was delivered.
    pub core: CoreId,
    /// The event that triggered it.
    pub event: PmuEventKind,
    /// Retired accesses between threshold crossing and delivery.
    pub skid: u32,
}

/// Watches the access stream and raises [`SharingSignal`]s according to an
/// [`IndicatorMode`].
///
/// # Examples
///
/// ```
/// use ddrace_pmu::{IndicatorMode, SharingIndicator};
/// use ddrace_cache::{CacheConfig, CacheHierarchy, CoreId};
/// use ddrace_program::{AccessKind, Addr};
///
/// let mut mem = CacheHierarchy::new(CacheConfig::nehalem(2));
/// let mut ind = SharingIndicator::new(
///     IndicatorMode::HitmSampling { period: 1, skid: 0, include_rfo: false },
///     2,
/// );
/// mem.access(CoreId(0), Addr(0x40), AccessKind::Write);
/// let r = mem.access(CoreId(1), Addr(0x40), AccessKind::Read);
/// let signal = ind.observe(CoreId(1), &r, AccessKind::Read).expect("HITM fires");
/// assert_eq!(signal.core, CoreId(1));
/// ```
#[derive(Debug, Clone)]
pub struct SharingIndicator {
    mode: IndicatorMode,
    /// The one programmed counter of each core; none when disabled.
    counters: Vec<Counter>,
    signals_raised: u64,
}

impl SharingIndicator {
    /// Creates an indicator for a `cores`-core machine.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `mode` carries an invalid sampling
    /// period. Validated construction is available via
    /// [`try_new`](SharingIndicator::try_new); this constructor is kept
    /// for call sites whose modes are known-good constants.
    pub fn new(mode: IndicatorMode, cores: usize) -> Self {
        Self::try_new(mode, cores).expect("invalid indicator mode")
    }

    /// Creates an indicator for a `cores`-core machine, refusing invalid
    /// sampling configurations instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`PmuConfigError::ZeroPeriod`] if `mode` is
    /// [`IndicatorMode::HitmSampling`] with `period == 0` — a value
    /// reachable from config files and the CLI variant axis.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn try_new(mode: IndicatorMode, cores: usize) -> Result<Self, PmuConfigError> {
        assert!(cores > 0, "a machine needs at least one core");
        let config = match mode {
            IndicatorMode::HitmSampling {
                period,
                skid,
                include_rfo,
            } => {
                let event = if include_rfo {
                    PmuEventKind::AnyHitm
                } else {
                    PmuEventKind::HitmLoad
                };
                Some(CounterConfig::sampling(event, period, skid)?)
            }
            IndicatorMode::Oracle => Some(
                CounterConfig::sampling(PmuEventKind::TrueSharing, 1, 0)
                    .expect("oracle period is a nonzero constant"),
            ),
            IndicatorMode::Disabled => None,
        };
        Ok(SharingIndicator {
            mode,
            counters: config.map_or_else(Vec::new, |c| vec![Counter::new(c); cores]),
            signals_raised: 0,
        })
    }

    /// The counter of `core`, or `None` when the indicator is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for an enabled indicator.
    fn counter(&mut self, core: CoreId) -> Option<&mut Counter> {
        (!self.counters.is_empty()).then(|| &mut self.counters[core.index()])
    }

    /// The mode this indicator runs in.
    pub fn mode(&self) -> IndicatorMode {
        self.mode
    }

    /// Feeds one retired access on `core` into its counter; returns a
    /// signal if an interrupt was delivered on it (a threshold crossing
    /// with no skid, or the end of an earlier crossing's skid).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for an enabled indicator.
    pub fn observe(
        &mut self,
        core: CoreId,
        result: &AccessResult,
        kind: AccessKind,
    ) -> Option<SharingSignal> {
        let counter = self.counter(core)?;
        let events = counter
            .config()
            .event
            .count_in(result, kind.is_read(), kind.is_write());
        let crossed = counter.observe(events);
        let delivered = counter.retire();
        let first = crossed.or(delivered)?;
        self.signals_raised += 1;
        Some(SharingSignal {
            core,
            event: first.event,
            skid: first.skid,
        })
    }

    /// Notifies the indicator that `core` will retire no more accesses
    /// (its thread blocked or terminated). Any overflow still skidding
    /// toward delivery on that core is delivered *at the boundary* —
    /// returned here with the skid accumulated so far — instead of being
    /// silently lost. Deterministic: depends only on the access stream
    /// fed so far.
    pub fn core_stopped(&mut self, core: CoreId) -> Option<SharingSignal> {
        let first = self.counter(core)?.flush_pending()?;
        self.signals_raised += 1;
        Some(SharingSignal {
            core,
            event: first.event,
            skid: first.skid,
        })
    }

    /// Total signals (interrupts) raised so far.
    pub fn signals_raised(&self) -> u64 {
        self.signals_raised
    }

    /// Overflow signals armed but cancelled before delivery (counter
    /// disable/reset while a skid countdown was in flight). Always zero
    /// unless a driver toggles the underlying counters mid-run.
    pub fn suppressed_signals(&self) -> u64 {
        self.counters
            .iter()
            .map(Counter::suppressed_overflows)
            .sum()
    }

    /// Total trigger events counted so far (HITMs or true-sharing events,
    /// depending on mode), summed over cores, including ones below the
    /// sampling threshold.
    pub fn events_counted(&self) -> u64 {
        self.counters.iter().map(Counter::value).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrace_cache::{HitWhere, SharingKind};

    fn hitm_result() -> AccessResult {
        AccessResult {
            latency: 60,
            hit: HitWhere::RemoteCache,
            line: 1,
            hitm_owner: Some(CoreId(0)),
            rfo_hitm_owner: None,
            invalidations: 0,
            sharing: (Some(SharingKind::WriteRead), None),
        }
    }

    /// Sharing the cache missed (e.g. after eviction): ground truth fires,
    /// no HITM.
    fn lost_sharing_result() -> AccessResult {
        AccessResult {
            latency: 200,
            hit: HitWhere::Memory,
            line: 1,
            hitm_owner: None,
            rfo_hitm_owner: None,
            invalidations: 0,
            sharing: (Some(SharingKind::WriteRead), None),
        }
    }

    fn rfo_result() -> AccessResult {
        AccessResult {
            latency: 60,
            hit: HitWhere::RemoteCache,
            line: 1,
            hitm_owner: None,
            rfo_hitm_owner: Some(CoreId(0)),
            invalidations: 1,
            sharing: (Some(SharingKind::WriteWrite), None),
        }
    }

    #[test]
    fn hitm_mode_fires_on_hitm_only() {
        let mut ind = SharingIndicator::new(
            IndicatorMode::HitmSampling {
                period: 1,
                skid: 0,
                include_rfo: false,
            },
            2,
        );
        assert!(ind
            .observe(CoreId(1), &hitm_result(), AccessKind::Read)
            .is_some());
        assert!(ind
            .observe(CoreId(1), &lost_sharing_result(), AccessKind::Read)
            .is_none());
        assert!(ind
            .observe(CoreId(1), &rfo_result(), AccessKind::Write)
            .is_none());
        assert_eq!(ind.signals_raised(), 1);
        assert_eq!(ind.events_counted(), 1);
    }

    #[test]
    fn oracle_mode_catches_lost_sharing() {
        let mut ind = SharingIndicator::new(IndicatorMode::Oracle, 2);
        assert!(ind
            .observe(CoreId(1), &lost_sharing_result(), AccessKind::Read)
            .is_some());
        assert!(ind
            .observe(CoreId(1), &rfo_result(), AccessKind::Write)
            .is_some());
        assert_eq!(ind.signals_raised(), 2);
    }

    #[test]
    fn disabled_mode_never_fires() {
        let mut ind = SharingIndicator::new(IndicatorMode::Disabled, 2);
        assert!(ind
            .observe(CoreId(1), &hitm_result(), AccessKind::Read)
            .is_none());
        assert_eq!(ind.signals_raised(), 0);
        assert_eq!(ind.events_counted(), 0);
    }

    #[test]
    fn include_rfo_widens_the_event() {
        let mut ind = SharingIndicator::new(
            IndicatorMode::HitmSampling {
                period: 1,
                skid: 0,
                include_rfo: true,
            },
            2,
        );
        assert!(ind
            .observe(CoreId(1), &rfo_result(), AccessKind::Write)
            .is_some());
        assert_eq!(ind.events_counted(), 1);
    }

    #[test]
    fn sampling_period_thins_signals() {
        let mut ind = SharingIndicator::new(
            IndicatorMode::HitmSampling {
                period: 10,
                skid: 0,
                include_rfo: false,
            },
            1,
        );
        let mut signals = 0;
        for _ in 0..100 {
            if ind
                .observe(CoreId(0), &hitm_result(), AccessKind::Read)
                .is_some()
            {
                signals += 1;
            }
        }
        assert_eq!(signals, 10);
        assert_eq!(ind.events_counted(), 100);
    }

    #[test]
    fn each_core_counts_its_own_events() {
        let mut ind = SharingIndicator::new(
            IndicatorMode::HitmSampling {
                period: 2,
                skid: 0,
                include_rfo: false,
            },
            2,
        );
        // One HITM per core: neither core's counter reaches the period.
        for core in [CoreId(0), CoreId(1)] {
            assert!(ind
                .observe(core, &hitm_result(), AccessKind::Read)
                .is_none());
        }
        assert_eq!(ind.events_counted(), 2);
        // A second HITM on core 1 crosses core 1's threshold only.
        let signal = ind.observe(CoreId(1), &hitm_result(), AccessKind::Read);
        assert_eq!(signal.map(|s| s.core), Some(CoreId(1)));
        assert_eq!(ind.events_counted(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = SharingIndicator::new(IndicatorMode::Disabled, 0);
    }

    #[test]
    fn zero_period_mode_is_refused_not_panicked() {
        let err = SharingIndicator::try_new(
            IndicatorMode::HitmSampling {
                period: 0,
                skid: 0,
                include_rfo: false,
            },
            2,
        );
        assert!(err.is_err());
    }

    /// Pin the one-PMI-per-access model: an access carrying *both* a
    /// load-side and a store-side sharing kind tallies 2 TrueSharing
    /// events, but a period-1 oracle counter merges the double crossing
    /// into a single interrupt (`Counter::observe` delivers at most one
    /// overflow per call). The indicator cannot double-fire on one access.
    #[test]
    fn multi_kind_access_fires_oracle_once() {
        let both_kinds = AccessResult {
            latency: 60,
            hit: HitWhere::RemoteCache,
            line: 1,
            hitm_owner: Some(CoreId(0)),
            rfo_hitm_owner: None,
            invalidations: 1,
            sharing: (Some(SharingKind::WriteRead), Some(SharingKind::WriteWrite)),
        };
        let mut ind = SharingIndicator::new(IndicatorMode::Oracle, 2);
        assert!(ind
            .observe(CoreId(1), &both_kinds, AccessKind::Write)
            .is_some());
        assert_eq!(
            ind.signals_raised(),
            1,
            "one access, one PMI — even with two sharing kinds"
        );
        assert_eq!(
            ind.events_counted(),
            2,
            "but the counter still tallies both kinds"
        );
        // The next single-kind event does not inherit a deferred second
        // interrupt from the merged crossing.
        let one_kind = AccessResult {
            sharing: (Some(SharingKind::WriteRead), None),
            ..both_kinds
        };
        assert!(ind
            .observe(CoreId(1), &one_kind, AccessKind::Read)
            .is_some());
        assert_eq!(ind.signals_raised(), 2);
    }

    /// Table-driven skid-boundary coverage: an overflow raised within
    /// `skid` accesses of the thread stopping must still be delivered —
    /// by `observe` if the countdown completes, by `core_stopped` at the
    /// boundary otherwise — with a deterministic skid value either way.
    #[test]
    fn skid_boundary_delivery_is_deterministic() {
        // (skid, quiet accesses after the HITM, expect delivery inline,
        //  expected skid recorded on the signal)
        let cases: &[(u32, u32, bool, u32)] = &[
            // Zero skid: the PMI lands on the HITM access itself; nothing
            // is in flight at the boundary.
            (0, 0, true, 0),
            // Skid 1: the HITM access itself retires the countdown.
            (1, 0, true, 1),
            // Skid 20, thread stops immediately after the HITM: the
            // boundary flush delivers with the 1 access retired so far.
            (20, 0, false, 1),
            // Skid 20, 5 quiet accesses then stop: boundary delivery at
            // skid 6 (HITM + 5 quiet retirements).
            (20, 5, false, 6),
            // Skid 20, exactly 19 quiet accesses: delivered inline on the
            // 19th (HITM + 19 = 20 retirements), nothing left to flush.
            (20, 19, true, 20),
        ];
        for &(skid, quiet, inline, want_skid) in cases {
            let mut ind = SharingIndicator::new(
                IndicatorMode::HitmSampling {
                    period: 1,
                    skid,
                    include_rfo: false,
                },
                2,
            );
            let mut inline_signal = ind.observe(CoreId(1), &hitm_result(), AccessKind::Read);
            for _ in 0..quiet {
                let quiet_result = AccessResult {
                    latency: 4,
                    hit: HitWhere::L1,
                    line: 2,
                    hitm_owner: None,
                    rfo_hitm_owner: None,
                    invalidations: 0,
                    sharing: (None, None),
                };
                if let Some(sig) = ind.observe(CoreId(1), &quiet_result, AccessKind::Read) {
                    assert!(inline_signal.is_none(), "at most one delivery");
                    inline_signal = Some(sig);
                }
            }
            let boundary_signal = ind.core_stopped(CoreId(1));
            let delivered = match (inline_signal, boundary_signal) {
                (Some(sig), None) => {
                    assert!(
                        inline,
                        "skid {skid}/quiet {quiet}: unexpected inline delivery"
                    );
                    sig
                }
                (None, Some(sig)) => {
                    assert!(
                        !inline,
                        "skid {skid}/quiet {quiet}: expected inline delivery"
                    );
                    sig
                }
                (Some(_), Some(_)) => panic!("skid {skid}/quiet {quiet}: double delivery"),
                (None, None) => panic!("skid {skid}/quiet {quiet}: signal lost at boundary"),
            };
            assert_eq!(
                delivered.skid, want_skid,
                "skid {skid}/quiet {quiet}: wrong realized skid"
            );
            assert_eq!(ind.signals_raised(), 1);
            assert_eq!(ind.suppressed_signals(), 0, "boundary delivers, not drops");
            assert!(
                ind.core_stopped(CoreId(1)).is_none(),
                "boundary flush is idempotent"
            );
        }
    }

    #[test]
    fn default_mode_is_hitm_sampling() {
        assert_eq!(
            IndicatorMode::default(),
            IndicatorMode::HitmSampling {
                period: 1,
                skid: 20,
                include_rfo: false
            }
        );
    }
}

ddrace_json::json_enum!(IndicatorMode {
    HitmSampling { period, skid, include_rfo },
    Oracle,
    Disabled
});
ddrace_json::json_struct!(SharingSignal { core, event, skid });
