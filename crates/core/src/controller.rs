//! The demand-driven analysis controller: the paper's state machine.
//!
//! Analysis starts **off**. A hardware sharing signal (PMI from the HITM
//! counter, or the oracle) turns it **on** for all threads. While on, the
//! detector itself observes sharing in software; after a configurable run
//! of analyzed accesses with no sharing observed (and a minimum residency
//! to avoid thrashing), analysis turns back **off** and the hardware
//! indicator re-arms.

use crate::mode::ControllerConfig;

/// Whether memory-access analysis is currently enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisState {
    /// Uninstrumented execution; hardware indicator armed.
    Off,
    /// Full race detection on every access.
    On,
}

/// Counters the controller exposes for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Off→On transitions taken.
    pub enables: u64,
    /// On→Off transitions taken.
    pub disables: u64,
    /// Sharing signals received while already on (ignored).
    pub redundant_signals: u64,
}

/// The enable/disable state machine.
///
/// # Examples
///
/// ```
/// use ddrace_core::{DemandController, AnalysisState, ControllerConfig};
///
/// let cfg = ControllerConfig { cooldown_accesses: 3, min_on_accesses: 2, ..ControllerConfig::default() };
/// let mut c = DemandController::new(cfg);
/// assert_eq!(c.state(), AnalysisState::Off);
/// assert!(c.on_sharing_signal());          // hardware fires: enable
/// assert_eq!(c.state(), AnalysisState::On);
/// // Three quiet analyzed accesses (past the minimum residency): disable.
/// assert!(!c.on_analyzed_access(false));
/// assert!(!c.on_analyzed_access(false));
/// assert!(c.on_analyzed_access(false));
/// assert_eq!(c.state(), AnalysisState::Off);
/// ```
#[derive(Debug, Clone)]
pub struct DemandController {
    config: ControllerConfig,
    state: AnalysisState,
    analyzed_since_enable: u64,
    analyzed_since_sharing: u64,
    stats: ControllerStats,
}

impl DemandController {
    /// Creates a controller in the Off state.
    pub fn new(config: ControllerConfig) -> Self {
        DemandController {
            config,
            state: AnalysisState::Off,
            analyzed_since_enable: 0,
            analyzed_since_sharing: 0,
            stats: ControllerStats::default(),
        }
    }

    /// Current analysis state.
    pub fn state(&self) -> AnalysisState {
        self.state
    }

    /// Returns `true` if analysis is on.
    pub fn is_on(&self) -> bool {
        self.state == AnalysisState::On
    }

    /// Transition counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// A hardware sharing signal arrived. Returns `true` if this enabled
    /// analysis (a toggle the caller must charge for).
    pub fn on_sharing_signal(&mut self) -> bool {
        match self.state {
            AnalysisState::Off => {
                self.state = AnalysisState::On;
                self.analyzed_since_enable = 0;
                self.analyzed_since_sharing = 0;
                self.stats.enables += 1;
                true
            }
            AnalysisState::On => {
                self.stats.redundant_signals += 1;
                false
            }
        }
    }

    /// An analyzed memory access completed; `shared` is the detector's
    /// software sharing observation. Returns `true` if this access
    /// triggered a disable (a toggle the caller must charge for).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if called while analysis is off (only
    /// analyzed accesses may be reported).
    pub fn on_analyzed_access(&mut self, shared: bool) -> bool {
        self.on_analyzed_accesses(1, shared)
    }

    /// `count` analyzed accesses completed, and `any_shared` says whether
    /// the detector observed sharing on any of them. A quiet batch ends
    /// where `count` quiet [`on_analyzed_access`](Self::on_analyzed_access)
    /// calls would, and returns `true` if one of them would have
    /// disabled. A batch with sharing restarts the quiet streak at its
    /// end, wherever in it the sharing was.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if called while analysis is off.
    pub fn on_analyzed_accesses(&mut self, count: u64, any_shared: bool) -> bool {
        debug_assert!(
            self.is_on(),
            "analyzed access reported while analysis is off"
        );
        if count == 0 {
            return false;
        }
        self.analyzed_since_enable += count;
        if any_shared {
            self.analyzed_since_sharing = 0;
            return false;
        }
        self.analyzed_since_sharing += count;
        if self.analyzed_since_enable >= self.config.min_on_accesses
            && self.analyzed_since_sharing >= self.config.cooldown_accesses
        {
            self.state = AnalysisState::Off;
            self.stats.disables += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DemandController {
        DemandController::new(ControllerConfig {
            cooldown_accesses: 5,
            min_on_accesses: 2,
            ..ControllerConfig::default()
        })
    }

    #[test]
    fn starts_off() {
        let c = small();
        assert_eq!(c.state(), AnalysisState::Off);
        assert!(!c.is_on());
    }

    #[test]
    fn signal_enables_once() {
        let mut c = small();
        assert!(c.on_sharing_signal());
        assert!(c.is_on());
        assert!(!c.on_sharing_signal(), "already on: no new toggle");
        assert_eq!(c.stats().enables, 1);
        assert_eq!(c.stats().redundant_signals, 1);
    }

    #[test]
    fn sharing_resets_cooldown() {
        let mut c = small();
        c.on_sharing_signal();
        for _ in 0..4 {
            assert!(!c.on_analyzed_access(false));
        }
        // Sharing observed: the quiet streak restarts.
        assert!(!c.on_analyzed_access(true));
        for _ in 0..4 {
            assert!(!c.on_analyzed_access(false));
        }
        assert!(c.is_on());
        assert!(c.on_analyzed_access(false));
        assert!(!c.is_on());
        assert_eq!(c.stats().disables, 1);
    }

    #[test]
    fn min_residency_prevents_thrashing() {
        let mut c = DemandController::new(ControllerConfig {
            cooldown_accesses: 1,
            min_on_accesses: 10,
            ..ControllerConfig::default()
        });
        c.on_sharing_signal();
        for _ in 0..9 {
            assert!(!c.on_analyzed_access(false), "still inside min residency");
        }
        assert!(c.on_analyzed_access(false));
        assert!(!c.is_on());
    }

    #[test]
    fn reenable_after_disable() {
        let mut c = small();
        c.on_sharing_signal();
        for _ in 0..5 {
            c.on_analyzed_access(false);
        }
        assert!(!c.is_on());
        assert!(c.on_sharing_signal());
        assert!(c.is_on());
        assert_eq!(c.stats().enables, 2);
    }

    /// Where `c` stands: its state, its stats and, while on, both streaks.
    fn position(c: &DemandController) -> (AnalysisState, ControllerStats, Option<(u64, u64)>) {
        let streaks = (c.analyzed_since_enable, c.analyzed_since_sharing);
        (c.state, c.stats, c.is_on().then_some(streaks))
    }

    /// Feeds `batches` of quiet accesses to one controller and the same
    /// accesses one at a time to a twin, which stops at the access that
    /// disables it. After every batch both stand in the same place, and
    /// the batch returns `true` exactly when the twin disabled inside it.
    fn assert_batches_match_single_accesses(config: ControllerConfig, batches: &[u64]) {
        let mut batched = DemandController::new(config);
        let mut single = DemandController::new(config);
        batched.on_sharing_signal();
        single.on_sharing_signal();
        for (i, &n) in batches.iter().enumerate() {
            if !batched.is_on() {
                break;
            }
            let disabled = (0..n).any(|_| single.on_analyzed_access(false));
            assert_eq!(
                batched.on_analyzed_accesses(n, false),
                disabled,
                "{config:?}, batch {i} of {batches:?}"
            );
            assert_eq!(
                position(&batched),
                position(&single),
                "{config:?}, {batches:?}"
            );
        }
    }

    #[test]
    fn a_quiet_batch_equals_that_many_quiet_accesses() {
        // Cooldown above the minimum residency, then below it.
        for (cooldown, min_on) in [(50u64, 20u64), (5, 30)] {
            let config = ControllerConfig {
                cooldown_accesses: cooldown,
                min_on_accesses: min_on,
                ..ControllerConfig::default()
            };
            let sizes = [
                0,
                1,
                min_on - 1,
                min_on,
                min_on + 1,
                cooldown - 1,
                cooldown,
                cooldown + 1,
                3 * cooldown.max(min_on),
            ];
            for n in sizes {
                assert_batches_match_single_accesses(config, &[n]);
                // Enough batches of `n` to cross both thresholds.
                let repeats = 2 * cooldown.max(min_on) / n.max(1) + 2;
                assert_batches_match_single_accesses(config, &vec![n; repeats as usize]);
                assert_batches_match_single_accesses(config, &[n, min_on - 1, 1, cooldown]);
            }
        }
    }

    #[test]
    fn a_shared_batch_restarts_the_streak_at_its_end() {
        let mut c = small();
        c.on_sharing_signal();
        assert!(!c.on_analyzed_accesses(4, false));
        // Nine quiet accesses one at a time would have disabled here; a
        // batch with sharing anywhere in it restarts the streak instead.
        assert!(!c.on_analyzed_accesses(10, true));
        assert!(!c.on_analyzed_accesses(4, false));
        assert!(c.is_on());
        assert!(c.on_analyzed_accesses(1, false));
        assert!(!c.is_on());
        assert_eq!(c.stats().disables, 1);
    }

    #[test]
    fn constant_sharing_keeps_analysis_on() {
        let mut c = small();
        c.on_sharing_signal();
        for _ in 0..10_000 {
            assert!(!c.on_analyzed_access(true));
        }
        assert!(c.is_on());
        assert_eq!(c.stats().disables, 0);
    }
}

ddrace_json::json_unit_enum!(AnalysisState { Off, On });
ddrace_json::json_struct!(ControllerStats {
    enables,
    disables,
    redundant_signals
});
