//! Analysis modes and simulation configuration.

use crate::cost::CostModel;
use ddrace_cache::CacheConfig;
use ddrace_detector::DetectorConfig;
use ddrace_pmu::IndicatorMode;
use ddrace_program::{PickStrategy, SchedulerConfig};

/// Whose instrumentation a sharing signal enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnableScope {
    /// One signal anywhere enables analysis for **every** thread — the
    /// paper's design. Conservative: any access racing with the shared
    /// one is observed.
    #[default]
    Global,
    /// A signal enables analysis only on the **core that took the
    /// interrupt** (the consumer side of the sharing). Cheaper toggles
    /// and lower residency, but accesses by still-dark threads go
    /// unchecked — an extension the paper discusses as finer-grained
    /// enabling.
    PerCore,
}

/// Demand-driven controller tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Disable analysis after this many consecutive *analyzed* memory
    /// accesses with no inter-thread sharing observed in software.
    pub cooldown_accesses: u64,
    /// Hysteresis: once enabled, analyze at least this many accesses
    /// before considering a disable (prevents thrashing on bursty
    /// sharing).
    pub min_on_accesses: u64,
    /// Enable granularity.
    pub scope: EnableScope,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            cooldown_accesses: 6_000,
            min_on_accesses: 200,
            scope: EnableScope::Global,
        }
    }
}

/// How the race-analysis tool runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisMode {
    /// No tool attached at all: pure native execution. The baseline every
    /// slowdown is computed against.
    Native,
    /// The tool analyzes every memory access for the whole run — the
    /// conventional continuous-analysis configuration (Inspector XE as
    /// shipped).
    Continuous,
    /// The paper's contribution: analysis starts disabled and is toggled
    /// by the hardware sharing indicator + software cooldown.
    Demand {
        /// The hardware sharing indicator to use.
        indicator: IndicatorMode,
        /// Enable/disable policy tuning.
        controller: ControllerConfig,
    },
}

impl AnalysisMode {
    /// Demand-driven with the realistic HITM indicator at default tuning.
    pub fn demand_hitm() -> Self {
        AnalysisMode::Demand {
            indicator: IndicatorMode::hitm_default(),
            controller: ControllerConfig::default(),
        }
    }

    /// Demand-driven with the idealized oracle indicator.
    pub fn demand_oracle() -> Self {
        AnalysisMode::Demand {
            indicator: IndicatorMode::Oracle,
            controller: ControllerConfig::default(),
        }
    }

    /// Demand-driven with the oracle indicator and a controller that never
    /// disables once enabled (`min_on_accesses` saturated). This is the
    /// *eager* reference point for attributing demand-mode misses: any
    /// race this configuration still misses was lost to enable latency
    /// (the tool was dark when the racy write happened), while a race it
    /// catches but demand-HITM misses was lost to a quiet HITM indicator.
    pub fn demand_oracle_eager() -> Self {
        AnalysisMode::Demand {
            indicator: IndicatorMode::Oracle,
            controller: ControllerConfig {
                min_on_accesses: u64::MAX,
                ..ControllerConfig::default()
            },
        }
    }

    /// Returns `true` if a tool is attached (anything but native).
    pub fn tool_attached(&self) -> bool {
        !matches!(self, AnalysisMode::Native)
    }

    /// A short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            AnalysisMode::Native => "native",
            AnalysisMode::Continuous => "continuous",
            AnalysisMode::Demand {
                indicator: IndicatorMode::Oracle,
                ..
            } => "demand-oracle",
            AnalysisMode::Demand {
                indicator: IndicatorMode::Disabled,
                ..
            } => "demand-off",
            AnalysisMode::Demand { .. } => "demand-hitm",
        }
    }
}

/// Which race-detection algorithm the tool runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorKind {
    /// FastTrack happens-before (the commercial-tool design; default).
    #[default]
    FastTrack,
    /// Full-vector-clock happens-before (A1 ablation).
    Djit,
    /// Eraser-style lockset (baseline foil).
    LockSet,
}

/// Complete configuration of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of cores; thread `t` is pinned to core `t mod cores`.
    pub cores: usize,
    /// Cache hierarchy parameters.
    pub cache: CacheConfig,
    /// Interleaving scheduler parameters.
    pub scheduler: SchedulerConfig,
    /// Runnable-thread picker; [`PickStrategy`] has one variant. Kept
    /// only for the end-to-end benchmark (`bench_e2e/`), which names it.
    pub pick_strategy: PickStrategy,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Shadow-memory configuration.
    pub detector: DetectorConfig,
    /// Detection algorithm.
    pub detector_kind: DetectorKind,
    /// Analysis mode.
    pub mode: AnalysisMode,
}

impl SimConfig {
    /// A config for `cores` cores in the given mode, defaults elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is 0 or greater than 64.
    pub fn new(cores: usize, mode: AnalysisMode) -> Self {
        SimConfig {
            cores,
            cache: CacheConfig::nehalem(cores),
            scheduler: SchedulerConfig::default(),
            pick_strategy: PickStrategy::default(),
            cost: CostModel::default(),
            detector: DetectorConfig::default(),
            detector_kind: DetectorKind::FastTrack,
            mode,
        }
    }

    /// Validates cross-field consistency.
    ///
    /// # Panics
    ///
    /// Panics if the cache config disagrees with `cores` or is invalid.
    pub fn validate(&self) {
        assert_eq!(
            self.cache.cores, self.cores,
            "cache config must match core count"
        );
        self.cache.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let modes = [
            AnalysisMode::Native,
            AnalysisMode::Continuous,
            AnalysisMode::demand_hitm(),
            AnalysisMode::demand_oracle(),
        ];
        let labels: std::collections::HashSet<&str> = modes.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), modes.len());
    }

    #[test]
    fn tool_attachment() {
        assert!(!AnalysisMode::Native.tool_attached());
        assert!(AnalysisMode::Continuous.tool_attached());
        assert!(AnalysisMode::demand_hitm().tool_attached());
    }

    #[test]
    fn eager_mode_never_considers_disable() {
        let AnalysisMode::Demand {
            indicator,
            controller,
        } = AnalysisMode::demand_oracle_eager()
        else {
            panic!("eager mode must be demand-driven");
        };
        assert_eq!(indicator, ddrace_pmu::IndicatorMode::Oracle);
        assert_eq!(controller.min_on_accesses, u64::MAX);
        assert_eq!(AnalysisMode::demand_oracle_eager().label(), "demand-oracle");
    }

    #[test]
    fn config_construction_and_validation() {
        let cfg = SimConfig::new(4, AnalysisMode::Continuous);
        cfg.validate();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.detector_kind, DetectorKind::FastTrack);
    }

    #[test]
    #[should_panic(expected = "must match core count")]
    fn mismatched_cache_cores_rejected() {
        let mut cfg = SimConfig::new(4, AnalysisMode::Native);
        cfg.cores = 8;
        cfg.validate();
    }

    #[test]
    fn controller_defaults() {
        let c = ControllerConfig::default();
        assert!(c.cooldown_accesses > c.min_on_accesses);
    }
}

ddrace_json::json_unit_enum!(EnableScope { Global, PerCore });
ddrace_json::json_struct!(ControllerConfig {
    cooldown_accesses,
    min_on_accesses,
    scope
});
ddrace_json::json_enum!(AnalysisMode {
    Native,
    Continuous,
    Demand { indicator, controller }
});
ddrace_json::json_unit_enum!(DetectorKind {
    FastTrack,
    Djit,
    LockSet
});
