//! Analysis modes and simulation configuration.

use crate::cost::CostModel;
use ddrace_cache::CacheConfig;
use ddrace_detector::DetectorConfig;
use ddrace_pmu::{IndicatorMode, SharingIndicator};
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

    /// The four modes the CLI names, each at its default tuning, in table
    /// order: native, continuous, demand-HITM, demand-oracle.
    pub fn presets() -> [AnalysisMode; 4] {
        [
            AnalysisMode::Native,
            AnalysisMode::Continuous,
            AnalysisMode::demand_hitm(),
            AnalysisMode::demand_oracle(),
        ]
    }

    /// The preset whose [`label`](AnalysisMode::label) is `label`
    /// (`demand-off` is a table label only, not a preset).
    pub fn from_label(label: &str) -> Result<AnalysisMode, String> {
        AnalysisMode::presets()
            .into_iter()
            .find(|mode| mode.label() == label)
            .ok_or_else(|| format!("unknown mode `{label}`"))
    }

    /// A short label for tables (inverse of [`AnalysisMode::from_label`]
    /// for the presets).
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

impl DetectorKind {
    /// Every detector, in table order.
    pub const ALL: [DetectorKind; 3] = [
        DetectorKind::FastTrack,
        DetectorKind::Djit,
        DetectorKind::LockSet,
    ];

    /// The detector whose [`name`](DetectorKind::name) is `name`.
    pub fn from_name(name: &str) -> Result<DetectorKind, String> {
        DetectorKind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
            .ok_or_else(|| format!("unknown detector `{name}`"))
    }

    /// The detector's name (inverse of [`DetectorKind::from_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            DetectorKind::FastTrack => "fasttrack",
            DetectorKind::Djit => "djit",
            DetectorKind::LockSet => "lockset",
        }
    }
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
    /// Unchecked: see [`SimConfig::validate`].
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

    /// Checks every setting a simulation rejects: the core count, the
    /// cache geometry ([`CacheConfig::validate`]), the scheduler quantum
    /// and, in a demand mode, the indicator's sample period.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first bad setting: a cache config
    /// that disagrees with `cores` or is invalid, a quantum of 0, or an
    /// indicator [`SharingIndicator::try_new`] refuses.
    pub fn validate(&self) -> Result<(), String> {
        if self.cache.cores != self.cores {
            return Err(format!(
                "cache config for {} cores must match core count {}",
                self.cache.cores, self.cores
            ));
        }
        self.cache.validate()?;
        if self.scheduler.quantum == 0 {
            return Err("scheduler quantum must be at least 1".to_string());
        }
        if let AnalysisMode::Demand { indicator, .. } = self.mode {
            SharingIndicator::try_new(indicator, self.cores).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let modes = AnalysisMode::presets();
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
    fn names_round_trip_and_reject_unknown() {
        for label in ["native", "continuous", "demand-hitm", "demand-oracle"] {
            assert_eq!(AnalysisMode::from_label(label).unwrap().label(), label);
        }
        for name in ["fasttrack", "djit", "lockset"] {
            assert_eq!(DetectorKind::from_name(name).unwrap().name(), name);
        }
        // Near misses are errors (the CLI prints them), never a fallback.
        for bad in ["demand-off", "Continuous", "demand", ""] {
            let err = AnalysisMode::from_label(bad).unwrap_err();
            assert_eq!(err, format!("unknown mode `{bad}`"));
        }
        for bad in ["FastTrack", "lock-set", ""] {
            let err = DetectorKind::from_name(bad).unwrap_err();
            assert_eq!(err, format!("unknown detector `{bad}`"));
        }
    }

    #[test]
    fn config_construction_and_validation() {
        let cfg = SimConfig::new(4, AnalysisMode::Continuous);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.detector_kind, DetectorKind::FastTrack);
    }

    #[test]
    fn bad_settings_are_refused() {
        let mut mismatched = SimConfig::new(4, AnalysisMode::Native);
        mismatched.cores = 8;
        let mut no_quantum = SimConfig::new(4, AnalysisMode::Native);
        no_quantum.scheduler.quantum = 0;
        let mut bad_l2 = SimConfig::new(4, AnalysisMode::Native);
        bad_l2.cache.l2.sets = 3;
        let zero_period = SimConfig::new(
            4,
            AnalysisMode::Demand {
                indicator: IndicatorMode::HitmSampling {
                    period: 0,
                    skid: 0,
                    include_rfo: false,
                },
                controller: ControllerConfig::default(),
            },
        );
        for (cfg, want) in [
            (mismatched, "must match core count"),
            (SimConfig::new(0, AnalysisMode::Native), "1..=64, got 0"),
            (SimConfig::new(65, AnalysisMode::Native), "1..=64, got 65"),
            (no_quantum, "quantum must be at least 1"),
            (bad_l2, "L2: sets must be a power of two"),
            (zero_period, "sample period must be ≥ 1"),
        ] {
            let err = cfg.validate().expect_err(want);
            assert!(err.contains(want), "`{err}` should say `{want}`");
        }
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
