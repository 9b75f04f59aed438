//! The variant axis: named per-job configuration overrides.
//!
//! The mode axis covers the paper's main comparison (native vs continuous
//! vs demand-driven), but the sensitivity experiments sweep *hardware and
//! tool configuration*: A3 shrinks the private caches until HITM recall
//! collapses, A5 packs more threads per core until coherence traffic
//! disappears. A [`JobVariant`] is one point of such a sweep — a name plus
//! a [`ConfigPatch`] of optional overrides — and
//! [`CampaignBuilder::variants`](crate::CampaignBuilder::variants) crosses
//! the variant axis with the workload × mode × seed axes.
//!
//! Variants are first-class campaign citizens: the variant name lands in
//! job labels, `job_started`/`job_finished` events, and the aggregate, and
//! the patch is hashed into the job fingerprint, so `--resume` can never
//! confuse two jobs that differ only in swept configuration.

use ddrace_cache::LevelConfig;
use ddrace_core::DetectorKind;
use ddrace_json::{ToJson, Value};
use ddrace_workloads::Scale;

/// Optional overrides a variant applies on top of the campaign-wide job
/// configuration. `None` fields inherit the builder's value.
///
/// Scalar overrides (`cores`, `quantum`, `scale`, `detector_kind`) are
/// materialized into the [`Job`](crate::Job)'s own fields at build time;
/// the nested overrides (cache geometry, demand-mode knobs) are applied in
/// [`Job::sim_config`](crate::Job::sim_config).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigPatch {
    /// Simulated core count.
    pub cores: Option<usize>,
    /// Scheduler quantum (cycles per timeslice).
    pub quantum: Option<u32>,
    /// Workload scale preset.
    pub scale: Option<Scale>,
    /// Detector implementation.
    pub detector_kind: Option<DetectorKind>,
    /// Private L1 geometry.
    pub l1: Option<LevelConfig>,
    /// Private L2 geometry.
    pub l2: Option<LevelConfig>,
    /// Shared L3 geometry.
    pub l3: Option<LevelConfig>,
    /// HITM sample-after value (demand modes with a sampling indicator).
    pub sample_period: Option<u64>,
    /// Controller cooldown in analyzed accesses (demand modes).
    pub cooldown_accesses: Option<u64>,
}

impl ConfigPatch {
    /// True when the patch overrides nothing.
    pub fn is_identity(&self) -> bool {
        *self == ConfigPatch::default()
    }
}

impl ToJson for ConfigPatch {
    /// Canonical JSON for fingerprinting: only the overridden fields, in a
    /// fixed order, so adding a new `None` field later never perturbs
    /// existing fingerprints.
    fn to_json(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(cores) = self.cores {
            fields.push(("cores".to_string(), Value::UInt(cores as u64)));
        }
        if let Some(quantum) = self.quantum {
            fields.push(("quantum".to_string(), Value::UInt(u64::from(quantum))));
        }
        if let Some(scale) = self.scale {
            fields.push(("scale".to_string(), scale.to_json()));
        }
        if let Some(kind) = self.detector_kind {
            fields.push(("detector_kind".to_string(), kind.to_json()));
        }
        if let Some(l1) = self.l1 {
            fields.push(("l1".to_string(), l1.to_json()));
        }
        if let Some(l2) = self.l2 {
            fields.push(("l2".to_string(), l2.to_json()));
        }
        if let Some(l3) = self.l3 {
            fields.push(("l3".to_string(), l3.to_json()));
        }
        if let Some(period) = self.sample_period {
            fields.push(("sample_period".to_string(), Value::UInt(period)));
        }
        if let Some(cooldown) = self.cooldown_accesses {
            fields.push(("cooldown_accesses".to_string(), Value::UInt(cooldown)));
        }
        Value::Object(fields)
    }
}

/// One point of the variant axis: a name (it suffixes job labels and tags
/// events and aggregate records) plus the configuration it applies.
#[derive(Debug, Clone, PartialEq)]
pub struct JobVariant {
    /// Short name, e.g. `c4` or `16KiB`. Appears in labels as
    /// `workload/mode/s{seed}/{name}`.
    pub name: String,
    /// The overrides this variant applies.
    pub patch: ConfigPatch,
}

impl JobVariant {
    /// A named variant with the given patch.
    pub fn new(name: impl Into<String>, patch: ConfigPatch) -> JobVariant {
        JobVariant {
            name: name.into(),
            patch,
        }
    }

    /// The implicit single point of a campaign without a variant axis.
    /// Baseline jobs keep the historical label, fingerprint, and aggregate
    /// shape — a campaign built without `variants(...)` is byte-identical
    /// to one built before the axis existed.
    pub fn baseline() -> JobVariant {
        JobVariant {
            name: "base".to_string(),
            patch: ConfigPatch::default(),
        }
    }

    /// True for the implicit no-override point created by
    /// [`JobVariant::baseline`].
    pub fn is_baseline(&self) -> bool {
        self.name == "base" && self.patch.is_identity()
    }

    /// A `c{cores}` variant overriding only the simulated core count —
    /// the A5 SMT sweep's axis (thread `t` runs on core `t mod cores`, so
    /// fewer cores co-schedule more threads per core). Unchecked, like
    /// every patch: [`SimConfig::validate`](ddrace_core::SimConfig::validate)
    /// judges the [`Job::sim_config`](crate::Job::sim_config) it yields.
    pub fn with_cores(cores: usize) -> JobVariant {
        JobVariant {
            name: format!("c{cores}"),
            patch: ConfigPatch {
                cores: Some(cores),
                ..ConfigPatch::default()
            },
        }
    }

    /// A private-cache-size variant: `l2_sets` 8-way L2 sets with the L1
    /// co-scaled at 1/8 of the L2 (floor of 2 sets), the geometry the A3
    /// sweep uses. The label names the **L2** capacity; the sweep scales
    /// the whole private hierarchy, not the L2 alone (see EXPERIMENTS.md).
    /// Unchecked, like [`JobVariant::with_cores`].
    pub fn private_cache(label: impl Into<String>, l2_sets: usize) -> JobVariant {
        JobVariant {
            name: label.into(),
            patch: ConfigPatch {
                l1: Some(LevelConfig {
                    sets: (l2_sets / 8).max(2),
                    ways: 8,
                    latency: 4,
                }),
                l2: Some(LevelConfig {
                    sets: l2_sets,
                    ways: 8,
                    latency: 12,
                }),
                ..ConfigPatch::default()
            },
        }
    }

    /// The canonical five-point private-cache ladder of experiment A3:
    /// 16 KiB to 4 MiB of private L2 (L1 co-scaled at 1/8). Labels name
    /// the L2 capacity.
    pub fn private_cache_sweep() -> Vec<JobVariant> {
        [
            ("16KiB", 32usize),
            ("64KiB", 128),
            ("256KiB", 512),
            ("1MiB", 2048),
            ("4MiB", 8192),
        ]
        .into_iter()
        .map(|(label, sets)| JobVariant::private_cache(label, sets))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_patch_is_identity() {
        assert!(ConfigPatch::default().is_identity());
        let patched = ConfigPatch {
            cores: Some(4),
            ..ConfigPatch::default()
        };
        assert!(!patched.is_identity());
    }

    #[test]
    fn baseline_detection() {
        assert!(JobVariant::baseline().is_baseline());
        assert!(!JobVariant::with_cores(4).is_baseline());
        // A named variant with an identity patch is not the baseline: the
        // caller asked for a labelled axis point.
        assert!(!JobVariant::new("foo", ConfigPatch::default()).is_baseline());
    }

    #[test]
    fn patch_json_is_sparse_and_ordered() {
        assert_eq!(ConfigPatch::default().to_json().to_compact(), "{}");
        let patch = ConfigPatch {
            quantum: Some(8),
            cores: Some(2),
            ..ConfigPatch::default()
        };
        // Field order is fixed (declaration order), not insertion order.
        assert_eq!(patch.to_json().to_compact(), "{\"cores\":2,\"quantum\":8}");
    }

    #[test]
    fn cache_sweep_geometry_matches_a3_formula() {
        let v = JobVariant::private_cache("16KiB", 32);
        let l1 = v.patch.l1.unwrap();
        let l2 = v.patch.l2.unwrap();
        assert_eq!(l1.sets, 4); // 32/8
        assert_eq!(l2.sets, 32);
        // Floor: a tiny L2 still leaves a 2-set L1.
        let tiny = JobVariant::private_cache("tiny", 8);
        assert_eq!(tiny.patch.l1.unwrap().sets, 2);
        assert_eq!(JobVariant::private_cache_sweep().len(), 5);
    }
}
