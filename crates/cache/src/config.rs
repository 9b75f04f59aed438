//! Cache hierarchy configuration.

/// Geometry of one cache level.
///
/// # Examples
///
/// ```
/// use ddrace_cache::LevelConfig;
/// let l1 = LevelConfig { sets: 64, ways: 8, latency: 4 };
/// assert_eq!(l1.lines(), 512);
/// assert_eq!(l1.capacity_bytes(64), 32 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelConfig {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Access latency in cycles.
    pub latency: u32,
}

impl LevelConfig {
    /// Total number of line slots in the level.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Capacity in bytes for a given line size.
    pub fn capacity_bytes(&self, line_size: u64) -> u64 {
        self.lines() as u64 * line_size
    }

    /// Checks the geometry.
    ///
    /// # Errors
    ///
    /// Returns a message naming the level `name` if `sets` is not a power
    /// of two or `ways` is zero.
    pub fn validate(&self, name: &str) -> Result<(), String> {
        if !self.sets.is_power_of_two() {
            return Err(format!(
                "{name}: sets must be a power of two, got {}",
                self.sets
            ));
        }
        if self.ways == 0 {
            return Err(format!("{name}: ways must be positive"));
        }
        Ok(())
    }
}

/// Full configuration of the simulated memory system.
///
/// Defaults model a Nehalem-class part, the microarchitecture the paper's
/// `MEM_UNCORE_RETIRED.OTHER_CORE_L2_HITM` event belongs to: 32 KiB L1 and
/// 256 KiB L2 per core, shared inclusive 8 MiB L3, 64-byte lines. The
/// ground-truth sharing tracker (the oracle indicator) is always on.
///
/// The constructors do not check their input; [`CacheConfig::validate`]
/// does, and [`CacheHierarchy::new`](crate::CacheHierarchy::new) panics
/// on a config it refuses.
///
/// # Examples
///
/// ```
/// use ddrace_cache::CacheConfig;
/// let cfg = CacheConfig::nehalem(8);
/// assert_eq!(cfg.cores, 8);
/// assert_eq!(cfg.line_size, 64);
/// let tiny = CacheConfig::tiny(2);
/// assert!(tiny.l1.lines() < cfg.l1.lines());
/// assert!(CacheConfig::nehalem(65).validate().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of cores (each with a private L1 and L2). At most 64.
    pub cores: usize,
    /// Cache line size in bytes. Must be a power of two.
    pub line_size: u64,
    /// Private L1 geometry.
    pub l1: LevelConfig,
    /// Private L2 geometry.
    pub l2: LevelConfig,
    /// Shared, inclusive L3 geometry.
    pub l3: LevelConfig,
    /// Main memory latency in cycles.
    pub mem_latency: u32,
    /// Cache-to-cache (HITM) transfer latency in cycles.
    pub c2c_latency: u32,
    /// Extra cycles for an S→M upgrade (invalidation round-trip).
    pub upgrade_latency: u32,
    /// Extra cycles for an atomic (locked) access.
    pub atomic_latency: u32,
    /// Enable the next-line hardware prefetcher: every private-cache miss
    /// also pulls the following line into the requesting core's L2.
    /// Prefetches that hit a remote **modified** line downgrade it early,
    /// so the later demand load hits locally and the PMU's retired-load
    /// HITM event never fires — a real-hardware perturbation of the
    /// paper's indicator.
    pub prefetch_next_line: bool,
}

impl CacheConfig {
    /// Nehalem-class configuration for `cores` cores.
    pub fn nehalem(cores: usize) -> Self {
        CacheConfig {
            cores,
            line_size: 64,
            l1: LevelConfig {
                sets: 64,
                ways: 8,
                latency: 4,
            },
            l2: LevelConfig {
                sets: 512,
                ways: 8,
                latency: 12,
            },
            l3: LevelConfig {
                sets: 8192,
                ways: 16,
                latency: 40,
            },
            mem_latency: 200,
            c2c_latency: 60,
            upgrade_latency: 20,
            atomic_latency: 8,
            prefetch_next_line: false,
        }
    }

    /// A deliberately tiny hierarchy for unit tests: high eviction pressure
    /// with only a handful of accesses.
    pub fn tiny(cores: usize) -> Self {
        CacheConfig {
            cores,
            line_size: 64,
            l1: LevelConfig {
                sets: 2,
                ways: 2,
                latency: 4,
            },
            l2: LevelConfig {
                sets: 4,
                ways: 2,
                latency: 12,
            },
            l3: LevelConfig {
                sets: 16,
                ways: 4,
                latency: 40,
            },
            mem_latency: 200,
            c2c_latency: 60,
            upgrade_latency: 20,
            atomic_latency: 8,
            prefetch_next_line: false,
        }
    }

    /// Checks the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if any dimension is unusable, if `cores` is 0 or
    /// exceeds 64 (the directory presence mask is a `u64`), or if the L3
    /// is smaller than a single private L2 (inclusion would thrash
    /// pathologically).
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=64).contains(&self.cores) {
            return Err(format!("cores must be in 1..=64, got {}", self.cores));
        }
        if !self.line_size.is_power_of_two() {
            return Err(format!(
                "line size must be a power of two, got {}",
                self.line_size
            ));
        }
        self.l1.validate("L1")?;
        self.l2.validate("L2")?;
        self.l3.validate("L3")?;
        if self.l3.lines() < self.l2.lines() {
            return Err("inclusive L3 must be at least as large as one private L2".to_string());
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::nehalem(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nehalem_capacities() {
        let cfg = CacheConfig::nehalem(4);
        assert_eq!(cfg.l1.capacity_bytes(cfg.line_size), 32 * 1024);
        assert_eq!(cfg.l2.capacity_bytes(cfg.line_size), 256 * 1024);
        assert_eq!(cfg.l3.capacity_bytes(cfg.line_size), 8 * 1024 * 1024);
    }

    #[test]
    fn default_is_nehalem_8() {
        assert_eq!(CacheConfig::default(), CacheConfig::nehalem(8));
    }

    #[test]
    fn bad_configs_are_refused() {
        let l3_below_l2 = CacheConfig {
            l3: LevelConfig {
                sets: 1,
                ways: 1,
                latency: 40,
            },
            ..CacheConfig::tiny(1)
        };
        let mut bad_sets = CacheConfig::tiny(1);
        bad_sets.l1.sets = 3;
        let mut no_ways = CacheConfig::tiny(1);
        no_ways.l2.ways = 0;
        for (cfg, want) in [
            (CacheConfig::nehalem(0), "cores must be in 1..=64, got 0"),
            (CacheConfig::nehalem(65), "cores must be in 1..=64, got 65"),
            (bad_sets, "L1: sets must be a power of two, got 3"),
            (no_ways, "L2: ways must be positive"),
            (l3_below_l2, "inclusive L3"),
        ] {
            let err = cfg.validate().expect_err(want);
            assert!(err.contains(want), "`{err}` should say `{want}`");
        }
        assert_eq!(CacheConfig::nehalem(64).validate(), Ok(()));
        assert_eq!(CacheConfig::tiny(1).validate(), Ok(()));
    }
}

ddrace_json::json_struct!(LevelConfig {
    sets,
    ways,
    latency
});
ddrace_json::json_struct!(CacheConfig {
    cores,
    line_size,
    l1,
    l2,
    l3,
    mem_latency,
    c2c_latency,
    upgrade_latency,
    atomic_latency,
    prefetch_next_line
});
