//! Per-access outcomes and coherence events.

use std::fmt;

/// Identifier of a core in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u32);

impl CoreId {
    /// Creates a core id from a dense index.
    pub fn new(index: u32) -> Self {
        CoreId(index)
    }

    /// Returns the dense index of this core id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Where in the hierarchy an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitWhere {
    /// Private L1 hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Shared L3 hit (no remote modified copy).
    L3,
    /// Served by another core's private cache holding the line Modified —
    /// a cache-to-cache "HITM" transfer.
    RemoteCache,
    /// Served by main memory.
    Memory,
}

impl HitWhere {
    /// Returns `true` if the access missed the entire cache hierarchy.
    pub fn is_memory(self) -> bool {
        self == HitWhere::Memory
    }

    /// Returns `true` if the access left the requesting core's private
    /// caches (L3, remote cache, or memory).
    pub fn left_core(self) -> bool {
        !matches!(self, HitWhere::L1 | HitWhere::L2)
    }
}

/// The kind of program-level inter-thread sharing an access exhibited,
/// according to the ground-truth tracker (which never forgets, unlike the
/// caches).
///
/// Events fire once per communication: a W→R fires the first time each
/// remote core reads a given write, not on every subsequent re-read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingKind {
    /// This read observed data last written by another core.
    WriteRead,
    /// This write overwrote data last written by another core.
    WriteWrite,
    /// This write overwrote data read (since the last write) by another
    /// core.
    ReadWrite,
}

impl fmt::Display for SharingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SharingKind::WriteRead => "W→R",
            SharingKind::WriteWrite => "W→W",
            SharingKind::ReadWrite => "R→W",
        };
        f.write_str(s)
    }
}

/// Everything the memory system reports about one access.
///
/// `hitm_owner` is the signal behind the paper's mechanism: it is `Some`
/// exactly when this access was a **load served by a remote modified
/// line** — the event a Nehalem PMU counts as
/// `MEM_UNCORE_RETIRED.OTHER_CORE_L2_HITM`. Write misses that hit a remote
/// modified line are reported separately in `rfo_hitm_owner` because the
/// hardware load event does *not* count them (a key imprecision the paper
/// works around).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency of the access in cycles.
    pub latency: u32,
    /// Where the access was satisfied.
    pub hit: HitWhere,
    /// The cache line (line address) touched.
    pub line: u64,
    /// `Some(owner)` if this was a load served by `owner`'s modified line.
    pub hitm_owner: Option<CoreId>,
    /// `Some(owner)` if this was a store whose ownership request hit
    /// `owner`'s modified line.
    pub rfo_hitm_owner: Option<CoreId>,
    /// Remote private-cache copies invalidated by this access.
    pub invalidations: u32,
    /// Ground-truth sharing exhibited by this access. A write can exhibit
    /// both W→W and R→W; the tuple covers that.
    pub sharing: (Option<SharingKind>, Option<SharingKind>),
}

impl AccessResult {
    /// Returns `true` if this access produced the PMU-visible HITM load
    /// event.
    pub fn is_hitm_load(&self) -> bool {
        self.hitm_owner.is_some()
    }

    /// Returns `true` if the ground-truth tracker saw any inter-thread
    /// sharing on this access.
    pub fn is_true_sharing(&self) -> bool {
        self.sharing.0.is_some() || self.sharing.1.is_some()
    }

    /// Iterates over the (0, 1, or 2) sharing kinds this access exhibited.
    pub fn sharing_kinds(&self) -> impl Iterator<Item = SharingKind> {
        self.sharing.0.into_iter().chain(self.sharing.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_basics() {
        assert_eq!(CoreId::new(3).index(), 3);
        assert_eq!(format!("{}", CoreId(5)), "C5");
    }

    #[test]
    fn hit_where_predicates() {
        assert!(HitWhere::Memory.is_memory());
        assert!(!HitWhere::L3.is_memory());
        assert!(HitWhere::L3.left_core());
        assert!(HitWhere::RemoteCache.left_core());
        assert!(HitWhere::Memory.left_core());
        assert!(!HitWhere::L1.left_core());
        assert!(!HitWhere::L2.left_core());
    }

    #[test]
    fn sharing_kind_display() {
        assert_eq!(format!("{}", SharingKind::WriteRead), "W→R");
        assert_eq!(format!("{}", SharingKind::WriteWrite), "W→W");
        assert_eq!(format!("{}", SharingKind::ReadWrite), "R→W");
    }

    #[test]
    fn access_result_predicates() {
        let base = AccessResult {
            latency: 4,
            hit: HitWhere::L1,
            line: 0,
            hitm_owner: None,
            rfo_hitm_owner: None,
            invalidations: 0,
            sharing: (None, None),
        };
        assert!(!base.is_hitm_load());
        assert!(!base.is_true_sharing());
        assert_eq!(base.sharing_kinds().count(), 0);

        let hitm = AccessResult {
            hitm_owner: Some(CoreId(1)),
            ..base
        };
        assert!(hitm.is_hitm_load());

        let shared = AccessResult {
            sharing: (Some(SharingKind::WriteWrite), Some(SharingKind::ReadWrite)),
            ..base
        };
        assert!(shared.is_true_sharing());
        assert_eq!(
            shared.sharing_kinds().collect::<Vec<_>>(),
            vec![SharingKind::WriteWrite, SharingKind::ReadWrite]
        );
    }
}

ddrace_json::json_newtype!(CoreId);
ddrace_json::json_unit_enum!(HitWhere {
    L1,
    L2,
    L3,
    RemoteCache,
    Memory
});
ddrace_json::json_unit_enum!(SharingKind {
    WriteRead,
    WriteWrite,
    ReadWrite
});
ddrace_json::json_struct!(AccessResult {
    latency,
    hit,
    line,
    hitm_owner,
    rfo_hitm_owner,
    invalidations,
    sharing
});
