//! The multicore cache hierarchy: private L1/L2 per core, shared inclusive
//! L3 with an in-cache directory, MESI coherence.
//!
//! ## Model
//!
//! * **L1**: per-core, presence-only (its coherence state lives in the
//!   inclusive L2). Silent evictions.
//! * **L2**: per-core, holds the MESI state of every privately cached line.
//! * **L3**: shared and inclusive of all private caches. Each L3 line is a
//!   directory entry: a presence bitmask over cores, the exclusive owner
//!   (the core that may hold the line M or E), and a dirty bit (L3 data
//!   newer than memory).
//!
//! The **HITM** event — the signal the paper's whole mechanism rests on —
//! is generated when a *load* misses the private caches and the directory
//! shows a remote owner whose copy is **Modified**: the data is forwarded
//! cache-to-cache and the event is attributed to the loading core, exactly
//! like `MEM_UNCORE_RETIRED.OTHER_CORE_L2_HITM`. Stores hitting a remote
//! modified line are *RFO-HITMs*, which that hardware event does **not**
//! count; they are tracked separately so experiments can quantify the
//! difference. And crucially, a modified line evicted to L3/memory before
//! the consumer arrives produces **no** HITM — that loss is what separates
//! the realistic indicator from the oracle.

use crate::array::CacheArray;
use crate::config::CacheConfig;
use crate::event::{AccessResult, CoreId, HitWhere, SharingKind};
use crate::mesi::MesiState;
use crate::sharing::SharingTracker;
use crate::stats::CacheStats;
use ddrace_program::{AccessKind, Addr};

/// Directory entry stored with each L3 line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DirEntry {
    /// Bitmask of cores whose private L2 holds the line.
    presence: u64,
    /// Core that may hold the line in M or E state, if any.
    owner: Option<CoreId>,
    /// L3 data newer than memory.
    dirty: bool,
}

/// The simulated multicore memory system.
///
/// # Examples
///
/// ```
/// use ddrace_cache::{CacheConfig, CacheHierarchy, CoreId, HitWhere};
/// use ddrace_program::{AccessKind, Addr};
///
/// let mut mem = CacheHierarchy::new(CacheConfig::nehalem(2));
/// let x = Addr(0x1000);
/// // Core 0 writes, core 1 reads: the read is served cache-to-cache and
/// // produces a PMU-visible HITM event.
/// mem.access(CoreId(0), x, AccessKind::Write);
/// let r = mem.access(CoreId(1), x, AccessKind::Read);
/// assert_eq!(r.hit, HitWhere::RemoteCache);
/// assert_eq!(r.hitm_owner, Some(CoreId(0)));
/// ```
#[derive(Debug)]
pub struct CacheHierarchy {
    config: CacheConfig,
    line_shift: u32,
    l1: Vec<CacheArray<()>>,
    l2: Vec<CacheArray<MesiState>>,
    l3: CacheArray<DirEntry>,
    tracker: SharingTracker,
    stats: CacheStats,
}

impl CacheHierarchy {
    /// Creates a hierarchy with all caches empty.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
        CacheHierarchy {
            line_shift: config.line_size.trailing_zeros(),
            l1: (0..config.cores)
                .map(|_| CacheArray::new(config.l1))
                .collect(),
            l2: (0..config.cores)
                .map(|_| CacheArray::new(config.l2))
                .collect(),
            l3: CacheArray::new(config.l3),
            tracker: SharingTracker::new(),
            stats: CacheStats::new(config.cores),
            config,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The line address of `addr`.
    pub fn line_of(&self, addr: Addr) -> u64 {
        addr.0 >> self.line_shift
    }

    /// Performs one memory access by `core` and returns its outcome.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the configuration.
    pub fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind) -> AccessResult {
        assert!(core.index() < self.config.cores, "core {core} out of range");
        let line = self.line_of(addr);
        let is_write = kind.is_write();

        let mut result = AccessResult {
            // Ground truth first: independent of cache contents.
            sharing: self.track_sharing(core, line, kind),
            ..blank_result(line)
        };

        if self.l1[core.index()].get(line).is_some() {
            self.access_private_hit(core, line, is_write, HitWhere::L1, &mut result);
        } else if self.l2[core.index()].contains(line) {
            self.access_private_hit(core, line, is_write, HitWhere::L2, &mut result);
            self.fill_l1(core, line);
        } else {
            self.access_miss(core, line, is_write, kind.is_atomic(), &mut result);
            self.fill_l1(core, line);
            if self.config.prefetch_next_line {
                self.prefetch(core, line + 1);
            }
        }

        if kind.is_atomic() {
            result.latency += self.config.atomic_latency;
        }

        let cs = &mut self.stats.per_core[core.index()];
        cs.accesses += 1;
        if kind.is_read() {
            cs.reads += 1;
        }
        if is_write {
            cs.writes += 1;
        }
        match result.hit {
            HitWhere::L1 => cs.l1_hits += 1,
            HitWhere::L2 => cs.l2_hits += 1,
            HitWhere::L3 => cs.l3_hits += 1,
            HitWhere::RemoteCache => cs.remote_hits += 1,
            HitWhere::Memory => cs.mem_accesses += 1,
        }
        if result.hitm_owner.is_some() {
            cs.hitm_loads += 1;
        }
        if result.rfo_hitm_owner.is_some() {
            cs.rfo_hitms += 1;
        }
        cs.total_latency += u64::from(result.latency);
        result
    }

    /// Classifies the access's ground-truth communication and adds it to
    /// the sharing totals in [`CacheStats::sharing`].
    fn track_sharing(
        &mut self,
        core: CoreId,
        line: u64,
        kind: AccessKind,
    ) -> (Option<SharingKind>, Option<SharingKind>) {
        let tracker = &mut self.tracker;
        let (wr, (ww, rw)) = match kind {
            AccessKind::Read | AccessKind::RelaxedLoad => {
                (tracker.on_read(core, line), (None, None))
            }
            AccessKind::Write | AccessKind::RelaxedStore => (None, tracker.on_write(core, line)),
            // The read half first, then the write half. Memory ordering is
            // irrelevant here: relaxed RMWs have the same coherence
            // footprint as acquire-release ones.
            AccessKind::AtomicRmw | AccessKind::RelaxedRmw => {
                (tracker.on_read(core, line), tracker.on_write(core, line))
            }
        };
        let totals = &mut self.stats.sharing;
        totals.write_read += u64::from(wr.is_some());
        totals.write_write += u64::from(ww.is_some());
        totals.read_write += u64::from(rw.is_some());
        // If an RMW's read (W→R) and write (W→W) see the same remote
        // writer, report the W→R: it is the same communication.
        (wr.or(ww), rw)
    }

    /// Handles an access whose line is present in the requesting core's
    /// private caches (`where_hit` is L1 or L2).
    fn access_private_hit(
        &mut self,
        core: CoreId,
        line: u64,
        is_write: bool,
        where_hit: HitWhere,
        result: &mut AccessResult,
    ) {
        result.hit = where_hit;
        result.latency += match where_hit {
            HitWhere::L1 => self.config.l1.latency,
            _ => self.config.l2.latency,
        };
        let state = *self.l2[core.index()]
            .get(line)
            .expect("inclusion: L1/L2-resident line must be in L2");
        if !is_write {
            return;
        }
        match state {
            MesiState::Modified => {}
            MesiState::Exclusive => {
                // Silent E→M upgrade; the directory already names us owner.
                *self.l2[core.index()].peek_mut(line).expect("present") = MesiState::Modified;
            }
            MesiState::Shared => {
                // S→M upgrade: invalidate all other sharers.
                result.latency += self.config.upgrade_latency;
                self.stats.per_core[core.index()].upgrades += 1;
                result.invalidations += self.invalidate_others(core, line);
                let dir = self.l3.peek_mut(line).expect("inclusion: L2 line in L3");
                dir.presence = 1 << core.index();
                dir.owner = Some(core);
                *self.l2[core.index()].peek_mut(line).expect("present") = MesiState::Modified;
            }
            MesiState::Invalid => unreachable!("present line cannot be Invalid"),
        }
    }

    /// Handles an access that missed the requesting core's private caches.
    fn access_miss(
        &mut self,
        core: CoreId,
        line: u64,
        is_write: bool,
        is_atomic: bool,
        result: &mut AccessResult,
    ) {
        let my_bit = 1u64 << core.index();
        let new_state;
        if let Some(dir) = self.l3.get_mut(line) {
            let dir = *dir;
            match dir.owner {
                Some(owner) if owner != core => {
                    let owner_state = *self.l2[owner.index()]
                        .peek(line)
                        .expect("directory owner must hold the line");
                    if owner_state == MesiState::Modified {
                        // Cache-to-cache forward of modified data.
                        result.latency += self.config.c2c_latency;
                        result.hit = HitWhere::RemoteCache;
                        if is_write {
                            // RFO-HITM: invisible to the hardware load event
                            // — unless the store is the write half of an
                            // atomic RMW, whose retired load µop *is*
                            // counted by the monitored event.
                            result.rfo_hitm_owner = Some(owner);
                            if is_atomic {
                                result.hitm_owner = Some(owner);
                            }
                            self.invalidate_core(owner, line);
                            result.invalidations += 1;
                            let d = self.l3.peek_mut(line).expect("present");
                            d.presence = my_bit;
                            d.owner = Some(core);
                            d.dirty = true;
                            new_state = MesiState::Modified;
                        } else {
                            // The PMU-visible HITM load.
                            result.hitm_owner = Some(owner);
                            *self.l2[owner.index()].peek_mut(line).expect("present") =
                                MesiState::Shared;
                            let d = self.l3.peek_mut(line).expect("present");
                            d.presence |= my_bit;
                            d.owner = None;
                            d.dirty = true; // M data written back into L3
                            new_state = MesiState::Shared;
                        }
                    } else {
                        // Owner holds the line clean (E): serve from L3.
                        result.latency += self.config.l3.latency;
                        result.hit = HitWhere::L3;
                        if is_write {
                            self.invalidate_core(owner, line);
                            result.invalidations += 1;
                            let d = self.l3.peek_mut(line).expect("present");
                            d.presence = my_bit;
                            d.owner = Some(core);
                            new_state = MesiState::Modified;
                        } else {
                            *self.l2[owner.index()].peek_mut(line).expect("present") =
                                MesiState::Shared;
                            let d = self.l3.peek_mut(line).expect("present");
                            d.presence |= my_bit;
                            d.owner = None;
                            new_state = MesiState::Shared;
                        }
                    }
                }
                _ => {
                    // No remote owner: serve from L3.
                    result.latency += self.config.l3.latency;
                    result.hit = HitWhere::L3;
                    if is_write {
                        result.invalidations += self.invalidate_others(core, line);
                        let d = self.l3.peek_mut(line).expect("present");
                        d.presence = my_bit;
                        d.owner = Some(core);
                        new_state = MesiState::Modified;
                    } else {
                        let d = self.l3.peek_mut(line).expect("present");
                        if d.presence == 0 {
                            d.owner = Some(core);
                            new_state = MesiState::Exclusive;
                        } else {
                            new_state = MesiState::Shared;
                        }
                        d.presence |= my_bit;
                    }
                }
            }
        } else {
            // L3 miss: fetch from memory, allocate in L3.
            result.latency += self.config.mem_latency;
            result.hit = HitWhere::Memory;
            new_state = if is_write {
                MesiState::Modified
            } else {
                MesiState::Exclusive
            };
            let entry = DirEntry {
                presence: my_bit,
                owner: Some(core),
                dirty: false,
            };
            if let Some((victim_line, victim)) = self.l3.insert(line, entry) {
                self.evict_l3_victim(victim_line, victim);
            }
        }
        self.fill_l2(core, line, new_state);
    }

    /// Pulls `line` into `core`'s L2 with read intent, off the critical
    /// path: the miss protocol of a load, with no latency charged, no
    /// sharing-tracker update and no PMU-visible HITM. A prefetch that
    /// hits a remote Modified line downgrades it — the "stolen" HITM the
    /// retired-load counter will now never see.
    fn prefetch(&mut self, core: CoreId, line: u64) {
        if self.l1[core.index()].contains(line) || self.l2[core.index()].contains(line) {
            return;
        }
        self.stats.prefetches += 1;
        let mut scratch = blank_result(line);
        self.access_miss(core, line, false, false, &mut scratch);
        if scratch.hitm_owner.is_some() {
            self.stats.prefetch_steals += 1;
        }
    }

    /// Installs `line` in `core`'s L2, handling the eviction of the victim
    /// (directory update, writeback accounting, L1 back-invalidation).
    fn fill_l2(&mut self, core: CoreId, line: u64, state: MesiState) {
        if let Some((victim_line, victim_state)) = self.l2[core.index()].insert(line, state) {
            self.stats.per_core[core.index()].l2_evictions += 1;
            // Inclusion: the L1 copy (if any) goes too.
            self.l1[core.index()].remove(victim_line);
            let dir = self
                .l3
                .peek_mut(victim_line)
                .expect("inclusion: every L2 line has an L3 directory entry");
            dir.presence &= !(1 << core.index());
            if dir.owner == Some(core) {
                dir.owner = None;
            }
            if victim_state == MesiState::Modified {
                self.stats.per_core[core.index()].l2_dirty_evictions += 1;
                dir.dirty = true;
            }
        }
    }

    /// Installs `line` in `core`'s L1 (silent victim, data still in L2).
    fn fill_l1(&mut self, core: CoreId, line: u64) {
        let _ = self.l1[core.index()].insert(line, ());
    }

    /// Invalidates `line` from every private cache except `core`'s,
    /// returning how many copies were dropped.
    fn invalidate_others(&mut self, core: CoreId, line: u64) -> u32 {
        let dir = match self.l3.peek(line) {
            Some(d) => *d,
            None => return 0,
        };
        let mut dropped = 0;
        // Iterate set presence bits directly instead of scanning all cores.
        let mut mask = dir.presence & !(1u64 << core.index());
        while mask != 0 {
            let i = mask.trailing_zeros();
            mask &= mask - 1;
            self.invalidate_core(CoreId(i), line);
            dropped += 1;
        }
        dropped
    }

    /// Drops `line` from one core's private caches.
    fn invalidate_core(&mut self, core: CoreId, line: u64) {
        self.l1[core.index()].remove(line);
        self.l2[core.index()].remove(line);
        self.stats.per_core[core.index()].invalidations_received += 1;
    }

    /// Handles an L3 eviction: back-invalidates every private copy
    /// (inclusion) and writes dirty data to memory.
    fn evict_l3_victim(&mut self, victim_line: u64, victim: DirEntry) {
        self.stats.l3_evictions += 1;
        let mut dirty = victim.dirty;
        let mut mask = victim.presence;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.l2[i].peek(victim_line) == Some(&MesiState::Modified) {
                dirty = true;
            }
            self.invalidate_core(CoreId(i as u32), victim_line);
            self.stats.back_invalidations += 1;
        }
        if dirty {
            self.stats.memory_writebacks += 1;
        }
    }

    /// Verifies the structural invariants of the hierarchy. Intended for
    /// tests; cost is proportional to total cached lines.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (c, l1) in self.l1.iter().enumerate() {
            for (line, _) in l1.iter() {
                if !self.l2[c].contains(line) {
                    return Err(format!(
                        "L1 of core {c} holds line {line:#x} missing from L2"
                    ));
                }
            }
        }
        for (c, l2) in self.l2.iter().enumerate() {
            for (line, state) in l2.iter() {
                let Some(dir) = self.l3.peek(line) else {
                    return Err(format!(
                        "L2 of core {c} holds line {line:#x} missing from L3"
                    ));
                };
                if dir.presence & (1 << c) == 0 {
                    return Err(format!(
                        "directory presence for line {line:#x} misses core {c}"
                    ));
                }
                match state {
                    MesiState::Modified | MesiState::Exclusive => {
                        if dir.owner != Some(CoreId(c as u32)) {
                            return Err(format!(
                                "line {line:#x} is {state} in core {c} but directory owner is {:?}",
                                dir.owner
                            ));
                        }
                        if dir.presence.count_ones() != 1 {
                            return Err(format!(
                                "line {line:#x} is {state} but has {} sharers",
                                dir.presence.count_ones()
                            ));
                        }
                    }
                    MesiState::Shared => {
                        if dir.owner == Some(CoreId(c as u32)) {
                            return Err(format!(
                                "line {line:#x} is S in core {c} yet core {c} is owner"
                            ));
                        }
                    }
                    MesiState::Invalid => {
                        return Err(format!("line {line:#x} stored as Invalid in core {c}"));
                    }
                }
            }
        }
        // Directory presence bits must be backed by actual L2 contents.
        for (line, dir) in self.l3.iter() {
            for c in 0..self.config.cores {
                if dir.presence & (1 << c) != 0 && !self.l2[c].contains(line) {
                    return Err(format!(
                        "directory says core {c} holds line {line:#x} but its L2 does not"
                    ));
                }
            }
            if let Some(owner) = dir.owner {
                if dir.presence & (1 << owner.index()) == 0 {
                    return Err(format!(
                        "directory owner {owner} of line {line:#x} is not present"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The outcome of an access to `line` before the hierarchy fills it in.
fn blank_result(line: u64) -> AccessResult {
    AccessResult {
        latency: 0,
        hit: HitWhere::L1,
        line,
        hitm_owner: None,
        rfo_hitm_owner: None,
        invalidations: 0,
        sharing: (None, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const C2: CoreId = CoreId(2);

    fn mem(cores: usize) -> CacheHierarchy {
        CacheHierarchy::new(CacheConfig::nehalem(cores))
    }

    #[test]
    fn cold_read_goes_to_memory_then_hits_l1() {
        let mut m = mem(2);
        let a = Addr(0x1000);
        let r1 = m.access(C0, a, AccessKind::Read);
        assert_eq!(r1.hit, HitWhere::Memory);
        assert_eq!(r1.latency, 200);
        let r2 = m.access(C0, a, AccessKind::Read);
        assert_eq!(r2.hit, HitWhere::L1);
        assert_eq!(r2.latency, 4);
        m.check_invariants().unwrap();
    }

    #[test]
    fn write_read_across_cores_is_hitm() {
        let mut m = mem(2);
        let a = Addr(0x1000);
        m.access(C0, a, AccessKind::Write);
        let r = m.access(C1, a, AccessKind::Read);
        assert_eq!(r.hit, HitWhere::RemoteCache);
        assert_eq!(r.hitm_owner, Some(C0));
        assert_eq!(r.latency, 60);
        assert_eq!(r.sharing.0, Some(SharingKind::WriteRead));
        assert_eq!(m.stats().total_hitm_loads(), 1);
        m.check_invariants().unwrap();
        // Both copies are now Shared; a re-read by either is a private hit
        // with no further HITM.
        let r2 = m.access(C0, a, AccessKind::Read);
        assert_eq!(r2.hit, HitWhere::L1);
        assert_eq!(m.stats().total_hitm_loads(), 1);
    }

    #[test]
    fn write_after_remote_write_is_rfo_hitm_not_hitm() {
        let mut m = mem(2);
        let a = Addr(0x1000);
        m.access(C0, a, AccessKind::Write);
        let r = m.access(C1, a, AccessKind::Write);
        assert_eq!(r.hit, HitWhere::RemoteCache);
        assert_eq!(r.hitm_owner, None);
        assert_eq!(r.rfo_hitm_owner, Some(C0));
        assert_eq!(r.invalidations, 1);
        assert_eq!(m.stats().total_hitm_loads(), 0);
        assert_eq!(m.stats().total_rfo_hitms(), 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn read_read_sharing_is_not_hitm() {
        let mut m = mem(2);
        let a = Addr(0x1000);
        m.access(C0, a, AccessKind::Read);
        let r = m.access(C1, a, AccessKind::Read);
        assert_eq!(r.hit, HitWhere::L3);
        assert_eq!(r.hitm_owner, None);
        assert!(!r.is_true_sharing());
        m.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_read_then_remote_read_served_from_l3() {
        let mut m = mem(2);
        let a = Addr(0x1000);
        m.access(C0, a, AccessKind::Read); // C0 gets E
        let r = m.access(C1, a, AccessKind::Read);
        assert_eq!(r.hit, HitWhere::L3);
        assert_eq!(r.hitm_owner, None);
        m.check_invariants().unwrap();
    }

    #[test]
    fn shared_upgrade_invalidates_other_sharers() {
        let mut m = mem(3);
        let a = Addr(0x1000);
        m.access(C0, a, AccessKind::Read);
        m.access(C1, a, AccessKind::Read);
        m.access(C2, a, AccessKind::Read);
        let r = m.access(C0, a, AccessKind::Write);
        assert_eq!(r.invalidations, 2);
        assert_eq!(r.hit, HitWhere::L1); // upgrade on a present line
        assert!(r.latency >= 4 + 20);
        m.check_invariants().unwrap();
        // The other cores re-read via HITM (C0's copy is now M).
        let r2 = m.access(C1, a, AccessKind::Read);
        assert_eq!(r2.hitm_owner, Some(C0));
    }

    #[test]
    fn silent_e_to_m_upgrade() {
        let mut m = mem(2);
        let a = Addr(0x1000);
        m.access(C0, a, AccessKind::Read); // E
        let r = m.access(C0, a, AccessKind::Write); // E→M, no invalidations
        assert_eq!(r.hit, HitWhere::L1);
        assert_eq!(r.latency, 4);
        assert_eq!(r.invalidations, 0);
        // Remote read now sees modified data: HITM.
        let r2 = m.access(C1, a, AccessKind::Read);
        assert_eq!(r2.hitm_owner, Some(C0));
        m.check_invariants().unwrap();
    }

    #[test]
    fn atomic_rmw_costs_extra_and_is_hitm_visible() {
        let mut m = mem(2);
        let a = Addr(0x1000);
        m.access(C0, a, AccessKind::Write);
        let r = m.access(C1, a, AccessKind::AtomicRmw);
        // The RMW *reads* remote-modified data: counted as a HITM load.
        assert_eq!(r.hitm_owner, Some(C0));
        assert_eq!(r.latency, 60 + 8);
        assert_eq!(r.sharing.0, Some(SharingKind::WriteRead));
        m.check_invariants().unwrap();
    }

    #[test]
    fn eviction_loses_hitm_but_oracle_still_sees_sharing() {
        // Tiny caches: C0 writes a line, then streams enough data to evict
        // it. C1's later read misses to memory/L3 — no HITM — but the
        // ground-truth tracker still reports W→R sharing. This is the core
        // imprecision of the hardware indicator.
        let mut m = CacheHierarchy::new(CacheConfig::tiny(2));
        let target = Addr(0x1000);
        m.access(C0, target, AccessKind::Write);
        // Stream addresses mapping over every set to force eviction.
        for i in 0..64u64 {
            m.access(C0, Addr(0x8000 + i * 64), AccessKind::Write);
        }
        let r = m.access(C1, target, AccessKind::Read);
        assert_eq!(r.hitm_owner, None, "evicted line must not HITM");
        assert_eq!(r.sharing.0, Some(SharingKind::WriteRead));
        assert_eq!(m.stats().sharing.write_read, 1);
        assert_eq!(m.stats().total_hitm_loads(), 0);
        assert!(m.stats().hitm_recall() < 1.0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn l2_dirty_eviction_is_counted() {
        let mut m = CacheHierarchy::new(CacheConfig::tiny(1));
        // Write more distinct lines than the L2 holds (4 sets × 2 ways = 8).
        for i in 0..32u64 {
            m.access(C0, Addr(0x1000 + i * 64), AccessKind::Write);
        }
        assert!(m.stats().per_core[0].l2_dirty_evictions > 0);
        assert!(m.stats().per_core[0].l2_evictions >= m.stats().per_core[0].l2_dirty_evictions);
        m.check_invariants().unwrap();
    }

    #[test]
    fn l3_eviction_back_invalidates() {
        let mut m = CacheHierarchy::new(CacheConfig::tiny(2));
        let a = Addr(0x1000);
        m.access(C0, a, AccessKind::Read);
        m.access(C1, a, AccessKind::Read);
        // Thrash L3 (16 sets × 4 ways = 64 lines) from core 0.
        for i in 0..512u64 {
            m.access(C0, Addr(0x100_000 + i * 64), AccessKind::Read);
        }
        assert!(m.stats().l3_evictions > 0);
        assert!(m.stats().back_invalidations > 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn false_sharing_two_addresses_same_line() {
        let mut m = mem(2);
        // Same 64-byte line, different words.
        let a = Addr(0x1000);
        let b = Addr(0x1008);
        m.access(C0, a, AccessKind::Write);
        let r = m.access(C1, b, AccessKind::Read);
        // Hardware sees line-level sharing even though the program never
        // shared a datum — a (harmless) false-positive source for the
        // indicator.
        assert_eq!(r.hitm_owner, Some(C0));
        assert_eq!(r.sharing.0, Some(SharingKind::WriteRead));
    }

    #[test]
    fn sharing_totals_count_every_classified_event() {
        let mut m = mem(3);
        let a = Addr(0x1000);
        m.access(C0, a, AccessKind::Write);
        // W→R: one communication, reported and counted.
        let r = m.access(C1, a, AccessKind::Read);
        assert_eq!(r.sharing, (Some(SharingKind::WriteRead), None));
        // An RMW by a third core is a fresh W→R on its read half, and
        // W→W plus R→W (C1 read it) on its write half. The access reports
        // the W→R for the first two, yet all three are counted.
        let r = m.access(C2, a, AccessKind::AtomicRmw);
        assert_eq!(
            r.sharing,
            (Some(SharingKind::WriteRead), Some(SharingKind::ReadWrite))
        );
        let totals = m.stats().sharing;
        assert_eq!(
            (totals.write_read, totals.write_write, totals.read_write),
            (2, 1, 1)
        );
        // Private re-accesses are no communication.
        m.access(C2, a, AccessKind::Write);
        m.access(C2, a, AccessKind::Read);
        assert_eq!(m.stats().sharing.total(), 4);
    }

    #[test]
    fn latency_accounting_accumulates() {
        let mut m = mem(1);
        m.access(C0, Addr(0x1000), AccessKind::Read); // 200
        m.access(C0, Addr(0x1000), AccessKind::Read); // 4
        assert_eq!(m.stats().per_core[0].total_latency, 204);
        assert_eq!(m.stats().per_core[0].accesses, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        let mut m = mem(1);
        m.access(CoreId(1), Addr(0x1000), AccessKind::Read);
    }

    #[test]
    fn prefetch_steals_hide_hitm() {
        let mut cfg = CacheConfig::nehalem(2);
        cfg.prefetch_next_line = true;
        let mut m = CacheHierarchy::new(cfg);
        // C0 writes two consecutive lines.
        m.access(C0, Addr(0x1000), AccessKind::Write);
        m.access(C0, Addr(0x1040), AccessKind::Write);
        // C1's read of the first line is a HITM — and its next-line
        // prefetch downgrades the second line early.
        let r1 = m.access(C1, Addr(0x1000), AccessKind::Read);
        assert_eq!(r1.hitm_owner, Some(C0));
        assert!(m.stats().prefetches >= 1);
        assert_eq!(m.stats().prefetch_steals, 1);
        // The demand read of the second line now hits locally: no HITM,
        // though the ground truth still records the W→R communication.
        let r2 = m.access(C1, Addr(0x1040), AccessKind::Read);
        assert_eq!(r2.hitm_owner, None);
        assert!(matches!(r2.hit, HitWhere::L1 | HitWhere::L2));
        assert_eq!(r2.sharing.0, Some(SharingKind::WriteRead));
        assert_eq!(m.stats().total_hitm_loads(), 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn prefetch_disabled_by_default() {
        let mut m = mem(2);
        m.access(C0, Addr(0x1000), AccessKind::Read);
        assert_eq!(m.stats().prefetches, 0);
    }

    #[test]
    fn prefetch_preserves_invariants_under_streams() {
        let mut cfg = CacheConfig::tiny(3);
        cfg.prefetch_next_line = true;
        let mut m = CacheHierarchy::new(cfg);
        for i in 0..300u64 {
            let core = CoreId((i % 3) as u32);
            let kind = if i % 2 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            m.access(core, Addr(0x1000 + (i % 40) * 64), kind);
        }
        m.check_invariants().unwrap();
        assert!(m.stats().prefetches > 0);
    }

    #[test]
    fn three_core_migratory_pattern() {
        // A line migrating C0 → C1 → C2 with write-read-write chains.
        let mut m = mem(3);
        let a = Addr(0x40);
        m.access(C0, a, AccessKind::Write);
        assert_eq!(m.access(C1, a, AccessKind::Read).hitm_owner, Some(C0));
        assert_eq!(m.access(C1, a, AccessKind::Write).invalidations, 1); // S→M upgrade drops C0
        assert_eq!(m.access(C2, a, AccessKind::Read).hitm_owner, Some(C1));
        m.check_invariants().unwrap();
        assert_eq!(m.stats().total_hitm_loads(), 2);
    }
}
