//! Generic set-associative cache array with true-LRU replacement.
//!
//! Used for every level: L1 arrays store only presence, L2 arrays store
//! MESI state, the L3 array stores directory entries. The payload is a
//! type parameter so each level attaches exactly the metadata it needs.

use crate::config::LevelConfig;

/// One occupied slot: a line address plus level-specific metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot<T> {
    line: u64,
    lru: u64,
    data: T,
}

/// A set-associative array indexed by cache-line address, with true-LRU
/// replacement within each set.
///
/// Keys are *line addresses* (byte address divided by line size); the
/// array itself is agnostic to line size.
///
/// # Examples
///
/// ```
/// use ddrace_cache::{CacheArray, LevelConfig};
/// let mut a: CacheArray<u32> = CacheArray::new(LevelConfig { sets: 2, ways: 1, latency: 1 });
/// assert!(a.insert(0, 7).is_none());
/// // Same set (set index = line % sets): line 2 evicts line 0.
/// let evicted = a.insert(2, 9).unwrap();
/// assert_eq!(evicted, (0, 7));
/// assert!(a.get(0).is_none());
/// assert_eq!(a.get(2), Some(&9));
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray<T> {
    sets: Vec<Vec<Slot<T>>>,
    ways: usize,
    set_mask: u64,
    tick: u64,
}

impl<T> CacheArray<T> {
    /// Creates an empty array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`LevelConfig::validate`]).
    pub fn new(config: LevelConfig) -> Self {
        config
            .validate("cache array")
            .unwrap_or_else(|e| panic!("{e}"));
        CacheArray {
            sets: (0..config.sets)
                .map(|_| Vec::with_capacity(config.ways))
                .collect(),
            ways: config.ways,
            set_mask: (config.sets - 1) as u64,
            tick: 0,
        }
    }

    fn set_index(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Looks up `line`, refreshing its LRU position on hit.
    pub fn get(&mut self, line: u64) -> Option<&T> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(line);
        self.sets[set].iter_mut().find(|s| s.line == line).map(|s| {
            s.lru = tick;
            &s.data
        })
    }

    /// Looks up `line` mutably, refreshing its LRU position on hit.
    pub fn get_mut(&mut self, line: u64) -> Option<&mut T> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(line);
        self.sets[set].iter_mut().find(|s| s.line == line).map(|s| {
            s.lru = tick;
            &mut s.data
        })
    }

    /// Looks up `line` without touching LRU state (a snoop, not an access).
    pub fn peek(&self, line: u64) -> Option<&T> {
        let set = self.set_index(line);
        self.sets[set]
            .iter()
            .find(|s| s.line == line)
            .map(|s| &s.data)
    }

    /// Like [`peek`](Self::peek) but mutable; still does not touch LRU.
    pub fn peek_mut(&mut self, line: u64) -> Option<&mut T> {
        let set = self.set_index(line);
        self.sets[set]
            .iter_mut()
            .find(|s| s.line == line)
            .map(|s| &mut s.data)
    }

    /// Inserts `line` with `data`, returning the evicted `(line, data)` if
    /// the set was full. If the line is already present its data is
    /// replaced and nothing is evicted.
    pub fn insert(&mut self, line: u64, data: T) -> Option<(u64, T)> {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_index(line);
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        if let Some(slot) = set.iter_mut().find(|s| s.line == line) {
            slot.data = data;
            slot.lru = tick;
            return None;
        }
        let evicted = if set.len() == ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.lru)
                .map(|(i, _)| i)
                .expect("full set has a victim");
            let slot = set.swap_remove(victim);
            Some((slot.line, slot.data))
        } else {
            None
        };
        set.push(Slot {
            line,
            lru: tick,
            data,
        });
        evicted
    }

    /// Removes `line`, returning its data if present.
    pub fn remove(&mut self, line: u64) -> Option<T> {
        let set_idx = self.set_index(line);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|s| s.line == line)?;
        Some(set.swap_remove(pos).data)
    }

    /// Returns `true` if `line` is present (no LRU effect).
    pub fn contains(&self, line: u64) -> bool {
        self.peek(line).is_some()
    }

    /// Number of occupied slots across all sets.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Returns `true` if no lines are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all `(line, data)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.sets.iter().flatten().map(|s| (s.line, &s.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray<u32> {
        CacheArray::new(LevelConfig {
            sets: 2,
            ways: 2,
            latency: 1,
        })
    }

    #[test]
    fn insert_and_get() {
        let mut a = small();
        assert!(a.is_empty());
        assert!(a.insert(10, 1).is_none());
        assert_eq!(a.get(10), Some(&1));
        assert_eq!(a.peek(10), Some(&1));
        assert!(a.get(11).is_none());
        assert_eq!(a.len(), 1);
        assert!(a.contains(10));
        assert!(!a.contains(11));
    }

    #[test]
    fn reinsert_replaces_without_evicting() {
        let mut a = small();
        a.insert(10, 1);
        assert!(a.insert(10, 2).is_none());
        assert_eq!(a.get(10), Some(&2));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut a = small();
        // Lines 0, 2, 4 all map to set 0 (even lines, 2 sets).
        a.insert(0, 10);
        a.insert(2, 12);
        // Touch line 0 so line 2 is LRU.
        assert_eq!(a.get(0), Some(&10));
        let evicted = a.insert(4, 14).unwrap();
        assert_eq!(evicted, (2, 12));
        assert!(a.contains(0));
        assert!(a.contains(4));
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut a = small();
        a.insert(0, 10);
        a.insert(2, 12);
        // Peek at 0; it stays LRU, so it is the victim.
        assert_eq!(a.peek(0), Some(&10));
        let evicted = a.insert(4, 14).unwrap();
        assert_eq!(evicted.0, 0);
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut a = small();
        a.insert(0, 1); // set 0
        a.insert(1, 2); // set 1
        a.insert(2, 3); // set 0
        a.insert(3, 4); // set 1
        assert_eq!(a.len(), 4);
        assert!(a.insert(5, 6).is_some()); // set 1 overflows
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn remove_works() {
        let mut a = small();
        a.insert(0, 1);
        assert_eq!(a.remove(0), Some(1));
        assert_eq!(a.remove(0), None);
        assert!(a.is_empty());
    }

    #[test]
    fn get_mut_mutates() {
        let mut a = small();
        a.insert(0, 1);
        *a.get_mut(0).unwrap() = 9;
        assert_eq!(a.peek(0), Some(&9));
        *a.peek_mut(0).unwrap() = 11;
        assert_eq!(a.peek(0), Some(&11));
    }

    #[test]
    fn iter_visits_all() {
        let mut a = small();
        a.insert(0, 1);
        a.insert(1, 2);
        let mut pairs: Vec<(u64, u32)> = a.iter().map(|(l, d)| (l, *d)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 2)]);
    }
}
