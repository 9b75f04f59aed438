//! The scheduler's runnable set: a two-level bitmap run-queue.
//!
//! [`RunQueue`] tracks which thread indices are runnable and answers the
//! one query the round-robin scheduler asks every turn: *the first
//! runnable index at or cyclically after the cursor*. The old picker
//! answered it by scanning every thread (`O(threads)` per step, the
//! bottleneck the ROADMAP called out for the 64-core SMT sweeps); the
//! bitmap answers it with a handful of word operations — effectively
//! `O(1)` for any realistic thread count — while insert and remove are
//! single bit flips.
//!
//! Layout: bit `i` of `words[i / 64]` is set iff index `i` is queued, and
//! bit `w` of `summary[w / 64]` is set iff `words[w] != 0`. A cyclic
//! search masks off the bits below the cursor in its starting word, then
//! walks the summary to jump directly to the next non-empty word. The
//! search order is index order relative to the cursor — exactly the order
//! the old scan probed statuses in, so the queue reproduces its schedule
//! bit for bit (`agrees_with_naive_scan_under_churn` holds it to that
//! scan; the harness goldens pin whole schedules).

/// A fixed-capacity set of `usize` indices supporting O(1) insert/remove
/// and cyclic first-set queries. See the module docs for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunQueue {
    /// Bit `i % 64` of `words[i / 64]` ⇔ index `i` is queued.
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` ⇔ `words[w] != 0`.
    summary: Vec<u64>,
    /// Number of queued indices.
    len: usize,
    /// Exclusive upper bound on queueable indices.
    capacity: usize,
}

impl RunQueue {
    /// An empty queue accepting indices in `0..capacity`.
    pub fn new(capacity: usize) -> RunQueue {
        let words = capacity.div_ceil(64).max(1);
        RunQueue {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
            capacity,
        }
    }

    /// Number of queued indices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `index` is queued.
    pub fn contains(&self, index: usize) -> bool {
        debug_assert!(index < self.capacity, "index {index} out of range");
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Queues `index`. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, index: usize) -> bool {
        debug_assert!(index < self.capacity, "index {index} out of range");
        let (w, bit) = (index / 64, 1u64 << (index % 64));
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.summary[w / 64] |= 1u64 << (w % 64);
        self.len += 1;
        true
    }

    /// Removes `index`. Returns `true` if it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        debug_assert!(index < self.capacity, "index {index} out of range");
        let (w, bit) = (index / 64, 1u64 << (index % 64));
        if self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
        self.len -= 1;
        true
    }

    /// The first queued index at or after `start`, wrapping to the lowest
    /// queued index when nothing at or above `start` is queued — i.e. the
    /// queued index minimizing `(i - start) mod capacity`.
    pub fn next_cyclic(&self, start: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        debug_assert!(start < self.capacity.max(1), "start {start} out of range");
        // If nothing is queued at or above `start`, the minimizer is the
        // lowest queued index (nonempty, so the wrap always finds one).
        self.next_at_or_after(start)
            .or_else(|| self.next_at_or_after(0))
    }

    /// The first queued index at or after `start` (no wrap-around).
    fn next_at_or_after(&self, start: usize) -> Option<usize> {
        let w0 = start / 64;
        if w0 >= self.words.len() {
            return None;
        }
        // Within the starting word: mask off bits below `start`. The shift
        // amount is `start % 64`, so it never reaches the UB-prone 64.
        let masked = self.words[w0] & (!0u64 << (start % 64));
        if masked != 0 {
            return Some(w0 * 64 + masked.trailing_zeros() as usize);
        }
        // Jump via the summary to the next non-empty word strictly after
        // w0. `(!0 << b) << 1` keeps bits strictly above `b` and is zero
        // (not UB) when b == 63.
        let s0 = w0 / 64;
        let mut s = s0;
        let mut mask = self.summary[s0] & ((!0u64 << (w0 % 64)) << 1);
        loop {
            if mask != 0 {
                let w = s * 64 + mask.trailing_zeros() as usize;
                let word = self.words[w];
                debug_assert!(word != 0, "summary bit set for empty word {w}");
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            s += 1;
            if s >= self.summary.len() {
                return None;
            }
            mask = self.summary[s];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    /// The specification next_cyclic is held to: a plain modular scan.
    fn naive_next(set: &[bool], start: usize) -> Option<usize> {
        let n = set.len();
        (0..n).map(|off| (start + off) % n).find(|&i| set[i])
    }

    #[test]
    fn empty_queue_has_no_next() {
        let q = RunQueue::new(10);
        assert!(q.is_empty());
        assert_eq!(q.next_cyclic(0), None);
        assert_eq!(q.next_cyclic(9), None);
    }

    #[test]
    fn insert_remove_track_membership() {
        let mut q = RunQueue::new(130);
        assert!(q.insert(0));
        assert!(q.insert(129));
        assert!(!q.insert(129), "double insert reports not-new");
        assert_eq!(q.len(), 2);
        assert!(q.contains(0) && q.contains(129) && !q.contains(64));
        assert!(q.remove(0));
        assert!(!q.remove(0), "double remove reports absent");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn next_cyclic_wraps_like_the_scan() {
        let mut q = RunQueue::new(8);
        q.insert(2);
        q.insert(5);
        assert_eq!(q.next_cyclic(0), Some(2));
        assert_eq!(q.next_cyclic(2), Some(2));
        assert_eq!(q.next_cyclic(3), Some(5));
        assert_eq!(q.next_cyclic(6), Some(2), "wraps past the end");
    }

    #[test]
    fn word_boundaries_are_exact() {
        // Indices straddling the 64-bit word and 4096-bit summary-word
        // boundaries, where shift bugs would live.
        let mut q = RunQueue::new(4200);
        for i in [0usize, 63, 64, 127, 128, 4095, 4096, 4199] {
            q.insert(i);
        }
        assert_eq!(q.next_cyclic(1), Some(63));
        assert_eq!(q.next_cyclic(64), Some(64));
        assert_eq!(q.next_cyclic(65), Some(127));
        assert_eq!(q.next_cyclic(129), Some(4095));
        assert_eq!(q.next_cyclic(4097), Some(4199));
        assert_eq!(q.next_cyclic(4199), Some(4199));
        q.remove(4199);
        assert_eq!(q.next_cyclic(4097), Some(0), "wraps to lowest");
    }

    #[test]
    fn agrees_with_naive_scan_under_churn() {
        for (capacity, seed) in [(1usize, 1u64), (7, 2), (64, 3), (65, 4), (200, 5), (513, 6)] {
            let mut rng = Prng::seed_from_u64(seed);
            let mut q = RunQueue::new(capacity);
            let mut set = vec![false; capacity];
            for _ in 0..4000 {
                let i = rng.below(capacity as u64) as usize;
                match rng.below(3) {
                    0 => {
                        assert_eq!(q.insert(i), !set[i]);
                        set[i] = true;
                    }
                    1 => {
                        assert_eq!(q.remove(i), set[i]);
                        set[i] = false;
                    }
                    _ => {
                        let start = rng.below(capacity as u64) as usize;
                        assert_eq!(
                            q.next_cyclic(start),
                            naive_next(&set, start),
                            "capacity {capacity} start {start}"
                        );
                    }
                }
                assert_eq!(q.len(), set.iter().filter(|&&b| b).count());
            }
        }
    }
}
