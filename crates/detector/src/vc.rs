//! Vector clocks and epochs, the currency of happens-before analysis.
//!
//! Detectors allocate millions of clocks, and almost all executions have
//! few threads, so [`VectorClock`] stores up to [`INLINE_THREADS`]
//! components inline (no heap allocation) and spills to a `Vec` only
//! beyond that — the same small-size optimization production FastTrack
//! implementations use. Equality and hashing are *semantic*: trailing
//! zero components never distinguish two clocks.

use ddrace_program::ThreadId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of thread components a clock stores without heap allocation.
pub const INLINE_THREADS: usize = 8;

#[derive(Debug, Clone)]
enum Repr {
    Inline {
        len: u8,
        vals: [u32; INLINE_THREADS],
    },
    Heap(Vec<u32>),
}

/// A vector clock: for each thread, the last "time" of that thread known
/// to the owner. Grows lazily as higher thread ids appear; missing entries
/// are zero.
///
/// # Examples
///
/// ```
/// use ddrace_detector::VectorClock;
/// use ddrace_program::ThreadId;
///
/// let mut a = VectorClock::new();
/// a.increment(ThreadId(0));
/// let mut b = VectorClock::new();
/// b.increment(ThreadId(1));
/// b.join(&a);
/// assert_eq!(b.get(ThreadId(0)), 1);
/// assert_eq!(b.get(ThreadId(1)), 1);
/// assert!(a.happens_before(&b));
/// assert!(!b.happens_before(&a));
/// ```
#[derive(Debug, Clone)]
pub struct VectorClock {
    repr: Repr,
}

impl VectorClock {
    /// Creates the zero clock.
    pub fn new() -> Self {
        VectorClock {
            repr: Repr::Inline {
                len: 0,
                vals: [0; INLINE_THREADS],
            },
        }
    }

    fn as_slice(&self) -> &[u32] {
        match &self.repr {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Ensures at least `width` components are addressable, spilling to
    /// the heap if the inline capacity is exceeded.
    fn grow_to(&mut self, width: usize) {
        match &mut self.repr {
            Repr::Inline { len, vals } => {
                if width <= INLINE_THREADS {
                    if width > *len as usize {
                        *len = width as u8;
                    }
                } else {
                    let mut v = vals[..*len as usize].to_vec();
                    v.resize(width, 0);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => {
                if v.len() < width {
                    v.resize(width, 0);
                }
            }
        }
    }

    fn slot_mut(&mut self, index: usize) -> &mut u32 {
        self.grow_to(index + 1);
        match &mut self.repr {
            Repr::Inline { vals, .. } => &mut vals[index],
            Repr::Heap(v) => &mut v[index],
        }
    }

    /// The component for `tid` (zero if never set).
    pub fn get(&self, tid: ThreadId) -> u32 {
        self.as_slice().get(tid.index()).copied().unwrap_or(0)
    }

    /// Sets the component for `tid`.
    pub fn set(&mut self, tid: ThreadId, value: u32) {
        *self.slot_mut(tid.index()) = value;
    }

    /// Increments the component for `tid` and returns the new value.
    pub fn increment(&mut self, tid: ThreadId) -> u32 {
        let slot = self.slot_mut(tid.index());
        *slot += 1;
        *slot
    }

    /// Pointwise maximum with `other` (the ⊔ operation).
    pub fn join(&mut self, other: &VectorClock) {
        let theirs = other.as_slice();
        self.grow_to(theirs.len());
        let mine = match &mut self.repr {
            Repr::Inline { len, vals } => &mut vals[..*len as usize],
            Repr::Heap(v) => v.as_mut_slice(),
        };
        for (m, &t) in mine.iter_mut().zip(theirs) {
            *m = (*m).max(t);
        }
    }

    /// Returns `true` if every component of `self` is ≤ the corresponding
    /// component of `other` (self ⊑ other): everything `self` knows,
    /// `other` knows.
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        let theirs = other.as_slice();
        self.as_slice()
            .iter()
            .enumerate()
            .all(|(i, &c)| c <= theirs.get(i).copied().unwrap_or(0))
    }

    /// The first thread whose component in `self` exceeds `other`'s, if
    /// any — i.e. a witness that `self ⋢ other`.
    pub fn first_excess(&self, other: &VectorClock) -> Option<ThreadId> {
        let theirs = other.as_slice();
        self.as_slice().iter().enumerate().find_map(|(i, &c)| {
            (c > theirs.get(i).copied().unwrap_or(0)).then(|| ThreadId::new(i as u32))
        })
    }

    /// Number of addressable components (threads seen).
    pub fn width(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` if this clock has spilled to heap storage (more
    /// than [`INLINE_THREADS`] components). Exposed for tests and
    /// benchmarks.
    pub fn is_heap_allocated(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// Returns `true` if all components are zero.
    pub fn is_zero(&self) -> bool {
        self.as_slice().iter().all(|&c| c == 0)
    }

    /// Clears all components to zero.
    pub fn clear(&mut self) {
        self.repr = Repr::Inline {
            len: 0,
            vals: [0; INLINE_THREADS],
        };
    }

    /// The slice without trailing zeros: the canonical form used for
    /// equality and hashing.
    fn canonical(&self) -> &[u32] {
        let s = self.as_slice();
        let last = s.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        &s[..last]
    }
}

/// A thread's vector clock as FastTrack's checks read it: one component
/// at a time, or whole where a write meets an escalated read set
/// ([`ft_check_write`](crate::ft_check_write)). A check asks for the acting
/// thread's own component whenever the shadow unit last saw that thread,
/// so an engine that keeps the thread's epoch at hand can answer it
/// without fetching the rest of the clock.
pub trait ClockView {
    /// The component for `tid` (zero if never set).
    fn component(&self, tid: ThreadId) -> u32;

    /// Runs `f` on the whole clock.
    fn with_clock<R>(&self, f: impl FnOnce(&VectorClock) -> R) -> R;
}

impl ClockView for VectorClock {
    fn component(&self, tid: ThreadId) -> u32 {
        self.get(tid)
    }

    fn with_clock<R>(&self, f: impl FnOnce(&VectorClock) -> R) -> R {
        f(self)
    }
}

impl Default for VectorClock {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Eq for VectorClock {}

impl Hash for VectorClock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical().hash(state);
    }
}

impl ddrace_json::ToJson for VectorClock {
    fn to_json(&self) -> ddrace_json::Value {
        ddrace_json::Value::Array(
            self.canonical()
                .iter()
                .map(|&c| ddrace_json::Value::UInt(u64::from(c)))
                .collect(),
        )
    }
}

impl ddrace_json::FromJson for VectorClock {
    fn from_json(value: &ddrace_json::Value) -> Result<Self, ddrace_json::JsonError> {
        let vals = Vec::<u32>::from_json(value)?;
        let mut vc = VectorClock::new();
        for (i, v) in vals.into_iter().enumerate() {
            vc.set(ThreadId::new(i as u32), v);
        }
        Ok(vc)
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("⟨")?;
        for (i, c) in self.as_slice().iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{c}")?;
        }
        f.write_str("⟩")
    }
}

/// A scalar "epoch": one thread's clock value, FastTrack's compressed
/// representation for exclusively-accessed variables.
///
/// `Epoch::ZERO` is the bottom element (clock 0 is never a real epoch:
/// live threads start at clock 1).
///
/// # Examples
///
/// ```
/// use ddrace_detector::{Epoch, VectorClock};
/// use ddrace_program::ThreadId;
///
/// let mut vc = VectorClock::new();
/// vc.set(ThreadId(2), 7);
/// let e = Epoch::new(ThreadId(2), 7);
/// assert!(e.visible_to(&vc));
/// assert!(Epoch::ZERO.visible_to(&vc));
/// assert!(!Epoch::new(ThreadId(2), 8).visible_to(&vc));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Epoch {
    /// The thread that produced this epoch.
    pub tid: ThreadId,
    /// That thread's clock at the time.
    pub clock: u32,
}

impl Epoch {
    /// The bottom epoch: precedes everything.
    pub const ZERO: Epoch = Epoch {
        tid: ThreadId(0),
        clock: 0,
    };

    /// Creates an epoch.
    pub fn new(tid: ThreadId, clock: u32) -> Self {
        Epoch { tid, clock }
    }

    /// The current epoch of `tid` according to its vector clock.
    pub fn of(tid: ThreadId, vc: &VectorClock) -> Self {
        Epoch {
            tid,
            clock: vc.get(tid),
        }
    }

    /// Returns `true` if this epoch happens-before (or equals) the state
    /// summarized by `vc` — i.e. `vc` has seen it. The bottom epoch is
    /// visible to every clock without reading one.
    pub fn visible_to(&self, vc: &impl ClockView) -> bool {
        self.is_zero() || self.clock <= vc.component(self.tid)
    }

    /// Returns `true` if this is the bottom epoch.
    pub fn is_zero(&self) -> bool {
        self.clock == 0
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.clock, self.tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    #[test]
    fn get_set_increment() {
        let mut vc = VectorClock::new();
        assert_eq!(vc.get(T2), 0);
        assert_eq!(vc.increment(T2), 1);
        assert_eq!(vc.increment(T2), 2);
        assert_eq!(vc.get(T2), 2);
        assert_eq!(vc.get(T0), 0);
        vc.set(T0, 5);
        assert_eq!(vc.get(T0), 5);
        assert_eq!(vc.width(), 3);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new();
        a.set(T0, 3);
        a.set(T1, 1);
        let mut b = VectorClock::new();
        b.set(T1, 4);
        b.set(T2, 2);
        a.join(&b);
        assert_eq!(a.get(T0), 3);
        assert_eq!(a.get(T1), 4);
        assert_eq!(a.get(T2), 2);
    }

    #[test]
    fn join_is_idempotent_and_commutative() {
        let mut a = VectorClock::new();
        a.set(T0, 3);
        let mut b = VectorClock::new();
        b.set(T1, 2);
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        assert_eq!(ab, ba);
        let mut abb = ab.clone();
        abb.join(&b);
        assert_eq!(ab, abb);
    }

    #[test]
    fn happens_before_ordering() {
        let mut a = VectorClock::new();
        a.set(T0, 1);
        let mut b = a.clone();
        b.set(T1, 1);
        assert!(a.happens_before(&b));
        assert!(!b.happens_before(&a));
        assert!(a.happens_before(&a));
        // Concurrent clocks: neither dominates.
        let mut c = VectorClock::new();
        c.set(T1, 5);
        assert!(!b.happens_before(&c));
        assert!(!c.happens_before(&b));
    }

    #[test]
    fn first_excess_identifies_witness() {
        let mut a = VectorClock::new();
        a.set(T1, 5);
        let mut b = VectorClock::new();
        b.set(T1, 3);
        assert_eq!(a.first_excess(&b), Some(T1));
        assert_eq!(b.first_excess(&a), None);
    }

    #[test]
    fn zero_clock_behaviour() {
        let vc = VectorClock::new();
        assert!(vc.is_zero());
        assert!(vc.happens_before(&VectorClock::new()));
        let mut other = VectorClock::new();
        other.set(T0, 1);
        assert!(vc.happens_before(&other));
        let mut cleared = other.clone();
        cleared.clear();
        assert!(cleared.is_zero());
    }

    #[test]
    fn inline_storage_until_nine_threads() {
        let mut vc = VectorClock::new();
        for i in 0..8 {
            vc.set(ThreadId(i), i + 1);
            assert!(!vc.is_heap_allocated(), "thread {i} should stay inline");
        }
        vc.set(ThreadId(8), 9);
        assert!(vc.is_heap_allocated());
        // Contents survive the spill.
        for i in 0..9 {
            assert_eq!(vc.get(ThreadId(i)), i + 1);
        }
    }

    #[test]
    fn join_spills_when_other_is_wide() {
        let mut wide = VectorClock::new();
        wide.set(ThreadId(20), 7);
        let mut narrow = VectorClock::new();
        narrow.set(T0, 1);
        narrow.join(&wide);
        assert!(narrow.is_heap_allocated());
        assert_eq!(narrow.get(ThreadId(20)), 7);
        assert_eq!(narrow.get(T0), 1);
    }

    #[test]
    fn equality_ignores_trailing_zeros() {
        let mut a = VectorClock::new();
        a.set(T0, 1);
        let mut b = VectorClock::new();
        b.set(T0, 1);
        b.set(ThreadId(30), 5);
        b.set(ThreadId(30), 0); // explicit zero beyond a's width
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let h = |vc: &VectorClock| {
            let mut hasher = DefaultHasher::new();
            vc.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn json_roundtrip() {
        let mut vc = VectorClock::new();
        vc.set(T1, 2);
        vc.set(ThreadId(12), 9);
        let json = ddrace_json::to_string(&vc).unwrap();
        let back: VectorClock = ddrace_json::from_str(&json).unwrap();
        assert_eq!(back, vc);
    }

    #[test]
    fn epoch_visibility() {
        let mut vc = VectorClock::new();
        vc.set(T1, 3);
        assert!(Epoch::new(T1, 3).visible_to(&vc));
        assert!(Epoch::new(T1, 2).visible_to(&vc));
        assert!(!Epoch::new(T1, 4).visible_to(&vc));
        assert!(!Epoch::new(T2, 1).visible_to(&vc));
        assert!(Epoch::ZERO.visible_to(&VectorClock::new()));
        assert!(Epoch::ZERO.is_zero());
        assert!(!Epoch::new(T1, 3).is_zero());
    }

    #[test]
    fn epoch_of_reads_current_component() {
        let mut vc = VectorClock::new();
        vc.set(T1, 9);
        assert_eq!(Epoch::of(T1, &vc), Epoch::new(T1, 9));
    }

    #[test]
    fn displays() {
        let mut vc = VectorClock::new();
        vc.set(T1, 2);
        assert_eq!(format!("{vc}"), "⟨0,2⟩");
        assert_eq!(format!("{}", Epoch::new(T1, 2)), "2@T1");
    }
}

ddrace_json::json_struct!(Epoch { tid, clock });
