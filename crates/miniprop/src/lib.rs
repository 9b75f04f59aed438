//! # miniprop — a hermetic stand-in for the `proptest` API subset we use
//!
//! The ddrace property suites were written against [proptest]'s combinator
//! API. This crate reimplements exactly the subset they exercise —
//! [`Strategy`]/`prop_map`, integer-range and tuple strategies, [`Just`],
//! [`any`], [`collection::vec`], weighted [`prop_oneof!`], and the
//! [`proptest!`]/[`prop_assert!`] macros — on top of a seeded splitmix64
//! generator, so the suites run with **zero external dependencies** and are
//! fully deterministic: the same binary always generates the same cases.
//!
//! Deliberately out of scope: strategy-integrated shrinking (a failing
//! case prints its inputs instead), persistence files, and
//! `prop_flat_map`-style dependent strategies. Callers that need to
//! minimize a failing input can use the standalone [`shrink`] module,
//! which implements greedy delta-debugging over caller-supplied
//! candidate transformations.
//!
//! [proptest]: https://docs.rs/proptest

#![forbid(unsafe_code)]

pub mod shrink;

use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// Everything a property-test module needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// `proptest::collection` lookalike: strategies for collections.
pub mod collection {
    use super::*;

    /// A strategy for `Vec`s whose length is drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    /// Inclusive bounds on generated collection sizes.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        pub(crate) min: usize,
        pub(crate) max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy produced by [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        pub(crate) element: S,
        pub(crate) len: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.len.max - self.len.min) as u64 + 1;
            let n = self.len.min + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub use collection::SizeRange;

/// A deterministic splitmix64 generator backing case generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds a generator; the same seed yields the same stream.
    pub fn seed_from_u64(seed: u64) -> TestRng {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A value generator. Mirrors `proptest::strategy::Strategy` minus shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy so heterogeneous strategies can share a slot.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A reference-counted type-erased strategy.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A weighted union of strategies; built by [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Builds a union from `(weight, strategy)` arms.
    pub fn weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! weights sum to zero");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.next_u64() % self.total;
        for (weight, arm) in &self.arms {
            if pick < *weight as u64 {
                return arm.generate(rng);
            }
            pick -= *weight as u64;
        }
        unreachable!("weighted pick out of range")
    }
}

macro_rules! impl_range_strategy {
    ($($ty:ty),+) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                self.start + (rng.next_u64() % span) as $ty
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as u64) - (start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                start + (rng.next_u64() % (span + 1)) as $ty
            }
        }
    )+};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

/// Marker for [`any`], with generators for the primitive types we use.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($ty:ty),+) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )+};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy returned by [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full value range of a primitive type, like `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

/// How many cases a `proptest!` block runs.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Smaller than proptest's 256: these suites drive a full simulator
        // per case, and determinism means extra cases repeat exactly.
        ProptestConfig { cases: 64 }
    }
}

/// A failed property assertion, carrying the formatted message.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError(message.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runs each property as a seeded loop over generated cases; on failure the
/// case index, seed, and assertion message are printed so the failing case
/// can be replayed exactly.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cases ($cfg) $($rest)*);
    };
    (@cases ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            // Stable per-test seed: test name bytes hashed with splitmix64.
            let mut seed = 0xDDAC_E000u64;
            for b in stringify!($name).bytes() {
                seed = seed.wrapping_mul(0x100000001B3).wrapping_add(b as u64);
            }
            for case in 0..cfg.cases {
                let mut rng = $crate::TestRng::seed_from_u64(seed.wrapping_add(case as u64));
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                let outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $(let $arg = $arg;)+
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "property {} failed at case {case} (seed {seed:#x}): {e}",
                        stringify!($name)
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cases ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` that fails the surrounding property case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that fails the surrounding property case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// `assert_ne!` that fails the surrounding property case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} == {:?}", l, r);
    }};
}

/// A union of strategies; unweighted arms pick uniformly, `w => strat` arms
/// pick proportionally to `w`. Mirrors `proptest::prop_oneof!`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strategy)),)+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::weighted(vec![
            $((1u32, $crate::Strategy::boxed($strategy)),)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate as proptest;
    use proptest::prelude::*;

    #[test]
    fn generation_is_deterministic() {
        let strat = proptest::collection::vec(0u64..100, 1..20);
        let mut a = proptest::TestRng::seed_from_u64(7);
        let mut b = proptest::TestRng::seed_from_u64(7);
        for _ in 0..50 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = proptest::TestRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = (5u32..17).generate(&mut rng);
            assert!((5..17).contains(&v));
            let w = (3u64..=9).generate(&mut rng);
            assert!((3..=9).contains(&w));
        }
    }

    #[test]
    fn oneof_honours_weights() {
        let strat = prop_oneof![9 => Just(true), 1 => Just(false)];
        let mut rng = proptest::TestRng::seed_from_u64(2);
        let hits = (0..1000).filter(|_| strat.generate(&mut rng)).count();
        assert!(hits > 800, "expected ~900 true picks, got {hits}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_drives_cases(x in 0u32..10, flip in any::<bool>(), xs in proptest::collection::vec(0u8..4, 0..6)) {
            prop_assert!(x < 10);
            prop_assert_eq!(flip, flip);
            prop_assert!(xs.len() < 6);
        }
    }
}
