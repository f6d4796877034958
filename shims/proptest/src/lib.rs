//! Vendored stand-in for `proptest` (API-compatible subset).
//!
//! The build environment has no network access, so this crate provides
//! the exact property-testing surface the workspace uses: the
//! [`proptest!`] macro, [`Strategy`] with [`Strategy::prop_map`],
//! range/tuple/[`Just`]/[`any`] strategies, [`collection::vec`],
//! [`prop_oneof!`], [`prop_assert!`]/[`prop_assert_eq!`] and
//! [`ProptestConfig::with_cases`].
//!
//! Unlike upstream there is no shrinking: a failing case panics with
//! its case number and the values involved (tests here already format
//! their inputs into assertion messages). Case generation is
//! deterministic — seeded from the test name and case index — so
//! failures reproduce exactly across runs.

#![forbid(unsafe_code)]

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng as _, SampleUniform, SeedableRng};

/// Deterministic per-case random source handed to strategies.
pub struct TestRng(SmallRng);

impl TestRng {
    /// Generator for `case` of the test named `name` — a pure function
    /// of both, so any failure is reproducible by rerunning the test.
    pub fn for_case(name: &str, case: u32) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        TestRng(SmallRng::seed_from_u64(
            h ^ ((case as u64) << 32 | case as u64),
        ))
    }

    /// Uniform draw from a half-open range.
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        self.0.gen_range(range)
    }

    /// Raw 64 random bits.
    pub fn bits(&mut self) -> u64 {
        self.0.gen::<u64>()
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

impl<T: SampleUniform + Clone> Strategy for Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy combinators that need a named home.
pub mod strategy {
    use super::{Strategy, TestRng};

    /// Uniform choice among boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Build from the alternatives; must be non-empty.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.arms.len());
            self.arms[i].sample(rng)
        }
    }
}

/// Types with a canonical whole-domain strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draw one value from the full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.bits() & 1 == 1
    }
}
impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.bits() as u8
    }
}
impl Arbitrary for u16 {
    fn arbitrary(rng: &mut TestRng) -> u16 {
        rng.bits() as u16
    }
}
impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.bits() as u32
    }
}
impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.bits()
    }
}
impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.bits() as usize
    }
}

/// The whole-domain strategy for `T` — see [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy over the full domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Inclusive-exclusive size bound for [`vec`]; build from a `usize`
    /// (exact length) or `Range<usize>`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for vectors of `element` values with length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vector strategy: `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// Assert inside a [`proptest!`] body; the panic carries the case tag.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            panic!("prop_assert failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            panic!("prop_assert failed: {}: {}", stringify!($cond), format!($($fmt)+));
        }
    };
}

/// Equality assert inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            panic!(
                "prop_assert_eq failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), a, b
            );
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            panic!(
                "prop_assert_eq failed: {} == {}\n  left: {:?}\n right: {:?}\n {}",
                stringify!($a), stringify!($b), a, b, format!($($fmt)+)
            );
        }
    }};
}

/// Inequality assert inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            panic!(
                "prop_assert_ne failed: {} != {}\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                a
            );
        }
    }};
}

/// Uniform choice among strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        let arms: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::Strategy<Value = _>>,
        > = vec![$(::std::boxed::Box::new($arm)),+];
        $crate::strategy::Union::new(arms)
    }};
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $crate::proptest! {
            @impl $config;
            $($(#[$meta])* fn $name($($arg in $strat),+) $body)*
        }
    };
    (
        $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $crate::proptest! {
            @impl $crate::ProptestConfig::default();
            $($(#[$meta])* fn $name($($arg in $strat),+) $body)*
        }
    };
    (
        @impl $config:expr;
        $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

/// Everything a test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Arbitrary,
        Just, ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, f in 0.0f64..1.5, n in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.0..1.5).contains(&f));
            prop_assert!(n < 5);
        }

        #[test]
        fn tuples_and_maps_compose((a, b) in (1u64..6, 1u64..4).prop_map(|(l, o)| (l * 10, o))) {
            prop_assert!((10..60).contains(&a) && a % 10 == 0, "a={a}");
            prop_assert!((1..4).contains(&b));
        }

        #[test]
        fn vectors_hit_the_size_range(v in collection::vec(any::<bool>(), 1..300)) {
            prop_assert!((1..300).contains(&v.len()));
        }

        #[test]
        fn exact_size_vectors(v in collection::vec(any::<u32>(), 200)) {
            prop_assert_eq!(v.len(), 200);
        }

        #[test]
        fn oneof_draws_every_arm(x in prop_oneof![Just(1u32), Just(2u32), 5u32..7]) {
            prop_assert!(x == 1 || x == 2 || x == 5 || x == 6);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        assert_eq!(a.bits(), b.bits());
        let mut c = TestRng::for_case("t", 4);
        assert_ne!(a.bits(), c.bits());
    }
}
