//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this shim implements
//! the subset of proptest the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`, range / tuple / `Just` / `any` /
//! `prop_oneof!` / `prop::collection::vec` strategies, the `proptest!`
//! macro, and the `prop_assert*` family. No shrinking: a failing case
//! panics with its seed-derived inputs printed by the assertion itself,
//! and [`run_cases`] names the case index and seed as it unwinds.

use std::io::Write;
use std::ops::{Range, RangeInclusive};

/// Deterministic per-test generator (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Per-test-function configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A generator of values (subset of proptest's `Strategy`; no shrinking).
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Integer types with range strategies.
pub trait RangeValue: Copy {
    fn from_offset(lo: Self, offset: u64) -> Self;
    fn span(lo: Self, hi_excl: Self) -> u64;
}

macro_rules! range_value {
    ($($t:ty),*) => {$(
        impl RangeValue for $t {
            fn from_offset(lo: Self, offset: u64) -> Self {
                (lo as i128 + offset as i128) as $t
            }
            fn span(lo: Self, hi_excl: Self) -> u64 {
                (hi_excl as i128 - lo as i128) as u64
            }
        }
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = <$t as RangeValue>::span(self.start, self.end);
                assert!(span > 0, "empty range strategy");
                <$t as RangeValue>::from_offset(self.start, rng.below(span))
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let span = <$t as RangeValue>::span(lo, hi) + 1;
                <$t as RangeValue>::from_offset(lo, rng.below(span))
            }
        }
    )*};
}

range_value!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
}

/// Whole-domain arbitrary values (`any::<T>()`).
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy wrapper for [`Arbitrary`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Uniform choice between boxed strategies (`prop_oneof!`).
pub struct Union<V> {
    options: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Self { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// `prop::collection::vec(element, len_range)`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(!len.is_empty(), "vec strategy with empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Run one test function's cases; used by the `proptest!` expansion.
///
/// The seed is derived from the test name (FNV-1a), so failures
/// reproduce run-to-run with no flags. Setting `EMOGI_PROPTEST_SEED=<n>`
/// mixes an explicit seed in on top — CI pins it so a red CI run is
/// reproduced locally by exporting the same value. A case that panics
/// is named on stderr as it unwinds: `proptest <name>: case <i>/<cases>,
/// seed <seed>` (case `i` draws from `TestRng::new(seed ^ (i << 32))`).
pub fn run_cases(name: &str, cfg: &ProptestConfig, case: impl FnMut(&mut TestRng)) {
    // Runs inside a `Drop` during a panic: a failed write is ignored,
    // never a second panic.
    let stderr = &mut |line: &str| drop(writeln!(std::io::stderr(), "{line}"));
    run_cases_reporting(name, cfg, case, stderr);
}

/// Names the running case to `report` if it is dropped by a panic.
struct CaseGuard<'a> {
    name: &'a str,
    case: u32,
    cases: u32,
    seed: u64,
    report: &'a mut dyn FnMut(&str),
}

impl Drop for CaseGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let Self {
                name,
                case,
                cases,
                seed,
                ..
            } = self;
            (self.report)(&format!(
                "proptest {name}: case {case}/{cases}, seed {seed}"
            ));
        }
    }
}

/// [`run_cases`] with the failing-case line sent to `report`.
fn run_cases_reporting(
    name: &str,
    cfg: &ProptestConfig,
    mut case: impl FnMut(&mut TestRng),
    report: &mut dyn FnMut(&str),
) {
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        seed ^= u64::from(b);
        seed = seed.wrapping_mul(0x1000_0000_01b3);
    }
    if let Some(explicit) = std::env::var("EMOGI_PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        // splitmix the explicit seed so adjacent values diverge fully.
        seed ^= TestRng::new(explicit).next_u64();
    }
    for i in 0..cfg.cases {
        let mut rng = TestRng::new(seed ^ (u64::from(i) << 32));
        let _guard = CaseGuard {
            name,
            case: i,
            cases: cfg.cases,
            seed,
            report: &mut *report,
        };
        case(&mut rng);
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            // Discard this case (no replacement generation, unlike real
            // proptest — acceptable for the assumption rates used here).
            return;
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>),+
        ])
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @impl ($cfg); $($rest)* }
    };
    (@impl ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            $crate::run_cases(stringify!($name), &cfg, |rng| {
                $(let $arg = $crate::Strategy::generate(&($strategy), rng);)+
                // Immediately-invoked closure so prop_assume! can
                // early-return out of a single case.
                #[allow(unused_mut)]
                let mut case = move || { $body };
                case();
            });
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest! { @impl ($crate::ProptestConfig::default()); $($rest)* }
    };
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, ProptestConfig,
        Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vecs_generate_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..200 {
            let v = (0u64..4096).generate(&mut rng);
            assert!(v < 4096);
            let w = (1u8..=16).generate(&mut rng);
            assert!((1..=16).contains(&w));
        }
        let vs = prop::collection::vec(0u32..64, 1..64).generate(&mut rng);
        assert!((1..64).contains(&vs.len()));
        assert!(vs.iter().all(|&v| v < 64));
    }

    #[test]
    fn oneof_and_map_compose() {
        let s = prop_oneof![Just(4u8), Just(8u8)].prop_map(|v| u32::from(v) * 2);
        let mut rng = crate::TestRng::new(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            seen.insert(s.generate(&mut rng));
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![8, 16]);
    }

    /// A panicking case is named — index, case count, seed — exactly
    /// once, and the cases before it are not.
    #[test]
    fn a_failing_case_is_named_while_unwinding() {
        let mut lines = Vec::new();
        let mut ran = 0;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::run_cases_reporting(
                "demo",
                &ProptestConfig::with_cases(5),
                |_| {
                    ran += 1;
                    assert!(ran < 3, "third case fails");
                },
                &mut |line| lines.push(line.to_string()),
            );
        }));
        assert!(outcome.is_err(), "the failure still propagates");
        assert_eq!(lines.len(), 1, "{lines:?}");
        let seed = lines[0].strip_prefix("proptest demo: case 2/5, seed ");
        let seed = seed.expect("names test, case and case count");
        assert!(seed.parse::<u64>().is_ok(), "seed is a plain u64: {seed}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro expansion itself: multiple bindings, assume, assert.
        #[test]
        fn macro_generates_and_filters(x in 0u32..100, ys in prop::collection::vec(0u32..10, 1..5)) {
            prop_assume!(x > 0);
            prop_assert!(x < 100);
            prop_assert_eq!(ys.len(), ys.iter().filter(|&&y| y < 10).count());
        }
    }
}
