//! Offline stand-in for the crates.io `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's
//! property-based tests use: the [`proptest!`] macro, range / collection /
//! bool strategies, `prop_assert*` macros and [`ProptestConfig`]. Inputs
//! are generated from a deterministic per-test RNG; failing cases panic
//! with the generated arguments printed (no shrinking — failures report
//! the raw counterexample instead of a minimal one).

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};

/// The RNG handed to strategies by the [`proptest!`] runner.
pub type TestRng = StdRng;

/// Builds the deterministic RNG for one property test, keyed on the test
/// name so different tests explore different sequences.
pub fn test_rng(name: &str) -> TestRng {
    // FNV-1a over the test name.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Why a test case did not complete.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case's inputs did not satisfy a `prop_assume!` precondition.
    Reject(String),
    /// A `prop_assert*` failed.
    Fail(String),
}

impl TestCaseError {
    /// A rejected (filtered-out) case.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }

    /// A failed assertion.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
            TestCaseError::Fail(r) => write!(f, "failed: {r}"),
        }
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
    /// Maximum rejected cases before the test errors out.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// A config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Default::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_global_rejects: 4096,
        }
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated value type.
    type Value: fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<T> Strategy for Range<T>
where
    T: SampleUniform + fmt::Debug,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

impl<T> Strategy for RangeInclusive<T>
where
    T: SampleUniform + fmt::Debug,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(*self.start()..=*self.end())
    }
}

/// A strategy that always yields the same value (`proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Sizes accepted by [`vec()`]: a fixed length or a range of lengths.
    pub trait SizeRange {
        /// Picks a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.start..self.end)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(*self.start()..=*self.end())
        }
    }

    /// A strategy generating `Vec`s of values from an element strategy.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `proptest::collection::vec`: vectors of `size` elements drawn from
    /// `element`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy {
            element,
            len: size,
        }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// A fair coin (`proptest::bool::ANY`).
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniformly random booleans.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen::<bool>()
        }
    }

    /// A weighted coin: `true` with probability `p`.
    #[derive(Debug, Clone, Copy)]
    pub struct Weighted(pub f64);

    /// `proptest::bool::weighted`: `true` with probability `probability`.
    pub fn weighted(probability: f64) -> Weighted {
        Weighted(probability)
    }

    impl Strategy for Weighted {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(self.0)
        }
    }
}

/// The common imports property tests expect.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Asserts a condition inside a property test, returning a
/// [`TestCaseError::Fail`] instead of panicking so the runner can attach
/// the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let lhs = $lhs;
        let rhs = $rhs;
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($lhs),
            stringify!($rhs),
            lhs,
            rhs
        );
    }};
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let lhs = $lhs;
        let rhs = $rhs;
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: {} != {} (both {:?})",
            stringify!($lhs),
            stringify!($rhs),
            lhs
        );
    }};
}

/// Rejects the current case when a precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            let mut accepted: u32 = 0;
            let mut rejected: u32 = 0;
            while accepted < config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                        rejected += 1;
                        assert!(
                            rejected < config.max_global_rejects,
                            "too many rejected cases ({rejected}) in {}",
                            stringify!($name)
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property {} falsified after {} cases: {msg}\n  inputs: {inputs}",
                            stringify!($name),
                            accepted + 1
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 0usize..10, f in -1.0f64..1.0) {
            prop_assert!(x < 10);
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vectors_have_requested_length(v in crate::collection::vec(0u64..5, 7)) {
            prop_assert_eq!(v.len(), 7);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn assume_rejects_without_failing(x in 0usize..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn helper_fn_can_return_test_case_error() {
        fn check(v: u32) -> Result<(), TestCaseError> {
            prop_assert!(v < 10, "v too big: {v}");
            Ok(())
        }
        assert!(check(3).is_ok());
        assert!(matches!(check(30), Err(TestCaseError::Fail(_))));
    }

    proptest! {
        #[test]
        #[should_panic(expected = "falsified")]
        fn failing_property_panics_with_inputs(x in 0usize..3) {
            prop_assert!(x > 100);
        }
    }
}
