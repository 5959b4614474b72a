//! Offline stand-in for the parts of the `proptest` crate this workspace
//! uses.
//!
//! The build environment has no crates.io access, so this shim provides a
//! deterministic randomized-testing core with the same surface syntax:
//!
//! - the `proptest!` macro with `#![proptest_config(...)]` headers and
//!   `arg in strategy` bindings,
//! - [`strategy::Strategy`] implemented for numeric ranges and
//!   [`collection::vec`],
//! - [`prop_assert!`] / [`prop_assert_eq!`] returning soft failures with the
//!   failing case's seed in the panic message.
//!
//! Differences from real proptest: no shrinking (the failing input is
//! printed instead, so generated values must be `Clone + Debug`), and case
//! generation is seeded from the test's module path, mixed with the
//! `QN_PROPTEST_SEED` environment variable (a `u64`) when it is set. Unset,
//! every run replays the same cases without a persistence file; set to a
//! fresh value (CI passes its run id), a run explores new cases. A failure
//! prints the effective seed and the `QN_PROPTEST_SEED` value that
//! replays it.

// `proptest!`'s surface syntax requires `#[test]` on each property, so the
// macro's doc example necessarily contains one; the example drives the
// generated fn explicitly instead.
#![allow(clippy::test_attr_in_doctest)]

pub mod config {
    /// Mirror of `proptest::test_runner::Config` for the fields the
    /// workspace sets.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the property to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config with an explicit case count.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng as _;
    use std::ops::Range;

    /// Value generator: the shim's equivalent of `proptest::strategy::Strategy`.
    ///
    /// Real proptest separates strategies from value trees to support
    /// shrinking; the shim generates concrete values directly.
    pub trait Strategy {
        type Value;
        fn generate(&self, rng: &mut StdRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Constant strategy (`proptest::strategy::Just`).
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            (**self).generate(rng)
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;

    /// Strategy producing `Vec`s of a fixed length (the only size shape the
    /// workspace uses).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    /// `proptest::collection::vec` limited to exact lengths.
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            (0..self.len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    use crate::config::ProptestConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Soft test-case failure produced by `prop_assert!`-family macros.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Environment variable whose `u64` value is mixed into every
    /// property's seed.
    pub const SEED_VAR: &str = "QN_PROPTEST_SEED";

    /// Drives the case loop for one property: owns the config and the
    /// deterministic per-test RNG.
    pub struct TestRunner {
        config: ProptestConfig,
        rng: StdRng,
        seed: u64,
        run_seed: Option<u64>,
    }

    impl TestRunner {
        /// Seeds the RNG from the test's fully qualified name, mixed with
        /// `QN_PROPTEST_SEED` when set, so each property gets an
        /// independent stream that is reproducible from those two inputs.
        ///
        /// # Panics
        ///
        /// Panics if `QN_PROPTEST_SEED` is set but is not a `u64`.
        pub fn new(config: ProptestConfig, test_name: &str) -> Self {
            let run_seed = std::env::var(SEED_VAR).ok().map(|v| {
                v.trim()
                    .parse::<u64>()
                    .unwrap_or_else(|_| panic!("{SEED_VAR} must be a u64, got {v:?}"))
            });
            TestRunner::with_run_seed(config, test_name, run_seed)
        }

        /// [`TestRunner::new`] with the `QN_PROPTEST_SEED` value passed in:
        /// `None` seeds from the test name alone.
        pub fn with_run_seed(
            config: ProptestConfig,
            test_name: &str,
            run_seed: Option<u64>,
        ) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
            for b in test_name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
            }
            if let Some(run) = run_seed {
                seed = splitmix64(seed ^ splitmix64(run));
            }
            TestRunner {
                config,
                rng: StdRng::seed_from_u64(seed),
                seed,
                run_seed,
            }
        }

        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        pub fn rng(&mut self) -> &mut StdRng {
            &mut self.rng
        }

        /// The effective seed of this property's case stream.
        pub fn seed(&self) -> u64 {
            self.seed
        }

        /// How to replay this runner's cases, for failure messages.
        pub fn replay_hint(&self) -> String {
            match self.run_seed {
                Some(run) => format!("seed {:#018x}; replay with {SEED_VAR}={run}", self.seed),
                None => format!("seed {:#018x}; replay with {SEED_VAR} unset", self.seed),
            }
        }
    }

    /// SplitMix64 finalizer: spreads a run seed over all 64 bits.
    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

pub mod prelude {
    pub use crate::config::ProptestConfig;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Namespace mirror so `prop::collection::vec(...)` resolves after a
    /// glob import of the prelude, as with real proptest.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests. Mirrors `proptest::proptest!` syntax:
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(8))]
///
///     #[test]
///     fn addition_commutes(a in 0u64..100, b in 0u64..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// (Doctests compile but do not run `#[test]` items; the macro's behaviour
/// is exercised by this crate's unit tests.)
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ cfg = [$cfg]; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ cfg = [$crate::config::ProptestConfig::default()]; $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = [$cfg:expr];) => {};
    (cfg = [$cfg:expr];
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::config::ProptestConfig = $cfg;
            let total = config.cases;
            let mut runner = $crate::test_runner::TestRunner::new(
                config,
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..total {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), runner.rng());)+
                // Snapshot inputs (the body may move them); only a failing
                // case pays for Debug-formatting the snapshot.
                let __qn_snapshot = ($(::std::clone::Clone::clone(&$arg),)+);
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(err) = outcome {
                    let ($($arg,)+) = __qn_snapshot;
                    let mut inputs = ::std::string::String::new();
                    $(inputs.push_str(&::std::format!(
                        "\n    {} = {:?}", stringify!($arg), &$arg
                    ));)+
                    panic!(
                        "proptest case {}/{} of `{}` failed: {}\n  inputs:{}\n  {}",
                        case + 1,
                        total,
                        stringify!($name),
                        err,
                        inputs,
                        runner.replay_hint(),
                    );
                }
            }
        }
        $crate::__proptest_items!{ cfg = [$cfg]; $($rest)* }
    };
}

/// Soft assertion: fails the current case with the location and condition.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("{} ({}:{})", ::std::format_args!($($fmt)*), file!(), line!()),
            ));
        }
    };
}

/// Soft equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(l == r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            ::std::format_args!($($fmt)*)
        );
    }};
}

/// Soft inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(l != r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

/// Skips the rest of the case when the assumption fails. Unlike real
/// proptest the skipped case still counts toward the case total.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in -3.0f32..3.0, n in 1usize..10) {
            prop_assert!((-3.0..3.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn vec_strategy_has_exact_len(v in prop::collection::vec(0.0f32..1.0, 17)) {
            prop_assert_eq!(v.len(), 17);
            prop_assert!(v.iter().all(|e| (0.0..1.0).contains(e)));
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in 0u64..1000) {
            prop_assert!(x < 1000);
        }
    }

    #[test]
    fn run_seed_mixes_into_the_case_stream() {
        use crate::test_runner::TestRunner;
        use rand::Rng as _;
        let draws = |run_seed: Option<u64>| {
            let mut r = TestRunner::with_run_seed(ProptestConfig::default(), "a::b", run_seed);
            (
                r.seed(),
                (0..4).map(|_| r.rng().gen::<u64>()).collect::<Vec<_>>(),
            )
        };
        // unset keeps the module-path seed (FNV-1a of the name)
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for b in "a::b".bytes() {
            fnv = (fnv ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(draws(None).0, fnv);
        // a run seed changes the stream, reproducibly
        assert_ne!(draws(Some(1)), draws(None));
        assert_ne!(draws(Some(1)), draws(Some(2)));
        assert_eq!(draws(Some(7)), draws(Some(7)));
        let hint =
            TestRunner::with_run_seed(ProptestConfig::default(), "a::b", Some(7)).replay_hint();
        assert!(hint.contains("QN_PROPTEST_SEED=7"), "{hint}");
    }

    #[test]
    #[should_panic(expected = "replay with QN_PROPTEST_SEED")]
    #[allow(unnameable_test_items)]
    fn failure_message_names_the_seed() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]

            #[test]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100);
            }
        }
        always_fails();
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    // the nested `#[test]` comes from proptest!'s required syntax; the fn is
    // driven explicitly below rather than by the harness
    #[allow(unnameable_test_items)]
    fn failing_property_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            #[test]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
