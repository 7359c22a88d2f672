//! Offline shim for the [proptest](https://docs.rs/proptest) API surface
//! used by this workspace.
//!
//! The build environment has no access to crates.io, so the workspace
//! cannot depend on the real crate. This shim implements the same public
//! names with compatible semantics — deterministic random generation
//! driven per (test name, case index) — minus shrinking: a failing case
//! reports the exact generated inputs instead of a minimized one.
//! Test sources are unchanged; swapping the real crate back in is a
//! one-line Cargo.toml change.

pub mod regex;
pub mod rng;
pub mod strategy;

pub use strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};

/// Run-loop configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // PROPTEST_CASES mirrors the real crate's env override.
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        ProptestConfig { cases }
    }
}

/// Why a test-case closure did not succeed.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed — skip the case without failing the test.
    Reject,
    /// An assertion failed with this message.
    Fail(String),
}

/// Drives one property: generates `config.cases` inputs from `strategy`
/// and applies `run` to each. Called by the [`proptest!`] expansion.
pub fn run_property<S, F>(name: &str, config: &ProptestConfig, strategy: &S, run: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    for case in 0..u64::from(config.cases) {
        let mut rng = rng::TestRng::for_case(name, case);
        let value = strategy.new_value(&mut rng);
        let described = format!("{value:?}");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(value)));
        match result {
            Ok(Ok(())) | Ok(Err(TestCaseError::Reject)) => {}
            Ok(Err(TestCaseError::Fail(msg))) => panic!(
                "property {name} failed at case {case}: {msg}\n    input: {described}"
            ),
            Err(payload) => {
                eprintln!("property {name} panicked at case {case}\n    input: {described}");
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Namespaced strategy constructors (`prop::collection`, `prop::option`,
/// `prop::num`), mirroring the real crate's module layout.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::rng::TestRng;
        use crate::strategy::Strategy;
        use std::collections::BTreeMap;
        use std::fmt::Debug;
        use std::ops::Range;

        /// Strategy for `Vec<T>` with a length drawn from `size`.
        #[derive(Clone, Debug)]
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        /// Vector of values from `element` with length in `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let n = rng.range_usize(self.size.start, self.size.end);
                (0..n).map(|_| self.element.new_value(rng)).collect()
            }
        }

        /// Strategy for `BTreeMap<K, V>` with size drawn from `size`.
        #[derive(Clone, Debug)]
        pub struct BTreeMapStrategy<K, V> {
            key: K,
            value: V,
            size: Range<usize>,
        }

        /// Map with keys/values from the given strategies. Duplicate keys
        /// collapse, so the final size may be below the lower bound —
        /// matching the real crate's behaviour.
        pub fn btree_map<K: Strategy, V: Strategy>(
            key: K,
            value: V,
            size: Range<usize>,
        ) -> BTreeMapStrategy<K, V> {
            BTreeMapStrategy { key, value, size }
        }

        impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
        where
            K::Value: Ord + Debug,
        {
            type Value = BTreeMap<K::Value, V::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let n = rng.range_usize(self.size.start, self.size.end);
                (0..n).map(|_| (self.key.new_value(rng), self.value.new_value(rng))).collect()
            }
        }
    }

    /// `Option<T>` strategies.
    pub mod option {
        use crate::rng::TestRng;
        use crate::strategy::Strategy;

        /// Strategy for `Option<T>`.
        #[derive(Clone, Debug)]
        pub struct OptionStrategy<S>(S);

        /// `None` a quarter of the time, `Some` of the inner value otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy(inner)
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                if rng.below(4) == 0 {
                    None
                } else {
                    Some(self.0.new_value(rng))
                }
            }
        }
    }

    /// Numeric domain strategies.
    pub mod num {
        /// `f64` domains.
        pub mod f64 {
            use crate::rng::TestRng;
            use crate::strategy::Strategy;

            /// Normal (finite, non-subnormal, non-zero) doubles.
            #[derive(Clone, Copy, Debug)]
            pub struct Normal;

            /// The normal-doubles strategy (proptest's `f64::NORMAL`).
            pub const NORMAL: Normal = Normal;

            impl Strategy for Normal {
                type Value = f64;
                fn new_value(&self, rng: &mut TestRng) -> f64 {
                    loop {
                        let v = f64::from_bits(rng.next_u64());
                        if v.is_normal() {
                            return v;
                        }
                    }
                }
            }
        }
    }
}

/// Everything a property-test module imports.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        ProptestConfig, TestCaseError,
    };
}

/// Declares property tests. Accepts the real crate's syntax:
/// an optional `#![proptest_config(expr)]` header, then test functions
/// whose arguments are drawn from strategies via `pat in strategy`.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr)) => {};
    (@cfg ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let strategy = ($($strat,)+);
            $crate::run_property(stringify!($name), &config, &strategy, |($($arg,)+)| {
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts inside a property; failure reports the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Asserts two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Asserts two expressions are not equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, $($fmt)*);
    }};
}

/// Discards the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}
