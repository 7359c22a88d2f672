//! The `Strategy` trait and combinators.

use crate::regex::RegexGen;
use crate::rng::TestRng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

/// A generator of test values. This shim generates without shrinking:
/// failures report the exact inputs (plus the case seed) instead of a
/// minimized counterexample.
pub trait Strategy: Sized {
    /// The type of value produced.
    type Value: Debug;

    /// Produces one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Builds recursive values: `self` is the leaf strategy, and `branch`
    /// turns a strategy for depth-`d` values into one for depth-`d+1`.
    /// `depth` bounds recursion; the size hints are accepted for API
    /// compatibility and unused.
    fn prop_recursive<R, F>(self, depth: u32, _desired_size: u32, _expected_branch: u32, branch: F) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut layer: BoxedStrategy<Self::Value> = self.boxed();
        let leaf = layer.clone();
        for _ in 0..depth {
            // Each layer may produce the previous layer's values (so depth
            // varies per case) — mix the leaf back in.
            let deeper = branch(layer.clone()).boxed();
            layer = Union::new(vec![deeper, leaf.clone(), layer]).boxed();
        }
        layer
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// Object-safe core used by [`BoxedStrategy`].
trait DynStrategy<T> {
    fn new_value_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn new_value_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.new_value(rng)
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        self.0.new_value_dyn(rng)
    }
}

/// Strategy producing a fixed value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// Uniform choice between boxed alternatives (the `prop_oneof!` engine).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union over the given arms; must be non-empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        let i = rng.range_usize(0, self.arms.len());
        self.arms[i].new_value(rng)
    }
}

/// `any::<T>()` support.
pub trait Arbitrary: Debug + Sized {
    /// Produces an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy for any value of `T`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Returns the strategy generating unconstrained values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                // Weight edge values so boundary bugs surface quickly.
                match rng.below(16) {
                    0 => 0 as $t,
                    1 => <$t>::MAX,
                    2 => <$t>::MIN,
                    3 => 1 as $t,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.bool()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        char::from_u32(rng.below(0xD800_u64) as u32).unwrap_or('a')
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-domain inclusive range.
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// String strategies from a regex-subset pattern (proptest's
/// `impl Strategy for &str`).
impl Strategy for &'static str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        RegexGen::compile(self).generate(rng)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);
tuple_strategy!(A, B, C, D, E, F, G, H, I);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
