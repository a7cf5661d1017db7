//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses —
//! `proptest! { #[test] fn f(x in strategy, ..) { .. } }`, integer-range /
//! tuple / `prop::collection::vec` / `prop::array::uniform{16,32}` /
//! `any::<T>()` strategies, and `prop_assert!` / `prop_assert_eq!` — as a
//! small, fully deterministic framework. Each test's RNG is seeded from a
//! hash of the test name, so every `cargo test` run explores the same
//! cases: failures reproduce exactly and the suite cannot flake. There is
//! no shrinking; the failing case's inputs are reported via the panic
//! message (set `PROPTEST_CASES` to change the case count, default 64).

use std::ops::Range;

/// Deterministic splitmix64 RNG driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniform bits (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A test-case failure raised by `prop_assert!`-family macros.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Produces random values of an associated type from a [`TestRng`].
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128 - self.start as u128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_signed_range_strategy!(i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Types with a canonical "any value" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` strategy: arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection and array strategy namespaces (`prop::collection::vec`, …).
pub mod prop {
    /// Vec strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};

        /// Element count for [`vec()`]: a fixed length or a half-open range.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            start: usize,
            end: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self {
                    start: n,
                    end: n + 1,
                }
            }
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty vec size range");
                Self {
                    start: r.start,
                    end: r.end,
                }
            }
        }

        /// Strategy for `Vec<S::Value>` with a length drawn from a
        /// [`SizeRange`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            elem: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let span = (self.size.end - self.size.start) as u64;
                let len = self.size.start + rng.below(span) as usize;
                (0..len).map(|_| self.elem.generate(rng)).collect()
            }
        }

        /// `prop::collection::vec(elem, size)`: vectors of `elem` values.
        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }
    }

    /// Fixed-size array strategies.
    pub mod array {
        use super::super::{Strategy, TestRng};

        /// Strategy for `[S::Value; N]` built from one element strategy.
        #[derive(Debug, Clone)]
        pub struct UniformArray<S, const N: usize>(S);

        impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
            type Value = [S::Value; N];
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                std::array::from_fn(|_| self.0.generate(rng))
            }
        }

        /// `prop::array::uniform16(elem)`: 16-element arrays.
        pub fn uniform16<S: Strategy>(elem: S) -> UniformArray<S, 16> {
            UniformArray(elem)
        }

        /// `prop::array::uniform32(elem)`: 32-element arrays.
        pub fn uniform32<S: Strategy>(elem: S) -> UniformArray<S, 32> {
            UniformArray(elem)
        }
    }
}

/// Drives one property over `PROPTEST_CASES` (default 64) deterministic
/// cases; the RNG seed is derived from `name` alone so reruns are exact
/// replays. Called by the `proptest!` macro expansion.
pub fn run_cases<F>(name: &str, mut body: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    // FNV-1a over the test name: stable across runs and platforms.
    let mut seed = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        seed ^= *b as u64;
        seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for case in 0..cases {
        let mut rng = TestRng::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if let Err(e) = body(&mut rng) {
            panic!("property '{name}' failed on case {}/{cases}: {e}", case + 1);
        }
    }
}

/// Declares deterministic property tests: each `fn name(arg in strategy,
/// ..) { body }` becomes a `#[test]` that replays the same generated cases
/// every run.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(stringify!($name), |__proptest_rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __proptest_rng);)+
                    $body
                    ::std::result::Result::Ok(())
                });
            }
        )*
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, fmt, ..)`: fails the current
/// property case (usable only inside `proptest!` bodies).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(a, b)` / `prop_assert_eq!(a, b, fmt, ..)`: equality
/// assertion for `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: `{:?}`\n right: `{:?}`",
                stringify!($a),
                stringify!($b),
                lhs,
                rhs
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: `{:?}`\n right: `{:?}`",
                format!($($fmt)+),
                lhs,
                rhs
            )));
        }
    }};
}

/// One-stop imports matching `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{any, Arbitrary, Strategy, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..5, z in -4i64..4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
            prop_assert!((-4..4).contains(&z), "z out of range: {}", z);
        }

        #[test]
        fn vec_and_tuple_and_array_strategies(
            v in prop::collection::vec(0u8..10, 2..6),
            fixed in prop::collection::vec(any::<u8>(), 3),
            pair in (0u8..2, 100u64..200),
            arr in prop::array::uniform16(any::<u8>()),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert_eq!(fixed.len(), 3);
            prop_assert!(pair.0 < 2 && pair.1 >= 100);
            prop_assert_eq!(arr.len(), 16);
        }
    }

    #[test]
    #[should_panic(expected = "property 'always_fails'")]
    fn failures_panic_with_context() {
        crate::run_cases("always_fails", |_| Err(TestCaseError::fail("boom")));
    }
}
