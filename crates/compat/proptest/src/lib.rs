//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this crate implements the
//! exact surface the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`, integer/float
//! range strategies, tuple strategies, [`collection::vec()`], the
//! [`proptest!`] macro (with
//! `#![proptest_config(...)]`), and the `prop_assert*` macros. Cases are
//! generated deterministically; there is **no shrinking** — a failing case
//! reports its index and message only.

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRunner;

    /// Generates random values of an associated type.
    pub trait Strategy {
        /// The type of the generated values.
        type Value;

        /// Draws one value.
        fn new_value(&self, runner: &mut TestRunner) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn new_value(&self, runner: &mut TestRunner) -> O {
            (self.f)(self.inner.new_value(runner))
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, runner: &mut TestRunner) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + runner.below(span) as i128) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, runner: &mut TestRunner) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    (start as i128 + runner.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for ::std::ops::Range<f64> {
        type Value = f64;

        fn new_value(&self, runner: &mut TestRunner) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + runner.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, runner: &mut TestRunner) -> Self::Value {
                    ($(self.$idx.new_value(runner),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;

    /// A length distribution for [`vec()`] (inclusive bounds). Mirrors
    /// upstream's `SizeRange` so `1..40`-style literals infer as `usize`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// Strategy for `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u128 + 1;
            let len = self.size.min + runner.below(span) as usize;
            (0..len).map(|_| self.element.new_value(runner)).collect()
        }
    }
}

pub mod test_runner {
    //! Deterministic case generation and failure reporting.

    use std::fmt;

    /// Runner configuration (subset of upstream's).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases each property is checked with.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed property check (no shrinking information).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Wraps a failure message.
        pub fn fail(msg: String) -> Self {
            TestCaseError(msg)
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic value source handed to strategies (SplitMix64).
    #[derive(Debug)]
    pub struct TestRunner {
        state: u64,
    }

    impl TestRunner {
        /// A runner for one property; `case` reseeds deterministically.
        pub fn new(config: &ProptestConfig, case: u32) -> Self {
            TestRunner {
                state: 0x9E37_79B9_7F4A_7C15 ^ (u64::from(case) << 32) ^ u64::from(config.cases),
            }
        }

        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `0..span` (rejection sampling).
        pub fn below(&mut self, span: u128) -> u128 {
            debug_assert!(span > 0 && span <= u64::MAX as u128);
            let span64 = span as u64;
            if span64 == 1 {
                return 0;
            }
            let zone = u64::MAX - (u64::MAX - span64 + 1) % span64;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return (v % span64) as u128;
                }
            }
        }

        /// Uniform draw from `[0, 1)` with 53 bits.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Mirror of upstream's `prelude::prop` module alias.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` running the body over deterministically generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut runner = $crate::test_runner::TestRunner::new(&config, case);
                    $(
                        let $arg = $crate::strategy::Strategy::new_value(
                            &($strat),
                            &mut runner,
                        );
                    )+
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            Ok(())
                        })();
                    if let Err(e) = result {
                        panic!("property failed at case {case}: {e}");
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),+) $body
            )*
        }
    };
}

/// `assert!` that reports through the proptest failure path.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` that reports through the proptest failure path.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {:?} == {:?}: {}",
            a,
            b,
            format!($($fmt)*)
        );
    }};
}

/// `assert_ne!` that reports through the proptest failure path.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: {:?} != {:?}: {}",
            a,
            b,
            format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples_compose(v in prop::collection::vec((0..10i64, 0..=3u8), 1..20)) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.len() < 20);
            for (a, b) in &v {
                prop_assert!((0..10).contains(a));
                prop_assert!((0..=3).contains(b));
            }
        }

        #[test]
        fn prop_map_applies(x in (0..5usize).prop_map(|x| x * 2)) {
            prop_assert!(x % 2 == 0, "x = {}", x);
            prop_assert!(x < 10);
        }

        #[test]
        fn float_ranges_bounded(f in 0.25f64..1.5) {
            prop_assert!((0.25..1.5).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn inner(x in 0..10i64) {
                prop_assert!(x < 0, "x = {}", x);
            }
        }
        inner();
    }

    #[test]
    fn cases_vary() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            fn collect(v in prop::collection::vec(0..1000i64, 3..6)) {
                prop_assert!(v.iter().all(|x| (0..1000).contains(x)));
            }
        }
        collect();
    }
}
