//! Offline shim exposing the subset of the `proptest` API this
//! workspace's property tests use: the [`proptest!`] macro, [`Strategy`](strategy::Strategy)
//! with `prop_map`, `any::<T>()`, `Just`, ranges and tuples as
//! strategies, regex-literal string strategies, `prop::collection::vec`,
//! `prop::option::of`, `prop_oneof!` and the `prop_assert*` macros.
//!
//! Unlike the real crate there is NO shrinking and no failure
//! persistence: inputs are drawn from a deterministic per-case RNG and
//! assertion failures surface as plain panics with the generated values
//! printed by the assert message. See `compat/README.md` for why
//! external dependencies are stubbed.

pub mod test_runner {
    /// Per-test configuration (mirrors `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic RNG driving value generation (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for the `case`-th iteration of a property; deterministic
        /// so failures reproduce run-to-run.
        pub fn for_case(case: u32) -> TestRng {
            TestRng {
                state: 0x50D5_ECCA_11D0_5EED ^ ((case as u64) << 1),
            }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0, "below(0)");
            self.next_u64() % n
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Object-safe core is [`Strategy::new_value`]; combinators require
    /// `Sized`. No shrinking in this shim.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draw one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// Type-erase for heterogeneous composition (`prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            (**self).new_value(rng)
        }
    }

    /// Strategy yielding a clone of one fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<V: Clone>(pub V);

    impl<V: Clone> Strategy for Just<V> {
        type Value = V;
        fn new_value(&self, _rng: &mut TestRng) -> V {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.source.new_value(rng))
        }
    }

    /// Uniform choice among boxed strategies (`prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!options.is_empty(), "prop_oneof! needs >= 1 option");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].new_value(rng)
        }
    }

    macro_rules! int_range_strategy {
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
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }

    /// `&str` regex-literal strategies over the subset the tests use:
    /// a sequence of literal chars or `[...]` classes (with `a-z`
    /// ranges), each optionally quantified by `{n}` or `{m,n}`.
    impl Strategy for &str {
        type Value = String;
        fn new_value(&self, rng: &mut TestRng) -> String {
            let atoms = parse_pattern(self);
            let mut out = String::new();
            for (chars, lo, hi) in &atoms {
                let n = *lo + rng.below((*hi - *lo + 1) as u64) as usize;
                for _ in 0..n {
                    out.push(chars[rng.below(chars.len() as u64) as usize]);
                }
            }
            out
        }
    }

    /// Parsed atom: (candidate chars, min repeats, max repeats).
    type Atom = (Vec<char>, usize, usize);

    fn parse_pattern(pat: &str) -> Vec<Atom> {
        let chars: Vec<char> = pat.chars().collect();
        let mut i = 0;
        let mut atoms: Vec<Atom> = Vec::new();
        while i < chars.len() {
            let set = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unterminated [ in pattern {pat:?}"));
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    // `a-z` range (a lone `-` at either edge is literal).
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j], chars[j + 2]);
                        assert!(lo <= hi, "bad class range in {pat:?}");
                        for c in lo..=hi {
                            set.push(c);
                        }
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            } else {
                let c = chars[i];
                assert!(
                    !"(){}|*+?.\\^$".contains(c),
                    "unsupported regex syntax {c:?} in {pat:?} (shim supports \
                     literals and [...] classes with {{m,n}} quantifiers only)"
                );
                i += 1;
                vec![c]
            };
            // Optional {n} / {m,n} quantifier.
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unterminated {{ in pattern {pat:?}"));
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("bad {{m,n}} in {pat:?}")),
                        n.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("bad {{m,n}} in {pat:?}")),
                    ),
                    None => {
                        let n = body
                            .trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("bad {{n}} in {pat:?}"));
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(lo <= hi, "bad quantifier in {pat:?}");
            atoms.push((set, lo, hi));
        }
        atoms
    }

    /// `any::<T>()` marker strategy.
    pub struct Any<T>(PhantomData<T>);

    impl<T> Default for Any<T> {
        fn default() -> Any<T> {
            Any(PhantomData)
        }
    }

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // Weight edge values so "any" hits extremes the way
                    // the real crate's biased generators do.
                    match rng.below(16) {
                        0 => 0,
                        1 => <$t>::MAX,
                        2 => <$t>::MIN,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }

    int_arbitrary!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            match rng.below(16) {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => f64::NAN,
                _ => f64::from_bits(rng.next_u64()),
            }
        }
    }
}

pub mod arbitrary {
    use super::strategy::{Any, Arbitrary};

    /// Strategy generating any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::default()
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s whose length is drawn from `sizes`.
    pub struct VecStrategy<S> {
        element: S,
        sizes: Range<usize>,
    }

    /// `prop::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, sizes: Range<usize>) -> VecStrategy<S> {
        assert!(sizes.start < sizes.end, "empty size range");
        VecStrategy { element, sizes }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.sizes.end - self.sizes.start) as u64;
            let len = self.sizes.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy for `Option`s: `None` half the time.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `prop::option::of(strategy)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(2) == 0 {
                None
            } else {
                Some(self.inner.new_value(rng))
            }
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from
/// strategies; each body runs `config.cases` times with fresh inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(
            $crate::test_runner::ProptestConfig::default(); $($rest)*
        );
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(__case);
                $(let $arg = $crate::strategy::Strategy::new_value(&$strat, &mut __rng);)+
                $body
            }
        }
    )*};
}

/// Asserts a property holds; panics (no shrinking) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts two expressions are equal; panics (no shrinking) on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts two expressions differ; panics (no shrinking) on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies sharing a value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_regex_subset_generates_within_class() {
        let mut rng = crate::test_runner::TestRng::for_case(0);
        for _ in 0..200 {
            let s = Strategy::new_value(&"[ab%_]{0,6}", &mut rng);
            assert!(s.len() <= 6);
            assert!(s.chars().all(|c| "ab%_".contains(c)));
            let t = Strategy::new_value(&"[a-c]{2}x{3}", &mut rng);
            assert_eq!(t.len(), 5);
            assert!(t.ends_with("xxx"));
        }
    }

    #[test]
    fn ranges_tuples_and_oneof_compose() {
        let mut rng = crate::test_runner::TestRng::for_case(1);
        let strat = prop_oneof![
            ((0u64..4), prop::option::of(0u64..2)).prop_map(|(a, b)| (a, b)),
            Just((9u64, None)),
        ];
        for _ in 0..200 {
            let (a, b) = strat.new_value(&mut rng);
            assert!(a < 4 || (a == 9 && b.is_none()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_lengths_respect_bounds(xs in prop::collection::vec(0i64..10, 1..8)) {
            prop_assert!(!xs.is_empty() && xs.len() < 8);
            prop_assert!(xs.iter().all(|&x| (0..10).contains(&x)));
        }

        #[test]
        fn multiple_args_draw_independently(a in 0u32..5, b in 5u32..10) {
            prop_assert_ne!(a, b);
        }
    }
}
