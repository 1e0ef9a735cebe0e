//! Offline drop-in shim for the subset of `proptest` this workspace uses.
//!
//! Provides the `proptest!` test macro, `prop_assert*`/`prop_assume!`,
//! `ProptestConfig::with_cases`, range/tuple/regex-lite/collection
//! strategies, and a deterministic case runner. Shrinking is not
//! implemented: a failing case reports its seed and generated inputs are
//! reproducible from it, which is enough to debug in a deterministic
//! codebase. Generation is seeded from the test name, so runs are stable
//! across processes.

pub use rand::rngs::StdRng as TestRng;
use rand::{RngExt, SeedableRng};

/// Runner configuration (only the case count is honoured).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of successful cases required per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` successful cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// A `prop_assert*` failed; the property is violated.
    Fail(String),
    /// A `prop_assume!` rejected the inputs; try another case.
    Reject,
}

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Result of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Values that can generate random instances for a property.
pub trait Strategy {
    /// The type this strategy produces.
    type Value;
    /// Draws one instance.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (the upstream combinator of the
    /// same name; no shrinking in this shim, so it is just composition).
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
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

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
range_strategy!(usize, u64, u32, u16, u8, i64, i32);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.random::<f64>() * (self.end - self.start)
    }
}

/// Boolean coin-flip strategy (stand-in for `any::<bool>()`).
pub mod bool {
    /// A fair-coin strategy.
    pub struct Any;
    impl super::Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut super::TestRng) -> bool {
            use rand::RngExt;
            rng.random()
        }
    }
    /// Returns the coin-flip strategy.
    pub fn any() -> Any {
        Any
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $ix:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$ix.generate(rng),)+)
            }
        }
    )+};
}
tuple_strategy!(
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

/// Regex-lite string strategy: supports literal characters, `[a-z09_]`
/// classes (with ranges) and `{n}` / `{m,n}` quantifiers — the subset
/// this workspace's properties use.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = self.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            // One atom: a class or a literal.
            let alphabet: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed `[` in pattern {self:?}"));
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                        set.extend((lo..=hi).filter_map(char::from_u32));
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
                i += 1;
                vec![c]
            };
            // Optional quantifier.
            let (lo, hi) = if chars.get(i) == Some(&'{') {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed `{{` in pattern {self:?}"));
                let spec: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match spec.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse().expect("bad quantifier"),
                        n.trim().parse().expect("bad quantifier"),
                    ),
                    None => {
                        let n: usize = spec.trim().parse().expect("bad quantifier");
                        (n, n)
                    }
                }
            } else {
                (1usize, 1usize)
            };
            let count = rng.random_range(lo..=hi);
            for _ in 0..count {
                out.push(alphabet[rng.random_range(0..alphabet.len())]);
            }
        }
        out
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::RngExt;

    /// Strategy producing `Vec`s of an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// `Vec` strategy with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drives one property: runs cases until `cfg.cases` succeed, panicking
/// on the first failure with the seed that reproduces it.
pub fn run_cases<F>(cfg: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    let base = fnv64(name);
    let mut successes = 0u32;
    let max_attempts = cfg.cases.saturating_mul(16).max(cfg.cases);
    for attempt in 0..max_attempts {
        if successes >= cfg.cases {
            return;
        }
        let seed = base ^ (u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::seed_from_u64(seed);
        match case(&mut rng) {
            Ok(()) => successes += 1,
            Err(TestCaseError::Reject) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("property `{name}` failed (seed {seed:#x}): {msg}");
            }
        }
    }
    assert!(
        successes > 0,
        "property `{name}`: every generated case was rejected by prop_assume!"
    );
}

/// Defines property tests: `proptest! { #[test] fn p(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases($cfg, stringify!($name), |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Rejects the current case (skips it) unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// The glob-import surface used by downstream tests.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError, TestCaseResult, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn range_and_tuple_strategies() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..200 {
            let x = Strategy::generate(&(0_usize..5), &mut rng);
            assert!(x < 5);
            let (a, b) = Strategy::generate(&((0_u32..3), (1.0_f64..2.0)), &mut rng);
            assert!(a < 3);
            assert!((1.0..2.0).contains(&b));
        }
    }

    #[test]
    fn regex_lite_strategy() {
        let mut rng = TestRng::seed_from_u64(2);
        for _ in 0..100 {
            let s = Strategy::generate(&"[a-z]{1,16}", &mut rng);
            assert!((1..=16).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
        let lit = Strategy::generate(&"ab[0-9]{2}", &mut rng);
        assert!(lit.starts_with("ab") && lit.len() == 4);
    }

    #[test]
    fn vec_strategy_lengths() {
        let mut rng = TestRng::seed_from_u64(3);
        for _ in 0..100 {
            let v = Strategy::generate(&collection::vec(0_usize..4, 1..10), &mut rng);
            assert!((1..10).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(x in 0_usize..100, v in collection::vec(0_u32..10, 0..5)) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            prop_assert_eq!(v.iter().filter(|&&e| e < 10).count(), v.len());
        }
    }
}
