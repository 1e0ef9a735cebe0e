//! Deterministic measurement noise.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Multiplicative, deterministic measurement noise.
///
/// Real profiling never returns the analytical truth: kernel scheduling,
/// clock throttling and network jitter perturb every measurement. The
/// noise is a pure function of `(seed, key)`, so measuring the same plan
/// on the same hardware twice agrees — but an estimator composing
/// *different* measurements (per-stage profiles, offline tables) cannot be
/// trivially exact against an end-to-end measurement.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    sigma: f64,
    seed: u64,
}

impl NoiseModel {
    /// Creates a noise model with relative standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= sigma < 1/3`, the range whose factors are all
    /// positive.
    #[must_use]
    pub fn new(sigma: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0 / 3.0).contains(&sigma),
            "sigma {sigma} out of range"
        );
        NoiseModel { sigma, seed }
    }

    /// A model that returns exactly 1.0 for every key.
    #[must_use]
    pub fn disabled() -> Self {
        NoiseModel {
            sigma: 0.0,
            seed: 0,
        }
    }

    /// The smallest factor [`factor`](Self::factor) returns, `1 − 3 sigma`
    /// (1 without noise): the clamp's lower end, bit for bit, and always
    /// positive.
    #[must_use]
    pub fn floor(&self) -> f64 {
        floor(self.sigma)
    }

    /// The multiplicative factor for a measurement identified by `key`.
    ///
    /// Approximately `N(1, sigma)`, clamped to `1 ± 3 sigma` so a factor
    /// can never be negative.
    #[must_use]
    pub fn factor(&self, key: &str) -> f64 {
        self.prefixed("").finish(key)
    }

    /// The factors of keys that start with `prefix`, with the prefix
    /// hashed once: `prefixed(p).factor(rest) == factor(p + rest)`.
    #[must_use]
    pub(crate) fn prefixed(&self, prefix: &str) -> PrefixedNoise {
        let hashers = std::array::from_fn(|salt| {
            let mut h = DefaultHasher::new();
            // The stream `(seed, salt, key).hash(h)` feeds the hasher,
            // cut after the key's first `prefix.len()` bytes: a `str`
            // hashes as its bytes then a 0xff terminator.
            (self.seed, salt as u64).hash(&mut h);
            h.write(prefix.as_bytes());
            h
        });
        PrefixedNoise {
            sigma: self.sigma,
            hashers,
        }
    }
}

/// [`NoiseModel`] factors of keys sharing a prefix (see
/// [`NoiseModel::prefixed`]).
#[derive(Debug, Clone)]
pub(crate) struct PrefixedNoise {
    sigma: f64,
    /// One hasher per salt, each having absorbed `(seed, salt)` and the
    /// prefix.
    hashers: [DefaultHasher; 4],
}

impl PrefixedNoise {
    /// The factor of the key `prefix + rest`.
    #[must_use]
    pub(crate) fn factor(&self, rest: &str) -> f64 {
        self.clone().finish(rest)
    }

    fn finish(self, rest: &str) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        // Sum of four uniforms approximates a Gaussian (Irwin–Hall).
        let mut z = 0.0;
        for mut h in self.hashers {
            rest.hash(&mut h);
            let u = (h.finish() >> 11) as f64 / (1_u64 << 53) as f64; // [0, 1)
            z += u - 0.5;
        }
        // Var of one uniform(-0.5, 0.5) is 1/12; of the sum, 1/3.
        let gauss = z * 3.0_f64.sqrt();
        (1.0 + self.sigma * gauss).clamp(floor(self.sigma), 1.0 + 3.0 * self.sigma)
    }
}

/// The lower end of the factor clamp at relative deviation `sigma`.
fn floor(sigma: f64) -> f64 {
    1.0 - 3.0 * sigma
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let n = NoiseModel::new(0.05, 42);
        assert_eq!(n.factor("abc"), n.factor("abc"));
        assert_ne!(n.factor("abc"), n.factor("abd"));
    }

    #[test]
    fn seed_changes_draws() {
        let a = NoiseModel::new(0.05, 1);
        let b = NoiseModel::new(0.05, 2);
        assert_ne!(a.factor("k"), b.factor("k"));
    }

    /// The factor as one hash of `(seed, salt, key)` per salt.
    fn whole_key_factor(sigma: f64, seed: u64, key: &str) -> f64 {
        let mut z = 0.0;
        for salt in 0..4_u64 {
            let mut h = DefaultHasher::new();
            (seed, salt, key).hash(&mut h);
            z += (h.finish() >> 11) as f64 / (1_u64 << 53) as f64 - 0.5;
        }
        (1.0 + sigma * z * 3.0_f64.sqrt()).clamp(1.0 - 3.0 * sigma, 1.0 + 3.0 * sigma)
    }

    #[test]
    fn prefixed_factors_match_whole_keys() {
        let n = NoiseModel::new(0.05, 42);
        let key = "BERT-1.3B|256|P2[D4T1,D2T2]|A100|4";
        let whole = whole_key_factor(0.05, 42, key);
        assert_eq!(n.factor(key).to_bits(), whole.to_bits());
        for cut in 0..=key.len() {
            let (prefix, rest) = key.split_at(cut);
            assert_eq!(n.prefixed(prefix).factor(rest).to_bits(), whole.to_bits());
        }
    }

    #[test]
    fn disabled_is_identity() {
        assert_eq!(NoiseModel::disabled().factor("anything"), 1.0);
        assert_eq!(NoiseModel::disabled().floor(), 1.0);
    }

    #[test]
    fn factors_are_bounded_and_centred() {
        let n = NoiseModel::new(0.05, 7);
        let mut sum = 0.0;
        const COUNT: usize = 2000;
        for i in 0..COUNT {
            let f = n.factor(&format!("key{i}"));
            assert!(f > 0.8 && f < 1.2, "factor {f} out of bounds");
            assert!(f >= n.floor(), "factor {f} under the floor");
            sum += f;
        }
        let mean = sum / COUNT as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean} biased");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn huge_sigma_rejected() {
        let _ = NoiseModel::new(0.9, 0);
    }
}
