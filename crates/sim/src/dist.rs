//! Probability distributions used by the experiments.
//!
//! The paper draws inter-arrival gaps "from a Poisson distribution with a
//! mean of λ seconds"; we provide both a literal integer-valued Poisson and
//! the exponential that a Poisson *process* implies, and let the workload
//! layer choose (the experiments use [`Exponential`] by default, with
//! [`Poisson`] available for the literal reading — the resulting arrival
//! patterns are statistically indistinguishable at these rates).
//!
//! Noise on ground-truth resource speed is log-normal: multiplicative,
//! always positive, with median 1 — a standard model for machine-to-machine
//! run-time variability and the mechanism behind Table 1's ≈3 % prediction
//! error.

use crate::rng::RngStream;

/// Sampling interface so workload code can be generic over the gap
/// distribution.
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut RngStream) -> f64;

    /// The distribution's mean, used in tests and for documentation output.
    fn mean(&self) -> f64;
}

/// Exponential distribution with the given mean (i.e. rate `1/mean`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// # Panics
    /// Panics unless `mean > 0` and finite.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive"
        );
        Exponential { mean }
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        // Inversion: -mean * ln(1 - U). `1 - U` is in (0, 1] so ln is finite.
        -self.mean * (1.0 - rng.uniform01()).ln()
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Poisson distribution with the given mean, sampled with Knuth's product
/// method for small means and the PTRS transformed-rejection method of
/// Hörmann for large means (cutover at mean 30).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean: f64,
}

impl Poisson {
    /// # Panics
    /// Panics unless `mean > 0` and finite.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "poisson mean must be positive"
        );
        Poisson { mean }
    }

    fn sample_knuth(&self, rng: &mut RngStream) -> f64 {
        let l = (-self.mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.uniform01();
            if p <= l {
                return k as f64;
            }
            k += 1;
        }
    }

    fn sample_ptrs(&self, rng: &mut RngStream) -> f64 {
        // W. Hörmann, "The transformed rejection method for generating
        // Poisson random variables", 1993.
        let mu = self.mean;
        let b = 0.931 + 2.53 * mu.sqrt();
        let a = -0.059 + 0.02483 * b;
        let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
        let v_r = 0.9277 - 3.6224 / (b - 2.0);
        loop {
            let u = rng.uniform01() - 0.5;
            let v = rng.uniform01();
            let us = 0.5 - u.abs();
            let k = ((2.0 * a / us + b) * u + mu + 0.43).floor();
            if us >= 0.07 && v <= v_r {
                return k;
            }
            if k < 0.0 || (us < 0.013 && v > us) {
                continue;
            }
            let lhs = v.ln() * inv_alpha / (a / (us * us) + b);
            let rhs = -mu + k * mu.ln() - ln_factorial(k as u64);
            if lhs <= rhs {
                return k;
            }
        }
    }
}

impl Sample for Poisson {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        if self.mean < 30.0 {
            self.sample_knuth(rng)
        } else {
            self.sample_ptrs(rng)
        }
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Normal distribution (Box–Muller; one value per draw, the pair's second
/// value is discarded to keep the stream's consumption pattern simple).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// # Panics
    /// Panics if `std < 0` or parameters are not finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0 && std.is_finite() && mean.is_finite());
        Normal { mean, std }
    }

    /// A standard-normal draw.
    pub fn standard(rng: &mut RngStream) -> f64 {
        let u1 = (1.0 - rng.uniform01()).max(f64::MIN_POSITIVE);
        let u2 = rng.uniform01();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        self.mean + self.std * Normal::standard(rng)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Log-normal multiplicative noise with median 1.
///
/// `sample()` returns `exp(sigma * Z)`; for small `sigma` the relative
/// standard deviation is approximately `sigma`. `sigma = 0` degenerates to
/// the constant 1 (useful to switch noise off in ablations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalNoise {
    sigma: f64,
}

impl LogNormalNoise {
    /// # Panics
    /// Panics if `sigma < 0` or not finite.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite());
        LogNormalNoise { sigma }
    }

    /// The shape parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Advances `rng` exactly as one [`Sample::sample`] call would,
    /// without computing the value: Box–Muller consumes two raw words
    /// per draw and caches nothing, so a skipped draw is two raw steps
    /// (none when `sigma = 0`).
    pub fn skip(&self, rng: &mut RngStream) {
        if self.sigma > 0.0 {
            rng.next_u64_raw();
            rng.next_u64_raw();
        }
    }
}

impl Sample for LogNormalNoise {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        (self.sigma * Normal::standard(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.sigma * self.sigma / 2.0).exp()
    }
}

/// Natural log of `k!`, via Stirling's series for large `k`.
fn ln_factorial(k: u64) -> f64 {
    const TABLE: [f64; 10] = [
        0.0,
        0.0,
        std::f64::consts::LN_2, // ln 2!
        1.791_759_469_228_055,
        3.178_053_830_347_945_8,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
    ];
    if (k as usize) < TABLE.len() {
        return TABLE[k as usize];
    }
    let x = (k + 1) as f64;
    // Stirling: ln Γ(x) with the first correction terms.
    (x - 0.5) * x.ln() - x + 0.5 * (std::f64::consts::TAU).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StreamKind;

    fn rng() -> RngStream {
        RngStream::derive(0xC0FFEE, StreamKind::TaskSizes)
    }

    fn sample_mean<S: Sample>(dist: &S, n: usize, rng: &mut RngStream) -> f64 {
        (0..n).map(|_| dist.sample(rng)).sum::<f64>() / n as f64
    }

    /// A skipped log-normal draw leaves the stream exactly where a
    /// sampled one does, for noisy and noise-free shapes alike.
    #[test]
    fn lognormal_skip_matches_sample() {
        for sigma in [0.0, 0.03, 0.5] {
            let d = LogNormalNoise::new(sigma);
            let (mut sampled, mut skipped) = (rng(), rng());
            for _ in 0..7 {
                d.sample(&mut sampled);
                d.skip(&mut skipped);
            }
            assert_eq!(
                sampled.next_u64_raw(),
                skipped.next_u64_raw(),
                "sigma {sigma}"
            );
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::new(20.0);
        let m = sample_mean(&d, 200_000, &mut rng());
        assert!((m - 20.0).abs() < 0.3, "mean = {m}");
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(1.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn poisson_small_mean() {
        let d = Poisson::new(3.0);
        let m = sample_mean(&d, 100_000, &mut rng());
        assert!((m - 3.0).abs() < 0.05, "mean = {m}");
    }

    #[test]
    fn poisson_paper_rates() {
        // The two arrival rates used in the experiments.
        for target in [15.0, 20.0] {
            let d = Poisson::new(target);
            let m = sample_mean(&d, 100_000, &mut rng());
            assert!((m - target).abs() < 0.2, "mean {target}: got {m}");
        }
    }

    #[test]
    fn poisson_large_mean_ptrs_path() {
        let d = Poisson::new(200.0);
        let m = sample_mean(&d, 50_000, &mut rng());
        assert!((m - 200.0).abs() < 1.0, "mean = {m}");
    }

    #[test]
    fn poisson_variance_equals_mean() {
        let d = Poisson::new(15.0);
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 15.0).abs() < 0.5, "var = {var}");
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(5.0, 2.0);
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.03, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn lognormal_median_one_and_positive() {
        let d = LogNormalNoise::new(0.03);
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[n / 2];
        assert!((median - 1.0).abs() < 0.01, "median = {median}");
        // Relative std ≈ sigma for small sigma.
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((std - 0.03).abs() < 0.005, "std = {std}");
    }

    #[test]
    fn lognormal_zero_sigma_is_constant_one() {
        let d = LogNormalNoise::new(0.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 1.0);
        }
    }

    #[test]
    fn ln_factorial_matches_direct() {
        for k in 0..20u64 {
            let direct: f64 = (1..=k).map(|i| (i as f64).ln()).sum();
            assert!(
                (ln_factorial(k) - direct).abs() < 1e-8,
                "k = {k}: {} vs {direct}",
                ln_factorial(k)
            );
        }
        // Spot-check a large value against Stirling-independent identity:
        // ln(100!) ≈ 363.739375...
        assert!((ln_factorial(100) - 363.739_375_555_563_5).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_nonpositive_mean() {
        Exponential::new(0.0);
    }

    #[test]
    #[should_panic]
    fn poisson_rejects_nonpositive_mean() {
        Poisson::new(-1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::StreamKind;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn exponential_always_nonnegative(mean in 0.001f64..1000.0, seed: u64) {
            let d = Exponential::new(mean);
            let mut r = RngStream::derive(seed, StreamKind::Arrivals);
            for _ in 0..100 {
                prop_assert!(d.sample(&mut r) >= 0.0);
            }
        }

        #[test]
        fn poisson_always_nonnegative_integer(mean in 0.1f64..100.0, seed: u64) {
            let d = Poisson::new(mean);
            let mut r = RngStream::derive(seed, StreamKind::Arrivals);
            for _ in 0..50 {
                let x = d.sample(&mut r);
                prop_assert!(x >= 0.0);
                prop_assert_eq!(x.fract(), 0.0);
            }
        }

        #[test]
        fn lognormal_always_positive(sigma in 0.0f64..2.0, seed: u64) {
            let d = LogNormalNoise::new(sigma);
            let mut r = RngStream::derive(seed, StreamKind::CpuNoise(0));
            for _ in 0..100 {
                prop_assert!(d.sample(&mut r) > 0.0);
            }
        }
    }
}
