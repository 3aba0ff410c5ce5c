//! Stochastic primitives for platform models.
//!
//! Implemented from scratch on top of `rand`'s uniform source so the
//! simulator depends on nothing beyond the approved crate list:
//! Box–Muller normals, lognormals for heavy-tailed queue delays, and
//! exponentials for preemption hazards.

use rand::rngs::StdRng;
use rand::Rng;

/// A sampleable delay/duration distribution (seconds).
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always the same value.
    Fixed(f64),
    /// Uniform on `[lo, hi)`.
    Uniform(f64, f64),
    /// Exponential with the given rate (mean `1/rate`).
    Exponential(f64),
    /// Lognormal with location `mu` and scale `sigma` of the
    /// underlying normal (median `exp(mu)`).
    LogNormal(f64, f64),
}

impl Dist {
    /// Draws one non-negative sample.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> f64 {
        let v = match *self {
            Dist::Fixed(v) => v,
            Dist::Uniform(lo, hi) => {
                if hi > lo {
                    rng.gen_range(lo..hi)
                } else {
                    lo
                }
            }
            Dist::Exponential(rate) => sample_exponential(rng, rate),
            Dist::LogNormal(mu, sigma) => (mu + sigma * sample_standard_normal(rng)).exp(),
        };
        v.max(0.0)
    }

    /// A lognormal parameterised by its median and sigma — the
    /// ergonomic way to express "typically 5 minutes, occasionally
    /// hours".
    pub fn lognormal_median(median: f64, sigma: f64) -> Dist {
        Dist::LogNormal(median.max(f64::MIN_POSITIVE).ln(), sigma)
    }
}

/// Standard normal via Box–Muller.
pub(crate) fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Exponential with the given rate; 0 rate gives +inf (never fires).
pub(crate) fn sample_exponential(rng: &mut StdRng, rate: f64) -> f64 {
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

#[cfg(test)]
impl Dist {
    /// The distribution mean (exact, not sampled).
    pub(crate) fn mean(&self) -> f64 {
        match *self {
            Dist::Fixed(v) => v,
            Dist::Uniform(lo, hi) => (lo + hi) / 2.0,
            Dist::Exponential(rate) => {
                if rate > 0.0 {
                    1.0 / rate
                } else {
                    0.0
                }
            }
            Dist::LogNormal(mu, sigma) => (mu + sigma * sigma / 2.0).exp(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fixed_is_fixed() {
        let mut r = rng();
        let d = Dist::Fixed(12.5);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 12.5);
        }
        assert_eq!(d.mean(), 12.5);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = rng();
        let d = Dist::Uniform(5.0, 10.0);
        for _ in 0..1000 {
            let v = d.sample(&mut r);
            assert!((5.0..10.0).contains(&v));
        }
        assert_eq!(d.mean(), 7.5);
        // Degenerate range.
        assert_eq!(Dist::Uniform(3.0, 3.0).sample(&mut r), 3.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = rng();
        let d = Dist::Exponential(0.1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean={mean}");
        assert_eq!(d.mean(), 10.0);
    }

    #[test]
    fn zero_rate_exponential_never_fires() {
        let mut r = rng();
        assert!(sample_exponential(&mut r, 0.0).is_infinite());
        assert_eq!(Dist::Exponential(0.0).mean(), 0.0);
    }

    #[test]
    fn lognormal_median_is_respected() {
        let mut r = rng();
        let d = Dist::lognormal_median(300.0, 1.0);
        let n = 20_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!(
            (median / 300.0 - 1.0).abs() < 0.1,
            "median={median}, expected ~300"
        );
        // Heavy tail: max sample far above the median.
        assert!(samples[n - 1] > 3000.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let d = Dist::LogNormal(1.0, 0.5);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    fn samples_never_negative() {
        let mut r = rng();
        for d in [
            Dist::Fixed(-5.0),
            Dist::Uniform(-2.0, -1.0),
            Dist::Exponential(1.0),
            Dist::LogNormal(0.0, 2.0),
        ] {
            for _ in 0..100 {
                assert!(d.sample(&mut r) >= 0.0);
            }
        }
    }
}
