//! Weibull-distributed sampling.
//!
//! The paper injects its memory leak "according to a Weibull probability
//! distribution (commonly used in software reliability and fault
//! prediction) with a scale parameter of 64 and a shape parameter of 2.0"
//! (section 5.1). The offline `rand` crate does not bundle `rand_distr`,
//! so we implement inverse-transform sampling directly:
//! `X = scale * (-ln(1 - U))^(1/shape)`.

use rand::Rng;

/// A Weibull distribution sampler.
///
/// ```
/// use faults::Weibull;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let w = Weibull::new(64.0, 2.0);
/// let mut rng = StdRng::seed_from_u64(7);
/// let x = w.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Weibull {
    scale: f64,
    shape: f64,
}

impl Weibull {
    /// Creates a sampler with the given scale (λ) and shape (k).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive and finite.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive and finite, got {scale}"
        );
        assert!(
            shape.is_finite() && shape > 0.0,
            "shape must be positive and finite, got {shape}"
        );
        Weibull { scale, shape }
    }

    /// The paper's leak parameters: scale 64, shape 2.0.
    pub fn paper_leak() -> Self {
        Weibull::new(64.0, 2.0)
    }

    /// Theoretical mean `λ·Γ(1 + 1/k)`.
    pub fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }

    /// Draws one sample by inverse transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // U in [0, 1); 1-U in (0, 1] so the log is finite.
        let u: f64 = rng.gen();
        self.scale * (-(1.0 - u).ln()).powf(1.0 / self.shape)
    }
}

/// Lanczos approximation of the gamma function (g = 7, n = 9), accurate to
/// ~15 significant digits for the positive arguments used here.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x));
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        assert!((gamma(1.5) - 0.886_226_925_452_758).abs() < 1e-10);
    }

    #[test]
    fn paper_leak_mean_matches_theory() {
        // shape 2 -> mean = 64 * Γ(1.5) ≈ 56.72
        let w = Weibull::paper_leak();
        assert!((w.mean() - 56.718).abs() < 0.01, "mean {}", w.mean());
    }

    #[test]
    fn empirical_mean_converges() {
        let w = Weibull::paper_leak();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| w.sample(&mut rng)).sum();
        let emp = sum / n as f64;
        assert!(
            (emp - w.mean()).abs() < 0.5,
            "empirical {emp} vs theoretical {}",
            w.mean()
        );
    }

    #[test]
    fn samples_are_nonnegative_and_finite() {
        let w = Weibull::new(1.0, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let s = w.sample(&mut rng);
            assert!(s.is_finite() && s >= 0.0);
        }
    }

    #[test]
    fn shape_one_is_exponential() {
        // k = 1 reduces to Exp(1/scale); mean = scale.
        let w = Weibull::new(10.0, 1.0);
        assert!((w.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = Weibull::new(0.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn negative_shape_rejected() {
        let _ = Weibull::new(1.0, -2.0);
    }
}
