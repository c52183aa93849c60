//! Quartiles of a sample, computed the way Python's
//! `statistics.quantiles(values, n=4)` computes them, so the spread this
//! benchmark prints is the spread its acceptance check will see.

/// Lower quartile, median, upper quartile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// Lower quartile: what every host timing is reported as, because
    /// interference only ever adds time.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Upper quartile.
    pub p75: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` (any order). A single value is its own
    /// quartiles.
    ///
    /// # Panics
    ///
    /// On an empty sample: every caller measures at least once.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let cut = |i: usize| -> f64 {
            if n == 1 {
                return sorted[0];
            }
            // The "exclusive" method: position i·(n+1)/4, clamped so it
            // interpolates between two real samples.
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Quartiles {
            p25: cut(1),
            p50: cut(2),
            p75: cut(3),
            n,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.p50
        }
    }
}

/// The `num/den` quantile of `values` by nearest rank (used where there
/// is a real distribution of different operations, not repeats of one).
pub fn nearest_rank(values: &[f64], num: usize, den: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() * num).div_ceil(den).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((q.p25, q.p50, q.p75), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let q = Quartiles::of(&[1.0, 2.0, 4.0]);
        assert_eq!((q.p25, q.p50, q.p75), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let q = Quartiles::of(&[3.0, 1.0]);
        assert_eq!((q.p25, q.p50, q.p75), (0.5, 2.0, 3.5));
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=508).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50, 100), 254.0);
        assert_eq!(nearest_rank(&v, 98, 100), 498.0);
        assert_eq!(nearest_rank(&[], 1, 2), 0.0);
    }
}
