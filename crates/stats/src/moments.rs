//! Streaming moments and summary statistics.
//!
//! [`Moments`] is a single-pass (Welford-style) accumulator for mean,
//! variance, skewness and excess kurtosis. The paper's analysis repeatedly
//! refers to fourth-order moments (kurtosis) as the driver of Pearson
//! estimator error on non-normal data (Section 2.2), so we expose them for
//! diagnostics, and the sketch builder uses the min/max tracked here for the
//! Hoeffding bounds (`C_low`/`C_high`, Section 4.3).

/// Single-pass accumulator for the first four central moments plus range.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulate one observation (Welford/Pébay update).
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of accumulated observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Population variance (divides by `n`); `None` if empty.
    #[must_use]
    pub fn population_variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Sample standard deviation (variance divided by `n − 1`); `None` if
    /// `n < 2`.
    #[must_use]
    pub fn sample_std(&self) -> Option<f64> {
        (self.n > 1).then(|| (self.m2 / (self.n as f64 - 1.0)).sqrt())
    }

    /// Skewness `g1 = m3 / m2^{3/2}` (population form); `None` if `n < 2`
    /// or the variance is zero.
    #[must_use]
    pub fn skewness(&self) -> Option<f64> {
        if self.n < 2 || self.m2 <= 0.0 {
            return None;
        }
        let n = self.n as f64;
        Some(n.sqrt() * self.m3 / self.m2.powf(1.5))
    }

    /// Excess kurtosis `g2 = n·m4/m2² − 3`; `None` if `n < 2` or the
    /// variance is zero.
    #[must_use]
    pub fn excess_kurtosis(&self) -> Option<f64> {
        if self.n < 2 || self.m2 <= 0.0 {
            return None;
        }
        let n = self.n as f64;
        Some(n * self.m4 / (self.m2 * self.m2) - 3.0)
    }

    /// Smallest observation; `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl Extend<f64> for Moments {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Moments {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut m = Self::new();
        m.extend(iter);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn empty_moments_return_none() {
        let m = Moments::new();
        assert_eq!(m.count(), 0);
        assert!(m.mean().is_none());
        assert!(m.population_variance().is_none());
        assert!(m.min().is_none());
        assert!(m.max().is_none());
    }

    #[test]
    fn mean_variance_match_naive_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let m: Moments = data.iter().copied().collect();
        assert_eq!(m.count(), 8);
        assert!(close(m.mean().unwrap(), 5.0, 1e-12));
        assert!(close(m.population_variance().unwrap(), 4.0, 1e-12));
        assert!(close(
            m.sample_std().unwrap(),
            (32.0f64 / 7.0).sqrt(),
            1e-12
        ));
        assert_eq!(m.min().unwrap(), 2.0);
        assert_eq!(m.max().unwrap(), 9.0);
    }

    #[test]
    fn skewness_zero_for_symmetric_data() {
        let m: Moments = [-3.0, -1.0, 0.0, 1.0, 3.0].iter().copied().collect();
        assert!(close(m.skewness().unwrap(), 0.0, 1e-12));
    }

    #[test]
    fn kurtosis_of_two_point_mass_is_minus_two() {
        // {−1, +1} repeated: excess kurtosis = −2 exactly.
        let m: Moments = [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0].iter().copied().collect();
        assert!(close(m.excess_kurtosis().unwrap(), -2.0, 1e-12));
    }

    #[test]
    fn constant_data_has_zero_variance_and_no_skew() {
        let m: Moments = std::iter::repeat_n(5.0, 10).collect();
        assert!(close(m.population_variance().unwrap(), 0.0, 1e-12));
        assert!(m.skewness().is_none());
        assert!(m.excess_kurtosis().is_none());
    }
}
