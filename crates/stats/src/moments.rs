//! Streaming moment accumulation (Welford's online algorithm).
//!
//! Simulation runs in this workspace can push hundreds of millions of
//! observations; retaining them all just to compute a mean would be wasteful.
//! [`StreamingMoments`] keeps count, mean, the centered sum of squares `M2`,
//! and the extrema, all updated in O(1) per observation and numerically
//! stable (no catastrophic cancellation, unlike the naive `Σx² - (Σx)²/n`).

/// Numerically stable streaming accumulator for count, mean, variance,
/// minimum and maximum.
///
/// # Examples
///
/// ```
/// use gps_stats::StreamingMoments;
/// let mut m = StreamingMoments::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 4);
/// assert!((m.mean() - 2.5).abs() < 1e-12);
/// assert!((m.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// Non-finite observations are counted in [`Self::count`] but poison the
    /// running statistics (they propagate NaN/inf, as one would expect); the
    /// simulators never produce them, and tests assert so.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the observations; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (divisor `n - 1`); `0.0` for fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The centered sum of squares `M2 = Σ(x - mean)²`. Exposed so
    /// checkpointing can round-trip the accumulator exactly via
    /// [`StreamingMoments::from_parts`].
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Reconstructs an accumulator from its raw state (inverse of the
    /// `count`/`mean`/`m2`/`min`/`max` accessors). The caller vouches the
    /// parts came from a real accumulator — no statistical consistency
    /// check is possible from the summary alone.
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Self {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another accumulator into this one, as if all its observations
    /// had been pushed here (Chan et al.'s parallel variant of Welford).
    ///
    /// This is what lets experiment sweeps shard replications across threads
    /// and combine per-thread statistics afterwards.
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn empty_is_benign() {
        let m = StreamingMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.sample_variance(), 0.0);
        assert!(m.min().is_infinite());
        assert!(m.max().is_infinite());
    }

    #[test]
    fn single_observation() {
        let mut m = StreamingMoments::new();
        m.push(7.5);
        assert_eq!(m.count(), 1);
        assert_eq!(m.mean(), 7.5);
        assert_eq!(m.sample_variance(), 0.0);
        assert_eq!(m.min(), 7.5);
        assert_eq!(m.max(), 7.5);
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 2654435761u64 % 1000) as f64).sin() * 10.0)
            .collect();
        let mut m = StreamingMoments::new();
        for &x in &xs {
            m.push(x);
        }
        let (mean, var) = naive_mean_var(&xs);
        assert!((m.mean() - mean).abs() < 1e-10);
        assert!((m.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn numerically_stable_with_large_offset() {
        // Classic Welford stress test: small variance around a huge mean.
        let xs = [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0];
        let mut m = StreamingMoments::new();
        for &x in &xs {
            m.push(x);
        }
        assert!((m.mean() - (1e9 + 10.0)).abs() < 1e-4);
        assert!((m.sample_variance() - 30.0).abs() < 1e-4);
    }

    #[test]
    fn extrema_track() {
        let mut m = StreamingMoments::new();
        for x in [3.0, -1.0, 4.0, -1.5, 9.0] {
            m.push(x);
        }
        assert_eq!(m.min(), -1.5);
        assert_eq!(m.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.37).cos() * 5.0 + 2.0)
            .collect();
        let mut whole = StreamingMoments::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = StreamingMoments::new();
        let mut b = StreamingMoments::new();
        for &x in &xs[..123] {
            a.push(x);
        }
        for &x in &xs[123..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn from_parts_round_trips() {
        let mut m = StreamingMoments::new();
        for x in [3.0, -1.0, 4.0, -1.5, 9.0] {
            m.push(x);
        }
        let r = StreamingMoments::from_parts(m.count(), m.mean(), m.m2(), m.min(), m.max());
        assert_eq!(r, m);
        // Empty round-trips too (±inf extrema preserved).
        let e = StreamingMoments::new();
        let re = StreamingMoments::from_parts(e.count(), e.mean(), e.m2(), e.min(), e.max());
        assert_eq!(re, e);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = StreamingMoments::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&StreamingMoments::new());
        assert_eq!(a, before);

        let mut e = StreamingMoments::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
