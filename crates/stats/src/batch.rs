//! Batch-means confidence intervals for steady-state simulation output.
//!
//! Successive observations from one simulation run are autocorrelated
//! (backlogs in adjacent slots are nearly identical), so the naive i.i.d.
//! standard error is wildly optimistic. The classical remedy is *batch
//! means*: partition the run into `k` contiguous batches, average within
//! each, and treat the batch averages as (approximately) independent. This
//! module implements that, including Student-t critical values for the
//! common confidence levels.

use crate::moments::StreamingMoments;

/// Accumulates observations into fixed-size batches and reports a
/// confidence interval on the steady-state mean.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: u64,
    current: StreamingMoments,
    batch_averages: Vec<f64>,
}

impl BatchMeans {
    /// Creates an accumulator with the given number of observations per
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            batch_size,
            current: StreamingMoments::new(),
            batch_averages: Vec::new(),
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.current.push(x);
        if self.current.count() == self.batch_size {
            self.batch_averages.push(self.current.mean());
            self.current = StreamingMoments::new();
        }
    }

    /// Grand mean over completed batches, or `None` if no batch completed.
    pub fn mean(&self) -> Option<f64> {
        if self.batch_averages.is_empty() {
            return None;
        }
        Some(self.batch_averages.iter().sum::<f64>() / self.batch_averages.len() as f64)
    }

    /// Confidence-interval half-width at the given `level` (supported:
    /// 0.90, 0.95, 0.99). Requires at least two completed batches.
    pub(crate) fn half_width(&self, level: f64) -> Option<f64> {
        let k = self.batch_averages.len();
        if k < 2 {
            return None;
        }
        let mean = self.mean()?;
        let var = self
            .batch_averages
            .iter()
            .map(|b| (b - mean).powi(2))
            .sum::<f64>()
            / (k - 1) as f64;
        let t = t_critical(k - 1, level)?;
        Some(t * (var / k as f64).sqrt())
    }

    /// `(mean, half_width)` at the given level.
    pub fn interval(&self, level: f64) -> Option<(f64, f64)> {
        Some((self.mean()?, self.half_width(level)?))
    }
}

/// Two-sided Student-t critical value for `df` degrees of freedom at the
/// given confidence level. Tabulated for common levels; for df > 120 the
/// normal limit is used. Returns `None` for unsupported levels.
pub(crate) fn t_critical(df: usize, level: f64) -> Option<f64> {
    // Table rows: df 1..=30, then selected; columns 90/95/99%.
    const T95: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    const T90: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699, 1.697,
    ];
    const T99: [f64; 30] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
        2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
        2.771, 2.763, 2.756, 2.750,
    ];
    let (table, limit): (&[f64; 30], f64) = if (level - 0.95).abs() < 1e-9 {
        (&T95, 1.960)
    } else if (level - 0.90).abs() < 1e-9 {
        (&T90, 1.645)
    } else if (level - 0.99).abs() < 1e-9 {
        (&T99, 2.576)
    } else {
        return None;
    };
    if df == 0 {
        return None;
    }
    Some(if df <= 30 {
        table[df - 1]
    } else if df <= 60 {
        // Linear interpolation between df=30 and the df=60 entries.
        let t60 = match () {
            _ if (level - 0.95).abs() < 1e-9 => 2.000,
            _ if (level - 0.90).abs() < 1e-9 => 1.671,
            _ => 2.660,
        };
        let t30 = table[29];
        t30 + (t60 - t30) * (df as f64 - 30.0) / 30.0
    } else if df <= 120 {
        let t120 = match () {
            _ if (level - 0.95).abs() < 1e-9 => 1.980,
            _ if (level - 0.90).abs() < 1e-9 => 1.658,
            _ => 2.617,
        };
        let t60 = match () {
            _ if (level - 0.95).abs() < 1e-9 => 2.000,
            _ if (level - 0.90).abs() < 1e-9 => 1.671,
            _ => 2.660,
        };
        t60 + (t120 - t60) * (df as f64 - 60.0) / 60.0
    } else {
        limit
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_two_batches() {
        let mut bm = BatchMeans::new(10);
        for i in 0..10 {
            bm.push(i as f64);
        }
        assert_eq!(bm.batch_averages.len(), 1);
        assert!(bm.half_width(0.95).is_none());
        assert_eq!(bm.mean(), Some(4.5));
    }

    #[test]
    fn constant_stream_zero_width() {
        let mut bm = BatchMeans::new(5);
        for _ in 0..50 {
            bm.push(3.0);
        }
        let (m, hw) = bm.interval(0.95).unwrap();
        assert_eq!(m, 3.0);
        assert_eq!(hw, 0.0);
    }

    #[test]
    fn interval_covers_true_mean_for_iid() {
        // Deterministic LCG uniforms, true mean 0.5.
        let mut state = 12345u64;
        let mut bm = BatchMeans::new(100);
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            bm.push((state >> 11) as f64 / (1u64 << 53) as f64);
        }
        let (m, hw) = bm.interval(0.95).unwrap();
        assert!(
            (m - 0.5).abs() < hw + 0.02,
            "mean {m} should be within {hw} of 0.5"
        );
        assert!(hw < 0.05);
    }

    #[test]
    fn t_table_spot_checks() {
        assert!((t_critical(1, 0.95).unwrap() - 12.706).abs() < 1e-9);
        assert!((t_critical(10, 0.99).unwrap() - 3.169).abs() < 1e-9);
        assert!((t_critical(30, 0.90).unwrap() - 1.697).abs() < 1e-9);
        assert!((t_critical(1000, 0.95).unwrap() - 1.960).abs() < 1e-9);
        assert!(t_critical(0, 0.95).is_none());
        assert!(t_critical(5, 0.80).is_none());
    }

    #[test]
    fn wider_at_higher_confidence() {
        let mut bm = BatchMeans::new(10);
        for i in 0..200 {
            bm.push((i % 7) as f64);
        }
        let hw90 = bm.half_width(0.90).unwrap();
        let hw95 = bm.half_width(0.95).unwrap();
        let hw99 = bm.half_width(0.99).unwrap();
        assert!(hw90 < hw95 && hw95 < hw99);
    }
}
