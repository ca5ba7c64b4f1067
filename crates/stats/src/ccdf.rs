//! Empirical complementary CDFs (tail distributions).
//!
//! The paper's results are all statements of the form
//! `Pr{Q_i(t) >= q} <= Λ e^{-θ q}`. To *validate* such a bound by simulation
//! we need the empirical CCDF `P̂(x) = #{samples >= x} / n`. Two variants are
//! provided:
//!
//! * [`EmpiricalCcdf`] retains every sample — exact at any threshold, the
//!   right tool for moderate sample counts (≲ 10⁸ doubles would be 800 MB, so
//!   experiments that run longer use the binned variant);
//! * [`BinnedCcdf`] counts exceedances of a fixed threshold grid in O(grid)
//!   memory, suitable for arbitrarily long runs.

/// Exact empirical CCDF over retained samples.
///
/// Samples are kept unsorted while collecting; the first evaluation sorts
/// them lazily (interior mutability is deliberately avoided — evaluation
/// takes `&mut self` or you call [`EmpiricalCcdf::freeze`] first).
#[derive(Debug, Clone, Default)]
pub struct EmpiricalCcdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl EmpiricalCcdf {
    /// Creates an empty CCDF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty CCDF with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            samples: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "CCDF observation must be finite, got {x}");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations collected.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no observations have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sorts the sample buffer so that subsequent queries are `O(log n)`.
    pub fn freeze(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// Empirical tail probability `P̂{X >= x}`.
    ///
    /// Returns 0 for an empty collection (there is no evidence of any mass).
    pub fn tail(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.freeze();
        // partition_point gives the count of samples strictly below x.
        let below = self.samples.partition_point(|&s| s < x);
        (self.samples.len() - below) as f64 / self.samples.len() as f64
    }

    /// Largest observed value, or `None` when empty.
    pub fn max(&mut self) -> Option<f64> {
        self.freeze();
        self.samples.last().copied()
    }

    /// Empirical `p`-quantile (0 <= p <= 1) using the nearest-rank method.
    pub fn quantile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&p) {
            return None;
        }
        self.freeze();
        let n = self.samples.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// Evaluates the CCDF over `points`, returning `(x, P̂{X >= x})` pairs —
    /// the series plotted in the paper's Figures 3 and 4.
    pub fn series(&mut self, points: &[f64]) -> Vec<(f64, f64)> {
        points.iter().map(|&x| (x, self.tail(x))).collect()
    }

    /// A standard-error estimate for the tail probability at `x`:
    /// `sqrt(p(1-p)/n)` (binomial; adequate for i.i.d.-ish batch summaries).
    pub fn tail_stderr(&mut self, x: f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        let p = self.tail(x);
        (p * (1.0 - p) / n as f64).sqrt()
    }

    /// Merges another CCDF's samples into this one.
    pub fn merge(&mut self, other: &EmpiricalCcdf) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// Bounded-memory CCDF: counts exceedances of a fixed, increasing threshold
/// grid. Memory is `O(grid)` regardless of run length.
#[derive(Debug, Clone)]
pub struct BinnedCcdf {
    thresholds: Vec<f64>,
    exceed: Vec<u64>,
    total: u64,
}

impl BinnedCcdf {
    /// Creates a CCDF counting exceedances of each threshold in `thresholds`.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` is empty or not strictly increasing.
    pub fn new(thresholds: Vec<f64>) -> Self {
        assert!(!thresholds.is_empty(), "need at least one threshold");
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must be strictly increasing"
        );
        let n = thresholds.len();
        Self {
            thresholds,
            exceed: vec![0; n],
            total: 0,
        }
    }

    /// Creates a linear grid of `n` thresholds on `[lo, hi]`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 2 && hi > lo);
        let step = (hi - lo) / (n - 1) as f64;
        Self::new((0..n).map(|i| lo + step * i as f64).collect())
    }

    /// Adds one observation.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(t <= x)` also stops on NaN
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        // Thresholds are sorted, so the exceeded ones (t <= x) form a
        // prefix. Walk it instead of bisecting: simulated tails are light
        // and most observations exceed only the first threshold or two.
        for (&t, c) in self.thresholds.iter().zip(&mut self.exceed) {
            if !(t <= x) {
                break;
            }
            *c += 1;
        }
    }

    /// Total number of observations.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when no observations have been pushed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The threshold grid.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Raw exceedance counts, one per grid threshold. Together with
    /// [`BinnedCcdf::len`] and the grid these fully determine the CCDF, so
    /// checkpointing can round-trip it exactly via [`BinnedCcdf::from_parts`].
    pub fn exceed_counts(&self) -> &[u64] {
        &self.exceed
    }

    /// Reconstructs a CCDF from its raw parts (inverse of
    /// [`BinnedCcdf::thresholds`] / [`BinnedCcdf::exceed_counts`] /
    /// [`BinnedCcdf::len`]).
    ///
    /// Returns `None` when the parts cannot have come from a real CCDF:
    /// mismatched lengths, a non-strictly-increasing grid, exceedance
    /// counts that increase along the grid, or a top count above `total`.
    pub fn from_parts(thresholds: Vec<f64>, exceed: Vec<u64>, total: u64) -> Option<Self> {
        if thresholds.is_empty() || thresholds.len() != exceed.len() {
            return None;
        }
        if !thresholds.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        if !exceed.windows(2).all(|w| w[0] >= w[1]) {
            return None;
        }
        if exceed[0] > total {
            return None;
        }
        Some(Self {
            thresholds,
            exceed,
            total,
        })
    }

    /// Tail probability at grid index `i`: `P̂{X >= thresholds[i]}`.
    pub fn tail_at(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.exceed[i] as f64 / self.total as f64
        }
    }

    /// Full `(threshold, tail)` series.
    pub fn series(&self) -> Vec<(f64, f64)> {
        self.thresholds
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, self.tail_at(i)))
            .collect()
    }

    /// Merges counts from another CCDF built on the *same* grid.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    pub fn merge(&mut self, other: &BinnedCcdf) {
        assert_eq!(
            self.thresholds, other.thresholds,
            "cannot merge BinnedCcdf with different grids"
        );
        for (a, b) in self.exceed.iter_mut().zip(&other.exceed) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_tail_basics() {
        let mut c = EmpiricalCcdf::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            c.push(x);
        }
        assert_eq!(c.tail(0.0), 1.0);
        assert_eq!(c.tail(1.0), 1.0); // >= is inclusive
        assert_eq!(c.tail(2.5), 0.5);
        assert_eq!(c.tail(4.0), 0.25);
        assert_eq!(c.tail(4.1), 0.0);
    }

    #[test]
    fn empirical_empty() {
        let mut c = EmpiricalCcdf::new();
        assert_eq!(c.tail(1.0), 0.0);
        assert!(c.max().is_none());
        assert!(c.quantile(0.5).is_none());
    }

    #[test]
    fn empirical_quantiles() {
        let mut c = EmpiricalCcdf::new();
        for x in 1..=100 {
            c.push(x as f64);
        }
        assert_eq!(c.quantile(0.5), Some(50.0));
        assert_eq!(c.quantile(0.99), Some(99.0));
        assert_eq!(c.quantile(1.0), Some(100.0));
        assert_eq!(c.quantile(0.0), Some(1.0)); // clamped to first rank
        assert!(c.quantile(1.5).is_none());
    }

    #[test]
    fn empirical_merge_matches_combined() {
        let mut a = EmpiricalCcdf::new();
        let mut b = EmpiricalCcdf::new();
        let mut whole = EmpiricalCcdf::new();
        for i in 0..50 {
            let x = (i as f64 * 0.7).sin() + 1.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            whole.push(x);
        }
        a.merge(&b);
        for t in [0.1, 0.5, 1.0, 1.5, 1.9] {
            assert_eq!(a.tail(t), whole.tail(t));
        }
    }

    #[test]
    fn binned_matches_exact_on_grid() {
        let grid: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let mut binned = BinnedCcdf::new(grid.clone());
        let mut exact = EmpiricalCcdf::new();
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 19) as f64 * 0.5).collect();
        for &x in &xs {
            binned.push(x);
            exact.push(x);
        }
        for (i, &t) in grid.iter().enumerate() {
            assert!(
                (binned.tail_at(i) - exact.tail(t)).abs() < 1e-12,
                "mismatch at threshold {t}"
            );
        }
    }

    #[test]
    fn binned_push_matches_partition_point_reference() {
        // The bisection `push` used before the linear walk.
        let reference = |grid: &[f64], x: f64| grid.partition_point(|&t| t <= x);
        let grids = [
            vec![0.0, 0.5, 1.0, 2.5, 7.0],
            vec![-0.0, 1.0, 2.0],
            vec![-1.0, 0.0, 3.0],
            vec![4.0],
        ];
        for grid in grids {
            let mut probes = vec![0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            for w in grid.windows(2) {
                probes.push(0.5 * (w[0] + w[1]));
            }
            for &t in &grid {
                probes.extend([t, t - 1e-9, t + 1e-9]);
            }
            probes.extend([grid[0] - 1.0, grid[grid.len() - 1] + 1.0]);
            let mut all = BinnedCcdf::new(grid.clone());
            let mut want = vec![0u64; grid.len()];
            for &x in &probes {
                let mut one = BinnedCcdf::new(grid.clone());
                one.push(x);
                all.push(x);
                let k = reference(&grid, x);
                let expect: Vec<u64> = (0..grid.len()).map(|i| u64::from(i < k)).collect();
                assert_eq!(one.exceed_counts(), &expect[..], "grid {grid:?}, x = {x:?}");
                for c in &mut want[..k] {
                    *c += 1;
                }
            }
            assert_eq!(all.exceed_counts(), &want[..], "grid {grid:?}");
            assert_eq!(all.len(), probes.len() as u64);
        }
    }

    #[test]
    fn binned_monotone_nonincreasing() {
        let mut b = BinnedCcdf::linear(0.0, 10.0, 21);
        for i in 0..500 {
            b.push((i % 11) as f64);
        }
        let s = b.series();
        for w in s.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn binned_merge() {
        let mut a = BinnedCcdf::linear(0.0, 5.0, 6);
        let mut b = BinnedCcdf::linear(0.0, 5.0, 6);
        a.push(1.0);
        a.push(4.0);
        b.push(2.0);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert!((a.tail_at(0) - 1.0).abs() < 1e-12);
        assert!((a.tail_at(2) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn binned_rejects_bad_grid() {
        let _ = BinnedCcdf::new(vec![1.0, 1.0, 2.0]);
    }

    #[test]
    fn binned_from_parts_round_trips() {
        let mut b = BinnedCcdf::linear(0.0, 5.0, 6);
        for i in 0..40 {
            b.push((i % 7) as f64);
        }
        let rebuilt =
            BinnedCcdf::from_parts(b.thresholds().to_vec(), b.exceed_counts().to_vec(), b.len())
                .unwrap();
        assert_eq!(rebuilt.thresholds(), b.thresholds());
        assert_eq!(rebuilt.exceed_counts(), b.exceed_counts());
        assert_eq!(rebuilt.len(), b.len());
    }

    #[test]
    fn binned_from_parts_rejects_inconsistent_parts() {
        // Length mismatch.
        assert!(BinnedCcdf::from_parts(vec![0.0, 1.0], vec![3], 5).is_none());
        // Grid not strictly increasing.
        assert!(BinnedCcdf::from_parts(vec![1.0, 1.0], vec![3, 2], 5).is_none());
        // Exceedance counts increasing along the grid.
        assert!(BinnedCcdf::from_parts(vec![0.0, 1.0], vec![2, 3], 5).is_none());
        // Top count above total.
        assert!(BinnedCcdf::from_parts(vec![0.0, 1.0], vec![6, 2], 5).is_none());
        // Empty grid.
        assert!(BinnedCcdf::from_parts(vec![], vec![], 0).is_none());
    }

    #[test]
    fn stderr_reasonable() {
        let mut c = EmpiricalCcdf::new();
        for i in 0..10000 {
            c.push(if i % 10 == 0 { 2.0 } else { 0.0 });
        }
        let p = c.tail(1.0);
        assert!((p - 0.1).abs() < 1e-12);
        let se = c.tail_stderr(1.0);
        assert!((se - (0.1f64 * 0.9 / 10000.0).sqrt()).abs() < 1e-12);
    }
}
