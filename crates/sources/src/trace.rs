//! Recorded arrival traces and empirical E.B.B. fitting.
//!
//! The paper's Section 7 highlights "how to obtain these [E.B.B.]
//! characterizations … in practice" as an open concern. This module
//! provides the obvious estimator: record a trace, compute the envelope
//! excesses `A(s,t] - ρ(t-s)` over all windows (O(n) per end-point via the
//! Lindley recursion), and fit `(Λ, α)` to the empirical excess CCDF by
//! log-linear regression.

use crate::SlotSource;
use gps_ebb::EbbProcess;
use gps_stats::rng::Xoshiro256pp;
use gps_stats::{EmpiricalCcdf, ExponentialTailFit};

/// A finite per-slot arrival trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArrivalTrace {
    slots: Vec<f64>,
}

impl ArrivalTrace {
    /// Creates a trace from per-slot amounts.
    ///
    /// # Panics
    ///
    /// Panics if any amount is negative or non-finite.
    pub fn new(slots: Vec<f64>) -> Self {
        assert!(
            slots.iter().all(|&a| a.is_finite() && a >= 0.0),
            "per-slot arrivals must be finite and nonnegative"
        );
        Self { slots }
    }

    /// Records `n` slots from a source.
    pub fn record<S: SlotSource>(src: &mut S, n: usize, rng: &mut Xoshiro256pp) -> Self {
        Self::new((0..n).map(|_| src.next_slot(rng)).collect())
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Per-slot amounts.
    pub fn slots(&self) -> &[f64] {
        &self.slots
    }

    /// Total volume.
    pub fn total(&self) -> f64 {
        self.slots.iter().sum()
    }

    /// Empirical mean rate.
    pub fn mean_rate(&self) -> f64 {
        if self.slots.is_empty() {
            0.0
        } else {
            self.total() / self.slots.len() as f64
        }
    }

    /// Per-end-point maximal envelope excess
    /// `E(t) = max_{s<=t} {A(s,t] - ρ(t-s)}` via the Lindley recursion —
    /// exactly the `δ(t)` of a fictitious rate-ρ server.
    pub fn excess_trace(&self, rho: f64) -> Vec<f64> {
        let mut d = 0.0_f64;
        self.slots
            .iter()
            .map(|&a| {
                d = (d + a - rho).max(0.0);
                d
            })
            .collect()
    }

    /// Fits an E.B.B. characterization at envelope rate `rho` by
    /// log-linear regression on the empirical CCDF of the excess trace,
    /// evaluated at `points` thresholds spanning (0, max excess].
    ///
    /// Returns `None` when the excess is (almost) never positive — the
    /// envelope is simply never exceeded, any `(Λ, α)` works — or when the
    /// regression is degenerate.
    ///
    /// The fitted Λ is inflated to make the bound *valid on this trace*
    /// (the regression line is shifted up to dominate every empirical
    /// point), so the result is a conservative empirical characterization,
    /// not a least-squares descriptor.
    pub fn fit_ebb(&self, rho: f64, points: usize) -> Option<EbbProcess> {
        assert!(points >= 2);
        let excess = self.excess_trace(rho);
        let mut ccdf = EmpiricalCcdf::with_capacity(excess.len());
        for &e in &excess {
            ccdf.push(e);
        }
        let max = ccdf.max()?;
        if max <= 0.0 {
            return None;
        }
        let grid: Vec<f64> = (1..=points)
            .map(|i| max * i as f64 / points as f64)
            .collect();
        let series = ccdf.series(&grid);
        let fit = ExponentialTailFit::fit(&series)?;
        if fit.theta <= 0.0 {
            return None;
        }
        // Shift Λ up so the fitted bound dominates every empirical point.
        let mut lambda = fit.lambda;
        for &(x, p) in &series {
            if p > 0.0 {
                let needed = p / (-fit.theta * x).exp();
                if needed > lambda {
                    lambda = needed;
                }
            }
        }
        Some(EbbProcess::new(rho, lambda, fit.theta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onoff::OnOffSource;

    impl ArrivalTrace {
        /// `A(s, t]` — the amount arriving in slots `s+1 ..= t` (0-based
        /// slot indices; `A(s,s] = 0`): the brute-force reference for
        /// [`ArrivalTrace::excess_trace`].
        fn cumulative_between(&self, s: usize, t: usize) -> f64 {
            assert!(s <= t && t <= self.slots.len());
            self.slots[s..t].iter().sum()
        }
    }

    #[test]
    fn cumulative_and_mean() {
        let t = ArrivalTrace::new(vec![1.0, 0.0, 2.0, 1.0]);
        assert_eq!(t.total(), 4.0);
        assert_eq!(t.mean_rate(), 1.0);
        assert_eq!(t.cumulative_between(0, 4), 4.0);
        assert_eq!(t.cumulative_between(1, 3), 2.0);
        assert_eq!(t.cumulative_between(2, 2), 0.0);
    }

    #[test]
    fn excess_matches_bruteforce() {
        let t = ArrivalTrace::new(vec![0.5, 2.0, 0.0, 1.5, 3.0, 0.0]);
        let rho = 1.0;
        let fast = t.excess_trace(rho);
        for (end, &got) in fast.iter().enumerate().take(t.len()) {
            let mut sup = 0.0_f64;
            for s in 0..=end {
                let a = t.cumulative_between(s, end + 1);
                sup = sup.max(a - rho * (end + 1 - s) as f64);
            }
            assert!((got - sup).abs() < 1e-12);
        }
    }

    #[test]
    fn fit_recovers_onoff_scale() {
        // Fit an i.i.d. on-off source (session 1 of Table 1) and compare
        // with the analytical decay 1.74 at rho = 0.2.
        let mut src = OnOffSource::new(0.3, 0.7, 0.5);
        let mut rng = Xoshiro256pp::seed_from_u64(1234);
        src.reset(&mut rng);
        let trace = ArrivalTrace::record(&mut src, 400_000, &mut rng);
        let fit = trace.fit_ebb(0.2, 30).unwrap();
        // The fitted decay tracks the analytical α but skews low in finite
        // samples: the grid spans (0, max excess], so the slope is pulled
        // down by the single largest excursion, whose depth varies by a
        // factor of a few from run to run. Accept the same order of
        // magnitude rather than a seed-tuned window.
        assert!(
            fit.alpha > 0.8 && fit.alpha < 4.0,
            "fitted alpha {} vs analytical 1.74",
            fit.alpha
        );
        // The fitted bound must dominate the empirical CCDF on the grid by
        // construction.
        let excess = trace.excess_trace(0.2);
        let mut ccdf = EmpiricalCcdf::new();
        for e in excess {
            ccdf.push(e);
        }
        for i in 1..=10 {
            let x = ccdf.max().unwrap() * i as f64 / 10.0;
            assert!(ccdf.tail(x) <= fit.excess_tail(x) + 1e-9);
        }
    }

    #[test]
    fn fit_none_when_envelope_never_exceeded() {
        let t = ArrivalTrace::new(vec![0.1; 1000]);
        assert!(t.fit_ebb(0.2, 10).is_none());
    }

    #[test]
    fn record_respects_length() {
        let mut src = OnOffSource::new(0.5, 0.5, 1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let t = ArrivalTrace::record(&mut src, 1000, &mut rng);
        assert_eq!(t.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "finite and nonnegative")]
    fn rejects_negative_slot() {
        let _ = ArrivalTrace::new(vec![1.0, -0.5]);
    }
}
