//! Discrete-time compound-Poisson source and its E.B.B. characterization.
//!
//! Per slot, a Poisson(λ)-distributed number of fixed-size units (size `b`)
//! arrives. Slots are i.i.d., so the effective bandwidth has the closed
//! form `eb(θ) = λ(e^{θb} - 1)/θ` and the E.B.B. prefactor is exactly 1 at
//! the effective-bandwidth root (same argument as for the paper's i.i.d.
//! on-off sessions 1 and 4).

use crate::SlotSource;
use gps_ebb::numeric::bisect;
use gps_ebb::EbbProcess;
use gps_stats::rng::{RngExt, Xoshiro256pp};

/// Compound Poisson slot source: `Poisson(lambda)` units of size `b` per
/// slot.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonSource {
    lambda: f64,
    unit: f64,
}

impl PoissonSource {
    /// Creates a source with mean `lambda` units per slot, each of size
    /// `unit`.
    pub fn new(lambda: f64, unit: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        assert!(unit > 0.0, "unit size must be positive");
        Self { lambda, unit }
    }

    /// Mean units per slot.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Unit size `b`.
    pub fn unit(&self) -> f64 {
        self.unit
    }

    /// Effective bandwidth `eb(θ) = λ(e^{θb} - 1)/θ` (mean rate at θ=0).
    pub fn effective_bandwidth(&self, theta: f64) -> f64 {
        assert!(theta >= 0.0);
        if theta == 0.0 {
            return self.lambda * self.unit;
        }
        self.lambda * ((theta * self.unit).exp() - 1.0) / theta
    }

    /// E.B.B. characterization at envelope rate `rho > mean`: decay `α`
    /// solving `eb(α) = ρ`, prefactor 1 (i.i.d. slots). Returns `None` for
    /// `rho <= mean` (Poisson has unbounded peak, so any `rho > mean`
    /// works).
    pub fn ebb_for_rate(&self, rho: f64) -> Option<EbbProcess> {
        let mean = self.lambda * self.unit;
        if rho <= mean {
            return None;
        }
        let mut hi = 1.0;
        for _ in 0..200 {
            if self.effective_bandwidth(hi) > rho {
                break;
            }
            hi *= 2.0;
        }
        let alpha = bisect(1e-12, hi, 1e-13, |t| self.effective_bandwidth(t) - rho)?;
        Some(EbbProcess::new(rho, 1.0, alpha))
    }
}

impl SlotSource for PoissonSource {
    fn next_slot(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        rng.poisson(self.lambda) as f64 * self.unit
    }

    fn mean_rate(&self) -> f64 {
        self.lambda * self.unit
    }

    fn peak_rate(&self) -> Option<f64> {
        None // unbounded
    }

    fn reset(&mut self, _rng: &mut Xoshiro256pp) {
        // Memoryless: nothing to reset.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bandwidth_limits() {
        let s = PoissonSource::new(0.3, 1.0);
        assert!((s.effective_bandwidth(0.0) - 0.3).abs() < 1e-12);
        assert!((s.effective_bandwidth(1e-9) - 0.3).abs() < 1e-6);
        assert!(s.effective_bandwidth(5.0) > 0.3); // increasing
    }

    #[test]
    fn ebb_root_solves() {
        let s = PoissonSource::new(0.3, 1.0);
        let e = s.ebb_for_rate(0.5).unwrap();
        assert!((s.effective_bandwidth(e.alpha) - 0.5).abs() < 1e-9);
        assert_eq!(e.lambda, 1.0);
        assert!(s.ebb_for_rate(0.3).is_none());
        assert!(s.ebb_for_rate(0.2).is_none());
    }

    #[test]
    fn ebb_bound_holds_on_simulated_windows() {
        // Monte-Carlo check of Pr{A(0,n) >= ρn + x} <= e^{-αx} for a few
        // (n, x).
        let mut s = PoissonSource::new(0.3, 1.0);
        let e = s.ebb_for_rate(0.6).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let n = 5usize;
        let trials = 20_000;
        let x = 2.0;
        let mut hits = 0u32;
        for _ in 0..trials {
            let a: f64 = (0..n).map(|_| s.next_slot(&mut rng)).sum();
            if a >= e.rho * n as f64 + x {
                hits += 1;
            }
        }
        let emp = hits as f64 / trials as f64;
        let bound = e.excess_tail(x);
        assert!(
            emp <= bound * 1.2 + 0.005,
            "empirical {emp} should respect bound {bound}"
        );
    }

    #[test]
    fn sample_mean_matches() {
        let mut s = PoissonSource::new(0.7, 2.0);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| s.next_slot(&mut rng)).sum();
        let mean = total / n as f64;
        assert!((mean - 1.4).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn samples_are_unit_multiples() {
        let mut s = PoissonSource::new(1.0, 0.25);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for _ in 0..100 {
            let x = s.next_slot(&mut rng);
            let k = x / 0.25;
            assert!((k - k.round()).abs() < 1e-12);
        }
    }
}
