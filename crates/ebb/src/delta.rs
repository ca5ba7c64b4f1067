//! Tail bounds on the decomposed backlog `δ(t)` (paper Lemma 5 and its
//! discrete-time counterpart).
//!
//! For a (ρ, Λ, α)-E.B.B. arrival served by a dedicated server of rate
//! `r = ρ + ε`, the backlog `δ(t) = sup_{s<=t}{A(s,t) - r(t-s)}` satisfies
//!
//! ```text
//! continuous:  Pr{δ(t) >= x} <= [Λ e^{αρξ} / (1 - e^{-αεξ})] e^{-αx},
//!              0 < ξ <= ln(Λ+1)/(αε)                        (Lemma 5)
//! discrete:    Pr{δ(t) >= x} <= [Λ / (1 - e^{-αε})] e^{-αx}  (Eq. 66 form)
//! ```
//!
//! The continuous prefactor depends on the discretization `ξ`; Remark 1
//! observes the optimum is `ξ* = min{ ln(Λ+1)/(αε), ln(r/ρ)/(αε) }`
//! (the second term being the unconstrained minimizer of
//! `e^{αρξ}/(1-e^{-αεξ})`, the first the validity ceiling inherited from
//! Yaron–Sidi's proof). We evaluate the prefactor numerically at that `ξ`
//! rather than trusting the TR's closed forms, which contain typos (e.g.
//! `(Λ+1)² e^{ρ/ε}` should read `(Λ+1)^{1+ρ/ε}`).

use crate::process::{EbbProcess, TailBound};
use crate::TimeModel;

/// Builder/evaluator for the Lemma 5 family of bounds on `δ(t)`.
#[derive(Debug, Clone, Copy)]
pub struct DeltaTailBound {
    arrival: EbbProcess,
    rate: f64,
}

impl DeltaTailBound {
    /// Sets up a bound for `arrival` served at dedicated rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate > arrival.rho` (spare capacity `ε > 0` is what
    /// makes `δ` finite).
    pub fn new(arrival: EbbProcess, rate: f64) -> Self {
        assert!(
            rate > arrival.rho,
            "dedicated rate {rate} must exceed rho {}",
            arrival.rho
        );
        Self { arrival, rate }
    }

    /// Spare capacity `ε = r - ρ`.
    pub fn epsilon(&self) -> f64 {
        self.rate - self.arrival.rho
    }

    /// The Lemma 5 validity ceiling for `ξ`: `ln(Λ+1)/(αε)`.
    pub fn xi_max(&self) -> f64 {
        let a = self.arrival;
        (a.lambda + 1.0).ln() / (a.alpha * self.epsilon())
    }

    /// The continuous-time bound with an explicit `ξ`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ξ <= xi_max()`.
    pub fn continuous_with_xi(&self, xi: f64) -> TailBound {
        assert!(
            xi > 0.0 && xi <= self.xi_max() + 1e-12,
            "xi {xi} outside (0, {}]",
            self.xi_max()
        );
        let a = self.arrival;
        let eps = self.epsilon();
        let prefactor =
            a.lambda * (a.alpha * a.rho * xi).exp() / (1.0 - (-a.alpha * eps * xi).exp());
        TailBound::new(prefactor, a.alpha)
    }

    /// The continuous-time bound at the Remark-1 optimal `ξ*`.
    pub fn continuous_optimal(&self) -> TailBound {
        let _span = gps_obs::span("ebb/xi_opt");
        self.continuous_with_xi(self.optimal_xi())
    }

    /// The Remark-1 optimal discretization:
    /// `ξ* = min{ ln(Λ+1)/(αε), ln(r/ρ)/(αε) }` (the ceiling alone when
    /// `ρ = 0`).
    pub fn optimal_xi(&self) -> f64 {
        let a = self.arrival;
        let ceiling = self.xi_max();
        if a.rho == 0.0 {
            return ceiling;
        }
        let unconstrained = (self.rate / a.rho).ln() / (a.alpha * self.epsilon());
        ceiling.min(unconstrained)
    }

    /// The discrete-time (slotted) bound `Λ/(1-e^{-αε}) e^{-αx}` used in the
    /// paper's Section 6.3 (Eqs. 66–67).
    pub fn discrete(&self) -> TailBound {
        let a = self.arrival;
        let prefactor = a.lambda / (1.0 - (-a.alpha * self.epsilon()).exp());
        TailBound::new(prefactor, a.alpha)
    }

    /// Dispatch on a [`TimeModel`]: continuous uses the given `ξ` (clamped
    /// to the validity ceiling), discrete ignores it.
    pub fn bound(&self, model: TimeModel) -> TailBound {
        match model {
            TimeModel::Continuous { xi } => self.continuous_with_xi(xi.min(self.xi_max())),
            TimeModel::Discrete => self.discrete(),
        }
    }

    /// [`continuous_optimal`](Self::continuous_optimal) over a batch of
    /// per-session bounds, the ξ optimizations fanned out over the
    /// `gps_par` pool; results in input order regardless of worker count.
    pub fn continuous_optimal_batch(bounds: &[DeltaTailBound]) -> Vec<TailBound> {
        gps_par::Pool::from_env().map(bounds, |_, b| b.continuous_optimal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> DeltaTailBound {
        // Table 2, session 1, set 1; dedicated rate = RPPS guaranteed rate
        // at the bottleneck: g = 0.2/0.9.
        DeltaTailBound::new(EbbProcess::new(0.2, 1.0, 1.74), 0.2 / 0.9)
    }

    #[test]
    fn discrete_matches_eq66_prefactor() {
        // Eq. 66: prefactor Λ_i / (1 - e^{-α_i (g_i - ρ_i)}).
        let d = setup();
        let b = d.discrete();
        let eps: f64 = 0.2 / 0.9 - 0.2;
        let want = 1.0 / (1.0 - (-1.74 * eps).exp());
        assert!((b.prefactor - want).abs() < 1e-12);
        assert_eq!(b.decay, 1.74);
    }

    #[test]
    fn optimal_xi_beats_other_choices() {
        let d = setup();
        let best = d.continuous_optimal().prefactor;
        for frac in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let xi = d.xi_max() * frac;
            let p = d.continuous_with_xi(xi).prefactor;
            assert!(best <= p + 1e-9, "xi={xi} gives {p} < optimal {best}");
        }
    }

    #[test]
    fn continuous_prefactor_exceeds_discrete() {
        // The continuous bound pays the e^{αρξ} overshoot, so at equal ξ it
        // is weaker than the slotted bound.
        let d = setup();
        let xi = d.xi_max().min(1.0);
        assert!(d.continuous_with_xi(xi).prefactor > d.discrete().prefactor);
    }

    #[test]
    fn bound_dispatch() {
        let d = setup();
        assert_eq!(d.bound(TimeModel::Discrete), d.discrete());
        // xi beyond ceiling is clamped instead of panicking.
        let b = d.bound(TimeModel::Continuous { xi: 100.0 });
        assert_eq!(b, d.continuous_with_xi(d.xi_max()));
    }

    #[test]
    fn zero_rho_uses_ceiling() {
        let d = DeltaTailBound::new(EbbProcess::new(0.0, 2.0, 1.0), 0.5);
        assert_eq!(d.optimal_xi(), d.xi_max());
        // Bound still evaluates.
        let b = d.continuous_optimal();
        assert!(b.prefactor > 0.0);
    }

    #[test]
    fn batch_matches_individual_optimizations() {
        let bounds = vec![
            setup(),
            DeltaTailBound::new(EbbProcess::new(0.25, 0.92, 1.76), 0.25 / 0.9),
            DeltaTailBound::new(EbbProcess::new(0.0, 2.0, 1.0), 0.5),
        ];
        let batch = DeltaTailBound::continuous_optimal_batch(&bounds);
        assert_eq!(batch.len(), bounds.len());
        for (i, d) in bounds.iter().enumerate() {
            assert_eq!(batch[i], d.continuous_optimal(), "bound {i}");
        }
    }

    #[test]
    fn more_capacity_tightens_bound() {
        let e = EbbProcess::new(0.2, 1.0, 1.74);
        let slow = DeltaTailBound::new(e, 0.25).discrete().prefactor;
        let fast = DeltaTailBound::new(e, 0.60).discrete().prefactor;
        assert!(fast < slow);
    }

    #[test]
    #[should_panic(expected = "must exceed rho")]
    fn rejects_insufficient_rate() {
        let _ = DeltaTailBound::new(EbbProcess::new(0.5, 1.0, 1.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "outside (0,")]
    fn rejects_xi_above_ceiling() {
        let d = setup();
        let _ = d.continuous_with_xi(d.xi_max() * 2.0);
    }
}
