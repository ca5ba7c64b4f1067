//! Moment-generating-function envelopes (paper Eq. 19 and Lemma 6).
//!
//! For a (ρ, Λ, α)-E.B.B. arrival `A` and `0 < θ < α`, the paper shows
//!
//! ```text
//! E e^{θ A(τ,t)} <= e^{θ (ρ (t-τ) + σ̂(θ))},
//! σ̂(θ) = (1/θ) ln(1 + θΛ / (α - θ))                     (Eq. 19)
//! ```
//!
//! i.e. the arrival admits an *MGF envelope* with rate `ρ` and burst term
//! `σ̂(θ)`. MGF envelopes are closed under addition of independent — or even
//! dependent, at matched `θ` — flows by summing `σ̂`, which is exactly how
//! Section 5 aggregates the sessions of a partition class into one "session"
//! with `σ̃(θ) = Σ σ̂_i(θ)`. The abstraction here is the [`MgfArrival`]
//! trait; [`EbbProcess`] and [`AggregateArrival`] implement it.
//!
//! On top of the envelope, Lemma 6 bounds the MGF of the decomposed backlog
//! `δ(t) = sup_{s<=t} {A(s,t) - r(t-s)}` for a dedicated rate `r = ρ + ε`:
//!
//! ```text
//! E e^{θ δ(t)} <= e^{θ(σ̂(θ) + ρ ξ)} / (1 - e^{-θ ε ξ})     (Lemma 6)
//! ```
//!
//! with any discretization `ξ > 0` (the paper uses `ξ = 1`; Remark 1 gives
//! the optimum, implemented in [`optimal_xi`]). In discrete time the `ρξ`
//! overshoot term disappears and `ξ = 1` slot. All computations are done in
//! log space ([`delta_mgf_log`]) so that products of many factors cannot
//! overflow.

use crate::numeric::ln_1m_exp_neg;
use crate::process::EbbProcess;
use crate::TimeModel;

/// σ̂(θ) = ln(1 + θΛ/(α-θ)) / θ for an E.B.B. pair (Λ, α) (paper Eq. 19).
///
/// # Panics
///
/// Panics unless `0 < theta < alpha`.
pub fn sigma_hat(lambda: f64, alpha: f64, theta: f64) -> f64 {
    assert!(
        theta > 0.0 && theta < alpha,
        "sigma_hat domain is 0 < theta < alpha; theta={theta}, alpha={alpha}"
    );
    (theta * lambda / (alpha - theta)).ln_1p() / theta
}

/// An arrival process characterized by an MGF envelope
/// `E e^{θA(τ,t)} <= e^{θ(ρ(t-τ) + σ̂(θ))}` for `θ` below a supremum.
pub trait MgfArrival {
    /// Long-term envelope rate `ρ`.
    fn rho(&self) -> f64;
    /// Burst term `σ̂(θ)` of the envelope; only valid for
    /// `0 < θ < self.theta_sup()`.
    fn sigma_hat(&self, theta: f64) -> f64;
    /// Supremum of valid `θ` (exclusive).
    fn theta_sup(&self) -> f64;

    /// `ln E e^{θ A(τ,t)}` envelope for an interval of length `len`
    /// (paper Eq. 19): `θ(ρ·len + σ̂(θ))`.
    fn arrival_mgf_log(&self, theta: f64, len: f64) -> f64 {
        assert!(len >= 0.0);
        theta * (self.rho() * len + self.sigma_hat(theta))
    }
}

impl MgfArrival for EbbProcess {
    fn rho(&self) -> f64 {
        self.rho
    }

    fn sigma_hat(&self, theta: f64) -> f64 {
        sigma_hat(self.lambda, self.alpha, theta)
    }

    fn theta_sup(&self) -> f64 {
        self.alpha
    }
}

/// A superposition of E.B.B. flows treated as one arrival (Section 5's
/// "aggregate session"): `ρ̃ = Σ ρ_i`, `σ̃(θ) = Σ σ̂_i(θ)`, valid for
/// `θ < min α_i`.
///
/// The aggregate envelope needs **no independence assumption**: for each
/// component the envelope bounds the conditional contribution on any sample
/// path in the Chernoff sense only when independence holds — the paper
/// applies aggregation on the MGF level for independent sources, and falls
/// back to Hölder combination (Theorem 8 / 12) otherwise. Callers choose the
/// combination rule; this type only stores the components.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateArrival {
    parts: Vec<EbbProcess>,
    /// Multiplicity of each part: `counts[i]` identical copies of
    /// `parts[i]` contribute `counts[i]·σ̂_i` and `counts[i]·ρ_i`.
    counts: Vec<u64>,
}

impl AggregateArrival {
    /// Creates an aggregate of the given component flows.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn new(parts: Vec<EbbProcess>) -> Self {
        assert!(!parts.is_empty(), "aggregate needs at least one component");
        let counts = vec![1; parts.len()];
        Self { parts, counts }
    }

    /// Aggregate of a single flow.
    pub fn single(p: EbbProcess) -> Self {
        Self::new(vec![p])
    }

    /// Aggregate of `n` identical copies of `p`, stored with a
    /// multiplicity instead of `n` clones: `σ̃(θ) = n·σ̂(θ)` and
    /// `ρ̃ = n·ρ` in O(1) memory and O(1) per evaluation, which is what
    /// lets the admission engine model a million-session class without a
    /// million-element vector.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn homogeneous(p: EbbProcess, n: u64) -> Self {
        assert!(n >= 1, "homogeneous aggregate needs at least one copy");
        Self {
            parts: vec![p],
            counts: vec![n],
        }
    }

    /// Component flows (each possibly carrying a multiplicity; see
    /// [`counts`](Self::counts)).
    pub fn parts(&self) -> &[EbbProcess] {
        &self.parts
    }

    /// Multiplicity of each component flow.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// As an E.B.B. process at a chosen `θ`: `(ρ̃, e^{θσ̃(θ)}, θ)` —
    /// the Section 5 statement that the aggregate is an E.B.B. process with
    /// prefactor `e^{θσ̃(θ)}` and decay `θ` for each `θ < min α_i`.
    pub fn as_ebb_at(&self, theta: f64) -> EbbProcess {
        let s = self.sigma_hat(theta);
        EbbProcess::new(self.rho(), (theta * s).exp(), theta)
    }
}

impl MgfArrival for AggregateArrival {
    fn rho(&self) -> f64 {
        self.parts
            .iter()
            .zip(&self.counts)
            .map(|(p, &c)| c as f64 * p.rho)
            .sum()
    }

    fn sigma_hat(&self, theta: f64) -> f64 {
        self.parts
            .iter()
            .zip(&self.counts)
            .map(|(p, &c)| c as f64 * sigma_hat(p.lambda, p.alpha, theta))
            .sum()
    }

    fn theta_sup(&self) -> f64 {
        self.parts
            .iter()
            .map(|p| p.alpha)
            .fold(f64::INFINITY, f64::min)
    }
}

/// `ln` of the Lemma 6 bound on `E e^{θ δ(t)}` for arrival `a` served at
/// dedicated rate `r > ρ`:
///
/// * continuous time: `θ(σ̂(θ) + ρξ) - ln(1 - e^{-θεξ})`;
/// * discrete time:   `θσ̂(θ) - ln(1 - e^{-θε})`.
///
/// # Panics
///
/// Panics unless `0 < θ < theta_sup`, `r > ρ`, and (continuous) `ξ > 0`.
pub fn delta_mgf_log<A: MgfArrival + ?Sized>(a: &A, r: f64, theta: f64, model: TimeModel) -> f64 {
    let rho = a.rho();
    let eps = r - rho;
    assert!(
        eps > 0.0,
        "dedicated rate must exceed rho: r={r}, rho={rho}"
    );
    assert!(
        theta > 0.0 && theta < a.theta_sup(),
        "theta {theta} outside (0, {})",
        a.theta_sup()
    );
    let xi = model.xi();
    assert!(xi > 0.0, "xi must be positive");
    let overshoot = if model.pays_overshoot() {
        rho * xi
    } else {
        0.0
    };
    theta * (a.sigma_hat(theta) + overshoot) - ln_1m_exp_neg(theta * eps * xi)
}

/// The Remark-1 optimal discretization `ξ* = ln(r/ρ) / (θ ε)` minimizing
/// the continuous-time Lemma 6 prefactor `e^{θρξ}/(1-e^{-θεξ})`.
///
/// Returns `None` when `ρ = 0` (the prefactor is then decreasing in `ξ`
/// with infimum 1, so no finite optimum exists — callers should pick a
/// large `ξ`).
pub fn optimal_xi(rho: f64, r: f64, theta: f64) -> Option<f64> {
    assert!(r > rho && rho >= 0.0 && theta > 0.0);
    if rho == 0.0 {
        return None;
    }
    Some((r / rho).ln() / (theta * (r - rho)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table2_s1() -> EbbProcess {
        EbbProcess::new(0.2, 1.0, 1.74)
    }

    #[test]
    fn sigma_hat_limits() {
        // θ -> 0: σ̂ -> Λ/α (by expansion ln(1+θΛ/α)/θ -> Λ/α).
        let s = sigma_hat(1.0, 2.0, 1e-9);
        assert!((s - 0.5).abs() < 1e-6);
        // θ -> α: σ̂ -> +inf.
        assert!(sigma_hat(1.0, 2.0, 2.0 - 1e-12) > 10.0);
    }

    #[test]
    fn sigma_hat_monotone_in_theta() {
        let mut prev = 0.0;
        for i in 1..100 {
            let theta = 1.74 * i as f64 / 100.0;
            let s = sigma_hat(1.0, 1.74, theta);
            assert!(s >= prev, "sigma_hat must be nondecreasing in theta");
            prev = s;
        }
    }

    #[test]
    #[should_panic(expected = "sigma_hat domain")]
    fn sigma_hat_rejects_theta_at_alpha() {
        let _ = sigma_hat(1.0, 2.0, 2.0);
    }

    #[test]
    fn arrival_mgf_log_linear_in_len() {
        let e = table2_s1();
        let th = 0.5;
        let a = e.arrival_mgf_log(th, 1.0);
        let b = e.arrival_mgf_log(th, 2.0);
        assert!((b - a - th * e.rho).abs() < 1e-12);
    }

    #[test]
    fn aggregate_sums_components() {
        let e1 = EbbProcess::new(0.2, 1.0, 1.74);
        let e2 = EbbProcess::new(0.25, 0.92, 1.76);
        let agg = AggregateArrival::new(vec![e1, e2]);
        assert!((agg.rho() - 0.45).abs() < 1e-15);
        assert!((agg.theta_sup() - 1.74).abs() < 1e-15);
        let th = 0.8;
        let want = sigma_hat(1.0, 1.74, th) + sigma_hat(0.92, 1.76, th);
        assert!((agg.sigma_hat(th) - want).abs() < 1e-15);
        let as_ebb = agg.as_ebb_at(th);
        assert!((as_ebb.rho - 0.45).abs() < 1e-15);
        assert!((as_ebb.alpha - th).abs() < 1e-15);
        assert!((as_ebb.lambda - (th * want).exp()).abs() < 1e-12);
    }

    #[test]
    fn homogeneous_aggregate_matches_explicit_clones() {
        let p = table2_s1();
        let n = 1000u64;
        let compact = AggregateArrival::homogeneous(p, n);
        let explicit = AggregateArrival::new(vec![p; n as usize]);
        let th = 0.8;
        assert_eq!(compact.rho().to_bits(), (n as f64 * p.rho).to_bits());
        assert!((compact.rho() - explicit.rho()).abs() < 1e-9);
        assert!((compact.sigma_hat(th) - explicit.sigma_hat(th)).abs() < 1e-7);
        assert_eq!(compact.theta_sup(), explicit.theta_sup());
        assert_eq!(compact.counts().iter().sum::<u64>(), n);
        assert_eq!(compact.parts().len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn homogeneous_rejects_zero_count() {
        let _ = AggregateArrival::homogeneous(table2_s1(), 0);
    }

    #[test]
    fn delta_mgf_log_consistency() {
        let e = table2_s1();
        let r = 0.3;
        let th = 0.9;
        // Continuous with xi=1 vs manual formula.
        let got = delta_mgf_log(&e, r, th, TimeModel::PAPER_DEFAULT);
        let eps = r - e.rho;
        let manual = th * (e.sigma_hat(th) + e.rho * 1.0) - (1.0 - (-th * eps).exp()).ln();
        assert!((got - manual).abs() < 1e-12);
        // Discrete drops the overshoot term.
        let disc = delta_mgf_log(&e, r, th, TimeModel::Discrete);
        assert!(disc < got);
        assert!((disc - (th * e.sigma_hat(th) - (1.0 - (-th * eps).exp()).ln())).abs() < 1e-12);
    }

    #[test]
    fn delta_mgf_decreasing_in_rate() {
        // More dedicated capacity -> smaller backlog MGF.
        let e = table2_s1();
        let th = 0.5;
        let a = delta_mgf_log(&e, 0.25, th, TimeModel::PAPER_DEFAULT);
        let b = delta_mgf_log(&e, 0.40, th, TimeModel::PAPER_DEFAULT);
        assert!(b < a);
    }

    #[test]
    fn optimal_xi_is_stationary_point() {
        let (rho, r, th) = (0.2, 0.3, 0.9);
        let xi = optimal_xi(rho, r, th).unwrap();
        let f = |x: f64| th * rho * x - ln_1m_exp_neg(th * (r - rho) * x);
        let h = 1e-6;
        let deriv = (f(xi + h) - f(xi - h)) / (2.0 * h);
        assert!(deriv.abs() < 1e-6, "derivative at optimum: {deriv}");
        // And it indeed beats xi = 1 unless they coincide.
        assert!(f(xi) <= f(1.0) + 1e-12);
    }

    #[test]
    fn optimal_xi_none_for_zero_rho() {
        assert!(optimal_xi(0.0, 0.3, 1.0).is_none());
    }

    #[test]
    #[should_panic(expected = "dedicated rate must exceed rho")]
    fn delta_mgf_requires_spare_capacity() {
        let e = table2_s1();
        let _ = delta_mgf_log(&e, 0.2, 0.5, TimeModel::Discrete);
    }
}
