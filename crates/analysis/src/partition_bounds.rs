//! Theorems 10–12: bounds organized by the feasible partition.
//!
//! The feasible partition `H_1, …, H_L` refines the feasible-ordering
//! analysis: a session's bound should depend only on the *classes below
//! it*, not on its accidental position among same-class peers.
//!
//! * [`theorem10`] — for `i ∈ H_1` the decomposition at dedicated rate
//!   `r_i = g_i` gives `Q_i(t) <= δ_i(t)` outright, so Lemma 5 applies
//!   *with decay `α_i`* and no dependence on other sessions — and no
//!   independence assumption.
//! * [`Theorem11`] — for `i ∈ H_k`, aggregate each lower class into one
//!   session; the Theorem-11 slack split (`ε` shares of `(g_i - ρ_i)/k`)
//!   puts session `i` at position `k` of a feasible ordering of
//!   aggregates, and Theorem 7 yields Eq. 54. The same object evaluates
//!   the Hölder variant (Theorem 12, Eq. 59) via
//!   `Theorem11::bounds_at_dependent`.
//!
//! Under RPPS every session is in `H_1` (all ratios `ρ_i/φ_i` equal), so
//! [`theorem10`] covers everyone — the fact Theorem 15 lifts to networks.

use crate::single_node::SessionBounds;
use crate::theta_opt::optimize_tail;
use gps_core::{FeasiblePartition, GpsAssignment};
use gps_ebb::MgfArrival;
use gps_ebb::{
    chernoff_combine, holder_combine, AggregateArrival, DeltaTailBound, EbbProcess,
    HolderExponents, TailBound, TimeModel, WeightedDelta,
};

/// Theorem 10: backlog and delay bounds for a session of class `H_1`
/// (those with `ρ_i < g_i`), with decay rate exactly `α_i`:
///
/// ```text
/// Pr{Q_i(t) >= q} <= Λ* e^{-α_i q},
/// Pr{D_i(t) >= d} <= Λ* e^{-α_i g_i d},
/// Λ* = Λ_i e^{α_i ρ_i ξ} / (1 - e^{-α_i (g_i - ρ_i) ξ})
/// ```
///
/// (discrete time drops the `e^{αρξ}` factor — the form used in the
/// paper's Eq. 66–67). Returns `(backlog, delay)`.
///
/// # Panics
///
/// Panics unless `g > session.rho`.
pub fn theorem10(session: EbbProcess, g: f64, model: TimeModel) -> (TailBound, TailBound) {
    let backlog = DeltaTailBound::new(session, g).bound(model);
    let delay = backlog.delay_from_backlog(g);
    (backlog, delay)
}

/// Theorems 11 (independent sources) and 12 (dependent, Hölder): bounds
/// for a session of any partition class.
#[derive(Debug, Clone)]
pub struct Theorem11 {
    sessions: Vec<EbbProcess>,
    assignment: GpsAssignment,
    partition: FeasiblePartition,
    model: TimeModel,
}

impl Theorem11 {
    /// Sets up the analysis. Returns `None` when `Σ ρ_i >= r` (no feasible
    /// partition exists).
    pub fn new(
        sessions: Vec<EbbProcess>,
        assignment: GpsAssignment,
        model: TimeModel,
    ) -> Option<Self> {
        assert_eq!(sessions.len(), assignment.len());
        let rhos: Vec<f64> = sessions.iter().map(|s| s.rho).collect();
        let partition = FeasiblePartition::compute(&rhos, &assignment)?;
        Some(Self {
            sessions,
            assignment,
            partition,
            model,
        })
    }

    /// The feasible partition in use.
    pub fn partition(&self) -> &FeasiblePartition {
        &self.partition
    }

    /// `ψ_i = φ_i / Σ_{j ∉ H^{k-1}} φ_j` for session `i` in class `H_k`.
    pub fn psi(&self, i: usize) -> f64 {
        let k = self.partition.class_of(i);
        let lower = self.partition.lower_classes(k);
        let not_lower: Vec<usize> = (0..self.sessions.len())
            .filter(|j| !lower.contains(j))
            .collect();
        self.assignment.share_within(i, &not_lower)
    }

    /// The true GPS guaranteed backlog-clearing rate
    /// `g_i = φ_i r / Σ_j φ_j`, used for the backlog→delay conversion.
    pub fn g(&self, i: usize) -> f64 {
        self.assignment.guaranteed_rate(i)
    }

    /// The **class-relative guaranteed rate** appearing in Theorem 11's
    /// slack budget: `ĝ_i = ψ_i (r - Σ_{j ∈ H^{k-1}} ρ_j)`. For a session
    /// in class `H_k`, `ρ_i < ĝ_i` holds *by definition* of the feasible
    /// partition (Eq. 38) — whereas for `k > 1` the plain `g_i` satisfies
    /// `ρ_i >= g_i`, so the `g_i` printed in the paper's Eq. 54–55 can
    /// only be this class-relative quantity (the proof's algebra, Eq. 55
    /// onward, confirms it: `Σ r̃_l + r_i <= 1` is derived from exactly
    /// `ĝ_i = ψ_i(1 - Σ_{lower} ρ_j)`). For `k = 1` it coincides with
    /// `g_i`.
    pub fn class_rate(&self, i: usize) -> f64 {
        let k = self.partition.class_of(i);
        let lower = self.partition.lower_classes(k);
        let lower_rho: f64 = lower.iter().map(|&j| self.sessions[j].rho).sum();
        self.psi(i) * (self.assignment.rate() - lower_rho)
    }

    /// The Theorem-11 weighted-δ terms for session `i`: itself at
    /// dedicated rate `ρ_i + (ĝ_i-ρ_i)/k`, plus each lower class
    /// aggregated at rate `ρ̃_l + (ĝ_i-ρ_i)/(k ψ_i)` with weight `ψ_i`.
    fn terms_for(&self, i: usize) -> Vec<WeightedDelta> {
        let k0 = self.partition.class_of(i); // 0-based; paper's k = k0+1
        let k = (k0 + 1) as f64;
        let g = self.class_rate(i);
        let rho = self.sessions[i].rho;
        let share = (g - rho) / k;
        let psi = self.psi(i);
        let mut terms = vec![WeightedDelta::new(
            AggregateArrival::single(self.sessions[i]),
            rho + share,
            1.0,
        )];
        for l in 0..k0 {
            let class = self.partition.class(l);
            let parts: Vec<EbbProcess> = class.iter().map(|&j| self.sessions[j]).collect();
            let agg = AggregateArrival::new(parts);
            let agg_rho = agg.parts().iter().map(|p| p.rho).sum::<f64>();
            terms.push(WeightedDelta::new(agg, agg_rho + share / psi, psi));
        }
        terms
    }

    /// Largest admissible `θ` (exclusive) for the Theorem-11 bound:
    /// `min(α_i, min_{j ∈ H^{k-1}} α_j / ψ_i)`.
    pub fn theta_sup(&self, i: usize) -> f64 {
        gps_ebb::combine::chernoff_theta_sup(&self.terms_for(i))
    }

    /// Largest admissible `θ` (exclusive) for the Theorem-12 (Hölder)
    /// bound with the decay-equalizing exponents:
    /// `(Σ_j w_j/α_j)^{-1}`. Coincides with [`Self::theta_sup`] for `H_1`
    /// sessions (single term, no Hölder step).
    pub(crate) fn theta_sup_dependent(&self, i: usize) -> f64 {
        let terms = self.terms_for(i);
        match self.equalizing_exponents(i) {
            Some(p) => gps_ebb::combine::holder_theta_sup(&terms, p.as_slice()),
            None => self.theta_sup(i),
        }
    }

    /// Theorem-11 (independent-sources) bounds at a fixed `θ`.
    pub fn bounds_at(&self, i: usize, theta: f64) -> Option<SessionBounds> {
        let combined = chernoff_combine(&self.terms_for(i), theta, self.model)?;
        Some(self.package(i, combined))
    }

    /// Theorem-12 (Hölder / dependent-sources) bounds at a fixed `θ`.
    /// `exponents = None` uses the decay-equalizing allocation.
    pub(crate) fn bounds_at_dependent(
        &self,
        i: usize,
        theta: f64,
        exponents: Option<&HolderExponents>,
    ) -> Option<SessionBounds> {
        let terms = self.terms_for(i);
        let combined = if terms.len() < 2 {
            chernoff_combine(&terms, theta, self.model)?
        } else {
            let own = self.equalizing_exponents(i);
            let p = exponents.or(own.as_ref()).expect("multi-term exponents");
            holder_combine(&terms, p.as_slice(), theta, self.model)?
        };
        Some(self.package(i, combined))
    }

    /// Decay-equalizing Hölder exponents for session `i` (`None` when the
    /// session is in `H_1` and needs no Hölder step).
    pub(crate) fn equalizing_exponents(&self, i: usize) -> Option<HolderExponents> {
        let terms = self.terms_for(i);
        if terms.len() < 2 {
            return None;
        }
        let alphas: Vec<f64> = terms.iter().map(|t| t.arrival.theta_sup()).collect();
        let weights: Vec<f64> = terms.iter().map(|t| t.weight).collect();
        Some(HolderExponents::equalizing(&alphas, &weights))
    }

    fn package(&self, i: usize, combined: TailBound) -> SessionBounds {
        let g = self.g(i);
        SessionBounds {
            backlog: combined,
            delay: combined.delay_from_backlog(g),
            output: EbbProcess::new(self.sessions[i].rho, combined.prefactor, combined.decay),
        }
    }

    /// Tightest Theorem-11 backlog bound at threshold `q`.
    pub fn best_backlog(&self, i: usize, q: f64) -> Option<TailBound> {
        optimize_tail(self.theta_sup(i), q, |t| {
            self.bounds_at(i, t).map(|b| b.backlog)
        })
    }

    /// Tightest Theorem-11 delay bound at threshold `d`.
    pub fn best_delay(&self, i: usize, d: f64) -> Option<TailBound> {
        optimize_tail(self.theta_sup(i), d * self.g(i), |t| {
            self.bounds_at(i, t).map(|b| b.delay)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_ebb::sigma_hat;

    /// Fixture with a genuine two-class partition.
    fn two_class() -> (Vec<EbbProcess>, GpsAssignment) {
        // Session 0: light (H1). Session 1: heavy relative to weight (H2).
        let sessions = vec![
            EbbProcess::new(0.1, 1.0, 2.0),
            EbbProcess::new(0.55, 0.9, 1.5),
        ];
        let assignment = GpsAssignment::unit_rate(vec![3.0, 1.0]);
        (sessions, assignment)
    }

    #[test]
    fn theorem10_discrete_matches_eq66() {
        let s = EbbProcess::new(0.2, 1.0, 1.74);
        let g: f64 = 0.2 / 0.9;
        let (q, d) = theorem10(s, g, TimeModel::Discrete);
        let want = 1.0 / (1.0 - (-1.74 * (g - 0.2)).exp());
        assert!((q.prefactor - want).abs() < 1e-12);
        assert_eq!(q.decay, 1.74);
        assert!((d.decay - 1.74 * g).abs() < 1e-12);
    }

    #[test]
    fn partition_shape() {
        let (sessions, assignment) = two_class();
        let t11 = Theorem11::new(sessions, assignment, TimeModel::Discrete).unwrap();
        assert_eq!(t11.partition().num_classes(), 2);
        assert_eq!(t11.partition().class(0), &[0]);
        assert_eq!(t11.partition().class(1), &[1]);
    }

    #[test]
    fn eq54_by_hand_for_h2_session() {
        let (sessions, assignment) = two_class();
        let t11 = Theorem11::new(
            sessions.clone(),
            assignment.clone(),
            TimeModel::PAPER_DEFAULT,
        )
        .unwrap();
        let i = 1; // class H2, k = 2
        let theta = 0.4;
        let got = t11.bounds_at(i, theta).unwrap().backlog;

        // Class-relative rate: ψ = 1 (only session 1 outside H1), lower
        // load ρ_0 = 0.1 -> ĝ = 0.9.
        let g = 0.9;
        let rho = sessions[i].rho;
        let psi = 1.0;
        let s_own = sigma_hat(sessions[1].lambda, sessions[1].alpha, theta);
        let s_low = sigma_hat(sessions[0].lambda, sessions[0].alpha, psi * theta);
        let num = theta * (s_own + rho + psi * (s_low + sessions[0].rho));
        let den = (1.0 - (-theta * (g - rho) / 2.0).exp()).powi(2);
        let want = num.exp() / den;
        assert!(
            (got.prefactor - want).abs() < 1e-9 * want,
            "got {}, want {want}",
            got.prefactor
        );
    }

    #[test]
    fn h1_session_single_term() {
        // Class-H1 session: bound must not involve the other session.
        let (sessions, assignment) = two_class();
        let t11 =
            Theorem11::new(sessions.clone(), assignment.clone(), TimeModel::Discrete).unwrap();
        let b = t11.bounds_at(0, 1.0).unwrap();

        let mut sessions2 = sessions.clone();
        sessions2[1] = EbbProcess::new(0.55, 30.0, 1.5); // blow up session 1
        let t11b = Theorem11::new(sessions2, assignment, TimeModel::Discrete).unwrap();
        let b2 = t11b.bounds_at(0, 1.0).unwrap();
        assert!((b.backlog.prefactor - b2.backlog.prefactor).abs() < 1e-12);
    }

    #[test]
    fn h1_bound_at_full_rate_uses_g() {
        // For H1 sessions Theorem 11's construction sets r_i = g_i: the
        // combined bound equals Lemma 6 at dedicated rate g_i.
        let (sessions, assignment) = two_class();
        let t11 =
            Theorem11::new(sessions.clone(), assignment.clone(), TimeModel::Discrete).unwrap();
        let th = 1.2;
        let got = t11.bounds_at(0, th).unwrap().backlog.prefactor;
        let manual = gps_ebb::delta_mgf_log(
            &AggregateArrival::single(sessions[0]),
            assignment.guaranteed_rate(0),
            th,
            TimeModel::Discrete,
        )
        .exp();
        assert!((got - manual).abs() < 1e-12);
    }

    #[test]
    fn theorem12_tighter_theta_range() {
        let (sessions, assignment) = two_class();
        let t11 = Theorem11::new(sessions, assignment, TimeModel::Discrete).unwrap();
        let i = 1;
        let sup11 = t11.theta_sup(i);
        let p = t11.equalizing_exponents(i).unwrap();
        let terms_sup = 1.0 / (1.0 / 1.5 + 1.0 / 2.0); // harmonic of α's (ψ=1)
        assert!((p.theta_sup(&[1.5, 2.0], &[1.0, 1.0]) - terms_sup).abs() < 1e-9);
        assert!(terms_sup < sup11);
        // Theorem 12 evaluates fine inside its domain.
        let b = t11.bounds_at_dependent(i, terms_sup * 0.5, None).unwrap();
        assert!(b.backlog.prefactor.is_finite());
    }

    #[test]
    fn best_delay_decreasing_in_threshold() {
        let (sessions, assignment) = two_class();
        let t11 = Theorem11::new(sessions, assignment, TimeModel::Discrete).unwrap();
        let b40 = t11.best_delay(1, 40.0).unwrap().log_tail(40.0);
        let b80 = t11.best_delay(1, 80.0).unwrap().log_tail(80.0);
        assert!(b80 < b40, "log-tails {b80} vs {b40}");
    }

    #[test]
    fn rpps_everything_in_h1() {
        let sessions = vec![
            EbbProcess::new(0.2, 1.0, 1.74),
            EbbProcess::new(0.25, 0.92, 1.76),
            EbbProcess::new(0.2, 0.84, 2.13),
            EbbProcess::new(0.25, 1.0, 1.62),
        ];
        let rhos: Vec<f64> = sessions.iter().map(|s| s.rho).collect();
        let assignment = GpsAssignment::rpps(&rhos, 1.0);
        let t11 =
            Theorem11::new(sessions.clone(), assignment.clone(), TimeModel::Discrete).unwrap();
        assert_eq!(t11.partition().num_classes(), 1);
        // For every session: Theorem 11 at θ→α reproduces the Theorem 10
        // (Eq. 66) decay; check the bound at a θ close to α_i is within a
        // whisker of the Lemma-5 discrete form.
        for (i, s) in sessions.iter().enumerate() {
            let g = assignment.guaranteed_rate(i);
            let (q10, _) = theorem10(*s, g, TimeModel::Discrete);
            let q11 = t11.bounds_at(i, s.alpha * 0.999).unwrap().backlog;
            // Same decay regime; Theorem 10's closed form should be at
            // least as tight at large q.
            let q = 30.0;
            assert!(
                q10.tail(q) <= q11.tail(q) * 1.001 + 1e-30,
                "session {i}: Thm10 {} vs Thm11 {}",
                q10.tail(q),
                q11.tail(q)
            );
        }
    }
}
