//! Theorems 7 and 8: per-session backlog/delay/output bounds for a single
//! GPS server fed by E.B.B. sources.
//!
//! Setup (paper Sections 3–4): choose dedicated rates `r_i = ρ_i + ε_i`
//! with `Σ r_i <= r` and fix a feasible ordering. Lemma 3 bounds the real
//! backlog of the session at position `k` by
//!
//! ```text
//! Q_i(t) <= δ_i(t) + ψ_i Σ_{j before i} δ_j(t),
//! ψ_i = φ_i / Σ_{j at or after i} φ_j
//! ```
//!
//! and the Chernoff/Hölder combination of the Lemma 6 MGF bounds yields,
//! for any admissible `θ`:
//!
//! * `Pr{Q_i(t) >= q} <= Λ_i^{out} e^{-θ q}`          (Eq. 23 / 33)
//! * `Pr{D_i(t) >= d} <= Λ_i^{out} e^{-θ g_i d}`      (Eq. 24 / 34)
//! * `S_i` is `(ρ_i, Λ_i^{out}, θ)`-E.B.B.            (Eq. 25 / 35)
//!
//! with `Λ_i^{out}` as in Eq. 26 (independent sources, [`Theorem7`]) or
//! Eq. 36 (dependent sources via Hölder, [`Theorem8`]).

use crate::theta_opt::optimize_tail;
use gps_core::{find_feasible_ordering, GpsAssignment, RateAllocation};
use gps_ebb::MgfArrival;
use gps_ebb::{
    chernoff_combine, holder_combine, holder_combine_paper_form, AggregateArrival, EbbProcess,
    HolderExponents, TailBound, TimeModel, WeightedDelta,
};

/// The triple of per-session results every single-node theorem returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionBounds {
    /// `Pr{Q_i(t) >= q} <= backlog.tail(q)`.
    pub backlog: TailBound,
    /// `Pr{D_i(t) >= d} <= delay.tail(d)`.
    pub delay: TailBound,
    /// E.B.B. characterization of the departure process `S_i`.
    pub output: EbbProcess,
}

impl SessionBounds {
    fn from_combined(combined: TailBound, rho: f64, g: f64) -> Self {
        SessionBounds {
            backlog: combined,
            delay: combined.delay_from_backlog(g),
            output: EbbProcess::new(rho, combined.prefactor, combined.decay),
        }
    }
}

/// Shared state of the single-node theorems.
#[derive(Debug, Clone)]
struct SingleNode {
    sessions: Vec<EbbProcess>,
    assignment: GpsAssignment,
    rates: Vec<f64>,
    ordering: Vec<usize>,
    /// position_of[i] = index of session i within `ordering`.
    position_of: Vec<usize>,
    model: TimeModel,
}

impl SingleNode {
    fn build(
        sessions: Vec<EbbProcess>,
        assignment: GpsAssignment,
        rates: Vec<f64>,
        model: TimeModel,
    ) -> Option<Self> {
        let n = sessions.len();
        assert_eq!(assignment.len(), n, "one weight per session");
        assert_eq!(rates.len(), n, "one dedicated rate per session");
        if sessions.iter().zip(&rates).any(|(s, &r)| r <= s.rho) {
            return None; // every session needs spare dedicated capacity
        }
        let ordering = find_feasible_ordering(&rates, &assignment)?;
        let mut position_of = vec![0; n];
        for (pos, &i) in ordering.iter().enumerate() {
            position_of[i] = pos;
        }
        Some(Self {
            sessions,
            assignment,
            rates,
            ordering,
            position_of,
            model,
        })
    }

    fn default_rates(sessions: &[EbbProcess], assignment: &GpsAssignment) -> Option<Vec<f64>> {
        let rhos: Vec<f64> = sessions.iter().map(|s| s.rho).collect();
        RateAllocation::Uniform.dedicated_rates(&rhos, assignment.phis(), assignment.rate(), 1.0)
    }

    /// `ψ_i` for the session at ordering position `pos`: its weight over
    /// the weights of everything at or after it in the ordering.
    fn psi(&self, pos: usize) -> f64 {
        let i = self.ordering[pos];
        let tail: Vec<usize> = self.ordering[pos..].to_vec();
        self.assignment.share_within(i, &tail)
    }

    /// The weighted-δ terms of Lemma 3 for session `i`: itself (weight 1)
    /// plus every predecessor in the ordering (weight `ψ_i`).
    fn terms_for(&self, i: usize) -> Vec<WeightedDelta> {
        let pos = self.position_of[i];
        let psi = self.psi(pos);
        let mut terms = vec![WeightedDelta::new(
            AggregateArrival::single(self.sessions[i]),
            self.rates[i],
            1.0,
        )];
        for &j in &self.ordering[..pos] {
            terms.push(WeightedDelta::new(
                AggregateArrival::single(self.sessions[j]),
                self.rates[j],
                psi,
            ));
        }
        terms
    }

    fn g(&self, i: usize) -> f64 {
        self.assignment.guaranteed_rate(i)
    }
}

/// Theorem 7: **independent** E.B.B. sources.
#[derive(Debug, Clone)]
pub struct Theorem7 {
    inner: SingleNode,
}

impl Theorem7 {
    /// Sets up the analysis with explicit dedicated rates. Returns `None`
    /// when some `r_i <= ρ_i` or the rates overcommit the server (no
    /// feasible ordering exists).
    pub(crate) fn with_rates(
        sessions: Vec<EbbProcess>,
        assignment: GpsAssignment,
        rates: Vec<f64>,
        model: TimeModel,
    ) -> Option<Self> {
        Some(Self {
            inner: SingleNode::build(sessions, assignment, rates, model)?,
        })
    }

    /// Sets up the analysis with the uniform slack split
    /// `ε_i = (r - Σρ)/N`. Returns `None` when `Σ ρ_i >= r`.
    pub fn new(
        sessions: Vec<EbbProcess>,
        assignment: GpsAssignment,
        model: TimeModel,
    ) -> Option<Self> {
        let rates = SingleNode::default_rates(&sessions, &assignment)?;
        Self::with_rates(sessions, assignment, rates, model)
    }

    /// The feasible ordering in use (session ids, first-served-priority
    /// first).
    pub fn ordering(&self) -> &[usize] {
        &self.inner.ordering
    }

    /// The dedicated rates `r_i`.
    pub fn rates(&self) -> &[f64] {
        &self.inner.rates
    }

    /// Largest admissible `θ` (exclusive) for session `i`:
    /// `min(α_i, min_{j before i} α_j / ψ_i)`. (The paper states the
    /// simpler sufficient `min_{j<=i} α_j`, which our domain contains since
    /// `ψ_i <= 1`.)
    pub fn theta_sup(&self, i: usize) -> f64 {
        gps_ebb::combine::chernoff_theta_sup(&self.inner.terms_for(i))
    }

    /// The Theorem-7 bounds for session `i` at a fixed `θ`; `None` when
    /// `θ` is outside `(0, theta_sup(i))`.
    pub fn bounds_at(&self, i: usize, theta: f64) -> Option<SessionBounds> {
        let combined = chernoff_combine(&self.inner.terms_for(i), theta, self.inner.model)?;
        Some(SessionBounds::from_combined(
            combined,
            self.inner.sessions[i].rho,
            self.inner.g(i),
        ))
    }

    /// The tightest backlog bound at threshold `q` (optimized over `θ`).
    pub fn best_backlog(&self, i: usize, q: f64) -> Option<TailBound> {
        optimize_tail(self.theta_sup(i), q, |t| {
            self.bounds_at(i, t).map(|b| b.backlog)
        })
    }

    /// The tightest delay bound at threshold `d` (optimized over `θ`).
    pub fn best_delay(&self, i: usize, d: f64) -> Option<TailBound> {
        optimize_tail(self.theta_sup(i), d * self.inner.g(i), |t| {
            self.bounds_at(i, t).map(|b| b.delay)
        })
    }

    /// Number of sessions.
    pub fn num_sessions(&self) -> usize {
        self.inner.sessions.len()
    }

    /// [`best_backlog`](Self::best_backlog) for every session, the θ
    /// optimizations fanned out over the `gps_par` pool. Results are in
    /// session order regardless of worker count.
    pub fn best_backlog_all(&self, q: f64) -> Vec<Option<TailBound>> {
        let idx: Vec<usize> = (0..self.num_sessions()).collect();
        gps_par::Pool::from_env().map(&idx, |_, &i| self.best_backlog(i, q))
    }
}

/// Theorem 8: E.B.B. sources **without an independence assumption**, via
/// Hölder's inequality.
#[derive(Debug, Clone)]
pub struct Theorem8 {
    inner: SingleNode,
    /// When true, reproduce the paper's printed Eq. 36 prefactor (each
    /// denominator untempered); when false (default), use the exact
    /// Hölder product, which is tighter.
    pub paper_form: bool,
}

impl Theorem8 {
    /// Analogous to [`Theorem7::with_rates`].
    pub(crate) fn with_rates(
        sessions: Vec<EbbProcess>,
        assignment: GpsAssignment,
        rates: Vec<f64>,
        model: TimeModel,
    ) -> Option<Self> {
        Some(Self {
            inner: SingleNode::build(sessions, assignment, rates, model)?,
            paper_form: false,
        })
    }

    /// Analogous to [`Theorem7::new`].
    pub fn new(
        sessions: Vec<EbbProcess>,
        assignment: GpsAssignment,
        model: TimeModel,
    ) -> Option<Self> {
        let rates = SingleNode::default_rates(&sessions, &assignment)?;
        Self::with_rates(sessions, assignment, rates, model)
    }

    /// The feasible ordering in use.
    pub fn ordering(&self) -> &[usize] {
        &self.inner.ordering
    }

    /// Decay-maximizing Hölder exponents for session `i` (equalizing
    /// `α_j/(p_j w_j)`, the paper's post-Theorem-8 recommendation).
    pub(crate) fn equalizing_exponents(&self, i: usize) -> Option<HolderExponents> {
        let terms = self.inner.terms_for(i);
        if terms.len() < 2 {
            return None; // first-in-ordering session: no Hölder step needed
        }
        let alphas: Vec<f64> = terms.iter().map(|t| t.arrival.theta_sup()).collect();
        let weights: Vec<f64> = terms.iter().map(|t| t.weight).collect();
        Some(HolderExponents::equalizing(&alphas, &weights))
    }

    /// Largest admissible `θ` for session `i` under the equalizing
    /// exponents: `(Σ_j w_j/α_j)^{-1}`.
    pub fn theta_sup(&self, i: usize) -> f64 {
        let terms = self.inner.terms_for(i);
        if terms.len() < 2 {
            return terms[0].theta_sup();
        }
        let p = self.equalizing_exponents(i).expect("multi-term");
        gps_ebb::combine::holder_theta_sup(&terms, p.as_slice())
    }

    /// Theorem-8 bounds for session `i` at a fixed `θ` with explicit
    /// Hölder exponents (`None` uses the equalizing ones).
    pub fn bounds_at(
        &self,
        i: usize,
        theta: f64,
        exponents: Option<&HolderExponents>,
    ) -> Option<SessionBounds> {
        let terms = self.inner.terms_for(i);
        let combined = if terms.len() < 2 {
            // A single δ needs no inequality at all; fall back to Chernoff.
            chernoff_combine(&terms, theta, self.inner.model)?
        } else {
            let own = self.equalizing_exponents(i);
            let p = exponents.or(own.as_ref()).expect("multi-term exponents");
            if self.paper_form {
                holder_combine_paper_form(&terms, p.as_slice(), theta, self.inner.model)?
            } else {
                holder_combine(&terms, p.as_slice(), theta, self.inner.model)?
            }
        };
        Some(SessionBounds::from_combined(
            combined,
            self.inner.sessions[i].rho,
            self.inner.g(i),
        ))
    }

    /// The tightest backlog bound at threshold `q`.
    pub fn best_backlog(&self, i: usize, q: f64) -> Option<TailBound> {
        optimize_tail(self.theta_sup(i), q, |t| {
            self.bounds_at(i, t, None).map(|b| b.backlog)
        })
    }

    /// The tightest delay bound at threshold `d`.
    pub fn best_delay(&self, i: usize, d: f64) -> Option<TailBound> {
        let g = self.inner.g(i);
        optimize_tail(self.theta_sup(i), d * g, |t| {
            self.bounds_at(i, t, None).map(|b| b.delay)
        })
    }

    /// Number of sessions.
    pub fn num_sessions(&self) -> usize {
        self.inner.sessions.len()
    }

    /// [`best_backlog`](Self::best_backlog) for every session, the θ
    /// optimizations (each a Hölder combination per probe) fanned out over
    /// the `gps_par` pool; results in session order.
    pub fn best_backlog_all(&self, q: f64) -> Vec<Option<TailBound>> {
        let idx: Vec<usize> = (0..self.num_sessions()).collect();
        gps_par::Pool::from_env().map(&idx, |_, &i| self.best_backlog(i, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_ebb::sigma_hat;

    /// Two-session fixture loosely matching Table 2 set 1 sessions 1–2.
    fn fixture() -> (Vec<EbbProcess>, GpsAssignment) {
        let sessions = vec![
            EbbProcess::new(0.2, 1.0, 1.74),
            EbbProcess::new(0.25, 0.92, 1.76),
        ];
        let assignment = GpsAssignment::unit_rate(vec![0.2, 0.25]);
        (sessions, assignment)
    }

    #[test]
    fn theorem7_matches_eq26_by_hand() {
        // Verify the Λ^out of Eq. 26 for the session at position 2 of the
        // ordering, ξ = 1, against a fully manual evaluation.
        let (sessions, assignment) = fixture();
        let t7 = Theorem7::new(
            sessions.clone(),
            assignment.clone(),
            TimeModel::PAPER_DEFAULT,
        )
        .unwrap();
        let ordering = t7.ordering().to_vec();
        let last = *ordering.last().unwrap();
        let first = ordering[0];
        let theta = 0.9;
        let got = t7.bounds_at(last, theta).unwrap().backlog;

        let r_last = t7.rates()[last];
        let r_first = t7.rates()[first];
        let (s_last, s_first) = (sessions[last], sessions[first]);
        let eps_last = r_last - s_last.rho;
        let eps_first = r_first - s_first.rho;
        // ψ for the last session: its φ over the tail = itself only.
        let psi = 1.0;
        let num = theta
            * (sigma_hat(s_last.lambda, s_last.alpha, theta)
                + s_last.rho
                + psi * (sigma_hat(s_first.lambda, s_first.alpha, psi * theta) + s_first.rho));
        let den = (1.0 - (-theta * eps_last).exp()) * (1.0 - (-psi * theta * eps_first).exp());
        let want = num.exp() / den;
        assert!(
            (got.prefactor - want).abs() < 1e-9 * want,
            "got {} want {want}",
            got.prefactor
        );
        assert_eq!(got.decay, theta);
    }

    #[test]
    fn batch_helpers_match_per_session_calls() {
        // The parallel *_all helpers are pure fan-out: element i must be
        // exactly the per-session call, in session order.
        let (sessions, assignment) = fixture();
        let t7 = Theorem7::new(sessions.clone(), assignment.clone(), TimeModel::Discrete).unwrap();
        let q = 12.0;
        assert_eq!(t7.num_sessions(), 2);
        let backlogs = t7.best_backlog_all(q);
        for (i, got) in backlogs.iter().enumerate() {
            assert_eq!(*got, t7.best_backlog(i, q), "session {i}");
        }
        let t8 = Theorem8::new(sessions, assignment, TimeModel::Discrete).unwrap();
        let backlogs8 = t8.best_backlog_all(q);
        for (i, got) in backlogs8.iter().enumerate() {
            assert_eq!(*got, t8.best_backlog(i, q), "session {i}");
        }
    }

    #[test]
    fn first_session_bound_ignores_other() {
        // Position-0 session: single-term bound, independent of session 2's
        // parameters.
        let (sessions, assignment) = fixture();
        let t7 = Theorem7::new(sessions.clone(), assignment.clone(), TimeModel::Discrete).unwrap();
        let first = t7.ordering()[0];
        let b = t7.bounds_at(first, 1.0).unwrap();
        let manual = gps_ebb::delta_mgf_log(
            &AggregateArrival::single(sessions[first]),
            t7.rates()[first],
            1.0,
            TimeModel::Discrete,
        )
        .exp();
        assert!((b.backlog.prefactor - manual).abs() < 1e-12);
    }

    #[test]
    fn delay_decay_is_g_times_theta() {
        let (sessions, assignment) = fixture();
        let g0 = assignment.guaranteed_rate(0);
        let t7 = Theorem7::new(sessions, assignment, TimeModel::Discrete).unwrap();
        let b = t7.bounds_at(0, 0.8).unwrap();
        assert!((b.delay.decay - 0.8 * g0).abs() < 1e-12);
        assert_eq!(b.delay.prefactor, b.backlog.prefactor);
    }

    #[test]
    fn output_is_ebb_with_input_rho() {
        let (sessions, assignment) = fixture();
        let t7 = Theorem7::new(sessions.clone(), assignment, TimeModel::Discrete).unwrap();
        let b = t7.bounds_at(1, 0.5).unwrap();
        assert_eq!(b.output.rho, sessions[1].rho);
        assert_eq!(b.output.alpha, 0.5);
    }

    #[test]
    fn best_backlog_beats_fixed_theta() {
        let (sessions, assignment) = fixture();
        let t7 = Theorem7::new(sessions, assignment, TimeModel::Discrete).unwrap();
        let q = 5.0;
        let best = t7.best_backlog(1, q).unwrap();
        for f in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let th = t7.theta_sup(1) * f;
            if let Some(b) = t7.bounds_at(1, th) {
                assert!(best.tail(q) <= b.backlog.tail(q) + 1e-12);
            }
        }
    }

    #[test]
    fn rejects_unstable() {
        let sessions = vec![
            EbbProcess::new(0.6, 1.0, 1.0),
            EbbProcess::new(0.5, 1.0, 1.0),
        ];
        let assignment = GpsAssignment::unit_rate(vec![1.0, 1.0]);
        assert!(Theorem7::new(sessions, assignment, TimeModel::Discrete).is_none());
    }

    #[test]
    fn theorem8_exact_tighter_than_paper_form() {
        let (sessions, assignment) = fixture();
        let mut t8 = Theorem8::new(sessions, assignment, TimeModel::Discrete).unwrap();
        let last = *t8.ordering().last().unwrap();
        let theta = t8.theta_sup(last) * 0.5;
        let exact = t8.bounds_at(last, theta, None).unwrap().backlog;
        t8.paper_form = true;
        let paper = t8.bounds_at(last, theta, None).unwrap().backlog;
        assert!(exact.prefactor <= paper.prefactor + 1e-12);
    }

    #[test]
    fn theorem8_theta_domain_is_harmonic() {
        let (sessions, assignment) = fixture();
        let t8 = Theorem8::new(sessions.clone(), assignment.clone(), TimeModel::Discrete).unwrap();
        let last = *t8.ordering().last().unwrap();
        let first = t8.ordering()[0];
        // Equalized: θ_sup = (w_last/α_last + w_first·ψ/α_first)^{-1} with
        // weights (1, ψ). ψ = 1 here (last session's tail is itself).
        let want = 1.0 / (1.0 / sessions[last].alpha + 1.0 / sessions[first].alpha);
        assert!(
            (t8.theta_sup(last) - want).abs() < 1e-9,
            "got {} want {want}",
            t8.theta_sup(last)
        );
        // Theorem 8's θ range is strictly smaller than Theorem 7's.
        let t7 = Theorem7::new(sessions, assignment, TimeModel::Discrete).unwrap();
        assert!(t8.theta_sup(last) < t7.theta_sup(last));
    }

    #[test]
    fn theorem8_first_session_degenerates_to_chernoff() {
        let (sessions, assignment) = fixture();
        let t7 = Theorem7::new(sessions.clone(), assignment.clone(), TimeModel::Discrete).unwrap();
        let t8 = Theorem8::new(sessions, assignment, TimeModel::Discrete).unwrap();
        let first = t8.ordering()[0];
        let th = 0.7;
        let a = t7.bounds_at(first, th).unwrap().backlog;
        let b = t8.bounds_at(first, th, None).unwrap().backlog;
        assert!((a.prefactor - b.prefactor).abs() < 1e-12);
    }

    #[test]
    fn three_sessions_ordering_dependence() {
        // Bounds must depend only on predecessors: perturbing a session
        // placed after i leaves i's bound unchanged.
        let sessions = vec![
            EbbProcess::new(0.1, 1.0, 2.0),
            EbbProcess::new(0.2, 1.0, 2.0),
            EbbProcess::new(0.3, 1.0, 2.0),
        ];
        let assignment = GpsAssignment::unit_rate(vec![0.1, 0.2, 0.3]);
        let rates = vec![0.15, 0.25, 0.35];
        let t7 = Theorem7::with_rates(
            sessions.clone(),
            assignment.clone(),
            rates.clone(),
            TimeModel::Discrete,
        )
        .unwrap();
        let order = t7.ordering().to_vec();
        let mid = order[1];
        let last = order[2];
        let b_mid = t7.bounds_at(mid, 0.5).unwrap().backlog;

        // Change the last session's Λ drastically.
        let mut sessions2 = sessions.clone();
        sessions2[last] = EbbProcess::new(sessions[last].rho, 50.0, 2.0);
        let t7b = Theorem7::with_rates(sessions2, assignment, rates, TimeModel::Discrete).unwrap();
        assert_eq!(t7b.ordering(), order.as_slice());
        let b_mid2 = t7b.bounds_at(mid, 0.5).unwrap().backlog;
        assert!((b_mid.prefactor - b_mid2.prefactor).abs() < 1e-12);
        // But the last session's own bound changed.
        let l1 = t7.bounds_at(last, 0.5).unwrap().backlog.prefactor;
        let l2 = t7b.bounds_at(last, 0.5).unwrap().backlog.prefactor;
        assert!(l2 > l1);
    }
}
