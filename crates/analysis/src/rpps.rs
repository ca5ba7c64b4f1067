//! Theorem 15: closed-form bounds for Rate Proportional Processor Sharing
//! (RPPS) networks, plus the "improved bound" mechanism of Remark 3 /
//! Figure 4.
//!
//! Under RPPS every node assigns `φ_i^m = ρ_i`. Then every session is in
//! class `H_1` at every node, and Lemma 14 (Parekh–Gallager's Lemma 3.2)
//! gives the whole-network service guarantee
//! `S_i^{(K_i)}(τ,t) >= g_i^{net}(t-τ)` within a session busy period,
//! where `g_i^{net} = min_{m ∈ P(i)} g_i^m` is the **bottleneck**
//! guaranteed rate. Consequently the *network* backlog of session `i` is
//! bounded by the single-queue `δ_i` at rate `g_i^{net}`:
//!
//! ```text
//! Pr{Q_i^net(t) >= q} <= Λ_i^net e^{-α_i q}
//! Pr{D_i^net(t) >= d} <= Λ_i^net e^{-α_i g_i^net d}
//! Λ_i^net = Λ_i e^{α_i ρ_i ξ} / (1 - e^{-α_i (g_i^net - ρ_i) ξ})
//! ```
//!
//! independent of route length and topology. The discrete-time variant
//! drops the `e^{αρξ}` factor (paper Eqs. 66–67 — what Figure 3 plots).
//!
//! Because everything reduces to a bound on `δ_i(t)` at service rate
//! `g_i^{net}`, *any* sharper bound on that single queue can be plugged in
//! ([`RppsNetworkBounds::with_delta_bound`]) — with a Markov-modulated
//! source model, the LNT94 bound of `gps_sources::lnt94::queue_tail_bound`
//! produces the paper's Figure 4. As the paper notes after Theorem 15, the
//! reduction applies to any session guaranteed `g_i^{net} > ρ_i`
//! everywhere on its route, regardless of the GPS assignment.

use gps_core::NetworkTopology;
use gps_ebb::{DeltaTailBound, EbbProcess, TailBound, TimeModel};

/// Per-session Theorem-15 results for an RPPS network.
///
/// # Examples
///
/// ```
/// use gps_analysis::RppsNetworkBounds;
/// use gps_core::NetworkTopology;
/// use gps_ebb::{EbbProcess, TimeModel};
/// let rhos = [0.2, 0.25, 0.2, 0.25];
/// let net = NetworkTopology::paper_figure2(rhos);
/// let sessions: Vec<EbbProcess> =
///     rhos.iter().map(|&r| EbbProcess::new(r, 1.0, 1.7)).collect();
/// let b = RppsNetworkBounds::new(&net, sessions).unwrap();
/// // Bottleneck node carries all four sessions: g_1 = 0.2/0.9.
/// assert!((b.g_net(0) - 0.2 / 0.9).abs() < 1e-12);
/// let delay = b.delay_bound(0, TimeModel::Discrete);
/// assert!(delay.tail(50.0) < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct RppsNetworkBounds {
    sessions: Vec<EbbProcess>,
    g_net: Vec<f64>,
}

impl RppsNetworkBounds {
    /// Analyzes `topology` under the RPPS interpretation: the per-node
    /// weights are ignored and replaced by `φ_i^m = ρ_i` (use
    /// [`NetworkTopology::paper_figure2`] with `phis = rhos` to keep the
    /// description honest).
    ///
    /// Returns `None` if some node violates stability
    /// (`Σ_{i∈I(m)} ρ_i >= r^m`).
    pub fn new(topology: &NetworkTopology, sessions: Vec<EbbProcess>) -> Option<Self> {
        assert_eq!(sessions.len(), topology.num_sessions());
        let rhos: Vec<f64> = sessions.iter().map(|s| s.rho).collect();
        if !topology.is_stable_for(&rhos) {
            return None;
        }
        // g_i^m = ρ_i r^m / Σ_{j∈I(m)} ρ_j; bottleneck over the route.
        let mut g_net = vec![f64::INFINITY; sessions.len()];
        for m in 0..topology.num_nodes() {
            let ids = topology.sessions_at(m);
            if ids.is_empty() {
                continue;
            }
            let load: f64 = ids.iter().map(|&i| rhos[i]).sum();
            for &i in &ids {
                let g = rhos[i] / load * topology.node_rate(m);
                if g < g_net[i] {
                    g_net[i] = g;
                }
            }
        }
        debug_assert!(g_net
            .iter()
            .zip(&rhos)
            .all(|(&g, &rho)| g.is_finite() && g > rho));
        Some(Self { sessions, g_net })
    }

    /// The bottleneck guaranteed rate `g_i^{net}`.
    pub fn g_net(&self, i: usize) -> f64 {
        self.g_net[i]
    }

    /// Theorem 15: the network backlog bound for session `i`
    /// (decay `α_i`).
    pub fn backlog_bound(&self, i: usize, model: TimeModel) -> TailBound {
        DeltaTailBound::new(self.sessions[i], self.g_net[i]).bound(model)
    }

    /// Theorem 15: the end-to-end delay bound for session `i`
    /// (decay `α_i g_i^{net}`).
    pub fn delay_bound(&self, i: usize, model: TimeModel) -> TailBound {
        self.backlog_bound(i, model)
            .delay_from_backlog(self.g_net[i])
    }

    /// The paper's Eq. 66/67 discrete-time forms (what Figure 3 plots):
    /// `Λ_i/(1-e^{-α_i(g_i-ρ_i)})` with decay `α_i` (backlog) /
    /// `α_i g_i` (delay).
    pub fn paper_fig3_bounds(&self, i: usize) -> (TailBound, TailBound) {
        let q = self.backlog_bound(i, TimeModel::Discrete);
        let d = q.delay_from_backlog(self.g_net[i]);
        (q, d)
    }

    /// [`paper_fig3_bounds`](Self::paper_fig3_bounds) for every session,
    /// fanned out over the `gps_par` pool; results in session order.
    pub fn paper_fig3_bounds_all(&self) -> Vec<(TailBound, TailBound)> {
        let idx: Vec<usize> = (0..self.sessions.len()).collect();
        gps_par::Pool::from_env().map(&idx, |_, &i| self.paper_fig3_bounds(i))
    }

    /// [`backlog_bound`](Self::backlog_bound) and
    /// [`delay_bound`](Self::delay_bound) for every session under `model`
    /// (the continuous case runs one ξ evaluation per session), fanned out
    /// over the `gps_par` pool; results in session order.
    pub fn bounds_all(&self, model: TimeModel) -> Vec<(TailBound, TailBound)> {
        let idx: Vec<usize> = (0..self.sessions.len()).collect();
        gps_par::Pool::from_env().map(&idx, |_, &i| {
            (self.backlog_bound(i, model), self.delay_bound(i, model))
        })
    }

    /// Remark 3 / Figure 4: plug in any sharper bound on the rate-
    /// `g_i^{net}` single queue `δ_i(t)` (e.g. the LNT94 martingale bound
    /// for Markov-modulated sources). Returns `(backlog, delay)` bounds.
    pub fn with_delta_bound(&self, i: usize, delta_bound: TailBound) -> (TailBound, TailBound) {
        let delay = delta_bound.delay_from_backlog(self.g_net[i]);
        (delta_bound, delay)
    }

    /// Session count.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no sessions (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Set-1 scenario on the Figure-2 network.
    fn set1() -> (NetworkTopology, Vec<EbbProcess>) {
        let sessions = vec![
            EbbProcess::new(0.2, 1.0, 1.74),
            EbbProcess::new(0.25, 0.92, 1.76),
            EbbProcess::new(0.2, 0.84, 2.13),
            EbbProcess::new(0.25, 1.0, 1.62),
        ];
        let rhos = [0.2, 0.25, 0.2, 0.25];
        (NetworkTopology::paper_figure2(rhos), sessions)
    }

    #[test]
    fn bottleneck_is_node3() {
        let (net, sessions) = set1();
        let b = RppsNetworkBounds::new(&net, sessions).unwrap();
        // At node 2 (the shared one) total load .9: g1 = .2/.9 ≈ .2222;
        // at node 0 load .45: g1 = .4444. Bottleneck is node 2.
        assert!((b.g_net(0) - 0.2 / 0.9).abs() < 1e-12);
        assert!((b.g_net(1) - 0.25 / 0.9).abs() < 1e-12);
        assert!((b.g_net(2) - 0.2 / 0.9).abs() < 1e-12);
        assert!((b.g_net(3) - 0.25 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn eq66_67_closed_forms() {
        let (net, sessions) = set1();
        let b = RppsNetworkBounds::new(&net, sessions.clone()).unwrap();
        for (i, &s) in sessions.iter().enumerate() {
            let (q, d) = b.paper_fig3_bounds(i);
            let g = b.g_net(i);
            let want = s.lambda / (1.0 - (-s.alpha * (g - s.rho)).exp());
            assert!((q.prefactor - want).abs() < 1e-12, "session {i}");
            assert_eq!(q.decay, s.alpha);
            assert!((d.decay - s.alpha * g).abs() < 1e-12);
            assert_eq!(d.prefactor, q.prefactor);
        }
    }

    #[test]
    fn route_length_does_not_matter() {
        // Same sessions but session 0 takes a 3-node route whose extra
        // nodes are uncontended: identical bound (the paper's headline
        // RPPS property).
        let sessions = vec![
            EbbProcess::new(0.2, 1.0, 1.74),
            EbbProcess::new(0.25, 0.92, 1.76),
        ];
        let short = NetworkTopology::new(
            vec![1.0],
            vec![
                gps_core::SessionSpec::with_uniform_phi(vec![0], 0.2),
                gps_core::SessionSpec::with_uniform_phi(vec![0], 0.25),
            ],
        );
        let long = NetworkTopology::new(
            vec![1.0, 1.0, 1.0],
            vec![
                gps_core::SessionSpec::with_uniform_phi(vec![1, 0, 2], 0.2),
                gps_core::SessionSpec::with_uniform_phi(vec![0], 0.25),
            ],
        );
        let bs = RppsNetworkBounds::new(&short, sessions.clone()).unwrap();
        let bl = RppsNetworkBounds::new(&long, sessions).unwrap();
        assert!((bs.g_net(0) - bl.g_net(0)).abs() < 1e-12);
        let (q_s, d_s) = bs.paper_fig3_bounds(0);
        let (q_l, d_l) = bl.paper_fig3_bounds(0);
        assert!((q_s.prefactor - q_l.prefactor).abs() < 1e-12);
        assert!((d_s.decay - d_l.decay).abs() < 1e-12);
    }

    #[test]
    fn batch_helpers_match_per_session_calls() {
        let (net, sessions) = set1();
        let b = RppsNetworkBounds::new(&net, sessions).unwrap();
        let fig3 = b.paper_fig3_bounds_all();
        let cont = b.bounds_all(TimeModel::Continuous { xi: 1.0 });
        assert_eq!(fig3.len(), b.len());
        for i in 0..b.len() {
            assert_eq!(fig3[i], b.paper_fig3_bounds(i), "session {i}");
            let model = TimeModel::Continuous { xi: 1.0 };
            assert_eq!(cont[i].0, b.backlog_bound(i, model), "session {i}");
            assert_eq!(cont[i].1, b.delay_bound(i, model), "session {i}");
        }
    }

    #[test]
    fn unstable_network_rejected() {
        let rhos = [0.3, 0.3, 0.2, 0.25]; // node 2 load 1.05
        let net = NetworkTopology::paper_figure2(rhos);
        let sessions: Vec<EbbProcess> =
            rhos.iter().map(|&r| EbbProcess::new(r, 1.0, 1.0)).collect();
        assert!(RppsNetworkBounds::new(&net, sessions).is_none());
    }

    #[test]
    fn continuous_bound_weaker_than_discrete() {
        let (net, sessions) = set1();
        let b = RppsNetworkBounds::new(&net, sessions).unwrap();
        for i in 0..4 {
            let disc = b.backlog_bound(i, TimeModel::Discrete);
            let cont = b.backlog_bound(i, TimeModel::Continuous { xi: 1.0 });
            assert!(cont.prefactor >= disc.prefactor);
            assert_eq!(cont.decay, disc.decay);
        }
    }

    #[test]
    fn improved_bound_passthrough() {
        let (net, sessions) = set1();
        let b = RppsNetworkBounds::new(&net, sessions).unwrap();
        let sharp = TailBound::new(1.1, 6.0);
        let (q, d) = b.with_delta_bound(0, sharp);
        assert_eq!(q, sharp);
        assert!((d.decay - 6.0 * b.g_net(0)).abs() < 1e-12);
    }

    #[test]
    fn set2_decays_slower_than_set1() {
        // The paper's headline Figure 3 contrast: choosing ρ near the mean
        // rate collapses α and with it the delay decay.
        let (net1, s1) = set1();
        let rhos2 = [0.17, 0.22, 0.17, 0.22];
        let s2 = vec![
            EbbProcess::new(0.17, 1.0, 0.729),
            EbbProcess::new(0.22, 0.968, 0.672),
            EbbProcess::new(0.17, 0.929, 0.775),
            EbbProcess::new(0.22, 1.0, 0.655),
        ];
        let net2 = NetworkTopology::paper_figure2(rhos2);
        let b1 = RppsNetworkBounds::new(&net1, s1).unwrap();
        let b2 = RppsNetworkBounds::new(&net2, s2).unwrap();
        for i in 0..4 {
            let (_, d1) = b1.paper_fig3_bounds(i);
            let (_, d2) = b2.paper_fig3_bounds(i);
            assert!(
                d2.decay < d1.decay / 2.0,
                "session {i}: set2 delay decay {} should be much slower than set1 {}",
                d2.decay,
                d1.decay
            );
        }
    }

    #[test]
    fn paper_set2_guaranteed_rates() {
        // The Section 6.3 discussion: under Set 2, g1,g3 drop to ≈0.218
        // and g2,g4 rise to ≈0.282.
        let rhos2 = [0.17, 0.22, 0.17, 0.22];
        let s2: Vec<EbbProcess> = rhos2
            .iter()
            .map(|&r| EbbProcess::new(r, 1.0, 0.7))
            .collect();
        let net2 = NetworkTopology::paper_figure2(rhos2);
        let b2 = RppsNetworkBounds::new(&net2, s2).unwrap();
        assert!((b2.g_net(0) - 0.17 / 0.78).abs() < 1e-12);
        assert!((b2.g_net(0) - 0.218).abs() < 0.001);
        assert!((b2.g_net(1) - 0.282).abs() < 0.001);
    }
}
