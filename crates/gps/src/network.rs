//! Network topology descriptions: GPS nodes, sessions, and routes.
//!
//! Section 6 of the paper considers `M` GPS nodes of rates `r^m`; session
//! `i` traverses the node sequence `P(i)` and has a per-node weight
//! `φ_i^m`. This module is the plain data model shared by the analytical
//! network machinery (`gps-analysis`) and the simulator (`gps-sim`):
//! routes, per-node session sets `I(m)`, per-node assignments, and the
//! paper's Figure-2 example network as a ready-made constructor.

use crate::assignment::GpsAssignment;

/// Index of a node in a [`NetworkTopology`].
pub type NodeId = usize;

/// Index of a session in a [`NetworkTopology`].
pub type SessionId = usize;

/// A session's static description: its route and per-node GPS weights.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Nodes traversed, in order (`P(i)` in the paper). Must be nonempty
    /// and loop-free.
    pub route: Vec<NodeId>,
    /// GPS weight at each node of the route (`φ_i^{P(i,k)}`), same length
    /// as `route`.
    pub phis: Vec<f64>,
}

impl SessionSpec {
    /// Creates a session with a uniform weight at every node of its route.
    pub fn with_uniform_phi(route: Vec<NodeId>, phi: f64) -> Self {
        let phis = vec![phi; route.len()];
        Self { route, phis }
    }

    /// Position of `node` in the route, if the session visits it.
    pub fn position_of(&self, node: NodeId) -> Option<usize> {
        self.route.iter().position(|&n| n == node)
    }

    /// The weight this session uses at `node`.
    pub(crate) fn phi_at(&self, node: NodeId) -> Option<f64> {
        self.position_of(node).map(|k| self.phis[k])
    }
}

/// A network of GPS servers with fixed sessions and routes.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    node_rates: Vec<f64>,
    sessions: Vec<SessionSpec>,
}

impl NetworkTopology {
    /// Creates a topology from node service rates and session specs.
    ///
    /// # Panics
    ///
    /// Panics if any rate is non-positive, a route is empty or references a
    /// missing node, a route revisits a node, or weight vectors mismatch
    /// their routes.
    pub fn new(node_rates: Vec<f64>, sessions: Vec<SessionSpec>) -> Self {
        assert!(!node_rates.is_empty(), "need at least one node");
        assert!(
            node_rates.iter().all(|&r| r.is_finite() && r > 0.0),
            "node rates must be positive"
        );
        for (i, s) in sessions.iter().enumerate() {
            assert!(!s.route.is_empty(), "session {i} has an empty route");
            assert_eq!(
                s.route.len(),
                s.phis.len(),
                "session {i}: one phi per route node"
            );
            assert!(
                s.phis.iter().all(|&p| p.is_finite() && p > 0.0),
                "session {i}: weights must be positive"
            );
            let mut seen = vec![false; node_rates.len()];
            for &n in &s.route {
                assert!(n < node_rates.len(), "session {i} visits missing node {n}");
                assert!(!seen[n], "session {i} revisits node {n}");
                seen[n] = true;
            }
        }
        Self {
            node_rates,
            sessions,
        }
    }

    /// Number of nodes `M`.
    pub fn num_nodes(&self) -> usize {
        self.node_rates.len()
    }

    /// Number of sessions `N`.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Service rate `r^m`.
    pub fn node_rate(&self, m: NodeId) -> f64 {
        self.node_rates[m]
    }

    /// Session spec.
    pub fn session(&self, i: SessionId) -> &SessionSpec {
        &self.sessions[i]
    }

    /// All sessions.
    pub fn sessions(&self) -> &[SessionSpec] {
        &self.sessions
    }

    /// The set `I(m)`: sessions visiting node `m`, ascending.
    pub fn sessions_at(&self, m: NodeId) -> Vec<SessionId> {
        (0..self.sessions.len())
            .filter(|&i| self.sessions[i].position_of(m).is_some())
            .collect()
    }

    /// The GPS assignment at node `m` over `I(m)` (in the order returned by
    /// [`Self::sessions_at`]). Returns the assignment together with that
    /// session ordering. `None` if no session visits `m`.
    pub fn assignment_at(&self, m: NodeId) -> Option<(GpsAssignment, Vec<SessionId>)> {
        let ids = self.sessions_at(m);
        if ids.is_empty() {
            return None;
        }
        let phis: Vec<f64> = ids
            .iter()
            .map(|&i| self.sessions[i].phi_at(m).expect("session visits node"))
            .collect();
        Some((GpsAssignment::new(phis, self.node_rates[m]), ids))
    }

    /// Per-node utilization `Σ_{i ∈ I(m)} ρ_i / r^m` for the given session
    /// rates; the network satisfies the paper's stability hypothesis when
    /// every entry is `< 1`.
    pub fn utilizations(&self, rhos: &[f64]) -> Vec<f64> {
        assert_eq!(rhos.len(), self.num_sessions());
        (0..self.num_nodes())
            .map(|m| {
                let load: f64 = self.sessions_at(m).iter().map(|&i| rhos[i]).sum();
                load / self.node_rates[m]
            })
            .collect()
    }

    /// True when `Σ_{i∈I(m)} ρ_i < r^m` at every node.
    pub fn is_stable_for(&self, rhos: &[f64]) -> bool {
        self.utilizations(rhos).iter().all(|&u| u < 1.0)
    }

    /// The paper's Figure-2 example: three unit-rate nodes in a tree;
    /// sessions 1,2 enter at node 0, sessions 3,4 at node 1, and all four
    /// congregate at node 2. Weights are per-session constants (RPPS passes
    /// `φ_i = ρ_i`).
    pub fn paper_figure2(phis: [f64; 4]) -> Self {
        let mk = |route: Vec<NodeId>, phi: f64| SessionSpec::with_uniform_phi(route, phi);
        NetworkTopology::new(
            vec![1.0, 1.0, 1.0],
            vec![
                mk(vec![0, 2], phis[0]),
                mk(vec![0, 2], phis[1]),
                mk(vec![1, 2], phis[2]),
                mk(vec![1, 2], phis[3]),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_structure() {
        let net = NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]);
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.num_sessions(), 4);
        assert_eq!(net.sessions_at(0), vec![0, 1]);
        assert_eq!(net.sessions_at(1), vec![2, 3]);
        assert_eq!(net.sessions_at(2), vec![0, 1, 2, 3]);
    }

    #[test]
    fn figure2_rpps_guaranteed_rates() {
        let rhos = [0.2, 0.25, 0.2, 0.25];
        let net = NetworkTopology::paper_figure2(rhos);
        let (a2, ids) = net.assignment_at(2).unwrap();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // Bottleneck rates: g1 = 0.2/0.9 at node 2.
        assert!((a2.guaranteed_rate(0) - 0.2 / 0.9).abs() < 1e-12);
        let (a0, ids0) = net.assignment_at(0).unwrap();
        assert_eq!(ids0, vec![0, 1]);
        // At node 0 only two sessions: g1 = 0.2/0.45 — larger.
        assert!((a0.guaranteed_rate(0) - 0.2 / 0.45).abs() < 1e-12);
    }

    #[test]
    fn utilizations_and_stability() {
        let rhos = [0.2, 0.25, 0.2, 0.25];
        let net = NetworkTopology::paper_figure2(rhos);
        let u = net.utilizations(&rhos);
        assert!((u[0] - 0.45).abs() < 1e-12);
        assert!((u[1] - 0.45).abs() < 1e-12);
        assert!((u[2] - 0.9).abs() < 1e-12);
        assert!(net.is_stable_for(&rhos));
        assert!(!net.is_stable_for(&[0.3, 0.3, 0.2, 0.25]));
    }

    #[test]
    fn session_spec_queries() {
        let s = SessionSpec::with_uniform_phi(vec![2, 0, 1], 0.5);
        assert_eq!(s.position_of(0), Some(1));
        assert_eq!(s.position_of(3), None);
        assert_eq!(s.phi_at(1), Some(0.5));
        assert_eq!(s.phi_at(9), None);
    }

    #[test]
    #[should_panic(expected = "revisits node")]
    fn rejects_looping_route() {
        let _ = NetworkTopology::new(
            vec![1.0, 1.0],
            vec![SessionSpec::with_uniform_phi(vec![0, 1, 0], 1.0)],
        );
    }

    #[test]
    #[should_panic(expected = "visits missing node")]
    fn rejects_missing_node() {
        let _ = NetworkTopology::new(
            vec![1.0],
            vec![SessionSpec::with_uniform_phi(vec![0, 1], 1.0)],
        );
    }

    #[test]
    fn assignment_at_empty_node() {
        let net = NetworkTopology::new(
            vec![1.0, 1.0],
            vec![SessionSpec::with_uniform_phi(vec![0], 1.0)],
        );
        assert!(net.assignment_at(1).is_none());
    }
}
