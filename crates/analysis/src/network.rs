//! CRST GPS networks: detection, class-recursive bound propagation, and
//! the Theorem-13 stability argument.
//!
//! # CRST detection
//!
//! At each node `m` the local feasible partition `H^m` orders the sessions
//! of `I(m)` into classes by their `ρ_i/φ_i^m` ratios. A collection of
//! per-node assignments is **Consistent Relative Session Treatment**
//! (CRST) when one *global* partition `H` is consistent with every local
//! one. Build the *strict-preference digraph*: an edge `j → i` whenever
//! `class_m(j) < class_m(i)` at some shared node `m`. If that digraph is
//! acyclic, layering it by longest path yields a global partition in which
//! `class_m(j) < class_m(i)` always implies `global(j) < global(i)` —
//! consistency in the paper's sense (this matches the paper's
//! Remark after Theorem 13: sessions that "impede" each other at
//! different nodes are still CRST as long as they share a partition class
//! wherever they meet). A cycle means no consistent global partition
//! exists.
//!
//! # Bound propagation (Theorem 13)
//!
//! Sessions are processed in global-class order. For session `i`, walk its
//! route; at each node apply the Theorem-11/12 machinery over the sessions
//! of that node, using each lower-class session's *already-computed*
//! E.B.B. characterization at that node (its source characterization at
//! its entry node, the previous hop's output E.B.B. downstream). By
//! construction of the global layering, every session in a strictly lower
//! local class has a strictly lower global class, so the recursion is
//! well-founded — including on cyclic topologies. Every per-node bound is
//! a finite-prefactor E.B. bound, which proves the network stable.
//!
//! Within a network, flows sharing a node are **not** independent (they
//! were shaped by common queues upstream), so propagation defaults to the
//! Hölder (Theorem 12) combination; `independent: true` switches to
//! Theorem 11 for entry-node comparisons and what-if studies.

use crate::e2e::e2e_delay;
use crate::partition_bounds::Theorem11;
use crate::single_node::SessionBounds;
use gps_core::{FeasiblePartition, NetworkTopology};
use gps_ebb::{EbbProcess, TailBound, TimeModel};

/// Per-session inputs to the network analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSession {
    /// E.B.B. characterization of the traffic *entering the network*.
    pub source: EbbProcess,
}

/// Why a network cannot be analyzed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrstError {
    /// `Σ_{i∈I(m)} ρ_i >= r^m` at the given node.
    Unstable { node: usize },
    /// The strict-preference digraph has a cycle: no consistent global
    /// partition exists (the assignment is not CRST).
    NotCrst,
}

/// The CRST analysis of a GPS network.
#[derive(Debug, Clone)]
pub struct CrstAnalysis {
    topology: NetworkTopology,
    sources: Vec<EbbProcess>,
    model: TimeModel,
    /// Combine per-node δ's with Chernoff (`true`, Theorem 11) or Hölder
    /// (`false`, Theorem 12 — the rigorous default inside a network).
    pub independent: bool,
    /// Fraction of each per-node `θ_sup` used when propagating output
    /// characterizations (trade prefactor against decay; 0.5 default).
    pub theta_fraction: f64,
    global_class: Vec<usize>,
    num_classes: usize,
}

/// Results of propagating bounds through the network.
#[derive(Debug, Clone)]
pub struct NetworkAnalysisResult {
    /// `per_node[i]` = (node id, bounds at that node) along session `i`'s
    /// route.
    pub per_node: Vec<Vec<(usize, SessionBounds)>>,
}

impl NetworkAnalysisResult {
    /// Evaluates the end-to-end delay tail bound for session `i` at
    /// delay `d`, by combining its per-node delay bounds.
    pub fn e2e_delay_tail(&self, i: usize, d: f64) -> f64 {
        let bounds: Vec<TailBound> = self.per_node[i].iter().map(|(_, b)| b.delay).collect();
        e2e_delay(&bounds, d)
    }

    /// The session's output E.B.B. characterization as it leaves the
    /// network.
    pub fn egress(&self, i: usize) -> EbbProcess {
        self.per_node[i]
            .last()
            .expect("routes are nonempty")
            .1
            .output
    }
}

impl CrstAnalysis {
    /// Builds the analysis: checks stability, computes per-node feasible
    /// partitions, and layers the strict-preference digraph.
    pub fn new(
        topology: NetworkTopology,
        sessions: Vec<NetworkSession>,
        model: TimeModel,
    ) -> Result<Self, CrstError> {
        assert_eq!(sessions.len(), topology.num_sessions());
        let sources: Vec<EbbProcess> = sessions.iter().map(|s| s.source).collect();
        let rhos: Vec<f64> = sources.iter().map(|s| s.rho).collect();
        for (m, &u) in topology.utilizations(&rhos).iter().enumerate() {
            if u >= 1.0 {
                return Err(CrstError::Unstable { node: m });
            }
        }

        // Strict-preference digraph over sessions.
        let n = sources.len();
        let mut edges: Vec<Vec<bool>> = vec![vec![false; n]; n];
        for m in 0..topology.num_nodes() {
            if let Some((assignment, ids)) = topology.assignment_at(m) {
                let local_rhos: Vec<f64> = ids.iter().map(|&i| rhos[i]).collect();
                let part = FeasiblePartition::compute(&local_rhos, &assignment)
                    .expect("per-node stability was checked");
                for (a, &i) in ids.iter().enumerate() {
                    for (b, &j) in ids.iter().enumerate() {
                        if part.class_of(a) < part.class_of(b) {
                            edges[i][j] = true;
                        }
                    }
                }
            }
        }

        // Longest-path layering; cycle detection via DFS colors.
        let mut global_class = vec![usize::MAX; n];
        let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
        fn depth(
            v: usize,
            edges: &[Vec<bool>],
            color: &mut [u8],
            out: &mut [usize],
        ) -> Result<usize, CrstError> {
            if color[v] == 1 {
                return Err(CrstError::NotCrst);
            }
            if color[v] == 2 {
                return Ok(out[v]);
            }
            color[v] = 1;
            let mut d = 0;
            for u in 0..edges.len() {
                // Edge u -> v means u is in a strictly lower class: v's
                // depth exceeds u's.
                if edges[u][v] {
                    d = d.max(depth(u, edges, color, out)? + 1);
                }
            }
            color[v] = 2;
            out[v] = d;
            Ok(d)
        }
        let mut num_classes = 0;
        for v in 0..n {
            let d = depth(v, &edges, &mut color, &mut global_class)?;
            num_classes = num_classes.max(d + 1);
        }

        Ok(Self {
            topology,
            sources,
            model,
            independent: false,
            theta_fraction: 0.5,
            global_class,
            num_classes,
        })
    }

    /// The global CRST partition: class index per session.
    pub fn global_classes(&self) -> &[usize] {
        &self.global_class
    }

    /// Number of global classes `L`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Propagates bounds through the network (the constructive content of
    /// Theorem 13). Every returned bound has a finite prefactor and a
    /// positive decay — the network is stable.
    pub fn analyze(&self) -> NetworkAnalysisResult {
        let n = self.sources.len();
        // arrival_at[i][k] = E.B.B. of session i entering hop k of its
        // route; filled as we go.
        let mut per_node: Vec<Vec<(usize, SessionBounds)>> = vec![Vec::new(); n];
        // Current E.B.B. at each node for every session that has been
        // propagated (indexed [session][position-in-route]).
        let mut ebb_at: Vec<Vec<Option<EbbProcess>>> = (0..n)
            .map(|i| {
                let mut v = vec![None; self.topology.session(i).route.len()];
                v[0] = Some(self.sources[i]);
                v
            })
            .collect();

        // Sessions in global-class order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| self.global_class[i]);

        for &i in &order {
            let route = self.topology.session(i).route.clone();
            for (hop, &m) in route.iter().enumerate() {
                let arrival = ebb_at[i][hop].expect("previous hop filled");
                let bounds = self.node_bounds(m, i, arrival, &ebb_at);
                per_node[i].push((m, bounds));
                if hop + 1 < route.len() {
                    ebb_at[i][hop + 1] = Some(bounds.output);
                }
            }
        }
        NetworkAnalysisResult { per_node }
    }

    /// Computes session `i`'s bounds at node `m` given its arrival
    /// characterization there, using whatever lower-class session
    /// characterizations are already available.
    fn node_bounds(
        &self,
        m: usize,
        i: usize,
        arrival: EbbProcess,
        ebb_at: &[Vec<Option<EbbProcess>>],
    ) -> SessionBounds {
        let (assignment, ids) = self
            .topology
            .assignment_at(m)
            .expect("session routes through node");
        // Build the local session list with current characterizations.
        // Lower-global-class sessions are guaranteed to be filled at this
        // node; same/higher classes may not be, but Theorem 11 ignores
        // them — pass a placeholder with the correct ρ (only ρ enters the
        // partition computation, and only lower classes enter the bound).
        let local: Vec<EbbProcess> = ids
            .iter()
            .map(|&j| {
                if j == i {
                    arrival
                } else {
                    let hop = self.topology.session(j).position_of(m).expect("in I(m)");
                    ebb_at[j][hop].unwrap_or(EbbProcess::new(self.sources[j].rho, 1.0, 1.0))
                }
            })
            .collect();
        let local_i = ids.iter().position(|&j| j == i).expect("i in I(m)");
        let t11 =
            Theorem11::new(local, assignment, self.model).expect("node stability was checked");

        // Well-foundedness guard: everything Theorem 11 will actually use
        // (the lower local classes) must have been propagated already.
        debug_assert!(t11
            .partition()
            .lower_classes(t11.partition().class_of(local_i))
            .iter()
            .all(|&a| {
                let j = ids[a];
                let hop = self.topology.session(j).position_of(m).unwrap();
                ebb_at[j][hop].is_some() || j == i
            }));

        let sup = if self.independent {
            t11.theta_sup(local_i)
        } else {
            t11.theta_sup_dependent(local_i)
        };
        let theta = sup * self.theta_fraction.clamp(1e-6, 1.0 - 1e-9);
        let b = if self.independent {
            t11.bounds_at(local_i, theta)
        } else {
            t11.bounds_at_dependent(local_i, theta, None)
        };
        b.expect("theta chosen inside the admissible range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::SessionSpec;

    fn fig2_sessions() -> Vec<NetworkSession> {
        [
            EbbProcess::new(0.2, 1.0, 1.74),
            EbbProcess::new(0.25, 0.92, 1.76),
            EbbProcess::new(0.2, 0.84, 2.13),
            EbbProcess::new(0.25, 1.0, 1.62),
        ]
        .into_iter()
        .map(|source| NetworkSession { source })
        .collect()
    }

    #[test]
    fn rpps_network_is_single_class_crst() {
        let net = NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]);
        let crst = CrstAnalysis::new(net, fig2_sessions(), TimeModel::Discrete).unwrap();
        assert_eq!(crst.num_classes(), 1);
        assert!(crst.global_classes().iter().all(|&c| c == 0));
    }

    #[test]
    fn propagation_produces_finite_bounds_everywhere() {
        let net = NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]);
        let crst = CrstAnalysis::new(net, fig2_sessions(), TimeModel::Discrete).unwrap();
        let res = crst.analyze();
        for i in 0..4 {
            assert_eq!(res.per_node[i].len(), 2, "two hops each");
            for (node, b) in &res.per_node[i] {
                assert!(b.backlog.prefactor.is_finite(), "session {i} node {node}");
                assert!(b.backlog.decay > 0.0);
                assert!(b.delay.decay > 0.0);
            }
            // Theorem 13 (stability): e2e tail vanishes for large d.
            assert!(res.e2e_delay_tail(i, 500.0) < 1e-6, "session {i}");
            // Output keeps the input rate.
            assert_eq!(res.egress(i).rho, fig2_sessions()[i].source.rho);
        }
    }

    #[test]
    fn unstable_node_reported() {
        let net = NetworkTopology::paper_figure2([0.3, 0.3, 0.2, 0.25]);
        let sessions: Vec<NetworkSession> = [0.3, 0.3, 0.2, 0.25]
            .into_iter()
            .map(|r| NetworkSession {
                source: EbbProcess::new(r, 1.0, 1.0),
            })
            .collect();
        match CrstAnalysis::new(net, sessions, TimeModel::Discrete) {
            Err(CrstError::Unstable { node }) => assert_eq!(node, 2),
            other => panic!("expected Unstable, got {other:?}"),
        }
    }

    /// Two sessions that impede each other at different nodes in opposite
    /// directions: not CRST (under the strict-cycle criterion).
    #[test]
    fn conflicting_preferences_rejected() {
        // Node 0: session 0 heavily weighted (low class), session 1 high
        // ratio (higher class). Node 1: reversed.
        let topo = NetworkTopology::new(
            vec![1.0, 1.0],
            vec![
                SessionSpec {
                    route: vec![0, 1],
                    phis: vec![10.0, 0.4],
                },
                SessionSpec {
                    route: vec![0, 1],
                    phis: vec![0.4, 10.0],
                },
            ],
        );
        let sessions = vec![
            NetworkSession {
                source: EbbProcess::new(0.4, 1.0, 1.0),
            },
            NetworkSession {
                source: EbbProcess::new(0.4, 1.0, 1.0),
            },
        ];
        // ratios at node 0: s0: .4/10 = .04; s1: .4/.4 = 1. Thresholds:
        // (1)/10.4 = .096: s0 in H1, s1 not (1 >= .096) -> s0 ≺ s1.
        // Node 1 mirrored: s1 ≺ s0. Cycle -> NotCrst.
        match CrstAnalysis::new(topo, sessions, TimeModel::Discrete) {
            Err(CrstError::NotCrst) => {}
            other => panic!("expected NotCrst, got {other:?}"),
        }
    }

    /// A genuinely two-class network: a priority-ish assignment at one
    /// node, neutral elsewhere.
    #[test]
    fn two_class_network_propagates_in_order() {
        let topo = NetworkTopology::new(
            vec![1.0, 1.0],
            vec![
                SessionSpec {
                    route: vec![0, 1],
                    phis: vec![2.0, 2.0],
                },
                SessionSpec {
                    route: vec![0, 1],
                    phis: vec![0.4, 0.4],
                },
            ],
        );
        let sessions = vec![
            NetworkSession {
                source: EbbProcess::new(0.3, 1.0, 2.0),
            },
            NetworkSession {
                source: EbbProcess::new(0.4, 1.0, 2.0),
            },
        ];
        let mut crst = CrstAnalysis::new(topo, sessions, TimeModel::Discrete).unwrap();
        // Spend most of the decay budget at each hop: the default 0.5
        // halves the usable θ every hop, which is very loose on
        // multi-class routes.
        crst.theta_fraction = 0.9;
        assert_eq!(crst.num_classes(), 2);
        assert_eq!(crst.global_classes()[0], 0);
        assert_eq!(crst.global_classes()[1], 1);
        let res = crst.analyze();
        // Both sessions get finite bounds; the H2 session's prefactor at
        // the shared nodes is (weakly) larger.
        for i in 0..2 {
            assert!(res.e2e_delay_tail(i, 300.0) < 1e-3, "session {i}");
        }
    }

    #[test]
    fn independent_flag_tightens_entry_bounds() {
        let net = NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]);
        let mut crst = CrstAnalysis::new(net, fig2_sessions(), TimeModel::Discrete).unwrap();
        crst.independent = false;
        let dep = crst.analyze();
        crst.independent = true;
        let ind = crst.analyze();
        // With a single global class (RPPS), every per-node bound is a
        // single-term Chernoff in both modes: identical results. This
        // pins down that the Hölder path degenerates correctly.
        for i in 0..4 {
            for (a, b) in dep.per_node[i].iter().zip(&ind.per_node[i]) {
                assert!((a.1.backlog.prefactor - b.1.backlog.prefactor).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cyclic_topology_still_analyzable() {
        // Ring of 3 nodes; three sessions each entering at a different
        // node and traversing two hops. RPPS weights: single class, CRST.
        let topo = NetworkTopology::new(
            vec![1.0, 1.0, 1.0],
            vec![
                SessionSpec::with_uniform_phi(vec![0, 1], 0.3),
                SessionSpec::with_uniform_phi(vec![1, 2], 0.3),
                SessionSpec::with_uniform_phi(vec![2, 0], 0.3),
            ],
        );
        let sessions: Vec<NetworkSession> = (0..3)
            .map(|_| NetworkSession {
                source: EbbProcess::new(0.3, 1.0, 1.5),
            })
            .collect();
        let crst = CrstAnalysis::new(topo, sessions, TimeModel::Discrete).unwrap();
        let res = crst.analyze();
        for i in 0..3 {
            assert!(res.e2e_delay_tail(i, 400.0) < 1e-4, "session {i}");
        }
    }
}
