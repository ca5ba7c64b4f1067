//! Multi-node slotted fluid GPS network simulation.
//!
//! Each node runs a [`crate::slotted::SlottedGps`] over the sessions that
//! visit it. Hops are store-and-forward at slot granularity: fluid served
//! at node `P(i,k)` in slot `t` arrives at node `P(i,k+1)` at the start
//! of slot `t+1` (links are infinitely fast but the slotting imposes a
//! one-slot forwarding boundary; this is the natural discretization of
//! the paper's continuous network and is accounted for when comparing
//! end-to-end delays against bounds).
//!
//! Measured per session:
//! * network backlog `Q_i^{net}(t)` — everything queued anywhere in the
//!   network (including fluid in flight between nodes at a slot
//!   boundary);
//! * end-to-end clearing delay `D_i^{net}(t)` — slots until all
//!   session-`i` traffic that entered the network by slot `t` has left
//!   the egress node.

use crate::slotted::{SlotOutput, SlottedGps};
use gps_core::{NetworkTopology, NodeId};
use std::collections::VecDeque;

/// Slotted simulation of a GPS network.
#[derive(Debug, Clone)]
pub struct SlottedGpsNetwork {
    topology: NetworkTopology,
    /// One server per node, over the local session list.
    servers: Vec<Option<SlottedGps>>,
    /// Per node: the global session ids of its local sessions.
    local_ids: Vec<Vec<usize>>,
    /// Fluid forwarded in the previous slot, to be delivered this slot:
    /// `inflight[i]` = (next node position, amount).
    inflight: Vec<Vec<(usize, f64)>>,
    slot: u64,
    cum_entered: Vec<f64>,
    cum_left: Vec<f64>,
    pending: Vec<VecDeque<(u64, f64)>>,
    /// Slots already flushed to the global `sim.network.slots` counter by
    /// [`flush_slot_metrics`](Self::flush_slot_metrics). Batching the
    /// tally (instead of one shared atomic inc per step) keeps parallel
    /// campaign workers from ping-ponging the counter's cache line.
    slots_flushed: u64,
    /// Per node, per local session: this slot's arrivals (scratch).
    node_arrivals: Vec<Vec<f64>>,
    /// Per-node server output buffer (scratch).
    node_out: SlotOutput,
}

/// Result of one network slot.
///
/// Doubles as a reusable buffer for
/// [`SlottedGpsNetwork::step_into`], mirroring
/// [`SlotOutput`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkSlotOutput {
    /// Per-session network backlog at the end of the slot.
    pub network_backlogs: Vec<f64>,
    /// `(session, entry_slot, delay_slots)` cleared this slot.
    pub cleared: Vec<(usize, u64, u64)>,
    /// Per-session traffic that left the network this slot.
    pub egress: Vec<f64>,
}

impl NetworkSlotOutput {
    /// An empty output buffer, ready to pass to
    /// [`SlottedGpsNetwork::step_into`].
    pub fn new() -> Self {
        Self::default()
    }
}

impl SlottedGpsNetwork {
    /// Builds the simulator from a topology (weights and rates are taken
    /// from it; node capacity per slot = node rate).
    pub fn new(topology: NetworkTopology) -> Self {
        let n = topology.num_sessions();
        let m = topology.num_nodes();
        let mut servers = Vec::with_capacity(m);
        let mut local_ids = Vec::with_capacity(m);
        for node in 0..m {
            match topology.assignment_at(node) {
                Some((assignment, ids)) => {
                    servers.push(Some(SlottedGps::new(
                        assignment.phis().to_vec(),
                        assignment.rate(),
                    )));
                    local_ids.push(ids);
                }
                None => {
                    servers.push(None);
                    local_ids.push(Vec::new());
                }
            }
        }
        let node_arrivals = local_ids
            .iter()
            .map(|ids| Vec::with_capacity(ids.len()))
            .collect();
        Self {
            topology,
            servers,
            local_ids,
            inflight: vec![Vec::new(); n],
            slot: 0,
            cum_entered: vec![0.0; n],
            cum_left: vec![0.0; n],
            pending: vec![VecDeque::new(); n],
            slots_flushed: 0,
            node_arrivals,
            node_out: SlotOutput::new(),
        }
    }

    /// Current slot.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Resets the simulator to its just-constructed state (slot 0, empty
    /// queues everywhere, nothing in flight) without releasing buffers,
    /// so campaign workers can reuse one network across replications.
    /// The flushed-slot watermark also resets: a reset simulator is
    /// observationally identical to a freshly constructed one, including
    /// its future [`flush_slot_metrics`](Self::flush_slot_metrics)
    /// contributions.
    pub fn reset(&mut self) {
        for server in self.servers.iter_mut().flatten() {
            server.reset();
        }
        for f in &mut self.inflight {
            f.clear();
        }
        self.slot = 0;
        self.slots_flushed = 0;
        self.cum_entered.fill(0.0);
        self.cum_left.fill(0.0);
        for p in &mut self.pending {
            p.clear();
        }
    }

    /// True if this simulator was built over an identical topology, i.e.
    /// a [`reset`](Self::reset) makes it interchangeable with
    /// `SlottedGpsNetwork::new(topology.clone())`.
    pub fn same_topology(&self, topology: &NetworkTopology) -> bool {
        self.topology == *topology
    }

    /// Adds the slots stepped since the last flush (or construction/
    /// reset) to the global `sim.network.slots` counter. The campaign
    /// runner calls this once per replication — batching the tally out of
    /// the per-slot hot path — so the counter's final value is the same
    /// as when every step incremented it individually.
    pub fn flush_slot_metrics(&mut self) {
        let pending = self.slot - self.slots_flushed;
        if pending > 0 {
            gps_obs::metrics().counter("sim.network.slots").add(pending);
            self.slots_flushed = self.slot;
        }
    }

    /// Network backlog of session `i` right now: queued at nodes plus in
    /// flight.
    pub fn network_backlog(&self, i: usize) -> f64 {
        self.cum_entered[i] - self.cum_left[i]
    }

    /// Per-node backlog of session `i` (0 where the session does not
    /// appear).
    pub fn node_backlog(&self, i: usize, node: NodeId) -> f64 {
        match (
            &self.servers[node],
            self.local_ids[node].iter().position(|&j| j == i),
        ) {
            (Some(srv), Some(local)) => srv.backlog(local),
            _ => 0.0,
        }
    }

    /// Advances one slot. `source_arrivals[i]` is the fresh traffic
    /// entering session `i`'s first node this slot.
    ///
    /// Thin allocating wrapper over [`step_into`](Self::step_into); hot
    /// loops should hold a [`NetworkSlotOutput`] and call `step_into`.
    pub fn step(&mut self, source_arrivals: &[f64]) -> NetworkSlotOutput {
        let mut out = NetworkSlotOutput::new();
        self.step_into(source_arrivals, &mut out);
        out
    }

    /// Advances one slot, writing backlogs, cleared watermarks, and egress
    /// into `out` (previous contents are discarded). Reuses `out`'s
    /// buffers and the simulator's per-node scratch, so steady-state slots
    /// perform no heap allocation.
    pub fn step_into(&mut self, source_arrivals: &[f64], out: &mut NetworkSlotOutput) {
        let n = self.topology.num_sessions();
        assert_eq!(source_arrivals.len(), n);
        // Per node, per local session: this slot's arrivals.
        for (ids, arr) in self.local_ids.iter().zip(&mut self.node_arrivals) {
            arr.clear();
            arr.resize(ids.len(), 0.0);
        }

        // Fresh traffic at entry nodes.
        for i in 0..n {
            let a = source_arrivals[i];
            assert!(a >= 0.0 && a.is_finite());
            self.cum_entered[i] += a;
            self.pending[i].push_back((self.slot, self.cum_entered[i]));
            if a > 0.0 {
                let entry = self.topology.session(i).route[0];
                let local = self.local_ids[entry]
                    .iter()
                    .position(|&j| j == i)
                    .expect("session at entry node");
                self.node_arrivals[entry][local] += a;
            }
        }
        // Deliver last slot's forwarded fluid.
        for i in 0..n {
            for &(hop, amount) in &self.inflight[i] {
                let node = self.topology.session(i).route[hop];
                let local = self.local_ids[node]
                    .iter()
                    .position(|&j| j == i)
                    .expect("session on route");
                self.node_arrivals[node][local] += amount;
            }
            self.inflight[i].clear();
        }

        // Serve every node.
        out.egress.clear();
        out.egress.resize(n, 0.0);
        for node in 0..self.topology.num_nodes() {
            let Some(server) = self.servers[node].as_mut() else {
                continue;
            };
            server.step_into(&self.node_arrivals[node], &mut self.node_out);
            for (local, &served) in self.node_out.services.iter().enumerate() {
                if served <= 0.0 {
                    continue;
                }
                let i = self.local_ids[node][local];
                let spec = self.topology.session(i);
                let hop = spec.position_of(node).expect("on route");
                if hop + 1 < spec.route.len() {
                    self.inflight[i].push((hop + 1, served));
                } else {
                    out.egress[i] += served;
                }
            }
        }

        // Egress accounting and end-to-end clearing delays.
        out.cleared.clear();
        for i in 0..n {
            self.cum_left[i] += out.egress[i];
            let tol = 1e-9 * self.cum_entered[i].max(1.0);
            while let Some(&(t0, target)) = self.pending[i].front() {
                if self.cum_left[i] + tol >= target {
                    out.cleared.push((i, t0, self.slot - t0));
                    self.pending[i].pop_front();
                } else {
                    break;
                }
            }
        }
        self.slot += 1;
        out.network_backlogs.clear();
        out.network_backlogs
            .extend((0..n).map(|i| self.network_backlog(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::SessionSpec;

    fn line_network() -> NetworkTopology {
        NetworkTopology::new(
            vec![1.0, 1.0],
            vec![
                SessionSpec::with_uniform_phi(vec![0, 1], 1.0),
                SessionSpec::with_uniform_phi(vec![1], 1.0),
            ],
        )
    }

    #[test]
    fn traffic_flows_through_hops() {
        let mut net = SlottedGpsNetwork::new(line_network());
        // One unit for session 0 at slot 0; nothing else ever.
        let out0 = net.step(&[1.0, 0.0]);
        assert_eq!(out0.egress, vec![0.0, 0.0]);
        assert!((net.network_backlog(0) - 0.0).abs() < 1e-12 || net.network_backlog(0) > 0.0);
        // Slot 1: the forwarded unit is served at node 1 and leaves.
        let out1 = net.step(&[0.0, 0.0]);
        assert!((out1.egress[0] - 1.0).abs() < 1e-12);
        // Entered at slot 0, left at slot 1 -> delay 1.
        assert!(out1.cleared.contains(&(0, 0, 1)));
        assert!((net.network_backlog(0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn network_backlog_counts_inflight() {
        let mut net = SlottedGpsNetwork::new(line_network());
        let out = net.step(&[1.0, 0.0]);
        // Served at node 0, in flight to node 1: still in the network.
        assert!((out.network_backlogs[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contention_at_shared_node() {
        let mut net = SlottedGpsNetwork::new(line_network());
        net.step(&[1.0, 0.0]);
        // Slot 1: session 0's unit reaches node 1 exactly when session 1
        // also sends 1.0: equal weights, each gets 0.5.
        let out = net.step(&[0.0, 1.0]);
        assert!((out.egress[0] - 0.5).abs() < 1e-12);
        assert!((out.egress[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn figure2_conservation_and_stability() {
        let topo = NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]);
        let mut net = SlottedGpsNetwork::new(topo);
        // Deterministic on/off-ish pattern under the stability limit.
        let mut total_in = [0.0f64; 4];
        for t in 0..400u64 {
            let arr = [
                if t % 5 == 0 { 0.9 } else { 0.0 },
                if t % 4 == 1 { 0.8 } else { 0.0 },
                if t % 5 == 2 { 0.7 } else { 0.0 },
                if t % 4 == 3 { 0.9 } else { 0.0 },
            ];
            for i in 0..4 {
                total_in[i] += arr[i];
            }
            net.step(&arr);
        }
        // Drain.
        for _ in 0..100 {
            net.step(&[0.0; 4]);
        }
        for i in 0..4 {
            assert!(
                net.network_backlog(i) < 1e-6,
                "session {i} should drain, backlog {}",
                net.network_backlog(i)
            );
        }
    }

    #[test]
    fn clearing_delay_includes_both_hops() {
        // Session 0's unit reaches node 1 in slot 1, exactly when session
        // 1 injects its own unit there: they share 0.5/0.5.
        let mut net = SlottedGpsNetwork::new(line_network());
        net.step(&[1.0, 0.0]);
        net.step(&[0.0, 1.0]);
        let mut worst = 0;
        for _ in 0..50 {
            let out = net.step(&[0.0, 0.0]);
            for (i, _, d) in out.cleared {
                if i == 0 {
                    worst = worst.max(d);
                }
            }
        }
        // Session 0's unit: slot 0 at node 0 (full service), arrives node
        // 1 at slot 1 where it shares with session 1's unit: 0.5 each ->
        // leaves over slots 1-2: cleared at slot 2: delay 2.
        assert_eq!(worst, 2);
    }

    #[test]
    fn reset_is_bit_identical_to_fresh_network() {
        let topo = NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]);
        let pattern = |t: u64| {
            [
                if t.is_multiple_of(5) { 0.9 } else { 0.0 },
                if t % 4 == 1 { 0.8 } else { 0.0 },
                if t % 5 == 2 { 0.7 } else { 0.0 },
                if t % 4 == 3 { 0.9 } else { 0.0 },
            ]
        };
        let mut reused = SlottedGpsNetwork::new(topo.clone());
        for t in 0..37 {
            reused.step(&pattern(t));
        }
        reused.reset();
        assert_eq!(reused.slot(), 0);
        let mut fresh = SlottedGpsNetwork::new(topo.clone());
        for t in 0..53 {
            let a = reused.step(&pattern(t));
            let b = fresh.step(&pattern(t));
            assert_eq!(a, b, "slot {t}: reset network diverges from fresh");
        }
        assert!(reused.same_topology(&topo));
        assert!(!reused.same_topology(&NetworkTopology::paper_figure2([0.1, 0.25, 0.2, 0.25])));
    }

    #[test]
    fn slot_counter_flushes_batched_not_per_step() {
        let ctr = gps_obs::metrics().counter("sim.network.slots");
        let before = ctr.get();
        let mut net = SlottedGpsNetwork::new(line_network());
        for _ in 0..7 {
            net.step(&[0.0, 0.0]);
        }
        // Nothing hits the global registry until the flush...
        // (other tests may run concurrently, so only assert our own
        // contribution after flushing.)
        net.flush_slot_metrics();
        assert!(ctr.get() >= before + 7);
        // ...and a second flush with no new slots adds nothing from us.
        net.flush_slot_metrics();
        for _ in 0..3 {
            net.step(&[0.0, 0.0]);
        }
        let mid = ctr.get();
        net.flush_slot_metrics();
        assert!(ctr.get() >= mid + 3);
    }
}
