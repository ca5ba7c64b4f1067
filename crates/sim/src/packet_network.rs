//! Packet-level simulation of feed-forward PGPS networks.
//!
//! The paper notes its results "can be easily extended to \[the\]
//! packetized version of GPS — PGPS". This module simulates a network of
//! PGPS (WFQ) servers at packet granularity: sessions follow their
//! routes, each node schedules by virtual finish time, and a packet's
//! departure from one node is its arrival at the next.
//!
//! Scope: **feed-forward** networks (the node-precedence graph induced by
//! the routes must be acyclic — true of the paper's Figure-2 tree). For
//! such networks each node's full arrival sequence is known once its
//! predecessors are processed, so nodes can be simulated in topological
//! order with the exact batch scheduler; cyclic packet networks would
//! need interleaved event processing and are out of scope (the
//! *analytical* machinery in `gps-analysis` does cover cyclic CRST
//! topologies).

use crate::pgps::{Packet, PgpsServer};
use gps_core::NetworkTopology;

/// One packet's journey through the network.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketJourney {
    /// Index into the input packet list.
    pub packet: usize,
    /// Departure time from each node on the owning session's route.
    pub hop_departures: Vec<f64>,
}

impl PacketJourney {
    /// Network departure time (last hop).
    pub fn network_departure(&self) -> f64 {
        *self.hop_departures.last().expect("routes are nonempty")
    }
}

/// Errors from [`run_packet_network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketNetworkError {
    /// The route-induced node precedence graph has a cycle.
    NotFeedForward,
}

/// Simulates the network: `packets[i]` are session `sessions[i]`'s
/// packets?? No — `packets` is one flat list; each packet names its
/// session, whose route comes from `topology`. Arrival times are network
/// entry times. Returns one journey per packet (same indexing).
pub fn run_packet_network(
    topology: &NetworkTopology,
    packets: &[Packet],
) -> Result<Vec<PacketJourney>, PacketNetworkError> {
    let m = topology.num_nodes();
    // Node precedence: edge a -> b when some session visits b right after a.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut indeg = vec![0usize; m];
    for s in topology.sessions() {
        for w in s.route.windows(2) {
            if !succ[w[0]].contains(&w[1]) {
                succ[w[0]].push(w[1]);
                indeg[w[1]] += 1;
            }
        }
    }
    // Kahn topological order.
    let mut order: Vec<usize> = (0..m).filter(|&v| indeg[v] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &u in &succ[v] {
            indeg[u] -= 1;
            if indeg[u] == 0 {
                order.push(u);
            }
        }
    }
    if order.len() != m {
        return Err(PacketNetworkError::NotFeedForward);
    }

    // Per-packet arrival time at its current hop; hop index per packet.
    let mut journeys: Vec<PacketJourney> = (0..packets.len())
        .map(|p| PacketJourney {
            packet: p,
            hop_departures: Vec::new(),
        })
        .collect();
    let mut arrival_at_hop: Vec<f64> = packets.iter().map(|p| p.arrival).collect();

    for &node in &order {
        let Some((assignment, local_sessions)) = topology.assignment_at(node) else {
            continue;
        };
        // Gather the packets whose session's route includes this node,
        // with their arrival time at this node (entry time for hop 0,
        // previous departure otherwise — already stored).
        let mut local_packets = Vec::new();
        let mut local_index = Vec::new();
        for (pi, pk) in packets.iter().enumerate() {
            if let Some(hop) = topology.session(pk.session).position_of(node) {
                debug_assert_eq!(journeys[pi].hop_departures.len(), hop);
                let local_session = local_sessions
                    .iter()
                    .position(|&s| s == pk.session)
                    .expect("session in I(m)");
                local_packets.push(Packet {
                    session: local_session,
                    size: pk.size,
                    arrival: arrival_at_hop[pi],
                });
                local_index.push(pi);
            }
        }
        if local_packets.is_empty() {
            continue;
        }
        let server = PgpsServer::new(assignment.phis().to_vec(), assignment.rate());
        let departures = server.run(&local_packets);
        for (k, dep) in departures.iter().enumerate() {
            let pi = local_index[k];
            journeys[pi].hop_departures.push(dep.finish);
            arrival_at_hop[pi] = dep.finish;
        }
    }
    Ok(journeys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::SessionSpec;

    fn two_hop_topology() -> NetworkTopology {
        NetworkTopology::new(
            vec![1.0, 1.0],
            vec![
                SessionSpec::with_uniform_phi(vec![0, 1], 1.0),
                SessionSpec::with_uniform_phi(vec![1], 1.0),
            ],
        )
    }

    fn pk(session: usize, size: f64, arrival: f64) -> Packet {
        Packet {
            session,
            size,
            arrival,
        }
    }

    #[test]
    fn single_packet_pipeline() {
        let topo = two_hop_topology();
        let packets = vec![pk(0, 1.0, 0.0)];
        let j = run_packet_network(&topo, &packets).unwrap();
        assert_eq!(j[0].hop_departures.len(), 2);
        // Node 0: service 0..1; node 1: 1..2.
        assert!((j[0].hop_departures[0] - 1.0).abs() < 1e-12);
        assert!((j[0].network_departure() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn contention_downstream() {
        let topo = two_hop_topology();
        // Session 0's packet reaches node 1 at t=1; session 1's packet
        // arrives there at t=0.5 and is already in service (0.5..1.5).
        let packets = vec![pk(0, 1.0, 0.0), pk(1, 1.0, 0.5)];
        let j = run_packet_network(&topo, &packets).unwrap();
        assert!((j[1].network_departure() - 1.5).abs() < 1e-12);
        assert!((j[0].network_departure() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn figure2_tree_runs() {
        let topo = NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]);
        // A burst per session, interleaved.
        let mut packets = Vec::new();
        for k in 0..40 {
            packets.push(pk(k % 4, 0.2, k as f64 * 0.1));
        }
        let j = run_packet_network(&topo, &packets).unwrap();
        for (pi, journey) in j.iter().enumerate() {
            assert_eq!(journey.hop_departures.len(), 2, "packet {pi}");
            // Monotone along the route, after entry.
            assert!(journey.hop_departures[0] >= packets[pi].arrival);
            assert!(journey.hop_departures[1] >= journey.hop_departures[0]);
        }
        // FIFO per session end-to-end (WFQ preserves per-session order).
        for s in 0..4 {
            let mut last = f64::NEG_INFINITY;
            for (pi, p) in packets.iter().enumerate() {
                if p.session == s {
                    assert!(j[pi].network_departure() >= last);
                    last = j[pi].network_departure();
                }
            }
        }
    }

    #[test]
    fn cyclic_routes_rejected() {
        let topo = NetworkTopology::new(
            vec![1.0, 1.0],
            vec![
                SessionSpec::with_uniform_phi(vec![0, 1], 1.0),
                SessionSpec::with_uniform_phi(vec![1, 0], 1.0),
            ],
        );
        assert_eq!(
            run_packet_network(&topo, &[pk(0, 1.0, 0.0)]),
            Err(PacketNetworkError::NotFeedForward)
        );
    }

    #[test]
    fn per_node_work_conservation() {
        // Total span of busy time at the entry node equals total work
        // when saturated from t=0.
        let topo = two_hop_topology();
        let packets: Vec<Packet> = (0..10).map(|k| pk(0, 0.5, k as f64 * 0.01)).collect();
        let j = run_packet_network(&topo, &packets).unwrap();
        let last_hop0 = j
            .iter()
            .map(|x| x.hop_departures[0])
            .fold(0.0_f64, f64::max);
        assert!((last_hop0 - 5.0 - 0.0).abs() < 0.1);
    }

    #[test]
    fn e2e_delay_bounded_by_pg_network_correction() {
        // Sanity (not the formal PG network theorem): with light load,
        // end-to-end delay stays near sum of service times.
        let topo = two_hop_topology();
        let packets: Vec<Packet> = (0..20).map(|k| pk(0, 0.1, k as f64 * 2.0)).collect();
        let j = run_packet_network(&topo, &packets).unwrap();
        for (pi, journey) in j.iter().enumerate() {
            let d = journey.network_departure() - packets[pi].arrival;
            assert!((d - 0.2).abs() < 1e-9, "uncontended pipeline delay");
        }
    }
}
