//! Packetized schedulers: PGPS/WFQ (virtual-time weighted fair queueing),
//! FIFO, and static priority.
//!
//! PGPS (Demers–Keshav–Shenker's WFQ, analyzed by Parekh–Gallager) stamps
//! each arriving packet with a *virtual finish time*
//! `F = max(V(a), F_prev_of_session) + L/φ_i` and serves queued packets
//! in increasing `F`, non-preemptively at rate `r`. The virtual clock
//! `V(t)` advances at rate `r / Σ_{i ∈ B̃(t)} φ_i`, where `B̃(t)` is the
//! set of sessions still backlogged *in the reference fluid GPS system* —
//! equivalently, sessions whose largest stamped `F` exceeds `V(t)`.
//!
//! The headline property (PG '93): for every packet,
//! `departure^{PGPS} <= completion^{GPS} + L_max/r`, tested here against
//! the exact event-driven fluid simulator.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An arriving packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Owning session.
    pub session: usize,
    /// Size (service requirement).
    pub size: f64,
    /// Arrival time.
    pub arrival: f64,
}

/// A scheduled departure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Departure {
    /// Index into the input packet slice.
    pub packet: usize,
    /// Time service starts.
    pub start: f64,
    /// Time the last bit leaves.
    pub finish: f64,
}

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: f64,
    seq: usize,
    packet: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversed comparison; ties broken by sequence for
        // FIFO-stable behavior.
        other
            .key
            .partial_cmp(&self.key)
            .expect("finite keys")
            .then(other.seq.cmp(&self.seq))
    }
}

/// Shared non-preemptive service loop: given per-packet priority keys
/// (smaller = sooner), simulate a rate-`rate` server that always picks
/// the queued packet with the smallest key.
fn serve_by_key(packets: &[Packet], keys: &[f64], rate: f64) -> Vec<Departure> {
    assert_eq!(packets.len(), keys.len());
    let mut order: Vec<usize> = (0..packets.len()).collect();
    order.sort_by(|&a, &b| {
        packets[a]
            .arrival
            .partial_cmp(&packets[b].arrival)
            .expect("finite arrivals")
            .then(a.cmp(&b))
    });
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    let mut out = vec![
        Departure {
            packet: 0,
            start: 0.0,
            finish: 0.0
        };
        packets.len()
    ];
    let mut next = 0usize;
    let mut now = 0.0_f64;
    let mut seq = 0usize;
    while next < order.len() || !heap.is_empty() {
        // Admit everything that has arrived by `now`.
        while next < order.len() && packets[order[next]].arrival <= now + 1e-12 {
            let p = order[next];
            heap.push(HeapEntry {
                key: keys[p],
                seq,
                packet: p,
            });
            seq += 1;
            next += 1;
        }
        match heap.pop() {
            None => {
                // Idle: jump to the next arrival.
                now = packets[order[next]].arrival;
            }
            Some(e) => {
                let p = e.packet;
                let start = now.max(packets[p].arrival);
                let finish = start + packets[p].size / rate;
                out[p] = Departure {
                    packet: p,
                    start,
                    finish,
                };
                now = finish;
            }
        }
    }
    out
}

/// PGPS / WFQ server.
#[derive(Debug, Clone)]
pub struct PgpsServer {
    phis: Vec<f64>,
    rate: f64,
}

impl PgpsServer {
    /// Creates a PGPS server with weights `phis` and rate `rate`.
    pub fn new(phis: Vec<f64>, rate: f64) -> Self {
        assert!(!phis.is_empty() && phis.iter().all(|&p| p > 0.0));
        assert!(rate > 0.0);
        Self { phis, rate }
    }

    /// Computes the virtual finish time of every packet (arrivals need not
    /// be pre-sorted; they are processed chronologically).
    pub(crate) fn virtual_finish_times(&self, packets: &[Packet]) -> Vec<f64> {
        let n = self.phis.len();
        let mut order: Vec<usize> = (0..packets.len()).collect();
        order.sort_by(|&a, &b| {
            packets[a]
                .arrival
                .partial_cmp(&packets[b].arrival)
                .expect("finite arrivals")
                .then(a.cmp(&b))
        });
        let mut f = vec![0.0; packets.len()];
        let mut last_f = vec![0.0_f64; n]; // last virtual finish per session
        let mut fmax = vec![f64::NEG_INFINITY; n];
        let mut in_b = vec![false; n];
        let mut sum_phi = 0.0_f64;
        // Min-heap of (session fmax, session) with lazy deletion.
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        let mut v = 0.0_f64; // virtual time
        let mut t_last = 0.0_f64;

        for &p in &order {
            let pk = packets[p];
            assert!(pk.session < n, "packet session out of range");
            assert!(pk.size > 0.0 && pk.arrival >= 0.0);
            // Advance V from t_last to pk.arrival.
            let mut t_cur = t_last;
            let t_target = pk.arrival;
            while t_cur < t_target && sum_phi > 0.0 {
                // Peek the next session-empty virtual event.
                let ev = loop {
                    match heap.peek() {
                        None => break None,
                        Some(e) => {
                            let s = e.packet; // session id in this heap
                            if !in_b[s] || (e.key - fmax[s]).abs() > 1e-12 {
                                heap.pop(); // stale
                            } else {
                                break Some((e.key, s));
                            }
                        }
                    }
                };
                match ev {
                    None => break,
                    Some((f_min, s)) => {
                        let dt_to_empty = (f_min - v) * sum_phi / self.rate;
                        if t_cur + dt_to_empty <= t_target + 1e-15 {
                            v = f_min;
                            t_cur += dt_to_empty;
                            in_b[s] = false;
                            sum_phi -= self.phis[s];
                            heap.pop();
                            if sum_phi < 1e-12 {
                                sum_phi = 0.0;
                            }
                        } else {
                            v += (t_target - t_cur) * self.rate / sum_phi;
                            t_cur = t_target;
                        }
                    }
                }
            }
            t_last = t_target;
            // Stamp the packet.
            let s = pk.session;
            let start_v = v.max(last_f[s]);
            let finish_v = start_v + pk.size / self.phis[s];
            f[p] = finish_v;
            last_f[s] = finish_v;
            if finish_v > fmax[s] {
                fmax[s] = finish_v;
            }
            if !in_b[s] {
                in_b[s] = true;
                sum_phi += self.phis[s];
            }
            heap.push(HeapEntry {
                key: fmax[s],
                seq: 0,
                packet: s,
            });
        }
        f
    }

    /// Runs the PGPS discipline over `packets`; returns one departure per
    /// packet (same indexing).
    pub fn run(&self, packets: &[Packet]) -> Vec<Departure> {
        let _span = gps_obs::span("sim/pgps_run");
        gps_obs::metrics()
            .counter("sim.pgps.packets")
            .add(packets.len() as u64);
        let f = self.virtual_finish_times(packets);
        serve_by_key(packets, &f, self.rate)
    }
}

/// Plain FIFO server at rate `rate`.
#[derive(Debug, Clone, Copy)]
pub struct FifoServer {
    rate: f64,
}

impl FifoServer {
    /// Creates the server.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0);
        Self { rate }
    }

    /// Runs FIFO over `packets`.
    pub fn run(&self, packets: &[Packet]) -> Vec<Departure> {
        // Key = arrival time (ties by index via the stable seq).
        let keys: Vec<f64> = packets.iter().map(|p| p.arrival).collect();
        serve_by_key(packets, &keys, self.rate)
    }
}

/// Static-priority server: lower class index = higher priority,
/// non-preemptive, FIFO within a class.
#[derive(Debug, Clone)]
pub struct PriorityServer {
    /// Priority class per session.
    pub class_of: Vec<usize>,
    rate: f64,
}

impl PriorityServer {
    /// Creates the server with the given session→class map.
    pub fn new(class_of: Vec<usize>, rate: f64) -> Self {
        assert!(rate > 0.0);
        Self { class_of, rate }
    }

    /// Runs the discipline over `packets`.
    pub fn run(&self, packets: &[Packet]) -> Vec<Departure> {
        // Key = class * BIG + arrival: class dominates, FIFO within.
        const BIG: f64 = 1e12;
        let keys: Vec<f64> = packets
            .iter()
            .map(|p| self.class_of[p.session] as f64 * BIG + p.arrival)
            .collect();
        serve_by_key(packets, &keys, self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid_event::FluidGps;

    fn mk(session: usize, size: f64, arrival: f64) -> Packet {
        Packet {
            session,
            size,
            arrival,
        }
    }

    #[test]
    fn fifo_orders_by_arrival() {
        let packets = vec![mk(0, 1.0, 0.0), mk(1, 1.0, 0.5), mk(0, 1.0, 0.6)];
        let out = FifoServer::new(1.0).run(&packets);
        assert!((out[0].finish - 1.0).abs() < 1e-12);
        assert!((out[1].finish - 2.0).abs() < 1e-12);
        assert!((out[2].finish - 3.0).abs() < 1e-12);
    }

    #[test]
    fn wfq_fairness_under_saturation() {
        // Both sessions saturated with unit packets; weights 1:3.
        let mut packets = Vec::new();
        for k in 0..400 {
            packets.push(mk(0, 1.0, k as f64 * 0.001));
            packets.push(mk(1, 1.0, k as f64 * 0.001));
        }
        let out = PgpsServer::new(vec![1.0, 3.0], 1.0).run(&packets);
        // Count departures of each session in the first 200 time units.
        let horizon = 200.0;
        let mut served = [0.0_f64; 2];
        for (i, d) in out.iter().enumerate() {
            if d.finish <= horizon {
                served[packets[i].session] += packets[i].size;
            }
        }
        let ratio = served[1] / served[0];
        assert!(
            (ratio - 3.0).abs() < 0.15,
            "service ratio {ratio} should approach 3"
        );
    }

    #[test]
    fn wfq_isolation_against_flood() {
        // Session 0 sends sparse small packets; session 1 floods. With
        // equal weights, session 0's delay stays bounded near its fair
        // share, unlike FIFO.
        let mut packets = vec![];
        for k in 0..50 {
            packets.push(mk(0, 0.1, k as f64));
        }
        for k in 0..500 {
            packets.push(mk(1, 1.0, 0.0 + k as f64 * 0.01));
        }
        let wfq = PgpsServer::new(vec![1.0, 1.0], 1.0).run(&packets);
        let fifo = FifoServer::new(1.0).run(&packets);
        let wfq_worst = (0..50)
            .map(|i| wfq[i].finish - packets[i].arrival)
            .fold(0.0, f64::max);
        let fifo_worst = (0..50)
            .map(|i| fifo[i].finish - packets[i].arrival)
            .fold(0.0, f64::max);
        assert!(
            wfq_worst < fifo_worst / 5.0,
            "WFQ worst {wfq_worst} vs FIFO worst {fifo_worst}"
        );
    }

    #[test]
    fn priority_preempts_order_between_classes() {
        let packets = vec![mk(0, 5.0, 0.0), mk(1, 1.0, 0.1), mk(1, 1.0, 0.2)];
        // Session 1 is high priority (class 0), session 0 low (class 1).
        let out = PriorityServer::new(vec![1, 0], 1.0).run(&packets);
        // Packet 0 starts at 0 (non-preemptive), finishes at 5; the high
        // priority packets go next, before... nothing else queued.
        assert!((out[0].finish - 5.0).abs() < 1e-12);
        assert!((out[1].finish - 6.0).abs() < 1e-12);
        assert!((out[2].finish - 7.0).abs() < 1e-12);
    }

    #[test]
    fn work_conservation_single_busy_period() {
        let packets = vec![
            mk(0, 1.0, 0.0),
            mk(1, 2.0, 0.3),
            mk(0, 0.5, 1.2),
            mk(1, 0.5, 2.0),
        ];
        let out = PgpsServer::new(vec![1.0, 1.0], 1.0).run(&packets);
        let last = out.iter().map(|d| d.finish).fold(0.0, f64::max);
        let total: f64 = packets.iter().map(|p| p.size).sum();
        assert!((last - total).abs() < 1e-9, "no idling inside busy period");
    }

    #[test]
    fn virtual_finish_monotone_within_session() {
        let packets = vec![
            mk(0, 1.0, 0.0),
            mk(0, 2.0, 0.1),
            mk(0, 0.5, 5.0),
            mk(1, 1.0, 0.05),
        ];
        let f = PgpsServer::new(vec![1.0, 1.0], 1.0).virtual_finish_times(&packets);
        assert!(f[0] < f[1]);
        assert!(f[1] < f[2] || f[2] > f[1] - 1e-12);
    }

    /// The Parekh–Gallager PGPS theorem: packet departure under PGPS lags
    /// its fluid-GPS completion by at most `L_max / r`.
    #[test]
    fn pg_pgps_bound_holds_on_random_traffic() {
        // Deterministic pseudo-random packet pattern.
        let mut state = 0xDEADBEEFu64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let phis = vec![1.0, 2.0, 0.5];
        let rate = 1.0;
        let mut packets = Vec::new();
        let mut t = 0.0;
        let mut l_max = 0.0_f64;
        for _ in 0..300 {
            t += rnd() * 0.8;
            let session = (rnd() * 3.0) as usize % 3;
            let size = 0.1 + rnd() * 0.9;
            l_max = l_max.max(size);
            packets.push(mk(session, size, t));
        }
        // PGPS departures.
        let pgps = PgpsServer::new(phis.clone(), rate).run(&packets);
        // Fluid completions for the same impulses.
        let mut fluid = FluidGps::new(phis, rate);
        for p in &packets {
            fluid.arrive(p.arrival, p.session, p.size);
        }
        fluid.advance_to(t + 10_000.0);
        let comps = fluid.take_completions();
        // Match fluid completions back to packets: per session FIFO.
        let mut per_session: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for c in comps {
            per_session[c.session].push(c.completion);
        }
        let mut next_idx = [0usize; 3];
        for (i, p) in packets.iter().enumerate() {
            let c = per_session[p.session][next_idx[p.session]];
            next_idx[p.session] += 1;
            assert!(
                pgps[i].finish <= c + l_max / rate + 1e-6,
                "packet {i}: PGPS {} vs GPS {} + Lmax {l_max}",
                pgps[i].finish,
                c
            );
        }
    }
}
