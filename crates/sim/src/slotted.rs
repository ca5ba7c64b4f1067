//! Discrete-time (slotted) fluid GPS server.
//!
//! Each slot: arrivals join their session queues, then the server
//! allocates its per-slot capacity by exact water-filling over the
//! demands (queue contents). This realizes fluid GPS at slot granularity
//! — the paper's Section-6.3 setting.
//!
//! Per-session measurement:
//! * backlog `Q_i(t)` — queue content at the *end* of slot `t`;
//! * clearing delay `D_i(t)` — the paper's definition: the number of
//!   slots until the session-`i` backlog present at the end of slot `t`
//!   (equivalently, all traffic that arrived up to and including slot
//!   `t`) has been fully served. Traffic served in its arrival slot has
//!   delay 0.

use gps_core::water_fill_unchecked;
use std::collections::VecDeque;

/// A slotted fluid GPS server.
///
/// # Examples
///
/// ```
/// use gps_sim::SlottedGps;
/// let mut server = SlottedGps::new(vec![1.0, 3.0], 1.0);
/// let out = server.step(&[10.0, 10.0]); // both saturated
/// assert!((out.services[0] - 0.25).abs() < 1e-12);
/// assert!((out.services[1] - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SlottedGps {
    phis: Vec<f64>,
    capacity: f64,
    queues: Vec<f64>,
    slot: u64,
    cum_arrivals: Vec<f64>,
    cum_services: Vec<f64>,
    /// Per session: FIFO of (slot, cumulative-arrival watermark) not yet
    /// cleared by cumulative service.
    pending: Vec<VecDeque<(u64, f64)>>,
    /// Water-filling scratch (active-session set), reused every slot.
    active_scratch: Vec<usize>,
}

/// What happened in one slot.
///
/// Doubles as a reusable buffer: [`SlottedGps::step_into`] overwrites a
/// caller-owned `SlotOutput` in place, so campaign loops allocate once
/// and amortize to zero allocations per slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotOutput {
    /// Amount served per session this slot.
    pub services: Vec<f64>,
    /// `(session, arrival_slot, delay_slots)` for every slot watermark
    /// cleared during this slot.
    pub cleared: Vec<(usize, u64, u64)>,
}

impl SlotOutput {
    /// An empty output buffer, ready to pass to [`SlottedGps::step_into`].
    pub fn new() -> Self {
        Self::default()
    }
}

impl SlottedGps {
    /// Creates a server with the given weights and per-slot capacity.
    ///
    /// # Panics
    ///
    /// Panics if `phis` is empty, non-positive, or `capacity <= 0`.
    pub fn new(phis: Vec<f64>, capacity: f64) -> Self {
        assert!(!phis.is_empty(), "need at least one session");
        assert!(phis.iter().all(|&p| p > 0.0), "weights must be positive");
        assert!(capacity > 0.0, "capacity must be positive");
        let n = phis.len();
        Self {
            phis,
            capacity,
            queues: vec![0.0; n],
            slot: 0,
            cum_arrivals: vec![0.0; n],
            cum_services: vec![0.0; n],
            pending: vec![VecDeque::new(); n],
            active_scratch: Vec::with_capacity(n),
        }
    }

    /// Resets the server to its just-constructed state (slot 0, empty
    /// queues, no pending watermarks) without releasing any buffers, so
    /// campaign workers can reuse one server across replications instead
    /// of reallocating per task. A reset server is observationally
    /// identical to a freshly constructed one.
    pub fn reset(&mut self) {
        self.queues.fill(0.0);
        self.slot = 0;
        self.cum_arrivals.fill(0.0);
        self.cum_services.fill(0.0);
        for q in &mut self.pending {
            q.clear();
        }
        self.active_scratch.clear();
    }

    /// True if this server was built with exactly these weights (bit
    /// equality) and this capacity — i.e. a [`reset`](Self::reset) makes
    /// it interchangeable with `SlottedGps::new(phis.to_vec(), capacity)`.
    pub(crate) fn same_shape(&self, phis: &[f64], capacity: f64) -> bool {
        self.capacity.to_bits() == capacity.to_bits()
            && self.phis.len() == phis.len()
            && self
                .phis
                .iter()
                .zip(phis)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Number of sessions.
    pub fn num_sessions(&self) -> usize {
        self.phis.len()
    }

    /// Current slot index (number of completed slots).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Backlog of session `i` (end of the last completed slot).
    pub fn backlog(&self, i: usize) -> f64 {
        self.queues[i]
    }

    /// All backlogs.
    pub fn backlogs(&self) -> &[f64] {
        &self.queues
    }

    /// Cumulative arrivals of session `i`.
    pub fn cumulative_arrivals(&self, i: usize) -> f64 {
        self.cum_arrivals[i]
    }

    /// Cumulative service of session `i`.
    pub fn cumulative_service(&self, i: usize) -> f64 {
        self.cum_services[i]
    }

    /// Advances one slot with the given per-session arrivals.
    ///
    /// Thin allocating wrapper over [`step_into`](Self::step_into); hot
    /// loops should hold a [`SlotOutput`] and call `step_into` directly.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or negative arrivals.
    pub fn step(&mut self, arrivals: &[f64]) -> SlotOutput {
        let mut out = SlotOutput::new();
        self.step_into(arrivals, &mut out);
        out
    }

    /// Advances one slot, writing services and cleared watermarks into
    /// `out` (previous contents are discarded). Reuses `out`'s buffers and
    /// the server's internal water-filling scratch, so steady-state slots
    /// perform no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or negative arrivals. Arrivals are
    /// checked session by session as they are applied, so after a panic
    /// on session `i > 0` the sessions before it have already taken
    /// their arrivals: the server is then inconsistent and must be
    /// [`reset`](Self::reset) or dropped before it is stepped again.
    pub fn step_into(&mut self, arrivals: &[f64], out: &mut SlotOutput) {
        assert_eq!(arrivals.len(), self.phis.len());
        let n = self.phis.len();
        for i in 0..n {
            let a = arrivals[i];
            assert!(
                a >= 0.0 && a.is_finite(),
                "arrivals must be finite and nonnegative"
            );
            self.queues[i] += a;
            self.cum_arrivals[i] += a;
            // Watermark for this slot's clearing delay (pushed even for
            // zero arrivals: D_i(t) is defined at every t).
            self.pending[i].push_back((self.slot, self.cum_arrivals[i]));
        }

        // The validated-input kernel: weights/capacity were checked at
        // construction, queues stay finite-nonnegative by induction, and
        // arrivals were just asserted — so the per-slot revalidation the
        // public `water_fill_into` performs is pure overhead here.
        out.services.clear();
        out.services.resize(n, 0.0);
        water_fill_unchecked(
            &self.queues,
            &self.phis,
            self.capacity,
            &mut out.services,
            &mut self.active_scratch,
        );
        out.cleared.clear();
        for i in 0..n {
            self.queues[i] -= out.services[i];
            if self.queues[i] < 1e-12 {
                self.queues[i] = 0.0; // absorb float dust
            }
            self.cum_services[i] += out.services[i];
            let tol = 1e-9 * self.cum_arrivals[i].max(1.0);
            while let Some(&(t0, target)) = self.pending[i].front() {
                if self.cum_services[i] + tol >= target {
                    out.cleared.push((i, t0, self.slot - t0));
                    self.pending[i].pop_front();
                } else {
                    break;
                }
            }
        }
        self.slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_session_drains_at_capacity() {
        let mut s = SlottedGps::new(vec![1.0], 1.0);
        let out = s.step(&[3.0]);
        assert_eq!(out.services, vec![1.0]);
        assert_eq!(s.backlog(0), 2.0);
        s.step(&[0.0]);
        let out = s.step(&[0.0]);
        assert_eq!(s.backlog(0), 0.0);
        // The slot-0 watermark cleared in slot 2 -> delay 2.
        assert!(out.cleared.contains(&(0, 0, 2)));
    }

    #[test]
    fn zero_arrival_zero_backlog_delay_is_zero() {
        let mut s = SlottedGps::new(vec![1.0, 1.0], 1.0);
        let out = s.step(&[0.0, 0.0]);
        assert_eq!(out.cleared.len(), 2);
        assert!(out.cleared.iter().all(|&(_, _, d)| d == 0));
    }

    #[test]
    fn proportional_sharing_when_both_backlogged() {
        let mut s = SlottedGps::new(vec![1.0, 3.0], 1.0);
        let out = s.step(&[10.0, 10.0]);
        assert!((out.services[0] - 0.25).abs() < 1e-12);
        assert!((out.services[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn work_conserving() {
        let mut s = SlottedGps::new(vec![1.0, 1.0], 1.0);
        s.step(&[0.3, 0.1]); // total demand .4 < 1: all served
        assert_eq!(s.backlogs(), &[0.0, 0.0]);
        let out = s.step(&[0.9, 0.9]);
        assert!((out.services.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gps_isolation_guarantee() {
        // Session 0 with φ share 1/2 never gets less than g=0.5 while
        // backlogged, no matter how much session 1 floods.
        let mut s = SlottedGps::new(vec![1.0, 1.0], 1.0);
        s.step(&[5.0, 100.0]);
        for _ in 0..8 {
            let out = s.step(&[0.0, 50.0]);
            if s.backlog(0) > 0.0 {
                assert!(out.services[0] >= 0.5 - 1e-12);
            }
        }
    }

    #[test]
    fn clearing_delays_fifo_and_monotone_targets() {
        let mut s = SlottedGps::new(vec![1.0], 0.5);
        let mut delays = Vec::new();
        let arrivals = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        for &a in &arrivals {
            let out = s.step(&[a]);
            for (_, t0, d) in out.cleared {
                delays.push((t0, d));
            }
        }
        // cum arrivals: 1, 2; service .5/slot: slot-0 watermark (1.0)
        // cleared at end of slot 1 (cum srv 1.0): delay 1. Slot-1
        // watermark (2.0) cleared at slot 3: delay 2. Then zero-arrival
        // watermarks clear as the queue drains (delay = remaining/0.5).
        assert_eq!(delays[0], (0, 1));
        assert_eq!(delays[1], (1, 2));
        // All slots eventually cleared.
        assert_eq!(delays.len(), arrivals.len());
    }

    #[test]
    fn conservation_identity() {
        // cum arrivals = cum services + backlog, per session, always.
        let mut s = SlottedGps::new(vec![2.0, 1.0, 1.0], 1.0);
        let pattern = [
            [0.5, 0.1, 0.9],
            [0.0, 0.8, 0.2],
            [1.5, 0.0, 0.0],
            [0.2, 0.2, 0.2],
        ];
        for arr in pattern.iter().cycle().take(40) {
            s.step(arr);
            for i in 0..3 {
                let lhs = s.cumulative_arrivals(i);
                let rhs = s.cumulative_service(i) + s.backlog(i);
                assert!((lhs - rhs).abs() < 1e-9, "session {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "arrivals must be finite and nonnegative")]
    fn rejects_negative_arrivals() {
        let mut s = SlottedGps::new(vec![1.0], 1.0);
        s.step(&[-1.0]);
    }

    #[test]
    fn reset_is_bit_identical_to_fresh_server() {
        let phis = vec![1.0, 3.0, 0.5];
        let pattern = [[0.5, 0.1, 0.9], [0.0, 0.8, 0.2], [1.5, 0.0, 0.0]];

        // Dirty a server, reset it, and replay against a fresh one.
        let mut reused = SlottedGps::new(phis.clone(), 1.0);
        for arr in pattern.iter().cycle().take(17) {
            reused.step(arr);
        }
        reused.reset();
        assert_eq!(reused.slot(), 0);
        let mut fresh = SlottedGps::new(phis.clone(), 1.0);
        for arr in pattern.iter().cycle().take(23) {
            let a = reused.step(arr);
            let b = fresh.step(arr);
            assert_eq!(a, b, "reset server diverges from fresh server");
        }
        for i in 0..3 {
            assert_eq!(
                reused.cumulative_service(i).to_bits(),
                fresh.cumulative_service(i).to_bits()
            );
        }
    }

    #[test]
    fn same_shape_requires_exact_weights_and_capacity() {
        let s = SlottedGps::new(vec![1.0, 3.0], 1.0);
        assert!(s.same_shape(&[1.0, 3.0], 1.0));
        assert!(!s.same_shape(&[1.0, 3.0], 2.0));
        assert!(!s.same_shape(&[1.0, 2.0], 1.0));
        assert!(!s.same_shape(&[1.0], 1.0));
    }
}
