//! Continuous-time fluid GPS with piecewise-constant *input rates* — the
//! paper's native model, exactly.
//!
//! Sources emit fluid at rates that change at discrete instants (e.g. the
//! on/off switches of a [`gps_sources::CtmcFluidSource`]); between rate
//! changes the system evolves linearly: the server water-fills its
//! capacity over the sessions (backlogged sessions demand unbounded
//! service; empty sessions demand exactly their input rate), and the only
//! interior events are queue-emptying instants. The simulator advances
//! exactly from event to event — no discretization error.
//!
//! Measurement: backlog sampling at caller-chosen instants plus exact
//! per-session busy-period accounting, enough to estimate `Pr{Q_i >= q}`
//! against the *continuous-time* Lemma-5 bounds (the ξ-parameterized
//! forms the slotted experiments never exercise).

use gps_core::water_fill;

/// Continuous fluid GPS server driven by input-rate changes.
#[derive(Debug, Clone)]
pub struct RateFluidGps {
    phis: Vec<f64>,
    capacity: f64,
    time: f64,
    queues: Vec<f64>,
    input_rates: Vec<f64>,
    cum_arrivals: Vec<f64>,
    cum_services: Vec<f64>,
}

impl RateFluidGps {
    /// Creates the server; all input rates start at 0.
    pub fn new(phis: Vec<f64>, capacity: f64) -> Self {
        assert!(!phis.is_empty() && phis.iter().all(|&p| p > 0.0));
        assert!(capacity > 0.0);
        let n = phis.len();
        Self {
            phis,
            capacity,
            time: 0.0,
            queues: vec![0.0; n],
            input_rates: vec![0.0; n],
            cum_arrivals: vec![0.0; n],
            cum_services: vec![0.0; n],
        }
    }

    /// Current time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Session backlog now.
    pub fn backlog(&self, i: usize) -> f64 {
        self.queues[i]
    }

    /// Cumulative arrivals of session `i`.
    pub fn cumulative_arrivals(&self, i: usize) -> f64 {
        self.cum_arrivals[i]
    }

    /// Cumulative service of session `i`.
    pub fn cumulative_service(&self, i: usize) -> f64 {
        self.cum_services[i]
    }

    /// Changes session `i`'s input rate at absolute time `t >= time()`.
    pub fn set_input_rate(&mut self, t: f64, i: usize, rate: f64) {
        assert!(rate >= 0.0 && rate.is_finite());
        self.advance_to(t);
        self.input_rates[i] = rate;
    }

    /// Advances to absolute time `t`, evolving the fluid exactly.
    pub fn advance_to(&mut self, t: f64) {
        assert!(t >= self.time - 1e-12, "time must not run backwards");
        let n = self.phis.len();
        let mut guard = 0usize;
        while self.time < t - 1e-15 {
            guard += 1;
            assert!(
                guard < 10 * n + 100,
                "event cascade failed to converge (numerical dust?)"
            );
            // Service rates for the current backlogged set.
            let demands: Vec<f64> = (0..n)
                .map(|i| {
                    if self.queues[i] > 1e-15 {
                        f64::INFINITY
                    } else {
                        self.input_rates[i]
                    }
                })
                .collect();
            let service = water_fill(&demands, &self.phis, self.capacity);
            // Queue derivatives and next emptying event.
            let mut dt = t - self.time;
            for i in 0..n {
                let drain = service[i] - self.input_rates[i];
                if self.queues[i] > 1e-15 && drain > 1e-15 {
                    dt = dt.min(self.queues[i] / drain);
                }
            }
            debug_assert!(dt > 0.0);
            for i in 0..n {
                let drain = service[i] - self.input_rates[i];
                self.cum_arrivals[i] += self.input_rates[i] * dt;
                self.cum_services[i] += service[i] * dt;
                if self.queues[i] > 1e-15 {
                    self.queues[i] -= drain * dt;
                } else {
                    // Empty queue: grows only when input exceeds service.
                    self.queues[i] += (self.input_rates[i] - service[i]).max(0.0) * dt;
                }
                if self.queues[i] < 1e-12 {
                    self.queues[i] = 0.0;
                }
            }
            self.time += dt;
        }
        self.time = t.max(self.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn underloaded_never_queues() {
        let mut g = RateFluidGps::new(vec![1.0, 1.0], 1.0);
        g.set_input_rate(0.0, 0, 0.3);
        g.set_input_rate(0.0, 1, 0.4);
        g.advance_to(10.0);
        assert_eq!(g.backlog(0), 0.0);
        assert_eq!(g.backlog(1), 0.0);
        assert!((g.cumulative_service(0) - 3.0).abs() < 1e-9);
        assert!((g.cumulative_service(1) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn overload_builds_and_drains() {
        let mut g = RateFluidGps::new(vec![1.0], 1.0);
        g.set_input_rate(0.0, 0, 2.0); // 1.0 excess per unit time
        g.advance_to(3.0);
        assert!((g.backlog(0) - 3.0).abs() < 1e-9);
        g.set_input_rate(3.0, 0, 0.0);
        g.advance_to(5.9999);
        assert!(g.backlog(0) > 0.0);
        g.advance_to(6.5);
        assert_eq!(g.backlog(0), 0.0); // drained exactly at t = 6
        assert!((g.cumulative_service(0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn gps_share_during_contention() {
        let mut g = RateFluidGps::new(vec![3.0, 1.0], 1.0);
        g.set_input_rate(0.0, 0, 2.0);
        g.set_input_rate(0.0, 1, 2.0);
        g.advance_to(1.0);
        // Both backlogged: service 0.75/0.25.
        assert!((g.cumulative_service(0) - 0.75).abs() < 1e-9);
        assert!((g.cumulative_service(1) - 0.25).abs() < 1e-9);
        assert!((g.backlog(0) - 1.25).abs() < 1e-9);
        assert!((g.backlog(1) - 1.75).abs() < 1e-9);
    }

    #[test]
    fn empty_session_served_at_input_surplus_redistributed() {
        let mut g = RateFluidGps::new(vec![1.0, 1.0], 1.0);
        g.set_input_rate(0.0, 0, 0.2); // stays empty (0.2 < fair 0.5)
        g.set_input_rate(0.0, 1, 5.0); // floods
        g.advance_to(2.0);
        assert_eq!(g.backlog(0), 0.0);
        assert!((g.cumulative_service(0) - 0.4).abs() < 1e-9);
        // Session 1 gets the rest: 0.8/unit.
        assert!((g.cumulative_service(1) - 1.6).abs() < 1e-9);
        assert!((g.backlog(1) - (10.0 - 1.6)).abs() < 1e-9);
    }

    #[test]
    fn emptying_event_redistributes_midway() {
        // Session 0 has a small initial surge then stops; session 1
        // floods. After session 0 empties, session 1 speeds up.
        let mut g = RateFluidGps::new(vec![1.0, 1.0], 1.0);
        g.set_input_rate(0.0, 0, 1.5);
        g.set_input_rate(0.0, 1, 1.5);
        g.advance_to(1.0); // both accumulate 1.0 (input 1.5, served 0.5)
        g.set_input_rate(1.0, 0, 0.0);
        // Session 0 drains at 0.5/unit: empties at t=3. Then session 1
        // is served at 1.0 while receiving 1.5.
        g.advance_to(3.0);
        assert!(g.backlog(0) < 1e-9);
        let q1_at_3 = g.backlog(1);
        g.advance_to(4.0);
        // After t=3: session 1 receives 1.5, served 1.0: +0.5.
        assert!((g.backlog(1) - (q1_at_3 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn conservation_invariant() {
        let mut g = RateFluidGps::new(vec![1.0, 2.0, 0.5], 1.0);
        let changes = [
            (0.0, 0, 0.9),
            (0.0, 1, 0.4),
            (0.5, 2, 1.2),
            (1.3, 0, 0.0),
            (2.0, 1, 1.1),
            (2.7, 2, 0.0),
        ];
        for &(t, i, r) in &changes {
            g.set_input_rate(t, i, r);
        }
        g.advance_to(5.0);
        for i in 0..3 {
            let lhs = g.cumulative_arrivals(i);
            let rhs = g.cumulative_service(i) + g.backlog(i);
            assert!((lhs - rhs).abs() < 1e-9, "session {i}");
        }
        // Work conservation: total service <= capacity · time, equality
        // whenever someone was backlogged throughout.
        let total: f64 = (0..3).map(|i| g.cumulative_service(i)).sum();
        assert!(total <= 5.0 + 1e-9);
    }

    #[test]
    fn guaranteed_rate_when_backlogged() {
        // A backlogged session never drains slower than g_i − input.
        let mut g = RateFluidGps::new(vec![1.0, 4.0], 1.0);
        g.set_input_rate(0.0, 0, 0.5);
        g.set_input_rate(0.0, 1, 5.0);
        g.advance_to(1.0);
        // Session 0: g = 0.2 < input 0.5: backlog grows at most 0.3/unit
        // (gets at least 0.2).
        assert!((g.cumulative_service(0) - 0.2).abs() < 1e-9);
    }
}
