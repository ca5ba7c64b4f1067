//! General finite-state discrete-time Markov-modulated fluid sources.
//!
//! A source has `n` states with a row-stochastic transition matrix `P` and a
//! per-state emission rate `λ_s >= 0`: while the chain spends a slot in
//! state `s` it emits `λ_s` units of fluid. (The paper's on-off sources are
//! the `n = 2` case.) Emission is attributed to the state occupied *during*
//! the slot, i.e. the state *after* the transition at the slot boundary —
//! this is the convention under which the paper's Table 2 values come out
//! exactly, and it is stated explicitly here because spectral quantities
//! depend on it: the relevant MGF matrix is `M(θ) = P · diag(e^{θ λ})`.

use crate::SlotSource;
use gps_stats::rng::{RngExt, Xoshiro256pp};

/// A finite-state Markov-modulated fluid source.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovSource {
    /// Row-stochastic transition matrix, row = current state.
    transition: Vec<Vec<f64>>,
    /// Emission rate per state.
    rates: Vec<f64>,
    /// Stationary distribution of the chain.
    stationary: Vec<f64>,
    /// Current state (for simulation).
    state: usize,
}

impl MarkovSource {
    /// Creates a source from a transition matrix and per-state rates.
    ///
    /// The initial simulation state is drawn stationary on `reset`; before
    /// the first `reset` the chain starts in the stationary-mode state 0
    /// (call [`SlotSource::reset`] with your RNG for a stationary start).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square/row-stochastic, dimensions
    /// mismatch, rates are negative, or the chain's stationary distribution
    /// does not converge (e.g. periodic chains without damping — every
    /// irreducible aperiodic chain converges).
    pub fn new(transition: Vec<Vec<f64>>, rates: Vec<f64>) -> Self {
        let n = transition.len();
        assert!(n > 0, "need at least one state");
        assert_eq!(rates.len(), n, "one rate per state");
        for row in &transition {
            assert_eq!(row.len(), n, "transition matrix must be square");
            assert!(
                row.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)),
                "probabilities must lie in [0,1]"
            );
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "rows must sum to 1, got {s}");
        }
        assert!(rates.iter().all(|&r| r >= 0.0), "rates must be nonnegative");
        let stationary = stationary_distribution(&transition)
            .expect("stationary distribution failed to converge");
        Self {
            transition,
            rates,
            stationary,
            state: 0,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.rates.len()
    }

    /// The transition matrix.
    pub fn transition(&self) -> &[Vec<f64>] {
        &self.transition
    }

    /// Per-state emission rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Stationary distribution `π`.
    pub fn stationary(&self) -> &[f64] {
        &self.stationary
    }

    /// Current simulation state index.
    pub fn state(&self) -> usize {
        self.state
    }

    /// Forces the simulation state (tests / custom starts).
    pub fn set_state(&mut self, s: usize) {
        assert!(s < self.num_states());
        self.state = s;
    }

    /// Long-run mean rate `Σ_s π_s λ_s`.
    pub fn mean(&self) -> f64 {
        self.stationary
            .iter()
            .zip(&self.rates)
            .map(|(&p, &r)| p * r)
            .sum()
    }

    /// Largest per-state rate.
    pub fn peak(&self) -> f64 {
        self.rates.iter().cloned().fold(0.0, f64::max)
    }

    fn draw_next(&self, from: usize, rng: &mut Xoshiro256pp) -> usize {
        let u = rng.next_f64();
        let row = &self.transition[from];
        // Two states (every on-off source): the loop below returns 0 iff
        // `u < 0.0 + row[0]` and 1 otherwise, so decide that directly.
        if let [p0, _] = row[..] {
            return if u < 0.0 + p0 { 0 } else { 1 };
        }
        let mut acc = 0.0;
        for (j, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                return j;
            }
        }
        row.len() - 1
    }

    fn draw_stationary(&self, rng: &mut Xoshiro256pp) -> usize {
        let u = rng.next_f64();
        let mut acc = 0.0;
        for (j, &p) in self.stationary.iter().enumerate() {
            acc += p;
            if u < acc {
                return j;
            }
        }
        self.stationary.len() - 1
    }
}

impl SlotSource for MarkovSource {
    fn next_slot(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        // Transition at the slot boundary, then emit at the new state's
        // rate: emission attributed to the destination state (see module
        // docs — this is the Table 2 convention).
        self.state = self.draw_next(self.state, rng);
        self.rates[self.state]
    }

    fn mean_rate(&self) -> f64 {
        self.mean()
    }

    fn peak_rate(&self) -> Option<f64> {
        Some(self.peak())
    }

    fn reset(&mut self, rng: &mut Xoshiro256pp) {
        self.state = self.draw_stationary(rng);
    }
}

/// Stationary distribution by power iteration on `P^T`, with damping-free
/// convergence check. Returns `None` if it fails to converge in 100k
/// iterations (periodic or pathological chains).
pub fn stationary_distribution(p: &[Vec<f64>]) -> Option<Vec<f64>> {
    let n = p.len();
    let mut pi = vec![1.0 / n as f64; n];
    for _ in 0..100_000 {
        let mut next = vec![0.0; n];
        for (i, row) in p.iter().enumerate() {
            for (j, &pij) in row.iter().enumerate() {
                next[j] += pi[i] * pij;
            }
        }
        let diff: f64 = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
        pi = next;
        if diff < 1e-14 {
            // Normalize defensively against drift.
            let s: f64 = pi.iter().sum();
            for x in &mut pi {
                *x /= s;
            }
            return Some(pi);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onoff_matrix(p: f64, q: f64) -> Vec<Vec<f64>> {
        vec![vec![1.0 - p, p], vec![q, 1.0 - q]]
    }

    #[test]
    fn stationary_of_onoff() {
        // π = (q, p)/(p+q).
        let pi = stationary_distribution(&onoff_matrix(0.3, 0.7)).unwrap();
        assert!((pi[0] - 0.7).abs() < 1e-10);
        assert!((pi[1] - 0.3).abs() < 1e-10);
    }

    #[test]
    fn mean_matches_table1() {
        // Session 1 of Table 1: p=.3, q=.7, λ=.5 -> mean .15.
        let m = MarkovSource::new(onoff_matrix(0.3, 0.7), vec![0.0, 0.5]);
        assert!((m.mean() - 0.15).abs() < 1e-10);
        assert_eq!(m.peak(), 0.5);
    }

    #[test]
    fn three_state_stationary() {
        let p = vec![
            vec![0.5, 0.3, 0.2],
            vec![0.1, 0.8, 0.1],
            vec![0.3, 0.3, 0.4],
        ];
        let pi = stationary_distribution(&p).unwrap();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Verify πP = π.
        for j in 0..3 {
            let v: f64 = (0..3).map(|i| pi[i] * p[i][j]).sum();
            assert!((v - pi[j]).abs() < 1e-10);
        }
    }

    #[test]
    fn simulation_long_run_mean() {
        let mut m = MarkovSource::new(onoff_matrix(0.4, 0.4), vec![0.0, 0.4]);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        m.reset(&mut rng);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| m.next_slot(&mut rng)).sum();
        let emp = total / n as f64;
        assert!(
            (emp - 0.2).abs() < 0.005,
            "empirical mean {emp} should be near 0.2"
        );
    }

    #[test]
    fn simulation_emits_only_state_rates() {
        let mut m = MarkovSource::new(onoff_matrix(0.3, 0.3), vec![0.0, 0.3]);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..1000 {
            let x = m.next_slot(&mut rng);
            assert!(x == 0.0 || x == 0.3);
        }
    }

    #[test]
    fn reset_resamples_stationary() {
        let m0 = MarkovSource::new(onoff_matrix(0.3, 0.7), vec![0.0, 1.0]);
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let mut on = 0;
        let trials = 20_000;
        for _ in 0..trials {
            let mut m = m0.clone();
            m.reset(&mut rng);
            if m.state() == 1 {
                on += 1;
            }
        }
        let frac = on as f64 / trials as f64;
        assert!((frac - 0.3).abs() < 0.02, "stationary on-fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "rows must sum to 1")]
    fn rejects_non_stochastic() {
        let _ = MarkovSource::new(vec![vec![0.5, 0.2], vec![0.5, 0.5]], vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "one rate per state")]
    fn rejects_rate_mismatch() {
        let _ = MarkovSource::new(onoff_matrix(0.5, 0.5), vec![0.0]);
    }
}
