//! Continuous-time Markov fluid sources and their spectral
//! characterizations.
//!
//! The paper's model is continuous-time fluid; its numerical example
//! discretizes, but the Lemma-5/6 bounds with the discretization
//! parameter `ξ` are stated for continuous time. This module provides the
//! matching source substrate: a fluid source modulated by a
//! continuous-time Markov chain (generator `Q`, per-state rates `λ_s`),
//! with
//!
//! * the continuous-time **effective bandwidth**
//!   `eb(θ) = λ_max(diag(λ) + Q/θ)` (Kesidis–Walrand–Chang),
//!   nondecreasing from the mean rate (θ→0) to the peak (θ→∞);
//! * E.B.B. characterizations: `α` solves `eb(α) = ρ`; the prefactor is
//!   the martingale constant `(π·h)/min h` from the Perron right
//!   eigenvector `h` of `diag(λ) + Q/α` (Palmowski–Rolski / Kingman
//!   style, the continuous twin of `lnt94`);
//! * the direct queue-tail bound at a service rate `c` (continuous
//!   Figure-4 analogue);
//! * exact simulation as piecewise-constant rate segments.
//!
//! The spectral computations reuse the nonnegative Perron machinery by
//! shifting: for `M = diag(λ) + Q/θ`, `M + cI` is nonnegative for
//! `c >= max_s |Q_ss|/θ`, and `λ_max(M) = perron(M + cI) - c`.

use crate::spectral::perron;
use gps_ebb::numeric::bisect;
use gps_ebb::TailBound;
use gps_stats::rng::{RngExt, Xoshiro256pp};

/// A continuous-time Markov-modulated fluid source.
#[derive(Debug, Clone, PartialEq)]
pub struct CtmcFluidSource {
    /// Generator matrix `Q` (rows sum to zero, off-diagonals >= 0).
    generator: Vec<Vec<f64>>,
    /// Emission rate per state.
    rates: Vec<f64>,
    /// Stationary distribution.
    stationary: Vec<f64>,
    state: usize,
}

impl CtmcFluidSource {
    /// Creates a source from a generator and per-state rates.
    ///
    /// # Panics
    ///
    /// Panics on malformed generators (non-square, negative
    /// off-diagonals, rows not summing to 0) or negative rates.
    pub fn new(generator: Vec<Vec<f64>>, rates: Vec<f64>) -> Self {
        let n = generator.len();
        assert!(n > 0 && rates.len() == n);
        for (i, row) in generator.iter().enumerate() {
            assert_eq!(row.len(), n, "generator must be square");
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-9, "generator rows must sum to 0, got {s}");
            for (j, &q) in row.iter().enumerate() {
                if i != j {
                    assert!(q >= 0.0, "off-diagonal rates must be nonnegative");
                }
            }
        }
        assert!(rates.iter().all(|&r| r >= 0.0));
        // Stationary distribution via the uniformized chain P = I + Q/u.
        let u = generator
            .iter()
            .enumerate()
            .map(|(i, row)| -row[i])
            .fold(0.0_f64, f64::max)
            .max(1e-12)
            * 1.1;
        let p: Vec<Vec<f64>> = generator
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(|(j, &q)| if i == j { 1.0 + q / u } else { q / u })
                    .collect()
            })
            .collect();
        let stationary =
            crate::markov::stationary_distribution(&p).expect("uniformized chain converges");
        Self {
            generator,
            rates,
            stationary,
            state: 0,
        }
    }

    /// Continuous-time on-off source: off→on rate `a`, on→off rate `b`
    /// (exponential sojourns with means `1/a` and `1/b`), emitting
    /// `lambda` while on.
    pub fn on_off(a: f64, b: f64, lambda: f64) -> Self {
        assert!(a > 0.0 && b > 0.0 && lambda > 0.0);
        Self::new(vec![vec![-a, a], vec![b, -b]], vec![0.0, lambda])
    }

    /// Stationary distribution `π`.
    pub fn stationary(&self) -> &[f64] {
        &self.stationary
    }

    /// Per-state rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Long-run mean rate.
    pub fn mean(&self) -> f64 {
        self.stationary
            .iter()
            .zip(&self.rates)
            .map(|(&p, &r)| p * r)
            .sum()
    }

    /// Peak rate.
    pub fn peak(&self) -> f64 {
        self.rates.iter().cloned().fold(0.0, f64::max)
    }

    /// The spectral matrix `M(θ) = diag(λ) + Q/θ` and its Perron pair
    /// computed via nonnegative shift.
    fn perron_shifted(&self, theta: f64) -> (f64, Vec<f64>) {
        assert!(theta > 0.0);
        let n = self.rates.len();
        let shift = self
            .generator
            .iter()
            .enumerate()
            .map(|(i, row)| -row[i] / theta)
            .fold(0.0_f64, f64::max)
            + 1.0;
        let mut m = vec![vec![0.0; n]; n];
        #[allow(clippy::needless_range_loop)] // dual-indexed matrix fill
        for i in 0..n {
            for j in 0..n {
                m[i][j] = self.generator[i][j] / theta;
                if i == j {
                    m[i][j] += self.rates[i] + shift;
                }
            }
        }
        let (z, h) = perron(&m);
        (z - shift, h)
    }

    /// Continuous-time effective bandwidth `eb(θ)`; mean rate at `θ = 0`.
    pub fn effective_bandwidth(&self, theta: f64) -> f64 {
        if theta == 0.0 {
            return self.mean();
        }
        self.perron_shifted(theta).0
    }

    /// Solves `eb(α) = ρ` for `mean < ρ < peak`; `None` otherwise.
    pub fn solve_decay_rate(&self, rho: f64) -> Option<f64> {
        if !(rho > self.mean() && rho < self.peak()) {
            return None;
        }
        let lo = 1e-9;
        if self.effective_bandwidth(lo) >= rho {
            return None;
        }
        let mut hi = 1.0;
        for _ in 0..200 {
            if self.effective_bandwidth(hi) > rho {
                break;
            }
            hi *= 2.0;
        }
        if self.effective_bandwidth(hi) <= rho {
            return None;
        }
        bisect(lo, hi, 1e-13, |t| self.effective_bandwidth(t) - rho)
    }

    /// E.B.B. characterization at envelope rate `rho`:
    /// `(ρ, (π·h)/min h, α)` with `α = eb^{-1}(ρ)` — the continuous-time
    /// analogue of `lnt94::Lnt94Characterization` with the rigorous
    /// martingale prefactor.
    pub fn ebb_for_rate(&self, rho: f64) -> Option<gps_ebb::EbbProcess> {
        let alpha = self.solve_decay_rate(rho)?;
        let (_, h) = self.perron_shifted(alpha);
        let h_min = h.iter().cloned().fold(f64::INFINITY, f64::min);
        let c: f64 = self
            .stationary
            .iter()
            .zip(&h)
            .map(|(&p, &x)| p * x)
            .sum::<f64>()
            / h_min;
        Some(gps_ebb::EbbProcess::new(rho, c, alpha))
    }

    /// Direct queue-tail bound at constant service rate `c`
    /// (`mean < c < peak`): `Pr{δ >= x} <= [(π·h)/min h]·e^{-θ* x}` with
    /// `θ* = eb^{-1}(c)`.
    pub fn queue_tail_bound(&self, c: f64) -> Option<TailBound> {
        let theta = self.solve_decay_rate(c)?;
        let (_, h) = self.perron_shifted(theta);
        let h_min = h.iter().cloned().fold(f64::INFINITY, f64::min);
        let pref: f64 = self
            .stationary
            .iter()
            .zip(&h)
            .map(|(&p, &x)| p * x)
            .sum::<f64>()
            / h_min;
        Some(TailBound::new(pref, theta))
    }

    /// Samples the next sojourn: returns `(duration, rate_during, next
    /// state entered at the end)`. Starts from the current state; call
    /// [`Self::reset_stationary`] first for a stationary start.
    pub fn next_segment(&mut self, rng: &mut Xoshiro256pp) -> (f64, f64) {
        let i = self.state;
        let total_rate = -self.generator[i][i];
        let u = rng.next_f64().max(1e-300);
        let duration = if total_rate > 0.0 {
            -u.ln() / total_rate
        } else {
            f64::INFINITY // absorbing state
        };
        let rate = self.rates[i];
        // Jump.
        if total_rate > 0.0 {
            let mut v = rng.next_f64() * total_rate;
            for (j, &q) in self.generator[i].iter().enumerate() {
                if j == i {
                    continue;
                }
                if v < q {
                    self.state = j;
                    break;
                }
                v -= q;
            }
        }
        (duration, rate)
    }

    /// Draws the state from the stationary distribution.
    pub fn reset_stationary(&mut self, rng: &mut Xoshiro256pp) {
        let u = rng.next_f64();
        let mut acc = 0.0;
        for (j, &p) in self.stationary.iter().enumerate() {
            acc += p;
            if u < acc {
                self.state = j;
                return;
            }
        }
        self.state = self.stationary.len() - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onoff() -> CtmcFluidSource {
        CtmcFluidSource::on_off(1.0, 2.0, 0.9) // on-fraction 1/3, mean 0.3
    }

    #[test]
    fn stationary_and_mean() {
        let s = onoff();
        assert!((s.stationary()[1] - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.mean() - 0.3).abs() < 1e-9);
        assert_eq!(s.peak(), 0.9);
    }

    #[test]
    fn effective_bandwidth_limits_and_monotonicity() {
        let s = onoff();
        assert!((s.effective_bandwidth(1e-6) - 0.3).abs() < 1e-3);
        let big = s.effective_bandwidth(500.0);
        assert!((big - 0.9).abs() < 0.01, "eb(500) = {big}");
        let mut prev = 0.0;
        for k in 1..50 {
            let eb = s.effective_bandwidth(k as f64 * 0.3);
            assert!(eb >= prev - 1e-10);
            prev = eb;
        }
    }

    #[test]
    fn onoff_eb_closed_form() {
        // For CT on-off: eb(θ) is the largest root of
        // z² - z(λ - (a+b)/θ + ... ) — cross-check against the known
        // closed form eb(θ) = [λθ - a - b + sqrt((λθ - a - b)² + 4aλθ)] /
        // (2θ) … derive: M = [[-a/θ, a/θ],[b/θ, λ - b/θ]].
        let (a, b, lam) = (1.0, 2.0, 0.9);
        let s = CtmcFluidSource::on_off(a, b, lam);
        for theta in [0.5, 1.0, 3.0] {
            let tr = -a / theta + lam - b / theta;
            let det = (-a / theta) * (lam - b / theta) - (a / theta) * (b / theta);
            let want = 0.5 * (tr + (tr * tr - 4.0 * det).sqrt());
            let got = s.effective_bandwidth(theta);
            assert!((got - want).abs() < 1e-9, "θ={theta}: {got} vs {want}");
        }
    }

    #[test]
    fn decay_rate_roundtrip() {
        let s = onoff();
        for rho in [0.35, 0.5, 0.7] {
            let alpha = s.solve_decay_rate(rho).unwrap();
            assert!((s.effective_bandwidth(alpha) - rho).abs() < 1e-8);
        }
        assert!(s.solve_decay_rate(0.2).is_none());
        assert!(s.solve_decay_rate(0.95).is_none());
    }

    #[test]
    fn ebb_and_queue_bound_shapes() {
        let s = onoff();
        let e = s.ebb_for_rate(0.5).unwrap();
        assert!(e.lambda >= 1.0, "martingale prefactor >= 1");
        let q1 = s.queue_tail_bound(0.4).unwrap();
        let q2 = s.queue_tail_bound(0.7).unwrap();
        assert!(q2.decay > q1.decay, "faster service, faster decay");
    }

    #[test]
    fn segments_have_exponential_sojourns() {
        let mut s = onoff();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        s.reset_stationary(&mut rng);
        let mut on_total = 0.0;
        let mut on_count = 0u32;
        for _ in 0..40_000 {
            let (d, r) = s.next_segment(&mut rng);
            if r > 0.0 {
                on_total += d;
                on_count += 1;
            }
        }
        // Mean on-sojourn = 1/b = 0.5.
        let mean_on = on_total / on_count as f64;
        assert!((mean_on - 0.5).abs() < 0.02, "mean on sojourn {mean_on}");
    }

    #[test]
    fn long_run_rate_matches_mean() {
        let mut s = onoff();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        s.reset_stationary(&mut rng);
        let mut fluid = 0.0;
        let mut time = 0.0;
        for _ in 0..100_000 {
            let (d, r) = s.next_segment(&mut rng);
            fluid += d * r;
            time += d;
        }
        assert!((fluid / time - 0.3).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "generator rows must sum to 0")]
    fn rejects_bad_generator() {
        let _ = CtmcFluidSource::new(vec![vec![-1.0, 0.5], vec![1.0, -1.0]], vec![0.0, 1.0]);
    }
}
