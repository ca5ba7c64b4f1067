//! The paper's discrete-time two-state on-off Markov source (Section 6.3,
//! Table 1).
//!
//! Parameters: transition probability `p` from *off* to *on*, `q` from *on*
//! to *off*, and emission rate `λ` while on (zero while off). The mean rate
//! is `λ̄ = p λ / (p + q)` and the lag-1 autocorrelation of the state
//! process is `1 - p - q` (so `p + q = 1` gives i.i.d. slots — true of the
//! paper's sessions 1 and 4, which is why their Table 2 prefactors are
//! exactly 1).

use crate::markov::MarkovSource;
use crate::SlotSource;
use gps_stats::rng::Xoshiro256pp;

/// A two-state on-off Markov fluid source.
///
/// # Examples
///
/// ```
/// use gps_sources::{OnOffSource, SlotSource};
/// let mut src = OnOffSource::new(0.3, 0.7, 0.5); // Table 1, session 1
/// assert!((src.mean() - 0.15).abs() < 1e-12);
/// let mut rng = gps_stats::rng::Xoshiro256pp::seed_from_u64(1);
/// src.reset(&mut rng);
/// let x = src.next_slot(&mut rng);
/// assert!(x == 0.0 || x == 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OnOffSource {
    p: f64,
    q: f64,
    lambda: f64,
    inner: MarkovSource,
}

impl OnOffSource {
    /// Creates an on-off source. `p`, `q` must lie in (0, 1]; `λ > 0`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn new(p: f64, q: f64, lambda: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1], got {p}");
        assert!(q > 0.0 && q <= 1.0, "q must be in (0,1], got {q}");
        assert!(lambda > 0.0, "lambda must be positive, got {lambda}");
        let inner = MarkovSource::new(vec![vec![1.0 - p, p], vec![q, 1.0 - q]], vec![0.0, lambda]);
        Self {
            p,
            q,
            lambda,
            inner,
        }
    }

    /// The four sources of the paper's Table 1, in session order 1..=4.
    pub fn paper_table1() -> [OnOffSource; 4] {
        [
            OnOffSource::new(0.3, 0.7, 0.5),
            OnOffSource::new(0.4, 0.4, 0.4),
            OnOffSource::new(0.3, 0.3, 0.3),
            OnOffSource::new(0.4, 0.6, 0.5),
        ]
    }

    /// Off→on transition probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// On→off transition probability.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// On-state emission rate.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Mean rate `λ̄ = pλ/(p+q)` (Table 1's last column).
    pub fn mean(&self) -> f64 {
        self.p * self.lambda / (self.p + self.q)
    }

    /// Lag-1 autocorrelation of the on/off state process, `1 - p - q`.
    /// Zero means i.i.d. slots; positive means bursty (sojourns cluster).
    pub fn burstiness(&self) -> f64 {
        1.0 - self.p - self.q
    }

    /// View as a general [`MarkovSource`] (for the spectral machinery).
    pub fn as_markov(&self) -> &MarkovSource {
        &self.inner
    }
}

impl SlotSource for OnOffSource {
    fn next_slot(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        self.inner.next_slot(rng)
    }

    fn mean_rate(&self) -> f64 {
        self.mean()
    }

    fn peak_rate(&self) -> Option<f64> {
        Some(self.lambda)
    }

    fn reset(&mut self, rng: &mut Xoshiro256pp) {
        self.inner.reset(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_means() {
        // Table 1's λ̄ column: .15, .2, .15, .2.
        let want = [0.15, 0.2, 0.15, 0.2];
        for (s, w) in OnOffSource::paper_table1().iter().zip(want) {
            assert!((s.mean() - w).abs() < 1e-12, "{s:?}");
        }
    }

    #[test]
    fn sessions_1_and_4_are_iid() {
        let t = OnOffSource::paper_table1();
        assert!(t[0].burstiness().abs() < 1e-12);
        assert!(t[3].burstiness().abs() < 1e-12);
        assert!(t[1].burstiness() > 0.0);
        assert!(t[2].burstiness() > 0.0);
    }

    #[test]
    fn simulated_on_fraction() {
        let mut s = OnOffSource::new(0.3, 0.7, 0.5);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        s.reset(&mut rng);
        let n = 100_000;
        let mut on = 0u32;
        for _ in 0..n {
            if s.next_slot(&mut rng) > 0.0 {
                on += 1;
            }
        }
        let frac = on as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "on fraction {frac}");
    }

    #[test]
    fn emits_zero_or_lambda() {
        let mut s = OnOffSource::new(0.5, 0.5, 0.7);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for _ in 0..100 {
            let x = s.next_slot(&mut rng);
            assert!(x == 0.0 || (x - 0.7).abs() < 1e-15);
        }
    }

    #[test]
    fn sojourns_geometric() {
        // Mean measured on-sojourn should approach 1/q.
        let mut s = OnOffSource::new(0.4, 0.25, 1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        s.reset(&mut rng);
        let mut runs = Vec::new();
        let mut cur = 0u32;
        for _ in 0..200_000 {
            if s.next_slot(&mut rng) > 0.0 {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur as f64);
                cur = 0;
            }
        }
        let mean_run = runs.iter().sum::<f64>() / runs.len() as f64;
        assert!(
            (mean_run - 4.0).abs() < 0.1,
            "mean on-sojourn {mean_run}, want 4"
        );
    }

    #[test]
    #[should_panic(expected = "p must be in (0,1]")]
    fn rejects_zero_p() {
        let _ = OnOffSource::new(0.0, 0.5, 1.0);
    }
}
