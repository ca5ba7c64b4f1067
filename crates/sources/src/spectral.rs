//! Spectral machinery for Markov-modulated sources: Perron root and
//! eigenvector of the MGF matrix, effective bandwidths, and the inverse
//! solve used to obtain E.B.B. decay rates.
//!
//! For a source with transition matrix `P` and rate vector `λ`, define
//!
//! ```text
//! M(θ) = P · diag(e^{θ λ_s}),        z(θ) = sp(M(θ))  (Perron root)
//! eb(θ) = ln z(θ) / θ                (effective bandwidth)
//! ```
//!
//! `eb` is nondecreasing, with `eb(0+) = mean rate` and `eb(θ) -> peak
//! rate` as `θ -> ∞` (Kesidis–Walrand–Chang). Consequently, for any target
//! envelope rate `ρ` strictly between the mean and the peak there is a
//! unique `α > 0` with `eb(α) = ρ`; that `α` is the E.B.B. decay rate the
//! paper's Table 2 reports, and the associated Perron right eigenvector `h`
//! enters the prefactor.

use crate::markov::MarkovSource;
use gps_ebb::numeric::bisect;
use gps_obs::metrics::Counter;
use std::sync::OnceLock;

/// Cached handle for the global Perron-iteration counter so the hot
/// `perron` calls pay one atomic add, not a registry lookup.
fn perron_counters() -> &'static (Counter, Counter) {
    static C: OnceLock<(Counter, Counter)> = OnceLock::new();
    C.get_or_init(|| {
        let m = gps_obs::metrics();
        (
            m.counter("sources.spectral.perron_calls"),
            m.counter("sources.spectral.perron_iters"),
        )
    })
}

/// Power iteration on a periodic (or otherwise non-primitive) matrix never
/// settles; this typed error reports how far it got so supervised callers
/// can quarantine the task instead of aborting the campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceError {
    /// Number of power iterations performed before giving up.
    pub iterations: u64,
    /// Final L1 distance between successive normalized iterates.
    pub residual: f64,
}

impl std::fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Perron iteration failed to converge after {} iterations (residual {:.3e})",
            self.iterations, self.residual
        )
    }
}

impl std::error::Error for ConvergenceError {}

/// Perron (dominant) eigenpair of a nonnegative irreducible matrix,
/// computed by power iteration.
///
/// Returns `(z, h)` with `h` normalized so `max_s h_s = 1`. Panics if the
/// iteration fails to converge in 100k steps (does not happen for the
/// primitive matrices arising from aperiodic chains with `θ > 0`); see
/// `try_perron` for the fallible variant supervised campaigns use.
pub fn perron(m: &[Vec<f64>]) -> (f64, Vec<f64>) {
    try_perron(m).unwrap_or_else(|e| panic!("{e}"))
}

/// [`perron`] returning a typed [`ConvergenceError`] instead of panicking
/// when the power iteration fails to settle (e.g. for periodic matrices,
/// whose iterates oscillate forever).
pub(crate) fn try_perron(m: &[Vec<f64>]) -> Result<(f64, Vec<f64>), ConvergenceError> {
    let n = m.len();
    assert!(n > 0);
    let _span = gps_obs::span("sources/perron");
    let (calls, iters) = perron_counters();
    calls.inc();
    let mut h = vec![1.0; n];
    let mut z = 1.0;
    let mut diff = f64::INFINITY;
    const MAX_ITERS: u64 = 100_000;
    for it in 0..MAX_ITERS {
        let mut next = vec![0.0; n];
        for (i, row) in m.iter().enumerate() {
            debug_assert_eq!(row.len(), n);
            for (j, &mij) in row.iter().enumerate() {
                next[i] += mij * h[j];
            }
        }
        let norm = next.iter().cloned().fold(0.0_f64, f64::max);
        assert!(norm > 0.0, "matrix must be nonnegative and nonzero");
        for x in &mut next {
            *x /= norm;
        }
        diff = next.iter().zip(&h).map(|(a, b)| (a - b).abs()).sum();
        let z_new = norm;
        let converged = diff < 1e-14 && (z_new - z).abs() < 1e-14 * z_new.max(1.0);
        h = next;
        z = z_new;
        if converged {
            iters.add(it + 1);
            return Ok((z, h));
        }
    }
    // Count the exhausted budget too, so the iteration counter reflects
    // work performed even on the failure path.
    iters.add(MAX_ITERS);
    Err(ConvergenceError {
        iterations: MAX_ITERS,
        residual: diff,
    })
}

/// The MGF matrix `M(θ) = P · diag(e^{θ λ_s})` of a source.
pub(crate) fn mgf_matrix(src: &MarkovSource, theta: f64) -> Vec<Vec<f64>> {
    let p = src.transition();
    let rates = src.rates();
    let n = rates.len();
    let mut m = vec![vec![0.0; n]; n];
    let e: Vec<f64> = rates.iter().map(|&r| (theta * r).exp()).collect();
    for i in 0..n {
        for j in 0..n {
            m[i][j] = p[i][j] * e[j];
        }
    }
    m
}

/// Perron root `z(θ)` of the MGF matrix.
pub(crate) fn spectral_radius(src: &MarkovSource, theta: f64) -> f64 {
    perron(&mgf_matrix(src, theta)).0
}

/// Effective bandwidth `eb(θ) = ln z(θ) / θ` for `θ > 0`; the `θ -> 0`
/// limit (the mean rate) is returned for `θ = 0`.
pub fn effective_bandwidth(src: &MarkovSource, theta: f64) -> f64 {
    assert!(theta >= 0.0, "effective bandwidth needs theta >= 0");
    if theta == 0.0 {
        return src.mean();
    }
    spectral_radius(src, theta).ln() / theta
}

/// Solves `eb(α) = rho` for the unique `α > 0`.
///
/// Requires `mean < rho < peak`; returns `None` otherwise (at or below the
/// mean no exponential decay exists; at or above the peak the envelope is
/// never exceeded and any decay works).
pub fn solve_decay_rate(src: &MarkovSource, rho: f64) -> Option<f64> {
    let mean = src.mean();
    let peak = src.peak();
    if !(rho > mean && rho < peak) {
        return None;
    }
    // Bracket: eb(θ_lo) < rho for small θ_lo; grow θ_hi until eb exceeds rho.
    let lo = 1e-9;
    if effective_bandwidth(src, lo) >= rho {
        // Degenerate: mean ≈ rho within noise.
        return None;
    }
    let mut hi = 1.0;
    for _ in 0..200 {
        if effective_bandwidth(src, hi) > rho {
            break;
        }
        hi *= 2.0;
    }
    if effective_bandwidth(src, hi) <= rho {
        return None; // rho too close to peak for f64 comfort.
    }
    bisect(lo, hi, 1e-13, |t| effective_bandwidth(src, t) - rho)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onoff(p: f64, q: f64, lambda: f64) -> MarkovSource {
        MarkovSource::new(vec![vec![1.0 - p, p], vec![q, 1.0 - q]], vec![0.0, lambda])
    }

    #[test]
    fn perron_of_stochastic_matrix_is_one() {
        let m = vec![vec![0.7, 0.3], vec![0.4, 0.6]];
        let (z, h) = perron(&m);
        assert!((z - 1.0).abs() < 1e-10);
        // Right eigenvector of a stochastic matrix is constant.
        assert!((h[0] - h[1]).abs() < 1e-8);
        assert!((h[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn try_perron_reports_nonconvergence_on_periodic_matrix() {
        // The 2-cycle permutation matrix is irreducible but periodic:
        // power iterates oscillate between (1, 1/2)-type states forever
        // (eigenvalues ±√2 tie in modulus), so the iteration cannot settle.
        let m = vec![vec![0.0, 2.0], vec![1.0, 0.0]];
        let err = try_perron(&m).unwrap_err();
        assert_eq!(err.iterations, 100_000);
        assert!(err.residual > 0.0, "residual should be nonzero: {err}");
        assert!(err.to_string().contains("failed to converge"));
    }

    #[test]
    #[should_panic(expected = "failed to converge")]
    fn perron_wrapper_panics_on_nonconvergence() {
        let m = vec![vec![0.0, 2.0], vec![1.0, 0.0]];
        let _ = perron(&m);
    }

    #[test]
    fn perron_closed_form_2x2() {
        // Session 2, Set 1 of Table 2: p=q=0.4, λ=0.4, θ=1.76.
        let src = onoff(0.4, 0.4, 0.4);
        let z = spectral_radius(&src, 1.76);
        // Closed form: z² - z[(1-p) + (1-q)e^{θλ}] + (1-p-q)e^{θλ} = 0.
        let e = (1.76f64 * 0.4).exp();
        let b = 0.6 + 0.6 * e;
        let c = 0.2 * e;
        let want = 0.5 * (b + (b * b - 4.0 * c).sqrt());
        assert!((z - want).abs() < 1e-10, "z={z} want={want}");
    }

    #[test]
    fn effective_bandwidth_limits() {
        let src = onoff(0.3, 0.7, 0.5); // mean .15, peak .5
        assert!((effective_bandwidth(&src, 0.0) - 0.15).abs() < 1e-12);
        let near_zero = effective_bandwidth(&src, 1e-6);
        assert!((near_zero - 0.15).abs() < 1e-5);
        let huge = effective_bandwidth(&src, 200.0);
        assert!(
            (huge - 0.5).abs() < 0.02,
            "eb(200)={huge} should approach peak"
        );
    }

    #[test]
    fn effective_bandwidth_monotone() {
        let src = onoff(0.4, 0.6, 0.5);
        let mut prev = 0.0;
        for i in 1..60 {
            let eb = effective_bandwidth(&src, i as f64 * 0.2);
            assert!(eb >= prev - 1e-12);
            prev = eb;
        }
    }

    /// Table 2 decay rates, all eight, to the printed precision.
    #[test]
    fn table2_decay_rates() {
        let sessions = [
            (0.3, 0.7, 0.5),
            (0.4, 0.4, 0.4),
            (0.3, 0.3, 0.3),
            (0.4, 0.6, 0.5),
        ];
        let set1_rho = [0.2, 0.25, 0.2, 0.25];
        let set1_alpha = [1.74, 1.76, 2.13, 1.62];
        let set2_rho = [0.17, 0.22, 0.17, 0.22];
        let set2_alpha = [0.729, 0.672, 0.775, 0.655];
        for i in 0..4 {
            let src = onoff(sessions[i].0, sessions[i].1, sessions[i].2);
            let a1 = solve_decay_rate(&src, set1_rho[i]).unwrap();
            assert!(
                (a1 - set1_alpha[i]).abs() < 0.005,
                "set1 session {}: got {a1}, paper {}",
                i + 1,
                set1_alpha[i]
            );
            let a2 = solve_decay_rate(&src, set2_rho[i]).unwrap();
            assert!(
                (a2 - set2_alpha[i]).abs() < 0.001,
                "set2 session {}: got {a2}, paper {}",
                i + 1,
                set2_alpha[i]
            );
        }
    }

    #[test]
    fn solve_rejects_out_of_range() {
        let src = onoff(0.3, 0.7, 0.5); // mean .15, peak .5
        assert!(solve_decay_rate(&src, 0.15).is_none());
        assert!(solve_decay_rate(&src, 0.10).is_none());
        assert!(solve_decay_rate(&src, 0.5).is_none());
        assert!(solve_decay_rate(&src, 0.9).is_none());
    }

    #[test]
    fn solve_roundtrips() {
        let src = onoff(0.4, 0.4, 0.4);
        for rho in [0.21, 0.25, 0.3, 0.35] {
            let a = solve_decay_rate(&src, rho).unwrap();
            let back = effective_bandwidth(&src, a);
            assert!(
                (back - rho).abs() < 1e-9,
                "rho {rho} -> alpha {a} -> {back}"
            );
        }
    }

    #[test]
    fn iid_chain_effective_bandwidth() {
        // p + q = 1 makes slots i.i.d. Bernoulli(p): eb(θ) =
        // ln(1-p+p·e^{θλ})/θ.
        let src = onoff(0.3, 0.7, 0.5);
        let th = 1.5;
        let want = (0.7 + 0.3 * (th * 0.5f64).exp()).ln() / th;
        assert!((effective_bandwidth(&src, th) - want).abs() < 1e-10);
    }
}
