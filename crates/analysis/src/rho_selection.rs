//! Choosing the E.B.B. envelope rate ρ — the paper's open question, made
//! executable.
//!
//! Section 6.3 and the conclusions stress the tradeoff: picking ρ close
//! to the mean rate shrinks α (slow decay, Figure 3(b)); picking it close
//! to the peak wastes bandwidth (ρ feeds the stability condition and,
//! under RPPS, the weights). This module sweeps ρ for a Markov source and
//! optimizes it for a concrete objective:
//!
//! * [`rho_tradeoff`] — the raw `(ρ, Λ(ρ), α(ρ))` curve;
//! * `best_rho_for_delay` — the ρ minimizing the Theorem-10 delay-bound
//!   tail at a target `(g, d)` (service rate fixed);
//! * [`max_sessions_optimized_rho`] — RPPS admission where *each
//!   candidate session count re-optimizes ρ*, which is the fair way to
//!   run the paper's statistical-admission comparison (the naive fixed-ρ
//!   version is experiment A4's `stat_ebb` column).

use gps_ebb::{DeltaTailBound, EbbProcess, TimeModel};
use gps_sources::{Lnt94Characterization, MarkovSource, PrefactorKind};

/// One point of the ρ-tradeoff curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RhoPoint {
    /// Envelope rate ρ.
    pub rho: f64,
    /// LNT94 prefactor Λ(ρ).
    pub lambda: f64,
    /// Decay rate α(ρ).
    pub alpha: f64,
}

/// Sweeps `points` envelope rates strictly between the source's mean and
/// peak and characterizes each.
pub fn rho_tradeoff(src: &MarkovSource, points: usize) -> Vec<RhoPoint> {
    assert!(points >= 2);
    let mean = src.mean();
    let peak = src.peak();
    let mut out = Vec::with_capacity(points);
    for k in 1..=points {
        let f = k as f64 / (points + 1) as f64;
        let rho = mean + f * (peak - mean);
        if let Some(c) = Lnt94Characterization::characterize(src, rho, PrefactorKind::Lnt94) {
            out.push(RhoPoint {
                rho,
                lambda: c.ebb.lambda,
                alpha: c.ebb.alpha,
            });
        }
    }
    out
}

/// Finds the ρ (over a `points`-point sweep) whose Theorem-10 delay bound
/// at guaranteed rate `g` is tightest at delay `d`. Only candidates with
/// `ρ < g` qualify (the bound needs spare capacity). Returns the winning
/// characterization and its tail value, or `None` if no candidate
/// qualifies.
pub(crate) fn best_rho_for_delay(
    src: &MarkovSource,
    g: f64,
    d: f64,
    model: TimeModel,
    points: usize,
) -> Option<(EbbProcess, f64)> {
    let mean = src.mean();
    let cap = g.min(src.peak());
    if cap <= mean {
        return None;
    }
    let mut best: Option<(EbbProcess, f64)> = None;
    for k in 1..=points {
        let f = k as f64 / (points + 1) as f64;
        let rho = mean + f * (cap - mean);
        let Some(c) = Lnt94Characterization::characterize(src, rho, PrefactorKind::Lnt94) else {
            continue;
        };
        if c.ebb.rho >= g {
            continue;
        }
        let tail = DeltaTailBound::new(c.ebb, g)
            .bound(model)
            .delay_from_backlog(g)
            .tail(d);
        match &best {
            Some((_, t)) if *t <= tail => {}
            _ => best = Some((c.ebb, tail)),
        }
    }
    best
}

/// RPPS admission with per-count ρ re-optimization: the largest `n` such
/// that `n` homogeneous copies of `src`, each guaranteed `g = rate/n`,
/// meet `Pr{D > d} <= epsilon` under the *best* choice of ρ.
pub fn max_sessions_optimized_rho(
    src: &MarkovSource,
    rate: f64,
    d: f64,
    epsilon: f64,
    model: TimeModel,
) -> usize {
    assert!(rate > 0.0 && d > 0.0 && epsilon > 0.0 && epsilon < 1.0);
    let admits = |n: usize| -> bool {
        let g = rate / n as f64;
        match best_rho_for_delay(src, g, d, model, 40) {
            Some((_, tail)) => tail <= epsilon,
            None => false,
        }
    };
    if !admits(1) {
        return 0;
    }
    let mut hi = 2usize;
    while admits(hi) && hi < (1 << 20) {
        hi *= 2;
    }
    let mut lo = hi / 2;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if admits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_sources::OnOffSource;

    fn src() -> OnOffSource {
        OnOffSource::new(0.3, 0.7, 0.5) // mean .15, peak .5
    }

    #[test]
    fn tradeoff_monotone_alpha() {
        // α(ρ) increases with ρ (effective bandwidth is increasing), and
        // Λ stays in (0, 1].
        let pts = rho_tradeoff(src().as_markov(), 20);
        assert!(pts.len() >= 18);
        for w in pts.windows(2) {
            assert!(w[1].alpha > w[0].alpha);
        }
        for p in &pts {
            assert!(p.lambda > 0.0 && p.lambda <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn best_rho_beats_endpoints() {
        let s = src();
        let g = 0.3;
        let d = 25.0;
        let (ebb, best_tail) =
            best_rho_for_delay(s.as_markov(), g, d, TimeModel::Discrete, 60).unwrap();
        assert!(ebb.rho > s.mean() && ebb.rho < g);
        // Compare against two arbitrary fixed choices.
        for rho in [0.16, 0.29] {
            if let Some(c) =
                Lnt94Characterization::characterize(s.as_markov(), rho, PrefactorKind::Lnt94)
            {
                if c.ebb.rho < g {
                    let t = DeltaTailBound::new(c.ebb, g)
                        .discrete()
                        .delay_from_backlog(g)
                        .tail(d);
                    assert!(best_tail <= t + 1e-12, "rho={rho}: {t} < best {best_tail}");
                }
            }
        }
    }

    #[test]
    fn no_candidate_when_g_below_mean() {
        let s = src();
        assert!(best_rho_for_delay(s.as_markov(), 0.1, 10.0, TimeModel::Discrete, 20).is_none());
    }

    #[test]
    fn optimized_admission_at_least_naive() {
        // Optimizing ρ can only help versus any fixed ρ.
        let s = src();
        let d = 30.0;
        let eps = 1e-6;
        let n_opt = max_sessions_optimized_rho(s.as_markov(), 1.0, d, eps, TimeModel::Discrete);
        // Naive: fixed ρ = 0.2 (Table-2 style choice).
        let fixed = Lnt94Characterization::characterize(s.as_markov(), 0.2, PrefactorKind::Lnt94)
            .unwrap()
            .ebb;
        let n_naive = crate::admission::max_rpps_sessions(
            fixed,
            1.0,
            crate::admission::QosTarget::new(d, eps),
            TimeModel::Discrete,
        );
        assert!(
            n_opt >= n_naive,
            "optimized {n_opt} must be >= naive {n_naive}"
        );
        assert!(n_opt >= 1);
        // Never beyond stability.
        assert!((n_opt as f64) * s.mean() < 1.0);
    }

    #[test]
    fn optimized_admission_monotone_in_epsilon() {
        let s = src();
        let strict =
            max_sessions_optimized_rho(s.as_markov(), 1.0, 20.0, 1e-9, TimeModel::Discrete);
        let lax = max_sessions_optimized_rho(s.as_markov(), 1.0, 20.0, 1e-3, TimeModel::Discrete);
        assert!(lax >= strict);
    }
}
