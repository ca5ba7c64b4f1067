//! End-to-end delay bounds by combining per-node E.B. bounds.
//!
//! For general CRST (non-RPPS) networks the paper computes per-node bounds
//! recursively and then "the stochastic bound on the end-to-end delay can
//! be computed by convolving the per-node bounds along the session
//! routes". This module implements two rigorous combination rules for
//! per-node bounds `Pr{D_m >= x} <= Λ_m e^{-θ_m x}`:
//!
//! * `e2e_delay_split` — the **union/split** rule: for any budget split
//!   `Σ d_m = d`, `Pr{Σ D_m >= d} <= Σ_m Λ_m e^{-θ_m d_m}`; the split is
//!   optimized in closed form by equalizing the marginal decay
//!   (water-filling on `θ_m d_m - ln Λ_m`).
//! * `e2e_delay_mgf` — the **MGF/Hölder** rule: each tail bound implies
//!   the MGF envelope `E e^{s D_m} <= 1 + s Λ_m/(θ_m - s)` (the Eq. 19
//!   trick with `ρ = 0`), and Hölder's inequality combines the nodes
//!   without any independence assumption; the Chernoff parameter is then
//!   optimized.
//!
//! [`e2e_delay`] evaluates both and returns the pointwise tighter value —
//! both are valid upper bounds, so their minimum is too.

use gps_ebb::numeric::golden_min;
use gps_ebb::TailBound;

/// Union/split rule with an optimized budget split.
///
/// Minimizing `max_m ln(Λ_m e^{-θ_m d_m})` (the sum is at most `M` times
/// the max) is a water-filling problem; we instead directly minimize the
/// true objective `ln Σ_m Λ_m e^{-θ_m d_m}` with the closed-form split
/// that equalizes the exponents `θ_m d_m - ln Λ_m = c`, which is optimal
/// by Lagrange (all terms share the multiplier `∂/∂d_m = -θ_m ·
/// term_m = λ`⇒ terms proportional to `1/θ_m`... we keep the equalized-
/// exponent split, which is exactly optimal when all `θ_m` are equal and
/// within `ln M` of optimal otherwise).
///
/// Returns the tail-probability bound at end-to-end delay `d` (clamped to
/// 1), or 1.0 for `d <= 0`. Empty input means zero delay: returns 0 for
/// `d > 0`.
pub(crate) fn e2e_delay_split(bounds: &[TailBound], d: f64) -> f64 {
    if bounds.is_empty() {
        return if d > 0.0 { 0.0 } else { 1.0 };
    }
    if d <= 0.0 {
        return 1.0;
    }
    // Equalize e_m := θ_m d_m - ln Λ_m = c subject to Σ d_m = d:
    // d_m = (c + ln Λ_m)/θ_m  ⇒  c = (d - Σ ln Λ_m/θ_m) / Σ 1/θ_m.
    // Negative d_m would mean that node needs no budget; clamp by
    // iterating: drop nodes whose optimal share is negative and re-solve
    // (their D_m >= 0 tail is <= Λ_m anyway, folded into the sum at
    // d_m = 0).
    let mut active: Vec<usize> = (0..bounds.len()).collect();
    loop {
        let inv_sum: f64 = active.iter().map(|&m| 1.0 / bounds[m].decay).sum();
        let log_sum: f64 = active
            .iter()
            .map(|&m| bounds[m].prefactor.ln() / bounds[m].decay)
            .sum();
        let c = (d - log_sum) / inv_sum;
        let mut dropped = false;
        active.retain(|&m| {
            let dm = (c + bounds[m].prefactor.ln()) / bounds[m].decay;
            if dm < 0.0 {
                dropped = true;
                false
            } else {
                true
            }
        });
        if !dropped || active.is_empty() {
            let mut total = 0.0;
            if active.is_empty() {
                // All nodes get zero budget: trivial sum of prefactors.
                for b in bounds {
                    total += b.prefactor.min(1.0);
                }
            } else {
                for (m, b) in bounds.iter().enumerate() {
                    if active.contains(&m) {
                        total += (-c).exp();
                    } else {
                        total += b.tail(0.0);
                    }
                }
            }
            return total.min(1.0);
        }
    }
}

/// MGF/Hölder rule: combine via `E e^{sD} <= Π_m (E e^{p_m s
/// D_m})^{1/p_m}` with decay-equalizing `p_m`, then optimize `s`.
///
/// Needs no independence between the per-node delays (they are correlated
/// through shared queues). Returns the bound at `d` (clamped to 1).
pub(crate) fn e2e_delay_mgf(bounds: &[TailBound], d: f64) -> f64 {
    if bounds.is_empty() {
        return if d > 0.0 { 0.0 } else { 1.0 };
    }
    if d <= 0.0 {
        return 1.0;
    }
    // Equalizing exponents: p_m = Σ_k (1/θ_k) · θ_m, giving the common
    // ceiling s_sup = 1/Σ(1/θ_m).
    let inv_sum: f64 = bounds.iter().map(|b| 1.0 / b.decay).sum();
    let s_sup = 1.0 / inv_sum;
    let objective = |s: f64| -> f64 {
        if s <= 0.0 || s >= s_sup {
            return f64::INFINITY;
        }
        let mut log_mgf = 0.0;
        for b in bounds {
            let p = inv_sum * b.decay;
            let ps = p * s; // < θ_m by construction
                            // E e^{ps D} <= 1 + ps·Λ/(θ - ps); tempered by 1/p.
            log_mgf += (1.0 + ps * b.prefactor / (b.decay - ps)).ln() / p;
        }
        log_mgf - s * d
    };
    let (_, v) = golden_min(s_sup * 1e-6, s_sup * (1.0 - 1e-9), 1e-10, objective);
    v.exp().min(1.0)
}

/// The pointwise-tighter of the two combination rules at delay `d`.
pub fn e2e_delay(bounds: &[TailBound], d: f64) -> f64 {
    e2e_delay_split(bounds, d).min(e2e_delay_mgf(bounds, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_reduces_to_its_bound() {
        let b = TailBound::new(0.8, 2.0);
        for d in [0.5, 1.0, 3.0] {
            let split = e2e_delay_split(&[b], d);
            assert!((split - b.tail(d)).abs() < 1e-9, "split at {d}");
            // MGF rule is also valid but need not be tight for one node.
            assert!(e2e_delay_mgf(&[b], d) >= b.tail(d) - 1e-9);
        }
    }

    #[test]
    fn identical_nodes_split_evenly() {
        let b = TailBound::new(1.0, 2.0);
        let d = 4.0;
        // Equal split: each node gets d/2; bound = 2·e^{-2·2} = 2e^{-4}.
        let got = e2e_delay_split(&[b, b], d);
        let want: f64 = 2.0 * (-4.0f64).exp();
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn bounds_clamp_to_one() {
        let b = TailBound::new(5.0, 0.1);
        assert_eq!(e2e_delay(&[b, b, b], 0.01), 1.0);
        assert_eq!(e2e_delay(&[b], -1.0), 1.0);
    }

    #[test]
    fn empty_route_zero_delay() {
        assert_eq!(e2e_delay(&[], 0.5), 0.0);
        assert_eq!(e2e_delay(&[], 0.0), 1.0);
    }

    #[test]
    fn combined_decays_with_d() {
        let bounds = [TailBound::new(1.5, 1.0), TailBound::new(0.7, 3.0)];
        let mut prev = 1.0;
        for k in 1..20 {
            let v = e2e_delay(&bounds, k as f64);
            assert!(v <= prev + 1e-12);
            prev = v;
        }
        assert!(prev < 1e-3);
    }

    #[test]
    fn heterogeneous_split_beats_naive_even_split() {
        // One fast-decay node, one slow: optimal split gives the slow node
        // more budget than d/2.
        let bounds = [TailBound::new(1.0, 10.0), TailBound::new(1.0, 0.5)];
        let d = 10.0;
        let opt = e2e_delay_split(&bounds, d);
        let naive = bounds[0].tail(d / 2.0) + bounds[1].tail(d / 2.0);
        assert!(opt <= naive + 1e-12);
    }

    #[test]
    fn mgf_rule_valid_against_bruteforce_exponentials() {
        // If D_m were exactly exponential with the bound as CCDF, the true
        // sum-tail is computable by convolution; both rules must dominate
        // it. Two Exp(θ) variables: P{D1+D2 >= d} = e^{-θd}(1 + θd).
        let theta = 1.3;
        let b = TailBound::new(1.0, theta);
        for d in [1.0, 2.0, 5.0] {
            let truth = (-theta * d).exp() * (1.0 + theta * d);
            assert!(e2e_delay_split(&[b, b], d) >= truth - 1e-12);
            assert!(e2e_delay_mgf(&[b, b], d) >= truth - 1e-12);
        }
    }

    #[test]
    fn min_rule_at_least_as_tight_as_each() {
        let bounds = [TailBound::new(2.0, 1.0), TailBound::new(0.5, 4.0)];
        for d in [0.5, 2.0, 8.0] {
            let m = e2e_delay(&bounds, d);
            assert!(m <= e2e_delay_split(&bounds, d) + 1e-15);
            assert!(m <= e2e_delay_mgf(&bounds, d) + 1e-15);
        }
    }
}
