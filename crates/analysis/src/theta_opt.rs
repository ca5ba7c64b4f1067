//! Optimizing the Chernoff parameter `θ`.
//!
//! Each theorem produces a family `θ ↦ (Λ(θ), θ)` of valid bounds on a
//! domain `(0, θ_sup)`; at a given threshold `x` the tightest is
//! `min_θ ln Λ(θ) - θ x`. `ln Λ(θ)` diverges at both ends of the domain
//! (like `-ln θ` at 0 and `-ln(θ_sup - θ)` at the ceiling), so the
//! objective is coercive and a golden-section search over a slightly
//! shrunk interval is robust.

use gps_ebb::numeric::{grid_argmin, try_golden_min, NumericError};
use gps_ebb::TailBound;

/// Number of uniform probe cells used to seed the golden refinement.
pub(crate) const THETA_PROBES: usize = 32;

/// Finds the `θ ∈ (0, theta_sup)` whose bound is tightest at threshold
/// `x`, i.e. minimizes `log_tail(x)`. `family(θ)` may return `None` for
/// infeasible `θ` (treated as `+∞`).
///
/// Returns the best bound found, or `None` if the family is empty on the
/// probed interval. Panics on out-of-domain `theta_sup`/`x`; see
/// [`try_optimize_tail`] for the fully typed variant.
pub(crate) fn optimize_tail(
    theta_sup: f64,
    x: f64,
    family: impl Fn(f64) -> Option<TailBound>,
) -> Option<TailBound> {
    match try_optimize_tail(theta_sup, x, family) {
        Ok(b) => Some(b),
        Err(NumericError::EmptyFamily) => None,
        Err(e) => panic!("{e}"),
    }
}

/// [`optimize_tail`] with every failure mode expressed as a typed
/// [`NumericError`]: bad `theta_sup`/`x` become `InvalidDomain` instead of
/// a panic, and a family that is infeasible at every probe becomes
/// `EmptyFamily` instead of `None`.
pub(crate) fn try_optimize_tail(
    theta_sup: f64,
    x: f64,
    family: impl Fn(f64) -> Option<TailBound>,
) -> Result<TailBound, NumericError> {
    try_optimize_tail_seeded(theta_sup, x, None, family).map(|(b, _)| b)
}

/// [`try_optimize_tail`] with a warm-start hint: the probe-grid cell that
/// seeded a *previous* optimization of a nearby family (e.g. the same
/// session at a slightly different service rate). Returns the optimized
/// bound together with the winning probe cell, to be fed back as the hint
/// for the next incremental change.
///
/// The hint only short-circuits the probe scan — [`grid_argmin`]
/// hill-descends from the hinted cell to the *same* smallest-index grid
/// argmin the full scan finds (the Lemma-6 objectives are convex with an
/// interval feasible domain), and the golden refinement that follows is
/// identical. Warm-started and from-scratch calls therefore return
/// bit-identical bounds; the admission engine's determinism tests pin
/// this.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(v > 0.0)` also rejects NaN
pub(crate) fn try_optimize_tail_seeded(
    theta_sup: f64,
    x: f64,
    hint: Option<usize>,
    family: impl Fn(f64) -> Option<TailBound>,
) -> Result<(TailBound, usize), NumericError> {
    if !(theta_sup > 0.0) || !theta_sup.is_finite() {
        return Err(NumericError::InvalidDomain {
            what: "theta_sup",
            value: theta_sup,
        });
    }
    if !(x >= 0.0) {
        return Err(NumericError::InvalidDomain {
            what: "x",
            value: x,
        });
    }
    let _span = gps_obs::span("analysis/theta_opt");
    let lo = theta_sup * 1e-6;
    let hi = theta_sup * (1.0 - 1e-9);
    let objective = |t: f64| match family(t) {
        Some(b) => b.log_tail(x),
        None => f64::INFINITY,
    };
    // The objective is convex in θ for all the Lemma-6-derived families
    // (sum of convex terms), but guard against plateaus of infeasibility by
    // seeding golden search only if some probe is finite.
    let (seed_cell, seed_t, _) =
        grid_argmin(lo, hi, THETA_PROBES, hint, objective).ok_or(NumericError::EmptyFamily)?;
    // Refine around the seed within one probe spacing.
    let span = (hi - lo) / THETA_PROBES as f64;
    let (t_star, _) = try_golden_min(
        (seed_t - span).max(lo),
        (seed_t + span).min(hi),
        1e-10,
        objective,
    )?;
    let candidate = family(t_star);
    // Keep whichever of seed/refined is better (golden search could land on
    // an infeasible pocket in pathological families).
    match (candidate, family(seed_t)) {
        (Some(a), Some(b)) => Ok((
            if a.log_tail(x) <= b.log_tail(x) { a } else { b },
            seed_cell,
        )),
        (Some(a), None) => Ok((a, seed_cell)),
        (None, Some(b)) => Ok((b, seed_cell)),
        (None, None) => Err(NumericError::EmptyFamily),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_analytic_optimum() {
        // Family Λ(θ) = e^{θ²} (log-convex): minimize θ² - θx -> θ* = x/2.
        let family = |t: f64| Some(TailBound::new((t * t).exp(), t));
        let x = 0.8;
        let best = optimize_tail(10.0, x, family).unwrap();
        assert!((best.decay - x / 2.0).abs() < 1e-4);
    }

    #[test]
    fn handles_partial_domain() {
        // Infeasible below θ=1.
        let family = |t: f64| {
            if t < 1.0 {
                None
            } else {
                Some(TailBound::new(1.0, t))
            }
        };
        // Larger θ always better for fixed prefactor: pushes to the ceiling.
        let best = optimize_tail(2.0, 5.0, family).unwrap();
        assert!(best.decay > 1.9);
    }

    #[test]
    fn none_when_family_empty() {
        assert!(optimize_tail(1.0, 1.0, |_| None).is_none());
    }

    #[test]
    fn try_variant_types_each_failure() {
        assert_eq!(
            try_optimize_tail(1.0, 1.0, |_| None),
            Err(NumericError::EmptyFamily)
        );
        assert_eq!(
            try_optimize_tail(0.0, 1.0, |t| Some(TailBound::new(1.0, t))),
            Err(NumericError::InvalidDomain {
                what: "theta_sup",
                value: 0.0
            })
        );
        assert_eq!(
            try_optimize_tail(1.0, -0.5, |t| Some(TailBound::new(1.0, t))),
            Err(NumericError::InvalidDomain {
                what: "x",
                value: -0.5
            })
        );
        assert!(matches!(
            try_optimize_tail(f64::NAN, 1.0, |t| Some(TailBound::new(1.0, t))),
            Err(NumericError::InvalidDomain {
                what: "theta_sup",
                ..
            })
        ));
    }

    #[test]
    fn try_variant_agrees_with_wrapper() {
        let family = |t: f64| Some(TailBound::new((t * t).exp(), t));
        let a = optimize_tail(10.0, 0.8, family).unwrap();
        let b = try_optimize_tail(10.0, 0.8, family).unwrap();
        assert_eq!(a.prefactor.to_bits(), b.prefactor.to_bits());
        assert_eq!(a.decay.to_bits(), b.decay.to_bits());
    }

    #[test]
    fn seeded_variant_is_bit_identical_for_every_hint() {
        // A Lemma-6-shaped convex family; warm-starting from any cell must
        // reproduce the from-scratch optimum exactly.
        let family = |t: f64| {
            if t <= 0.0 || t >= 2.0 {
                None
            } else {
                Some(TailBound::new(1.0 / (t * (2.0 - t)), t))
            }
        };
        let (cold, cold_cell) = try_optimize_tail_seeded(2.0, 3.0, None, family).unwrap();
        for hint in 0..=THETA_PROBES {
            let (warm, warm_cell) = try_optimize_tail_seeded(2.0, 3.0, Some(hint), family).unwrap();
            assert_eq!(cold.prefactor.to_bits(), warm.prefactor.to_bits());
            assert_eq!(cold.decay.to_bits(), warm.decay.to_bits());
            assert_eq!(cold_cell, warm_cell);
        }
    }

    #[test]
    fn beats_fixed_theta_choices() {
        // A realistic family: Λ(θ) = 1/(θ(2-θ)) on (0,2).
        let family = |t: f64| {
            if t <= 0.0 || t >= 2.0 {
                None
            } else {
                Some(TailBound::new(1.0 / (t * (2.0 - t)), t))
            }
        };
        for x in [0.5, 1.0, 5.0, 20.0] {
            let best = optimize_tail(2.0, x, family).unwrap();
            for fixed in [0.2, 0.5, 1.0, 1.5, 1.9] {
                let fb = family(fixed).unwrap();
                assert!(
                    best.log_tail(x) <= fb.log_tail(x) + 1e-6,
                    "x={x}: optimum {} worse than fixed θ={fixed}",
                    best.decay
                );
            }
        }
    }
}
