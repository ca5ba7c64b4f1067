//! Small numerical utilities shared across the workspace: bracketed root
//! finding, golden-section minimization, and overflow-safe log-space
//! helpers.
//!
//! Bound optimization in this workspace is one-dimensional and smooth
//! (prefactors are log-convex in `θ` on their domain), so robust bracketed
//! methods beat anything fancier.

/// Typed failures of the numeric helpers (and of the θ-optimizers built
/// on top of them in `gps_analysis`). These replace hot-path panics so a
/// supervised campaign can report a numeric problem as a recoverable,
/// per-task failure instead of aborting the join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumericError {
    /// A bracket `[lo, hi]` was reversed, empty, or NaN.
    InvalidBracket {
        /// Lower bracket endpoint as given.
        lo: f64,
        /// Upper bracket endpoint as given.
        hi: f64,
    },
    /// A function evaluated non-finite where a finite value was required.
    NonFinite {
        /// The abscissa at which the evaluation escaped.
        x: f64,
    },
    /// No sign change over the bracket, so no root is guaranteed inside.
    NoSignChange {
        /// Lower bracket endpoint.
        lo: f64,
        /// Upper bracket endpoint.
        hi: f64,
    },
    /// A scalar parameter was outside its documented domain.
    InvalidDomain {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An optimization family was infeasible everywhere it was probed.
    EmptyFamily,
}

impl std::fmt::Display for NumericError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericError::InvalidBracket { lo, hi } => {
                write!(f, "invalid bracket [{lo}, {hi}]")
            }
            NumericError::NonFinite { x } => {
                write!(f, "non-finite evaluation at x = {x}")
            }
            NumericError::NoSignChange { lo, hi } => {
                write!(f, "no sign change on [{lo}, {hi}]: root not bracketed")
            }
            NumericError::InvalidDomain { what, value } => {
                write!(f, "{what} = {value} is outside its domain")
            }
            NumericError::EmptyFamily => {
                write!(f, "bound family infeasible at every probed point")
            }
        }
    }
}

impl std::error::Error for NumericError {}

/// Finds a root of `f` on `[lo, hi]` by bisection.
///
/// Requires `f(lo)` and `f(hi)` to have opposite signs (a sign change is the
/// caller's guarantee that a root is bracketed). Returns `None` if the
/// bracket is invalid or either endpoint evaluates non-finite; see
/// `try_bisect` for the variant that reports *why*.
pub fn bisect(lo: f64, hi: f64, tol: f64, f: impl Fn(f64) -> f64) -> Option<f64> {
    try_bisect(lo, hi, tol, f).ok()
}

/// [`bisect`] with a typed reason for every failure mode.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(lo < hi)` also rejects NaN
pub(crate) fn try_bisect(
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    f: impl Fn(f64) -> f64,
) -> Result<f64, NumericError> {
    if !(lo < hi) {
        return Err(NumericError::InvalidBracket { lo, hi });
    }
    let mut flo = f(lo);
    let fhi = f(hi);
    if !flo.is_finite() {
        return Err(NumericError::NonFinite { x: lo });
    }
    if !fhi.is_finite() {
        return Err(NumericError::NonFinite { x: hi });
    }
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() {
        return Err(NumericError::NoSignChange { lo, hi });
    }
    // 200 iterations halve the bracket far below f64 resolution for any
    // sane input; the tolerance check exits earlier in practice.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let fm = f(mid);
        if !fm.is_finite() {
            return Err(NumericError::NonFinite { x: mid });
        }
        if fm == 0.0 || (hi - lo) <= tol * (1.0 + mid.abs()) {
            return Ok(mid);
        }
        if fm.signum() == flo.signum() {
            lo = mid;
            flo = fm;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Minimizes a unimodal `f` on `[lo, hi]` by golden-section search and
/// returns `(argmin, min)`.
///
/// For non-unimodal `f` this still converges to *a* local minimum inside the
/// bracket, which is acceptable for the bound-tightening uses here (the
/// objectives are convex in log space on the feasible interval).
pub fn golden_min(lo: f64, hi: f64, tol: f64, f: impl Fn(f64) -> f64) -> (f64, f64) {
    try_golden_min(lo, hi, tol, f).unwrap_or_else(|e| panic!("{e}"))
}

/// [`golden_min`] with the bracket assertion turned into a typed
/// [`NumericError`], so supervised callers can treat a bad bracket as a
/// recoverable failure instead of a panic.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(lo <= hi)` also rejects NaN
pub fn try_golden_min(
    lo: f64,
    hi: f64,
    tol: f64,
    f: impl Fn(f64) -> f64,
) -> Result<(f64, f64), NumericError> {
    if !(lo <= hi) {
        return Err(NumericError::InvalidBracket { lo, hi });
    }
    const INVPHI: f64 = 0.618_033_988_749_894_8; // 1/φ
    let mut a = lo;
    let mut b = hi;
    let mut c = b - (b - a) * INVPHI;
    let mut d = a + (b - a) * INVPHI;
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..300 {
        if (b - a).abs() <= tol * (1.0 + a.abs() + b.abs()) {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INVPHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INVPHI;
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    Ok((x, f(x)))
}

/// Argmin of `f` over the uniform grid `t_k = lo + (hi-lo)·k/cells`,
/// `k = 0..=cells`, returning `(k, t_k, f(t_k))`; `None` when every grid
/// value is non-finite.
///
/// This is the warm-start entry point for the θ-optimizers: with
/// `hint = None` the full grid is scanned and ties resolve to the
/// *smallest* index (first strictly-smaller value wins, matching a
/// left-to-right scan). With `hint = Some(k0)` the search hill-descends
/// from cell `k0` instead — walk right while the neighbor is strictly
/// smaller, then left while the neighbor is smaller-or-equal — which
/// visits O(distance) cells instead of all of them.
///
/// **Contract:** for a quasi-convex `f` whose finite (feasible) region is
/// an interval containing the hint cell, the descent provably lands on
/// the same smallest-index grid argmin as the full scan, so warm-started
/// and from-scratch callers get *bit-identical* results. If the hint cell
/// evaluates non-finite the function falls back to the full scan, so a
/// stale hint can cost time but never change the answer.
pub fn grid_argmin(
    lo: f64,
    hi: f64,
    cells: usize,
    hint: Option<usize>,
    f: impl Fn(f64) -> f64,
) -> Option<(usize, f64, f64)> {
    assert!(cells >= 1, "grid needs at least one cell");
    let at = |k: usize| lo + (hi - lo) * k as f64 / cells as f64;
    if let Some(k0) = hint {
        let mut k = k0.min(cells);
        let mut fk = f(at(k));
        if fk.is_finite() {
            // Walk right while strictly decreasing…
            while k < cells {
                let fr = f(at(k + 1));
                if fr < fk {
                    k += 1;
                    fk = fr;
                } else {
                    break;
                }
            }
            // …then left while smaller-or-equal, so a flat plateau at the
            // minimum resolves to its leftmost cell exactly like the scan.
            while k > 0 {
                let fl = f(at(k - 1));
                if fl <= fk && fl.is_finite() {
                    k -= 1;
                    fk = fl;
                } else {
                    break;
                }
            }
            return Some((k, at(k), fk));
        }
        // Infeasible hint: fall through to the full scan.
    }
    let mut best: Option<(usize, f64, f64)> = None;
    for k in 0..=cells {
        let t = at(k);
        let v = f(t);
        if v.is_finite() {
            match best {
                None => best = Some((k, t, v)),
                Some((_, _, bv)) if v < bv => best = Some((k, t, v)),
                _ => {}
            }
        }
    }
    best
}

/// `ln(1 - e^{-y})` for `y > 0`, computed without catastrophic cancellation.
///
/// For small `y`, `1 - e^{-y} ≈ y`, and `ln_1m_exp` uses `ln(-expm1(-y))`
/// which is exact in that regime.
pub(crate) fn ln_1m_exp_neg(y: f64) -> f64 {
    debug_assert!(y > 0.0, "ln(1-e^-y) needs y>0, got {y}");
    if y > 0.693 {
        // e^{-y} < 1/2: direct form is stable.
        (1.0 - (-y).exp()).ln()
    } else {
        (-(-y).exp_m1()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(0.0, 2.0, 1e-14, |x| x * x - 2.0).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_endpoint_roots() {
        assert_eq!(bisect(0.0, 1.0, 1e-12, |x| x), Some(0.0));
        assert_eq!(bisect(-1.0, 0.0, 1e-12, |x| x), Some(0.0));
    }

    #[test]
    fn bisect_rejects_bad_brackets() {
        assert!(bisect(1.0, 0.0, 1e-12, |x| x).is_none()); // reversed
        assert!(bisect(1.0, 2.0, 1e-12, |x| x).is_none()); // no sign change
        assert!(bisect(0.0, 1.0, 1e-12, |_| f64::NAN).is_none());
    }

    #[test]
    fn try_bisect_reports_typed_reasons() {
        assert_eq!(
            try_bisect(1.0, 0.0, 1e-12, |x| x),
            Err(NumericError::InvalidBracket { lo: 1.0, hi: 0.0 })
        );
        assert_eq!(
            try_bisect(1.0, 2.0, 1e-12, |x| x),
            Err(NumericError::NoSignChange { lo: 1.0, hi: 2.0 })
        );
        assert_eq!(
            try_bisect(0.0, 1.0, 1e-12, |_| f64::NAN),
            Err(NumericError::NonFinite { x: 0.0 })
        );
        let nan = f64::NAN;
        assert!(matches!(
            try_bisect(nan, 1.0, 1e-12, |x| x),
            Err(NumericError::InvalidBracket { .. })
        ));
    }

    #[test]
    fn try_golden_min_rejects_reversed_bracket() {
        assert_eq!(
            try_golden_min(1.0, 0.0, 1e-12, |x| x),
            Err(NumericError::InvalidBracket { lo: 1.0, hi: 0.0 })
        );
        // Degenerate single-point bracket is allowed (returns the point).
        let (x, fx) = try_golden_min(2.0, 2.0, 1e-12, |x| x * x).unwrap();
        assert_eq!(x, 2.0);
        assert_eq!(fx, 4.0);
    }

    #[test]
    fn numeric_error_display_is_informative() {
        let msgs = [
            NumericError::InvalidBracket { lo: 1.0, hi: 0.0 }.to_string(),
            NumericError::NonFinite { x: 0.5 }.to_string(),
            NumericError::NoSignChange { lo: 0.0, hi: 1.0 }.to_string(),
            NumericError::InvalidDomain {
                what: "theta_sup",
                value: -1.0,
            }
            .to_string(),
            NumericError::EmptyFamily.to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[3].contains("theta_sup"));
    }

    #[test]
    fn golden_min_quadratic() {
        let (x, fx) = golden_min(-10.0, 10.0, 1e-12, |x| (x - 3.0).powi(2) + 1.0);
        assert!((x - 3.0).abs() < 1e-6);
        assert!((fx - 1.0).abs() < 1e-10);
    }

    #[test]
    fn golden_min_boundary() {
        // Monotone decreasing on the bracket: minimum at the right edge.
        let (x, _) = golden_min(0.0, 1.0, 1e-12, |x| -x);
        assert!((x - 1.0).abs() < 1e-6);
    }

    #[test]
    fn grid_argmin_scan_matches_descent_everywhere() {
        // Convex objective with an infeasible (infinite) left tail, the
        // exact shape of the θ-families: every hint must reproduce the
        // full scan bit-for-bit.
        let f = |t: f64| {
            if t < 0.12 {
                f64::INFINITY
            } else {
                (t - 0.61).powi(2)
            }
        };
        let full = grid_argmin(0.0, 1.0, 32, None, f).unwrap();
        for hint in 0..=32 {
            let warm = grid_argmin(0.0, 1.0, 32, Some(hint), f).unwrap();
            assert_eq!(full.0, warm.0, "hint {hint}");
            assert_eq!(full.1.to_bits(), warm.1.to_bits());
            assert_eq!(full.2.to_bits(), warm.2.to_bits());
        }
    }

    #[test]
    fn grid_argmin_plateau_resolves_leftmost() {
        // A flat valley: the scan keeps the first (leftmost) minimal cell,
        // and descent from either side must agree.
        let f = |t: f64| (t - 0.5).abs().max(0.2);
        let full = grid_argmin(0.0, 1.0, 10, None, f).unwrap();
        for hint in [0usize, 3, 5, 9, 10] {
            let warm = grid_argmin(0.0, 1.0, 10, Some(hint), f).unwrap();
            assert_eq!(full.0, warm.0, "hint {hint}");
        }
    }

    #[test]
    fn grid_argmin_none_when_all_infinite() {
        assert!(grid_argmin(0.0, 1.0, 8, None, |_| f64::INFINITY).is_none());
        assert!(grid_argmin(0.0, 1.0, 8, Some(3), |_| f64::INFINITY).is_none());
    }

    #[test]
    fn grid_argmin_counts_fewer_evals_when_warm() {
        use std::cell::Cell;
        let evals = Cell::new(0usize);
        let f = |t: f64| {
            evals.set(evals.get() + 1);
            (t - 0.5).powi(2)
        };
        let (k, _, _) = grid_argmin(0.0, 1.0, 32, None, f).unwrap();
        let cold = evals.get();
        evals.set(0);
        let warm_res = grid_argmin(0.0, 1.0, 32, Some(k), f).unwrap();
        assert_eq!(warm_res.0, k);
        let warm = evals.get();
        assert!(
            warm * 4 <= cold,
            "warm descent should probe far fewer cells ({warm} vs {cold})"
        );
    }

    #[test]
    fn ln_1m_exp_matches_naive_for_moderate_y() {
        for y in [0.8f64, 1.0, 2.0, 10.0] {
            let naive = (1.0 - (-y).exp()).ln();
            assert!((ln_1m_exp_neg(y) - naive).abs() < 1e-12);
        }
    }

    #[test]
    fn ln_1m_exp_stable_for_tiny_y() {
        let y = 1e-12;
        // 1 - e^{-y} ≈ y, so ln ≈ ln y ≈ -27.63.
        let v = ln_1m_exp_neg(y);
        assert!((v - y.ln()).abs() < 1e-6, "got {v}, want ~{}", y.ln());
    }
}
