//! Admission control on top of the statistical bounds — the application
//! that motivates the paper (Section 1: deterministic bounds "are usually
//! very conservative … low utilization of network bandwidth will result").
//!
//! A *QoS target* is a pair `(d, ε)`: the session's delay must exceed `d`
//! with probability at most `ε`. Under an RPPS GPS server, Theorem 10/15
//! give each session the closed-form delay bound
//! `Λ_i^net e^{-α_i g_i d}`, so admissibility of a session *set* is a
//! simple predicate, and the maximum number of homogeneous sessions is
//! found by search. The deterministic Parekh–Gallager counterpart (used
//! for the utilization-gain comparison) lives in `gps-netcalc`.

use gps_ebb::{DeltaTailBound, EbbProcess, TimeModel};

/// A statistical delay target: `Pr{D > delay} <= epsilon`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosTarget {
    /// Delay threshold `d`.
    pub delay: f64,
    /// Violation probability `ε`.
    pub epsilon: f64,
}

impl QosTarget {
    /// Creates a target.
    ///
    /// # Panics
    ///
    /// Panics unless `delay` is finite and positive and `epsilon` lies in
    /// `(0, 1)`: an infinite delay threshold is met by every session, so no
    /// bound could ever refuse one.
    pub fn new(delay: f64, epsilon: f64) -> Self {
        assert!(
            delay > 0.0 && delay.is_finite(),
            "delay threshold must be finite and positive"
        );
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "violation probability must be in (0,1)"
        );
        Self { delay, epsilon }
    }
}

/// Checks whether `n` homogeneous copies of `session` sharing an RPPS GPS
/// server of rate `rate` all meet `target` (by the Theorem 10 bound).
///
/// Under RPPS with `n` identical sessions, `g = rate/n`, and the session
/// is admissible when `g > ρ` and the delay bound at `target.delay` is at
/// most `target.epsilon`.
pub(crate) fn rpps_admits(
    session: EbbProcess,
    n: usize,
    rate: f64,
    target: QosTarget,
    model: TimeModel,
) -> bool {
    assert!(n >= 1);
    let g = rate / n as f64;
    if g <= session.rho {
        return false;
    }
    let delay_bound = DeltaTailBound::new(session, g)
        .bound(model)
        .delay_from_backlog(g);
    delay_bound.tail(target.delay) <= target.epsilon
}

/// Cap on the exponential bracket search (the first power of two past
/// `1 << 30`): session counts beyond this are reported as exactly
/// [`RPPS_SESSION_CAP`] ("effectively unbounded").
pub(crate) const RPPS_SESSION_CAP: usize = 1 << 31;

/// The largest `n` such that `n` homogeneous sessions are admissible
/// (binary search over the monotone predicate). Returns 0 if even one
/// session fails, and `RPPS_SESSION_CAP` when the count is effectively
/// unbounded (still admissible at the cap).
pub fn max_rpps_sessions(
    session: EbbProcess,
    rate: f64,
    target: QosTarget,
    model: TimeModel,
) -> usize {
    if !rpps_admits(session, 1, rate, target, model) {
        return 0;
    }
    // Exponential search for an upper bracket, then binary search. When
    // the doubling escapes the cap with `hi` *still admissible* there is
    // no inadmissible boundary to bisect against — the old code fed the
    // admissible `hi` to the binary search as if it were inadmissible and
    // silently under-reported by one; return the cap instead.
    let mut hi = 2usize;
    while hi < RPPS_SESSION_CAP && rpps_admits(session, hi, rate, target, model) {
        hi *= 2;
    }
    if rpps_admits(session, hi, rate, target, model) {
        return RPPS_SESSION_CAP; // hi == cap and still admissible
    }
    let mut lo = hi / 2; // admissible
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if rpps_admits(session, mid, rate, target, model) {
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

    /// The deterministic stability ceiling `floor(rate/ρ)` (sessions whose
    /// mean envelope fits; ignores delay targets): the reference that
    /// [`max_rpps_sessions`] may never exceed.
    fn stability_ceiling(session: EbbProcess, rate: f64) -> usize {
        if session.rho <= 0.0 {
            return usize::MAX;
        }
        let n = (rate / session.rho).floor() as usize;
        // Strict inequality Σρ < r: if it divides exactly, one less.
        if n as f64 * session.rho >= rate {
            n.saturating_sub(1)
        } else {
            n
        }
    }

    fn voice_like() -> EbbProcess {
        // Table 2 session 1 (set 1) as a template.
        EbbProcess::new(0.02, 1.0, 17.4) // scaled-down copy: 2% load each
    }

    #[test]
    fn admits_monotone_in_n() {
        let s = voice_like();
        let t = QosTarget::new(5.0, 1e-6);
        let mut prev = true;
        for n in 1..80 {
            let now = rpps_admits(s, n, 1.0, t, TimeModel::Discrete);
            assert!(!now || prev, "admission must be monotone (failed at {n})");
            prev = now;
        }
    }

    #[test]
    fn max_sessions_is_boundary() {
        let s = voice_like();
        let t = QosTarget::new(5.0, 1e-6);
        let n = max_rpps_sessions(s, 1.0, t, TimeModel::Discrete);
        assert!(n >= 1);
        assert!(rpps_admits(s, n, 1.0, t, TimeModel::Discrete));
        assert!(!rpps_admits(s, n + 1, 1.0, t, TimeModel::Discrete));
    }

    #[test]
    fn stricter_target_admits_fewer() {
        let s = voice_like();
        let loose = QosTarget::new(10.0, 1e-3);
        let tight = QosTarget::new(2.0, 1e-9);
        let n_loose = max_rpps_sessions(s, 1.0, loose, TimeModel::Discrete);
        let n_tight = max_rpps_sessions(s, 1.0, tight, TimeModel::Discrete);
        assert!(n_tight <= n_loose);
    }

    #[test]
    fn stability_ceiling_respects_strictness() {
        let s = EbbProcess::new(0.25, 1.0, 1.0);
        assert_eq!(stability_ceiling(s, 1.0), 3); // 4·0.25 = 1.0 not < 1
        let s2 = EbbProcess::new(0.3, 1.0, 1.0);
        assert_eq!(stability_ceiling(s2, 1.0), 3); // 3·0.3 = .9 < 1
    }

    #[test]
    fn never_admits_beyond_stability() {
        let s = EbbProcess::new(0.1, 1.0, 2.0);
        let t = QosTarget::new(1e6, 0.999999); // absurdly lax
        let n = max_rpps_sessions(s, 1.0, t, TimeModel::Discrete);
        assert!(n <= stability_ceiling(s, 1.0));
    }

    #[test]
    fn cap_break_reports_hi_not_hi_minus_one() {
        // Regression for the bracket bug: a near-zero-load session admits
        // any realistic count, so the exponential search escapes the cap
        // with `hi` still admissible. The old code handed that admissible
        // `hi` to the binary search as the inadmissible endpoint and
        // returned `hi - 1`; the fix reports the canonical cap.
        let s = EbbProcess::new(1e-12, 1e-15, 1.0);
        let t = QosTarget::new(1e6, 0.5);
        assert!(rpps_admits(
            s,
            RPPS_SESSION_CAP,
            1.0,
            t,
            TimeModel::Discrete
        ));
        let n = max_rpps_sessions(s, 1.0, t, TimeModel::Discrete);
        assert_eq!(n, RPPS_SESSION_CAP);
        // The reported count itself is admissible — the old answer was,
        // too, but it claimed a boundary one below an admissible point.
        assert!(rpps_admits(s, n, 1.0, t, TimeModel::Discrete));
    }

    #[test]
    fn zero_when_single_session_fails() {
        let s = EbbProcess::new(0.9, 1.0, 0.5);
        let t = QosTarget::new(0.001, 1e-12);
        assert_eq!(max_rpps_sessions(s, 1.0, t, TimeModel::Discrete), 0);
    }

    #[test]
    #[should_panic(expected = "violation probability")]
    fn target_validation() {
        let _ = QosTarget::new(1.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "delay threshold must be finite and positive")]
    fn target_rejects_infinite_delay() {
        let _ = QosTarget::new(f64::INFINITY, 1e-6);
    }
}
