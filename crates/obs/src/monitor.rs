//! Online bound-violation monitoring: compare empirical tail frequencies
//! `P(Q_i > b)` / `P(D_i > d)` against analytic exponential tail bounds
//! while a campaign is still folding replications.
//!
//! The curves live here as plain `(prefactor, decay)` pairs rather than
//! as `gps_ebb`/`gps_analysis` types: `gps_obs` sits below those crates
//! in the dependency graph, and the bound the paper's theorems produce
//! is always of the form `min(1, Λ·e^{-θx})` — two floats carry it
//! losslessly. Experiment binaries construct [`BoundCurve`]s from
//! whatever theorem applies (Theorem 7/8, Lemma 5, Theorem 10, …) and
//! hand them to the campaign runner, which calls back per replication
//! fold.
//!
//! A *violation* is a grid point where the empirical frequency exceeds
//! the bound by more than finite-sample noise allows:
//!
//! ```text
//! p  >  tolerance · min(1, Λ·e^{-θx})  +  sigmas · sqrt(p(1-p)/n)
//! ```
//!
//! with `sigmas = 3` (the same 3σ binomial allowance the validation
//! binaries print) and `tolerance` from `GPS_OBS_VIOL_TOL` (default 1 —
//! the theorems are strict dominance claims, so no extra slack is needed
//! beyond the standard-error term; raise it to quiet short exploratory
//! runs). Confirmed violations emit a `warn` journal event on
//! `obs.monitor` and bump the `obs.bound_violations` counter (plus a
//! per-session/kind labeled counter), so a long campaign flags a broken
//! bound the moment it appears instead of after a CSV diff.

use crate::metrics::{labeled, Registry};

/// The tolerance environment knob.
pub(crate) const VIOLATION_TOLERANCE_ENV: &str = "GPS_OBS_VIOL_TOL";

/// An exponential tail bound `x ↦ min(1, Λ·e^{-θx})`, the shape every
/// E.B.B.-style theorem in this workspace produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundCurve {
    /// The prefactor Λ.
    pub prefactor: f64,
    /// The decay rate θ.
    pub decay: f64,
}

impl BoundCurve {
    /// A curve with prefactor `prefactor` and decay `decay`.
    pub fn new(prefactor: f64, decay: f64) -> BoundCurve {
        BoundCurve { prefactor, decay }
    }

    /// The bound at `x`, clamped to be a probability.
    pub fn tail(&self, x: f64) -> f64 {
        (self.prefactor * (-self.decay * x).exp()).min(1.0)
    }
}

/// The analytic curves for one session: backlog and/or delay, plus an
/// optional left shift applied to delay thresholds before evaluating the
/// bound (the network validation compares at `d-1` because the slotted
/// simulator timestamps departures at slot *ends*).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionCurves {
    /// Backlog tail bound, if monitored.
    pub backlog: Option<BoundCurve>,
    /// Delay tail bound, if monitored.
    pub delay: Option<BoundCurve>,
    /// Slots subtracted from a delay threshold before evaluating the
    /// delay bound.
    pub delay_shift: f64,
}

/// Which empirical series a check is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Backlog CCDF `P(Q > b)`.
    Backlog,
    /// Delay CCDF `P(D > d)`.
    Delay,
}

impl SeriesKind {
    /// The wire/label name.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Backlog => "backlog",
            SeriesKind::Delay => "delay",
        }
    }
}

/// The online monitor: per-session curves plus the noise allowance.
#[derive(Debug, Clone)]
pub struct BoundMonitor {
    curves: Vec<SessionCurves>,
    tolerance: f64,
    sigmas: f64,
}

impl BoundMonitor {
    /// A monitor over `curves` (indexed by session), with the tolerance
    /// taken from `GPS_OBS_VIOL_TOL` (default 1.0) and a 3σ binomial
    /// standard-error allowance.
    pub fn new(curves: Vec<SessionCurves>) -> BoundMonitor {
        let tolerance = std::env::var(VIOLATION_TOLERANCE_ENV)
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|t| t.is_finite() && *t > 0.0)
            .unwrap_or(1.0);
        BoundMonitor {
            curves,
            tolerance,
            sigmas: 3.0,
        }
    }

    /// Number of sessions the monitor covers.
    pub fn num_sessions(&self) -> usize {
        self.curves.len()
    }

    /// The active multiplicative tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Checks one empirical CCDF series (grid point, frequency) for
    /// session `session` against its analytic curve, with `samples`
    /// observations behind each frequency and `fold` identifying the
    /// replication fold being checked. Returns the number of violating
    /// grid points; on any violation, emits one `warn` journal event and
    /// bumps the `obs.bound_violations` counters on `registry`.
    ///
    /// Sessions without a curve for `kind`, vacuous grid points
    /// (`bound ≥ 1`), and empty sample sets are all silently fine.
    pub fn check_series(
        &self,
        registry: &Registry,
        session: usize,
        kind: SeriesKind,
        series: &[(f64, f64)],
        samples: u64,
        fold: u64,
    ) -> u64 {
        let Some(sc) = self.curves.get(session) else {
            return 0;
        };
        let (curve, shift) = match kind {
            SeriesKind::Backlog => (sc.backlog, 0.0),
            SeriesKind::Delay => (sc.delay, sc.delay_shift),
        };
        let Some(curve) = curve else {
            return 0;
        };
        if samples == 0 {
            return 0;
        }
        let mut violations = 0u64;
        // The grid point with the largest excess, reported in the event.
        let mut worst = (0.0f64, 0.0f64, 0.0f64, f64::NEG_INFINITY);
        for &(x, p) in series {
            let bound = self.tolerance * curve.tail((x - shift).max(0.0));
            if bound >= 1.0 {
                continue;
            }
            let se = (p * (1.0 - p) / samples as f64).sqrt();
            let excess = p - (bound + self.sigmas * se);
            if excess > 0.0 {
                violations += 1;
                if excess > worst.3 {
                    worst = (x, p, bound, excess);
                }
            }
        }
        if violations > 0 {
            let (x, p, bound, _) = worst;
            crate::warn(
                "obs.monitor",
                "bound_violation",
                &[
                    ("session", session.into()),
                    ("kind", kind.as_str().into()),
                    ("fold", fold.into()),
                    ("points", violations.into()),
                    ("x", x.into()),
                    ("empirical", p.into()),
                    ("bound", bound.into()),
                    ("samples", samples.into()),
                    ("tolerance", self.tolerance.into()),
                ],
            );
            registry.counter("obs.bound_violations").add(violations);
            let session_label = session.to_string();
            registry
                .counter(&labeled(
                    "obs.bound_violations.by_series",
                    &[("session", &session_label), ("kind", kind.as_str())],
                ))
                .add(violations);
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BoundMonitor {
        /// Pins the tolerance, whatever `GPS_OBS_VIOL_TOL` says.
        fn with_tolerance(mut self, tolerance: f64) -> BoundMonitor {
            self.tolerance = tolerance;
            self
        }
    }

    fn series_from(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
        points.to_vec()
    }

    #[test]
    fn curve_tail_is_clamped() {
        let c = BoundCurve::new(50.0, 1.0);
        assert_eq!(c.tail(0.0), 1.0);
        assert!((c.tail(10.0) - 50.0 * (-10.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn dominated_series_is_silent() {
        let r = Registry::new();
        let m = BoundMonitor::new(vec![SessionCurves {
            backlog: Some(BoundCurve::new(1.0, 0.5)),
            ..Default::default()
        }])
        .with_tolerance(1.0);
        // Empirical tail well under e^{-x/2}.
        let s = series_from(&[(0.0, 1.0), (2.0, 0.1), (4.0, 0.01), (8.0, 0.0)]);
        assert_eq!(
            m.check_series(&r, 0, SeriesKind::Backlog, &s, 100_000, 0),
            0
        );
        assert_eq!(r.counter("obs.bound_violations").get(), 0);
    }

    #[test]
    fn exceedance_fires_counter() {
        let r = Registry::new();
        // Absurdly tight bound: everything nonzero beyond x=0 violates.
        let m = BoundMonitor::new(vec![SessionCurves {
            backlog: Some(BoundCurve::new(1e-9, 5.0)),
            ..Default::default()
        }])
        .with_tolerance(1.0);
        let s = series_from(&[(1.0, 0.5), (2.0, 0.25), (3.0, 0.0)]);
        let v = m.check_series(&r, 0, SeriesKind::Backlog, &s, 1_000_000, 3);
        assert_eq!(v, 2); // the zero-frequency point cannot violate
        assert_eq!(r.counter("obs.bound_violations").get(), 2);
        assert_eq!(
            r.counter("obs.bound_violations.by_series{session=0,kind=backlog}")
                .get(),
            2
        );
    }

    #[test]
    fn small_samples_are_forgiven_by_standard_error() {
        let r = Registry::new();
        let m = BoundMonitor::new(vec![SessionCurves {
            backlog: Some(BoundCurve::new(1.0, 1.0)),
            ..Default::default()
        }])
        .with_tolerance(1.0);
        // p = 0.5 at x = 1 exceeds e^{-1} ≈ 0.368, but with only 10
        // samples the 3σ allowance (≈ 0.47) absorbs it…
        let s = series_from(&[(1.0, 0.5)]);
        assert_eq!(m.check_series(&r, 0, SeriesKind::Backlog, &s, 10, 0), 0);
        // …and with 10⁶ samples it does not.
        assert_eq!(
            m.check_series(&r, 0, SeriesKind::Backlog, &s, 1_000_000, 0),
            1
        );
    }

    #[test]
    fn tolerance_scales_the_bound() {
        let r = Registry::new();
        let curves = vec![SessionCurves {
            backlog: Some(BoundCurve::new(1.0, 1.0)),
            ..Default::default()
        }];
        let s = series_from(&[(1.0, 0.5)]);
        let strict = BoundMonitor::new(curves.clone()).with_tolerance(1.0);
        assert_eq!(
            strict.check_series(&r, 0, SeriesKind::Backlog, &s, 1_000_000, 0),
            1
        );
        let slack = BoundMonitor::new(curves).with_tolerance(2.0);
        assert_eq!(
            slack.check_series(&r, 0, SeriesKind::Backlog, &s, 1_000_000, 0),
            0
        );
    }

    #[test]
    fn delay_shift_moves_the_threshold() {
        let r = Registry::new();
        let m = BoundMonitor::new(vec![SessionCurves {
            backlog: None,
            delay: Some(BoundCurve::new(0.9, 2.0)),
            delay_shift: 1.0,
        }])
        .with_tolerance(1.0);
        // At d = 1 the shifted bound is evaluated at 0 → 0.9; p = 0.5
        // does not violate. Without the shift it would (bound ≈ 0.12).
        let s = series_from(&[(1.0, 0.5)]);
        assert_eq!(
            m.check_series(&r, 0, SeriesKind::Delay, &s, 1_000_000, 0),
            0
        );
        let unshifted = BoundMonitor::new(vec![SessionCurves {
            backlog: None,
            delay: Some(BoundCurve::new(0.9, 2.0)),
            delay_shift: 0.0,
        }])
        .with_tolerance(1.0);
        assert_eq!(
            unshifted.check_series(&r, 0, SeriesKind::Delay, &s, 1_000_000, 0),
            1
        );
    }

    #[test]
    fn missing_session_or_curve_is_silent() {
        let r = Registry::new();
        let m = BoundMonitor::new(vec![SessionCurves::default()]);
        let s = series_from(&[(1.0, 1.0)]);
        assert_eq!(m.check_series(&r, 0, SeriesKind::Backlog, &s, 1000, 0), 0);
        assert_eq!(m.check_series(&r, 5, SeriesKind::Backlog, &s, 1000, 0), 0);
        assert_eq!(m.check_series(&r, 0, SeriesKind::Backlog, &s, 0, 0), 0);
    }
}
