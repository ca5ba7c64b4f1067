//! End-to-end checks of the observability surfaces added on top of the
//! campaign engine: the Prometheus exposition must be byte-identical at
//! any worker count (it is a pure function of the metrics snapshot, and
//! the snapshot is worker-count-invariant), and the online bound monitor
//! must fire on a config that violates its curves while staying silent
//! on the paper's own validated configuration.

use gps_obs::metrics::Registry;
use gps_obs::monitor::{BoundCurve, BoundMonitor, SessionCurves};
use gps_obs::to_prometheus_text;
use gps_qos::prelude::*;
use gps_sim::runner::{
    merge_single_node_reports, monitor_single_node_fold, record_single_node_metrics,
};
use gps_sources::SlotSource;

fn paper_config(seed: u64) -> SingleNodeRunConfig {
    SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 2_000,
        measure: 50_000,
        seed,
        backlog_grid: (0..40).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..60).map(|i| i as f64).collect(),
    }
}

fn make_sources() -> Vec<Box<dyn SlotSource>> {
    OnOffSource::paper_table1()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn SlotSource>)
        .collect()
}

#[test]
fn prometheus_exposition_is_thread_count_invariant() {
    let base = paper_config(0x0B5);
    let serial = Campaign::new(Pool::new(1), 4)
        .run(&base, |_r| make_sources())
        .unwrap()
        .into_reports();
    let parallel = Campaign::new(Pool::new(4), 4)
        .run(&base, |_r| make_sources())
        .unwrap()
        .into_reports();

    let render = |reports: &[gps_sim::runner::SingleNodeRunReport]| {
        let reg = Registry::new();
        for r in reports {
            record_single_node_metrics(&reg, r);
        }
        to_prometheus_text(&reg.snapshot())
    };
    let a = render(&serial);
    let b = render(&parallel);
    assert!(!a.is_empty() && a.contains("# TYPE sim_measured_slots_total counter"));
    assert_eq!(a, b, "exposition must not depend on worker count");
}

#[test]
fn monitor_fires_on_forced_violation_fixture() {
    // Curves far below the true tails: every queueing session violates.
    let tight = BoundMonitor::new(vec![
        SessionCurves {
            backlog: Some(BoundCurve::new(1e-8, 5.0)),
            delay: Some(BoundCurve::new(1e-8, 5.0)),
            delay_shift: 0.0,
        };
        4
    ]);
    let base = paper_config(0xF1);
    let reports = Campaign::new(Pool::new(2), 2)
        .monitor(&tight)
        .run(&base, |_r| make_sources())
        .unwrap()
        .into_reports();

    // The campaign path records into the global registry.
    let snap = gps_obs::metrics().snapshot();
    let fired = snap
        .counters
        .iter()
        .find(|(name, _)| name == "obs.bound_violations")
        .map(|(_, n)| *n)
        .unwrap_or(0);
    assert!(fired > 0, "tight curves must raise obs.bound_violations");

    // And the per-fold helper agrees on a fresh registry.
    let merged = merge_single_node_reports(&reports);
    let reg = Registry::new();
    assert!(monitor_single_node_fold(&tight, &reg, &merged, 0) > 0);
}

#[test]
fn monitor_silent_on_paper_theorem10_configuration() {
    // The Theorem-10 curves of the paper's Table-1/RPPS scenario: the
    // same dominance property `bounds_vs_simulation.rs` asserts, checked
    // through the monitor path — it must record nothing.
    let sources = OnOffSource::paper_table1();
    let rhos = [0.2, 0.25, 0.2, 0.25];
    let assignment = GpsAssignment::rpps(&rhos, 1.0);
    let curves: Vec<SessionCurves> = (0..4)
        .map(|i| {
            let sess = Lnt94Characterization::characterize(
                sources[i].as_markov(),
                rhos[i],
                PrefactorKind::Lnt94,
            )
            .unwrap()
            .ebb;
            let g = assignment.guaranteed_rate(i);
            let (qb, db) = theorem10(sess, g, TimeModel::Discrete);
            SessionCurves {
                backlog: Some(BoundCurve::new(qb.prefactor, qb.decay)),
                delay: Some(BoundCurve::new(db.prefactor, db.decay)),
                delay_shift: 0.0,
            }
        })
        .collect();
    let monitor = BoundMonitor::new(curves);

    let base = paper_config(7);
    let reports = Campaign::new(Pool::new(2), 4)
        .run(&base, |_r| make_sources())
        .unwrap()
        .into_reports();

    // Check every prefix fold the way the monitored campaign does.
    let reg = Registry::new();
    let mut total = 0;
    for fold in 0..reports.len() {
        let merged = merge_single_node_reports(&reports[..=fold]);
        total += monitor_single_node_fold(&monitor, &reg, &merged, fold as u64);
    }
    assert_eq!(total, 0, "paper bounds must never trip the monitor");
    assert!(
        reg.snapshot().counters.is_empty(),
        "no violation counters on the paper configuration"
    );
}
