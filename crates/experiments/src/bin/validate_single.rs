//! **V2 — single-node validation**: simulate the four Table-1 sources
//! sharing one slotted RPPS GPS server and compare the empirical backlog
//! and clearing-delay CCDFs against the analytical bounds (Theorem 10 /
//! Eqs. 66–67 with Set-1 characterizations, and the LNT94-direct
//! improved bound).
//!
//! Expected outcome (recorded in EXPERIMENTS.md): the bounds dominate
//! the empirical tails everywhere; the E.B.B. bound is conservative by
//! orders of magnitude in prefactor; the improved bound tracks the
//! empirical decay rate closely.
//!
//! The measurement budget is split into independent replications run in
//! parallel on the `gps_par` pool (worker count from `GPS_PAR_THREADS`)
//! and merged in replication order, so the output is identical at any
//! worker count.
//!
//! The campaign is *supervised* (`gps_sim::supervise`): each replication
//! is checkpointed to `results/validate_single_checkpoint.ndjson` as it
//! completes, a panicking replication is retried once with the same seed
//! and quarantined if it panics again, and `--resume` restores completed
//! replications from the checkpoint instead of recomputing them — with
//! byte-identical CSV and metrics output either way. Set
//! `GPS_FAULT_TASK_PANIC=<r>[:once]` to inject a panic for testing.

use gps_analysis::partition_bounds::theorem10;
use gps_core::GpsAssignment;
use gps_ebb::TimeModel;
use gps_experiments::csv::CsvWriter;
use gps_experiments::paper::{characterize, table1_sources, ParamSet};
use gps_experiments::plot::{ascii_log_plot, Curve};
use gps_experiments::{checkpoint_path, finish_obs, init_obs, measure_slots_or, resume_flag};
use gps_obs::{BoundCurve, BoundMonitor, RunManifest, SessionCurves};
use gps_par::Pool;
use gps_sim::campaign::Campaign;
use gps_sim::runner::{merge_single_node_reports, SingleNodeRunConfig};
use gps_sim::supervise::{PanicInjection, Supervisor};
use gps_sources::lnt94::queue_tail_bound;
use gps_sources::SlotSource;
use gps_stats::ExponentialTailFit;

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let obs = init_obs("validate_single", quiet);
    let set = ParamSet::Set1;
    let sessions = characterize(set);
    let rhos = set.rhos();
    let assignment = GpsAssignment::rpps(&rhos, 1.0);

    let backlog_grid: Vec<f64> = (0..60).map(|i| i as f64 * 0.25).collect();
    let delay_grid: Vec<f64> = (0..80).map(|i| i as f64).collect();
    let replications = 8u64;
    let slots_each = (measure_slots_or(4_000_000) / replications).max(1);
    let cfg = SingleNodeRunConfig {
        phis: rhos.to_vec(),
        capacity: 1.0,
        warmup: 50_000,
        measure: slots_each,
        seed: 20260704,
        backlog_grid: backlog_grid.clone(),
        delay_grid: delay_grid.clone(),
    };
    gps_obs::info(
        "validate_single",
        "simulate",
        &[
            ("replications", replications.into()),
            ("slots_each", slots_each.into()),
        ],
    );
    // Online monitor: the Theorem-10 curves double as alarm thresholds —
    // any merged-fold tail crossing them raises `obs.bound_violations`.
    let monitor = BoundMonitor::new(
        (0..4)
            .map(|i| {
                let g = assignment.guaranteed_rate(i);
                let (q, d) = theorem10(sessions[i], g, TimeModel::Discrete);
                SessionCurves {
                    backlog: Some(BoundCurve::new(q.prefactor, q.decay)),
                    delay: Some(BoundCurve::new(d.prefactor, d.decay)),
                    delay_shift: 0.0,
                }
            })
            .collect(),
    );
    let supervisor = Supervisor::new()
        .with_checkpoint(checkpoint_path("validate_single"))
        .with_resume(resume_flag())
        .with_inject(PanicInjection::from_env());
    let outcome = Campaign::new(Pool::from_env(), replications)
        .supervisor(&supervisor)
        .monitor(&monitor)
        .run(&cfg, |_r| {
            table1_sources()
                .into_iter()
                .map(|s| Box::new(s) as Box<dyn SlotSource>)
                .collect::<Vec<Box<dyn SlotSource>>>()
        })
        .expect("supervised campaign");
    println!(
        "supervision: {} of {} replications restored from checkpoint, {} quarantined{}",
        outcome.restored,
        replications,
        outcome.quarantined.len(),
        if outcome.quarantined.is_empty() {
            String::new()
        } else {
            format!(" (indices {:?})", outcome.quarantined)
        }
    );
    let completed = outcome.completed();
    if completed.is_empty() {
        eprintln!("every replication was quarantined; nothing to report");
        std::process::exit(1);
    }
    let report = merge_single_node_reports(&completed);

    let mut csv = CsvWriter::create(
        "validate_single",
        &[
            "session",
            "kind",
            "x",
            "empirical",
            "ebb_bound",
            "improved_bound",
        ],
    )
    .expect("csv");
    let markov = table1_sources();

    for i in 0..4 {
        let g = assignment.guaranteed_rate(i);
        let (q_bound, d_bound) = theorem10(sessions[i], g, TimeModel::Discrete);
        let improved_q = queue_tail_bound(markov[i].as_markov(), g).expect("stable");
        let improved_d = improved_q.delay_from_backlog(g);

        println!("\nsession {} (g = {:.4}):", i + 1, g);
        let mut viol_q = 0usize;
        let mut curves_q = vec![
            Curve {
                label: format!("e{}", i + 1),
                points: vec![],
            },
            Curve {
                label: "B (EBB bound)".into(),
                points: vec![],
            },
            Curve {
                label: "I (improved)".into(),
                points: vec![],
            },
        ];
        for (x, p) in report.sessions[i].backlog.series() {
            let b = q_bound.tail(x);
            let imp = improved_q.tail(x);
            if p > b + 3.0 * binom_se(p, report.measured_slots) {
                viol_q += 1;
            }
            curves_q[0].points.push((x, p));
            curves_q[1].points.push((x, b));
            curves_q[2].points.push((x, imp));
            csv.row(&[(i + 1) as f64, 0.0, x, p, b, imp]).expect("row");
        }
        let mut viol_d = 0usize;
        for (x, p) in report.sessions[i].delay.series() {
            let b = d_bound.tail(x);
            let imp = improved_d.tail(x);
            if p > b + 3.0 * binom_se(p, report.measured_slots) {
                viol_d += 1;
            }
            csv.row(&[(i + 1) as f64, 1.0, x, p, b, imp]).expect("row");
        }
        println!("  bound violations: backlog {viol_q}, delay {viol_d} (expect 0, 0)");

        // Empirical decay vs analytical.
        let emp_series: Vec<(f64, f64)> = report.sessions[i]
            .backlog
            .series()
            .into_iter()
            .filter(|&(_, p)| p > 0.0 && p < 0.5)
            .collect();
        if let Some(fit) = ExponentialTailFit::fit(&emp_series) {
            println!(
                "  backlog decay: empirical {:.3}, EBB bound {:.3}, improved {:.3}",
                fit.theta, q_bound.decay, improved_q.decay
            );
        }
        if i == 0 {
            println!(
                "{}",
                ascii_log_plot(
                    "session 1 backlog: e=empirical, B=EBB bound, I=improved",
                    &curves_q,
                    90,
                    20,
                    1e-7
                )
            );
        }
    }
    let rows = csv.rows();
    let path = csv.finish().expect("finish");
    println!("\nwritten: {}", path.display());

    let mut manifest = RunManifest::new("validate_single")
        .seed(cfg.seed)
        .param("set", "Set1")
        .param("capacity", cfg.capacity)
        .param("warmup", cfg.warmup)
        .param("replications", replications)
        .param("slots_each", slots_each);
    manifest.output("validate_single.csv", rows);
    finish_obs(obs, manifest).expect("obs teardown");
}

fn binom_se(p: f64, n: u64) -> f64 {
    (p * (1.0 - p) / n as f64).sqrt()
}
