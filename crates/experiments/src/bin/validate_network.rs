//! **V1 — network validation**: simulate the paper's Figure-2 RPPS
//! network with the Table-1 sources and compare empirical per-session
//! *network backlog* and *end-to-end clearing delay* CCDFs against the
//! Theorem-15 bounds (Fig. 3 forms) and the improved LNT94 bounds
//! (Fig. 4 forms) — the validation study the paper lists as future work.
//!
//! Replications run in parallel on the `gps_par` pool (worker count from
//! `GPS_PAR_THREADS`), each with an independent derived seed; CCDFs are
//! merged in replication order, so the output is identical at any worker
//! count.
//!
//! The campaign is *supervised* (`gps_sim::supervise`): replications are
//! checkpointed to `results/validate_network_checkpoint.ndjson`, panics
//! are retried once with the same seed then quarantined, and `--resume`
//! restores completed replications from the checkpoint with
//! byte-identical output. `GPS_FAULT_TASK_PANIC=<r>[:once]` injects a
//! panic for testing.
//!
//! Note on discretization: the slotted network forwards across a hop at
//! slot boundaries, adding up to `K_i - 1 = 1` slot of pipeline latency
//! versus the continuous fluid model; the comparison therefore allows
//! the empirical delay to be shifted left by one slot.

use gps_analysis::RppsNetworkBounds;
use gps_experiments::csv::CsvWriter;
use gps_experiments::paper::{characterize, figure2_network, table1_sources, ParamSet};
use gps_experiments::plot::{ascii_log_plot, Curve};
use gps_experiments::{checkpoint_path, finish_obs, init_obs, measure_slots_or, resume_flag};
use gps_obs::{BoundCurve, BoundMonitor, RunManifest, SessionCurves};
use gps_par::Pool;
use gps_sim::campaign::Campaign;
use gps_sim::runner::{merge_network_reports, NetworkRunConfig};
use gps_sim::supervise::{PanicInjection, Supervisor};
use gps_sources::lnt94::queue_tail_bound;
use gps_sources::SlotSource;

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let obs = init_obs("validate_network", quiet);
    let set = ParamSet::Set1;
    let sessions = characterize(set).to_vec();
    let net = figure2_network(set);
    let bounds = RppsNetworkBounds::new(&net, sessions).expect("stable");
    let markov = table1_sources();

    let backlog_grid: Vec<f64> = (0..60).map(|i| i as f64 * 0.25).collect();
    let delay_grid: Vec<f64> = (0..100).map(|i| i as f64).collect();

    let replications = 8u64;
    let slots_each = measure_slots_or(1_000_000);
    gps_obs::info(
        "validate_network",
        "simulate",
        &[
            ("replications", replications.into()),
            ("slots_each", slots_each.into()),
        ],
    );

    // Parallel replications (seed 0xF162 + r), merged in replication
    // order: byte-identical output at any GPS_PAR_THREADS.
    let base = NetworkRunConfig {
        topology: net.clone(),
        warmup: 50_000,
        measure: slots_each,
        seed: 0xF162,
        backlog_grid: backlog_grid.clone(),
        delay_grid: delay_grid.clone(),
    };
    // Online monitor: Theorem-15 curves as alarm thresholds. The one-slot
    // `delay_shift` mirrors the store-and-forward adjustment below.
    let fig3_curves = bounds.paper_fig3_bounds_all();
    let monitor = BoundMonitor::new(
        fig3_curves
            .iter()
            .map(|(q15, d15)| SessionCurves {
                backlog: Some(BoundCurve::new(q15.prefactor, q15.decay)),
                delay: Some(BoundCurve::new(d15.prefactor, d15.decay)),
                delay_shift: 1.0,
            })
            .collect(),
    );
    let supervisor = Supervisor::new()
        .with_checkpoint(checkpoint_path("validate_network"))
        .with_resume(resume_flag())
        .with_inject(PanicInjection::from_env());
    let outcome = Campaign::new(Pool::from_env(), replications)
        .supervisor(&supervisor)
        .monitor(&monitor)
        .run(&base, |_r| {
            table1_sources()
                .into_iter()
                .map(|s| Box::new(s) as Box<dyn SlotSource>)
                .collect()
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
    let merged = merge_network_reports(&completed);

    let mut csv = CsvWriter::create(
        "validate_network",
        &[
            "session",
            "kind",
            "x",
            "empirical",
            "thm15_bound",
            "improved_bound",
        ],
    )
    .expect("csv");

    let total = replications * slots_each;
    let fig3 = fig3_curves;
    for i in 0..4 {
        let (q15, d15) = fig3[i];
        let g = bounds.g_net(i);
        let improved_q = queue_tail_bound(markov[i].as_markov(), g).expect("stable");
        let improved_d = improved_q.delay_from_backlog(g);
        let (q_emp, d_emp) = (&merged.backlog[i], &merged.delay[i]);

        let mut viol_q = 0usize;
        for (x, p) in q_emp.series() {
            if p > q15.tail(x) + 3.0 * se(p, total) {
                viol_q += 1;
            }
            csv.row(&[(i + 1) as f64, 0.0, x, p, q15.tail(x), improved_q.tail(x)])
                .expect("row");
        }
        // Delay: shift the empirical one slot left to remove the
        // store-and-forward pipeline slot before comparing.
        let mut viol_d = 0usize;
        let mut curves = vec![
            Curve {
                label: format!("e{}", i + 1),
                points: vec![],
            },
            Curve {
                label: "T (Thm 15)".into(),
                points: vec![],
            },
            Curve {
                label: "I (improved)".into(),
                points: vec![],
            },
        ];
        for (x, p) in d_emp.series() {
            let x_adj = (x - 1.0).max(0.0);
            let b = d15.tail(x_adj);
            let imp = improved_d.tail(x_adj);
            if p > b + 3.0 * se(p, total) {
                viol_d += 1;
            }
            curves[0].points.push((x, p));
            curves[1].points.push((x, b));
            curves[2].points.push((x, imp));
            csv.row(&[(i + 1) as f64, 1.0, x, p, b, imp]).expect("row");
        }
        println!(
            "session {}: g_net {:.4}; violations: backlog {}, delay {} (expect 0, 0)",
            i + 1,
            g,
            viol_q,
            viol_d
        );
        if i == 0 {
            println!(
                "{}",
                ascii_log_plot(
                    "session 1 e2e delay: e=empirical, T=Thm 15 bound, I=improved",
                    &curves,
                    90,
                    20,
                    1e-8
                )
            );
        }
    }
    let rows = csv.rows();
    let path = csv.finish().expect("finish");
    println!("written: {}", path.display());

    let mut manifest = RunManifest::new("validate_network")
        .seed(0xF162)
        .param("set", "Set1")
        .param("replications", replications)
        .param("slots_each", slots_each)
        .param("warmup", 50_000u64);
    manifest.output("validate_network.csv", rows);
    finish_obs(obs, manifest).expect("obs teardown");
}

fn se(p: f64, n: u64) -> f64 {
    (p * (1.0 - p) / n as f64).sqrt()
}
