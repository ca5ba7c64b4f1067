//! **A2 — feasible-ordering position vs feasible partition**: Theorem 7's
//! bound for a session depends on where it lands in the feasible
//! ordering; Theorem 11 replaces that accident with the intrinsic
//! partition structure. This ablation builds a three-session scenario
//! with a genuine two-class partition and reports, for the H2 session and
//! one H1 session:
//!
//! * the Theorem-7 bound under *every* feasible ordering (enumerated);
//! * the Theorem-11 bound (partition-based).
//!
//! Expected shape: Theorem 7's bound varies with the ordering; Theorem
//! 11 matches or beats the best ordering for H1 sessions (it uses the
//! full g_i) and is competitive for the H2 session.

use gps_analysis::Theorem11;
use gps_core::ordering::enumerate_feasible_orderings;
use gps_core::{GpsAssignment, RateAllocation};
use gps_ebb::{EbbProcess, TimeModel};
use gps_experiments::csv::CsvWriter;
use gps_experiments::{finish_obs, init_obs};
use gps_obs::RunManifest;

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let obs = init_obs("ablation_partition", quiet);
    // Sessions: two light H1 flows, one heavy H2 flow.
    let sessions = vec![
        EbbProcess::new(0.10, 1.0, 2.0),
        EbbProcess::new(0.15, 1.2, 1.6),
        EbbProcess::new(0.50, 0.9, 1.2),
    ];
    let assignment = GpsAssignment::unit_rate(vec![2.0, 2.0, 1.0]);
    let rhos: Vec<f64> = sessions.iter().map(|s| s.rho).collect();
    let model = TimeModel::Discrete;
    let q = 20.0;

    let t11 = Theorem11::new(sessions.clone(), assignment.clone(), model).expect("stable");
    println!(
        "partition: {:?} (classes of sessions 0..3)",
        (0..3)
            .map(|i| t11.partition().class_of(i))
            .collect::<Vec<_>>()
    );

    let rates = RateAllocation::Uniform
        .dedicated_rates(&rhos, assignment.phis(), 1.0, 1.0)
        .expect("slack");
    let orderings = enumerate_feasible_orderings(&rates, &assignment);
    println!(
        "{} feasible orderings for uniform dedicated rates {:?}",
        orderings.len(),
        rates
    );

    let mut csv = CsvWriter::create(
        "ablation_partition",
        &["session", "ordering_idx", "t7_tail", "t11_tail"],
    )
    .expect("csv");

    println!("\nbacklog tail bounds at q = {q}:");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>14}",
        "session", "T7 best", "T7 worst", "T11", "T11/T7best"
    );
    // Every (session, ordering) θ-scan is independent: fan the full
    // cross product out over the gps_par pool, then print and write CSV
    // serially in (session, ordering) order.
    let pairs: Vec<(usize, usize)> = (0..3)
        .flat_map(|i| (0..orderings.len()).map(move |k| (i, k)))
        .collect();
    // The bound depends only on the *set* of predecessors in the
    // ordering, so each evaluation takes the prefix implied by `perm`.
    let tails = gps_par::Pool::from_env().map(&pairs, |_, &(i, k)| {
        let perm = &orderings[k];
        let pos = perm.iter().position(|&j| j == i).unwrap();
        manual_theorem7_tail(&sessions, &assignment, &rates, perm, pos, q, model)
    });
    for i in 0..3 {
        let t11_tail = t11.best_backlog(i, q).expect("feasible").tail(q);
        let mut best = f64::INFINITY;
        let mut worst: f64 = 0.0;
        for k in 0..orderings.len() {
            let tail = tails[i * orderings.len() + k];
            best = best.min(tail);
            worst = worst.max(tail);
            csv.row(&[(i + 1) as f64, k as f64, tail, t11_tail])
                .expect("row");
        }
        println!(
            "{:<8} {:>14.4e} {:>14.4e} {:>14.4e} {:>14.3}",
            i + 1,
            best,
            worst,
            t11_tail,
            t11_tail / best
        );
    }
    let rows = csv.rows();
    let path = csv.finish().expect("finish");
    println!("written: {}", path.display());

    let mut manifest = RunManifest::new("ablation_partition")
        .param("q", q)
        .param("orderings", orderings.len() as u64);
    manifest.output("ablation_partition.csv", rows);
    finish_obs(obs, manifest).expect("obs teardown");
}

/// Theorem-7 tail for the session at position `pos` of `perm`, optimized
/// over θ (evaluates Eq. 26 directly so arbitrary orderings can be
/// compared).
fn manual_theorem7_tail(
    sessions: &[EbbProcess],
    assignment: &GpsAssignment,
    rates: &[f64],
    perm: &[usize],
    pos: usize,
    q: f64,
    model: TimeModel,
) -> f64 {
    use gps_ebb::{chernoff_combine, AggregateArrival, WeightedDelta};
    let i = perm[pos];
    let tail_ids: Vec<usize> = perm[pos..].to_vec();
    let psi = assignment.share_within(i, &tail_ids);
    let mut terms = vec![WeightedDelta::new(
        AggregateArrival::single(sessions[i]),
        rates[i],
        1.0,
    )];
    for &j in &perm[..pos] {
        terms.push(WeightedDelta::new(
            AggregateArrival::single(sessions[j]),
            rates[j],
            psi,
        ));
    }
    let sup = gps_ebb::combine::chernoff_theta_sup(&terms);
    let mut best = f64::INFINITY;
    for k in 1..400 {
        let th = sup * k as f64 / 400.0;
        if let Some(b) = chernoff_combine(&terms, th, model) {
            best = best.min(b.tail(q));
        }
    }
    best
}
