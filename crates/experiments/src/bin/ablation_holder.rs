//! **A1 — independence vs Hölder**: what does dropping the independence
//! assumption cost? For the Set-1 single-node scenario, compare, per
//! session:
//!
//! * Theorem 7 (Chernoff, independent sources);
//! * Theorem 8 exact Hölder (decay-equalizing exponents);
//! * Theorem 8 with the paper's printed Eq. 36 prefactor;
//! * Theorem 8 with uniform exponents `p_j = i` (the paper's
//!   parenthetical default).
//!
//! Reported: the admissible decay ceiling and the tail bound at a fixed
//! backlog threshold. Expected shape: Hölder shrinks the θ range to the
//! harmonic mean of the α's and costs orders of magnitude at large q.

use gps_analysis::{Theorem7, Theorem8};
use gps_core::GpsAssignment;
use gps_ebb::{HolderExponents, TimeModel};
use gps_experiments::csv::CsvWriter;
use gps_experiments::paper::{characterize, ParamSet};
use gps_experiments::{finish_obs, init_obs};
use gps_obs::RunManifest;

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let obs = init_obs("ablation_holder", quiet);
    let sessions = characterize(ParamSet::Set1).to_vec();
    let rhos = ParamSet::Set1.rhos();
    let assignment = GpsAssignment::rpps(&rhos, 1.0);
    let model = TimeModel::Discrete;

    let t7 = Theorem7::new(sessions.clone(), assignment.clone(), model).expect("stable");
    let t8 = Theorem8::new(sessions.clone(), assignment.clone(), model).expect("stable");
    let mut t8_paper = Theorem8::new(sessions.clone(), assignment.clone(), model).expect("stable");
    t8_paper.paper_form = true;

    let q = 15.0;
    println!("A1: independence vs Hölder (single node, Set 1, q = {q})");
    println!(
        "{:<8} {:>10} {:>10} | {:>12} {:>12} {:>12} {:>12}",
        "session", "θsup(T7)", "θsup(T8)", "T7 tail", "T8 exact", "T8 paper", "T8 uniform"
    );
    let mut csv = CsvWriter::create(
        "ablation_holder",
        &[
            "session",
            "theta_sup_t7",
            "theta_sup_t8",
            "t7_tail",
            "t8_exact_tail",
            "t8_paper_tail",
            "t8_uniform_tail",
        ],
    )
    .expect("csv");

    // Per-session θ optimizations fan out over the gps_par pool: the
    // Theorem-7/8 optimizers via their *_all batch helpers, the paper/
    // uniform-exponent scans on the pool. Printing stays serial below.
    let b7_all = t7.best_backlog_all(q);
    let b8_all = t8.best_backlog_all(q);
    let idx: Vec<usize> = (0..4).collect();
    let scans = gps_par::Pool::from_env().map(&idx, |_, &i| {
        let b8 = b8_all[i].expect("feasible").tail(q);
        // Paper form with optimized θ.
        let sup8 = t8.theta_sup(i);
        let mut best_paper = f64::INFINITY;
        let mut best_uniform = f64::INFINITY;
        let pos = t8.ordering().iter().position(|&j| j == i).unwrap();
        let n_terms = pos + 1;
        for k in 1..200 {
            let th = sup8 * k as f64 / 200.0;
            if let Some(b) = t8_paper.bounds_at(i, th, None) {
                best_paper = best_paper.min(b.backlog.tail(q));
            }
            if n_terms >= 2 {
                let p = HolderExponents::uniform(n_terms);
                if let Some(b) = t8.bounds_at(i, th, Some(&p)) {
                    best_uniform = best_uniform.min(b.backlog.tail(q));
                }
            }
        }
        if n_terms < 2 {
            best_uniform = b8;
            best_paper = best_paper.min(b8);
        }
        (best_paper, best_uniform)
    });

    for i in 0..4 {
        let b7 = b7_all[i].expect("feasible").tail(q);
        let b8 = b8_all[i].expect("feasible").tail(q);
        let (best_paper, best_uniform) = scans[i];
        println!(
            "{:<8} {:>10.4} {:>10.4} | {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e}",
            i + 1,
            t7.theta_sup(i),
            t8.theta_sup(i),
            b7,
            b8,
            best_paper,
            best_uniform
        );
        csv.row(&[
            (i + 1) as f64,
            t7.theta_sup(i),
            t8.theta_sup(i),
            b7,
            b8,
            best_paper,
            best_uniform,
        ])
        .expect("row");
    }
    println!(
        "\nordering used: {:?} (feasible ordering of session ids)",
        t7.ordering()
    );
    let rows = csv.rows();
    let path = csv.finish().expect("finish");
    println!("written: {}", path.display());

    let mut manifest = RunManifest::new("ablation_holder")
        .param("set", "Set1")
        .param("q", q);
    manifest.output("ablation_holder.csv", rows);
    finish_obs(obs, manifest).expect("obs teardown");
}
