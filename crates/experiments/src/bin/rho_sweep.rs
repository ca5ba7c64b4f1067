//! **A6 — choosing ρ** (the paper's Section 6.3/7 open question): sweep
//! the envelope rate for each Table-1 source and show the
//! (ρ, Λ, α)-tradeoff; then re-run the A4 admission comparison with
//! *per-count ρ optimization* to quantify how much of the E.B.B. bound's
//! apparent weakness in A4 was just a bad fixed ρ.

use gps_analysis::rho_selection::{max_sessions_optimized_rho, rho_tradeoff};
use gps_ebb::TimeModel;
use gps_experiments::csv::CsvWriter;
use gps_experiments::paper::table1_sources;
use gps_experiments::{finish_obs, init_obs};
use gps_obs::RunManifest;
use gps_sources::OnOffSource;

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let obs = init_obs("rho_sweep", quiet);
    let mut csv =
        CsvWriter::create("rho_sweep", &["session", "rho", "lambda", "alpha"]).expect("csv");
    println!("A6: (ρ, Λ, α) tradeoff for the Table-1 sources");
    // Per-session sweeps fanned out over the gps_par pool; printed and
    // written serially afterwards, in session order.
    let sources = table1_sources();
    let tradeoffs =
        gps_par::Pool::from_env().map(&sources, |_, src| rho_tradeoff(src.as_markov(), 24));
    for (i, (src, pts)) in sources.iter().zip(&tradeoffs).enumerate() {
        println!(
            "\nsession {} (mean {:.3}, peak {:.3}):",
            i + 1,
            src.mean(),
            src.lambda()
        );
        println!("{:>8} {:>10} {:>10}", "rho", "Lambda", "alpha");
        for p in pts.iter().step_by(3) {
            println!("{:>8.4} {:>10.4} {:>10.4}", p.rho, p.lambda, p.alpha);
            csv.row(&[(i + 1) as f64, p.rho, p.lambda, p.alpha])
                .expect("row");
        }
    }

    // Admission with optimized ρ (same scenario as A4).
    let src = OnOffSource::new(0.1, 0.9, 0.1);
    let (d, eps) = (20.0, 1e-6);
    let n_opt = max_sessions_optimized_rho(src.as_markov(), 1.0, d, eps, TimeModel::Discrete);
    println!("\nA4 revisited with per-count ρ optimization:");
    println!("  statistical (Theorem 10, optimized ρ): {n_opt} sessions");
    println!("  (A4's fixed ρ=0.02 gave 20; deterministic gave 27; LNT94-direct 34)");
    let mut csv2 =
        CsvWriter::create("rho_sweep_admission", &["optimized_rho_sessions"]).expect("csv");
    csv2.row(&[n_opt as f64]).expect("row");
    let rows2 = csv2.rows();
    csv2.finish().expect("finish");
    let rows = csv.rows();
    let path = csv.finish().expect("finish");
    println!("written: {}", path.display());

    let mut manifest = RunManifest::new("rho_sweep")
        .param("tradeoff_points", 24u64)
        .param("delay_target", d)
        .param("epsilon", eps);
    manifest.output("rho_sweep.csv", rows);
    manifest.output("rho_sweep_admission.csv", rows2);
    finish_obs(obs, manifest).expect("obs teardown");
}
