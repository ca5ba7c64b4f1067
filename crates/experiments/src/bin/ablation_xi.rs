//! **A3 — the discretization parameter ξ**: the continuous-time Lemma-5
//! prefactor `Λe^{αρξ}/(1-e^{-αεξ})` depends on ξ; the paper uses ξ = 1
//! "for simplicity" and gives the optimum in Remark 1. This ablation
//! sweeps ξ for each Set-1 session at its RPPS guaranteed rate and
//! reports the prefactor at ξ = 1 (clamped to the validity ceiling), at
//! the Remark-1 optimum, and the discrete-time form, plus the resulting
//! bound ratio.

use gps_ebb::DeltaTailBound;
use gps_experiments::csv::CsvWriter;
use gps_experiments::paper::{characterize, ParamSet};
use gps_experiments::{finish_obs, init_obs};
use gps_obs::RunManifest;

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let obs = init_obs("ablation_xi", quiet);
    let sessions = characterize(ParamSet::Set1);
    let rhos = ParamSet::Set1.rhos();
    let total: f64 = rhos.iter().sum();
    let mut csv = CsvWriter::create(
        "ablation_xi",
        &[
            "session",
            "xi_max",
            "xi_opt",
            "prefactor_xi1",
            "prefactor_opt",
            "prefactor_discrete",
        ],
    )
    .expect("csv");

    let mut sweep_outputs: Vec<(String, u64)> = Vec::new();
    println!("A3: ξ sweep (continuous Lemma 5), Set 1 at RPPS rates");
    println!(
        "{:<8} {:>8} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "session", "ξ_max", "ξ*", "Λ(ξ=1)", "Λ(ξ*)", "Λ(discrete)", "gain"
    );
    // Per-session ξ evaluations and the 200-point fine sweeps fan out
    // over the gps_par pool; printing/CSV writing stays serial below.
    let idx: Vec<usize> = (0..4).collect();
    let steps = 200usize;
    let per_session = gps_par::Pool::from_env().map(&idx, |_, &i| {
        let g = rhos[i] / total;
        let d = DeltaTailBound::new(sessions[i], g);
        let xi_max = d.xi_max();
        let sweep: Vec<(f64, f64)> = (1..=steps)
            .map(|k| {
                let xi = xi_max * k as f64 / steps as f64;
                (xi, d.continuous_with_xi(xi).prefactor)
            })
            .collect();
        (
            xi_max,
            d.optimal_xi(),
            d.continuous_with_xi(1.0_f64.min(xi_max)).prefactor,
            d.continuous_optimal().prefactor,
            d.discrete().prefactor,
            sweep,
        )
    });
    for (i, &(xi_max, xi_opt, at_one, at_opt, disc, ref sweep_pts)) in
        per_session.iter().enumerate()
    {
        println!(
            "{:<8} {:>8.3} {:>8.3} {:>12.4} {:>12.4} {:>12.4} {:>8.3}",
            i + 1,
            xi_max,
            xi_opt,
            at_one,
            at_opt,
            disc,
            at_one / at_opt
        );
        csv.row(&[(i + 1) as f64, xi_max, xi_opt, at_one, at_opt, disc])
            .expect("row");

        // Fine sweep for the CSV consumers (precomputed in parallel).
        let mut sweep = CsvWriter::create(
            &format!("ablation_xi_sweep_s{}", i + 1),
            &["xi", "prefactor"],
        )
        .expect("csv");
        for &(xi, prefactor) in sweep_pts {
            sweep.row(&[xi, prefactor]).expect("row");
        }
        sweep_outputs.push((format!("ablation_xi_sweep_s{}.csv", i + 1), sweep.rows()));
        sweep.finish().expect("finish");
    }
    let rows = csv.rows();
    let path = csv.finish().expect("finish");
    println!("written: {}", path.display());

    let mut manifest = RunManifest::new("ablation_xi")
        .param("set", "Set1")
        .param("sweep_steps", 200u64);
    manifest.output("ablation_xi.csv", rows);
    for (file, n) in sweep_outputs {
        manifest.output(&file, n);
    }
    finish_obs(obs, manifest).expect("obs teardown");
}
