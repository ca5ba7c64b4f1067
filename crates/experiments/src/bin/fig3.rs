//! Reproduces **Figure 3(a)/(b)**: bounds on the end-to-end delay
//! distributions (log scale) for the four sessions of the Figure-2 RPPS
//! network, under parameter Sets 1 and 2 (paper Eqs. 66–67 via
//! Theorem 15: `Pr{D_i >= d} <= [Λ_i/(1-e^{-α_i(g_i-ρ_i)})]·e^{-α_i g_i d}`).

use gps_analysis::RppsNetworkBounds;
use gps_experiments::csv::CsvWriter;
use gps_experiments::paper::{characterize, figure2_network, ParamSet};
use gps_experiments::plot::{ascii_log_plot, Curve};
use gps_experiments::{finish_obs, init_obs};
use gps_obs::RunManifest;

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let obs = init_obs("fig3", quiet);
    let mut csv = CsvWriter::create("fig3", &["set", "session", "d", "delay_bound"]).expect("csv");

    // Per-set×session curves computed in parallel on the gps_par pool;
    // printing and CSV writing happen serially afterwards, in
    // (set, session) order, so output is identical at any worker count.
    let steps = 120usize;
    let items: Vec<(ParamSet, usize)> = [ParamSet::Set1, ParamSet::Set2]
        .into_iter()
        .flat_map(|set| (0..4).map(move |i| (set, i)))
        .collect();
    let computed = gps_par::Pool::from_env().map(&items, |_, &(set, i)| {
        let sessions = characterize(set).to_vec();
        let net = figure2_network(set);
        let bounds = RppsNetworkBounds::new(&net, sessions).expect("stable");
        let (_, delay) = bounds.paper_fig3_bounds(i);
        // Plot range chosen to span ~1e0 .. 1e-12 like the paper's figures.
        let d_max = match set {
            ParamSet::Set1 => 80.0,
            ParamSet::Set2 => 220.0,
        };
        let points: Vec<(f64, f64)> = (0..=steps)
            .map(|k| {
                let d = d_max * k as f64 / steps as f64;
                (d, delay.tail(d))
            })
            .collect();
        (bounds.g_net(i), delay, points)
    });

    for (set_idx, set) in [ParamSet::Set1, ParamSet::Set2].into_iter().enumerate() {
        let mut curves = Vec::new();
        println!(
            "Figure 3({}) — {}: end-to-end delay bounds",
            ["a", "b"][set_idx],
            set.label()
        );
        println!(
            "{:<8} {:>10} {:>12} {:>14}",
            "session", "g_net", "prefactor", "decay (α·g)"
        );
        for i in 0..4 {
            let (g_net, delay, ref points) = computed[set_idx * 4 + i];
            println!(
                "{:<8} {:>10.4} {:>12.4} {:>14.5}",
                i + 1,
                g_net,
                delay.prefactor,
                delay.decay
            );
            for &(d, p) in points {
                csv.row(&[(set_idx + 1) as f64, (i + 1) as f64, d, p])
                    .expect("row");
            }
            curves.push(Curve {
                label: format!("{}", i + 1),
                points: points.clone(),
            });
        }
        println!();
        println!(
            "{}",
            ascii_log_plot(
                &format!("Pr{{D^net >= d}} bounds, {} (x = delay d)", set.label()),
                &curves,
                96,
                24,
                1e-12
            )
        );
    }
    let rows = csv.rows();
    let path = csv.finish().expect("finish");
    println!("written: {}", path.display());

    let mut manifest = RunManifest::new("fig3")
        .param("sets", "Set1,Set2")
        .param("steps", 120u64);
    manifest.output("fig3.csv", rows);
    finish_obs(obs, manifest).expect("obs teardown");
}
