#![allow(clippy::needless_range_loop)] // parallel per-session arrays

//! **V3 — continuous-time validation**: the paper's Lemma 5 in its
//! *continuous-time* form (with the discretization parameter ξ) against
//! an exact event-driven fluid simulation — the slotted experiments
//! never exercise the ξ machinery.
//!
//! Scenario: three continuous-time on-off Markov fluid sources share a
//! unit-rate RPPS GPS server. Each source is characterized as an E.B.B.
//! process via the continuous-time effective bandwidth; the Theorem-10
//! backlog bound is evaluated both at the paper's `ξ = 1` and at the
//! Remark-1 optimal `ξ*`, plus the direct CT martingale queue bound.
//! Backlogs are sampled at regular instants from the exact simulator.
//!
//! The horizon is split into independent replications run in parallel on
//! the `gps_par` pool (worker count from `GPS_PAR_THREADS`), each with a
//! derived seed, and merged in replication order — identical output at
//! any worker count.

use gps_ebb::{DeltaTailBound, TimeModel};
use gps_experiments::csv::CsvWriter;
use gps_experiments::plot::{ascii_log_plot, Curve};
use gps_experiments::{finish_obs, init_obs, measure_slots_or};
use gps_obs::{BoundCurve, BoundMonitor, RunManifest, SeriesKind, SessionCurves};
use gps_sim::RateFluidGps;
use gps_sources::CtmcFluidSource;
use gps_stats::rng::SeedSequence;
use gps_stats::BinnedCcdf;

/// One continuous-time replication: exact fluid simulation over
/// `horizon` time units with a derived seed, sampled every `sample_dt`
/// after `warmup`. Returns the per-session backlog CCDFs and the sample
/// count.
fn simulate_ct(
    sources: &[CtmcFluidSource],
    rhos: &[f64],
    seed: u64,
    horizon: f64,
    sample_dt: f64,
    warmup: f64,
) -> (Vec<BinnedCcdf>, u64) {
    let n = sources.len();
    let seeds = SeedSequence::new(seed);
    let mut sim = RateFluidGps::new(rhos.to_vec(), 1.0);
    let mut rngs: Vec<_> = (0..n).map(|i| seeds.rng("ct", i as u64)).collect();
    let mut srcs = sources.to_vec();
    // Per-source event streams: (next change time, current rate).
    let mut next_change = vec![0.0f64; n];
    for i in 0..n {
        srcs[i].reset_stationary(&mut rngs[i]);
        // First segment starts at t = 0.
        let (dur, rate) = srcs[i].next_segment(&mut rngs[i]);
        sim.set_input_rate(0.0, i, rate);
        next_change[i] = dur;
    }
    let mut ccdfs: Vec<BinnedCcdf> = (0..n)
        .map(|_| BinnedCcdf::new((0..60).map(|k| k as f64 * 0.25).collect()))
        .collect();
    let mut t_sample = warmup;
    let mut samples = 0u64;
    // Merged chronological loop: rate-change events and sampling instants
    // are applied in global time order.
    loop {
        let (i_min, &t_event) = next_change
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("nonempty");
        // Take all samples due before the next rate change.
        while t_sample <= t_event.min(horizon) {
            sim.advance_to(t_sample);
            for i in 0..n {
                ccdfs[i].push(sim.backlog(i));
            }
            samples += 1;
            t_sample += sample_dt;
        }
        if t_event >= horizon || t_sample >= horizon {
            break;
        }
        let (dur, rate) = srcs[i_min].next_segment(&mut rngs[i_min]);
        sim.set_input_rate(t_event, i_min, rate);
        next_change[i_min] = t_event + dur;
    }
    (ccdfs, samples)
}

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let obs = init_obs("validate_continuous", quiet);
    // Three heterogeneous CT on-off sources (mean rates 0.15/0.2/0.15).
    let specs = [(1.0, 2.0, 0.45), (0.5, 1.5, 0.8), (2.0, 3.0, 0.375)];
    let sources: Vec<CtmcFluidSource> = specs
        .iter()
        .map(|&(a, b, lam)| CtmcFluidSource::on_off(a, b, lam))
        .collect();
    let rhos: Vec<f64> = sources.iter().map(|s| s.mean() * 1.35).collect();
    let total_rho: f64 = rhos.iter().sum();
    println!("V3: continuous-time validation; Σρ = {total_rho:.3}");

    // RPPS weights = ρ; guaranteed rates g_i = ρ_i/Σρ.
    let gs: Vec<f64> = rhos.iter().map(|r| r / total_rho).collect();
    let ebbs: Vec<_> = sources
        .iter()
        .zip(&rhos)
        .map(|(s, &rho)| s.ebb_for_rate(rho).expect("rho in range"))
        .collect();

    // Simulate. GPS_MEASURE_SLOTS doubles as the horizon override here
    // (one sample per unit time, so the scales match). The budget is
    // split across parallel replications with derived seeds.
    let replications = 4u64;
    let horizon = (measure_slots_or(2_000_000) / replications).max(1) as f64;
    let sample_dt = 1.0;
    gps_obs::info(
        "validate_continuous",
        "simulate",
        &[
            ("replications", replications.into()),
            ("horizon_each", horizon.into()),
            ("sample_dt", sample_dt.into()),
        ],
    );
    let reps: Vec<u64> = (0..replications).collect();
    let results = gps_par::Pool::from_env().map(&reps, |_, &r| {
        simulate_ct(&sources, &rhos, 0xC047 + r, horizon, sample_dt, 1000.0)
    });
    // Online monitor against the direct CT martingale bound — the
    // tightest curve this study evaluates, so it is the alarm threshold.
    let monitor = BoundMonitor::new(
        (0..3)
            .map(|i| {
                let direct = sources[i].queue_tail_bound(gs[i]).expect("stable");
                SessionCurves {
                    backlog: Some(BoundCurve::new(direct.prefactor, direct.decay)),
                    delay: None,
                    delay_shift: 0.0,
                }
            })
            .collect(),
    );
    let check_fold = |ccdfs: &[BinnedCcdf], samples: u64, fold: u64| {
        for (i, c) in ccdfs.iter().enumerate() {
            monitor.check_series(
                gps_obs::metrics(),
                i,
                SeriesKind::Backlog,
                &c.series(),
                samples,
                fold,
            );
        }
    };
    // Merge in replication order, checking the pooled tails per fold.
    let (mut ccdfs, mut samples) = results[0].clone();
    check_fold(&ccdfs, samples, 0);
    for (fold, (rep_ccdfs, rep_samples)) in results[1..].iter().enumerate() {
        for (acc, c) in ccdfs.iter_mut().zip(rep_ccdfs) {
            acc.merge(c);
        }
        samples += rep_samples;
        check_fold(&ccdfs, samples, fold as u64 + 1);
    }

    let mut csv = CsvWriter::create(
        "validate_continuous",
        &["session", "q", "empirical", "xi1", "xi_opt", "ct_direct"],
    )
    .expect("csv");
    // Per-session ξ optimizations fanned out over the gps_par pool.
    let deltas: Vec<DeltaTailBound> = (0..3)
        .map(|i| DeltaTailBound::new(ebbs[i], gs[i]))
        .collect();
    let opt_bounds = DeltaTailBound::continuous_optimal_batch(&deltas);
    for i in 0..3 {
        let d = deltas[i];
        let b_xi1 = d.bound(TimeModel::Continuous { xi: 1.0 });
        let b_opt = opt_bounds[i];
        let direct = sources[i].queue_tail_bound(gs[i]).expect("stable");
        println!(
            "\nsession {}: g = {:.3}, EBB = {}, ξ* = {:.2}",
            i + 1,
            gs[i],
            ebbs[i],
            d.optimal_xi()
        );
        let mut violations = 0usize;
        let mut curves = vec![
            Curve {
                label: format!("e{}", i + 1),
                points: vec![],
            },
            Curve {
                label: "L (Lemma5 ξ*)".into(),
                points: vec![],
            },
            Curve {
                label: "D (CT direct)".into(),
                points: vec![],
            },
        ];
        for (q, p) in ccdfs[i].series() {
            let se = (p * (1.0 - p) / samples as f64).sqrt();
            for b in [b_xi1.tail(q), b_opt.tail(q), direct.tail(q)] {
                if p > b + 3.0 * se {
                    violations += 1;
                }
            }
            curves[0].points.push((q, p));
            curves[1].points.push((q, b_opt.tail(q)));
            curves[2].points.push((q, direct.tail(q)));
            csv.row(&[
                (i + 1) as f64,
                q,
                p,
                b_xi1.tail(q),
                b_opt.tail(q),
                direct.tail(q),
            ])
            .expect("row");
        }
        println!("  violations (ξ=1 / ξ* / direct combined): {violations} (expect 0)");
        println!(
            "  prefactors: ξ=1 -> {:.2}, ξ* -> {:.2}, direct -> {:.2}",
            b_xi1.prefactor, b_opt.prefactor, direct.prefactor
        );
        if i == 0 {
            println!(
                "{}",
                ascii_log_plot(
                    "session 1 backlog: e=empirical, L=Lemma5(ξ*), D=CT-direct",
                    &curves,
                    90,
                    20,
                    1e-7
                )
            );
        }
    }
    let rows = csv.rows();
    let path = csv.finish().expect("finish");
    println!("written: {}", path.display());

    let mut manifest = RunManifest::new("validate_continuous")
        .seed(0xC047)
        .param("replications", replications)
        .param("horizon_each", horizon)
        .param("sample_dt", sample_dt)
        .param("warmup", 1000.0);
    manifest.output("validate_continuous.csv", rows);
    finish_obs(obs, manifest).expect("obs teardown");
}
