//! **A4 — admission control / utilization gain**: the paper's motivating
//! claim is that deterministic worst-case bounds "are usually very
//! conservative", so statistical admission control admits more sessions.
//!
//! Scenario: homogeneous scaled-down on-off sessions (a voice-like
//! model) on a unit-rate RPPS GPS server, QoS target `Pr{D > d} <= ε`.
//! Compared:
//!
//! * deterministic PG admission — needs a leaky-bucket (σ, ρ); since an
//!   on-off Markov source is *not* LBAP, we police a long sample trace
//!   and use the smallest σ that passes (reported for several trace
//!   lengths: it keeps growing, which is itself the paper's point);
//! * statistical admission via the Theorem-10 E.B.B. bound;
//! * statistical admission via the improved LNT94-direct bound;
//! * the stability ceiling `Σρ < r` (upper limit of any scheme).

use gps_analysis::admission::{max_rpps_sessions, QosTarget};
use gps_ebb::TimeModel;
use gps_experiments::csv::CsvWriter;
use gps_experiments::{finish_obs, init_obs};
use gps_netcalc::pg::rpps_admission;
use gps_netcalc::AffineCurve;
use gps_obs::RunManifest;
use gps_sources::lnt94::queue_tail_bound;
use gps_sources::token_bucket::LeakyBucket;
use gps_sources::{ArrivalTrace, Lnt94Characterization, OnOffSource, PrefactorKind, SlotSource};
use gps_stats::rng::SeedSequence;

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let obs = init_obs("admission", quiet);
    // Voice-like source: 10% duty cycle bursts at peak 0.1, mean 0.01.
    let src = OnOffSource::new(0.1, 0.9, 0.1);
    let rho = 0.02; // envelope rate: twice the mean
    let ebb = Lnt94Characterization::characterize(src.as_markov(), rho, PrefactorKind::Lnt94)
        .expect("valid rho")
        .ebb;
    let target = QosTarget::new(20.0, 1e-6);

    println!(
        "A4: admission control, target Pr{{D > {}}} <= {:e}",
        target.delay, target.epsilon
    );
    println!("source: on-off p=0.1 q=0.9 peak=0.1 (mean 0.01), rho = {rho}");

    // Deterministic: police traces of growing length for the minimal σ.
    // The three trace simulations run in parallel on the gps_par pool
    // (independent derived seeds); printed serially in length order.
    let seeds = SeedSequence::new(0xAD01);
    let lens = [10_000usize, 100_000, 1_000_000];
    let sigma_rows: Vec<(usize, f64)> = gps_par::Pool::from_env().map(&lens, |k, &len| {
        let mut s = src.clone();
        let mut rng = seeds.rng("trace", k as u64);
        s.reset(&mut rng);
        let trace = ArrivalTrace::record(&mut s, len, &mut rng);
        (len, LeakyBucket::min_sigma(rho, trace.slots()))
    });
    for &(len, sigma) in &sigma_rows {
        println!("  minimal σ for a {len}-slot trace at rho {rho}: {sigma:.3}");
    }
    let (_, sigma) = *sigma_rows.last().unwrap();

    let det = rpps_admission(AffineCurve::new(sigma, rho), 1.0, target.delay);
    let stat_ebb = max_rpps_sessions(ebb, 1.0, target, TimeModel::Discrete);

    // Improved: direct LNT94 bound at g = 1/n; binary search on n.
    let admits_improved = |n: usize| -> bool {
        let g = 1.0 / n as f64;
        match queue_tail_bound(src.as_markov(), g) {
            Some(b) => b.delay_from_backlog(g).tail(target.delay) <= target.epsilon,
            None => false,
        }
    };
    let mut stat_improved = 0usize;
    for n in 1..=2000 {
        if admits_improved(n) {
            stat_improved = n;
        } else if stat_improved > 0 {
            break;
        }
    }

    let stability = (1.0 / src.mean()).floor() as usize - 1;

    println!("\nadmitted sessions:");
    println!("  deterministic PG (σ from 1M-slot trace): {det}");
    println!("  statistical (Theorem 10, E.B.B.):        {stat_ebb}");
    println!("  statistical (LNT94-direct):              {stat_improved}");
    println!("  stability ceiling (Σ mean < r):          {stability}");
    println!(
        "  utilization: det {:.1}% | EBB {:.1}% | improved {:.1}% (of mean-rate ceiling)",
        100.0 * det as f64 / stability as f64,
        100.0 * stat_ebb as f64 / stability as f64,
        100.0 * stat_improved as f64 / stability as f64
    );

    let mut csv = CsvWriter::create(
        "admission",
        &["deterministic", "stat_ebb", "stat_improved", "stability"],
    )
    .expect("csv");
    csv.row(&[
        det as f64,
        stat_ebb as f64,
        stat_improved as f64,
        stability as f64,
    ])
    .expect("row");
    let rows = csv.rows();
    let path = csv.finish().expect("finish");
    println!("written: {}", path.display());

    let mut manifest = RunManifest::new("admission")
        .seed(0xAD01)
        .param("rho", rho)
        .param("delay_target", target.delay)
        .param("epsilon", target.epsilon);
    manifest.output("admission.csv", rows);
    finish_obs(obs, manifest).expect("obs teardown");
}
