//! Overhead of the observability layer on the campaign hot path.
//!
//! The same single-node campaign workload runs under six setups:
//!
//! * `uninstrumented` — a hand-rolled copy of the measurement loop with
//!   no `gps_obs` call sites at all (the floor);
//! * `noop_journal` — the real campaign runner with the hub in its
//!   production default (Noop sink, timing off, flight recorder off):
//!   every event/span/trace call site present but inert;
//! * `stderr_journal` — journal events enabled at Info, written to
//!   stderr through the locked line-atomic sink;
//! * `serving` — Noop journal, but with the live `/metrics` exporter
//!   bound to an ephemeral loopback port for the duration (idle scraper:
//!   measures the cost of merely having the server thread up);
//! * `traced` — Noop journal with the flight recorder in timing mode:
//!   chunk begin/end, span, and checkpoint events stream into the
//!   per-thread rings (reset each iteration so the ring never saturates);
//! * `request_telemetry` — Noop journal with the exporter serving under
//!   full request telemetry (per-route counters, HDR latency, SLO
//!   tracking): the instrumentation is per *request*, so an idle-scraper
//!   server must cost the campaign hot path nothing.
//!
//! The contract this pins: a disabled hub is free — `noop_journal` must
//! stay within 2% of `uninstrumented` (that setup includes the disabled
//! trace call sites on the chunk path), and `request_telemetry` must meet
//! the same budget. To keep the gates robust against scheduler noise on
//! shared hosts, each fails only when *both* the median and the p10
//! ratios exceed the budget. `traced` is reported but not gated: it is
//! the price of *opting in*.

use gps_bench::harness::{black_box, BenchHarness};
use gps_obs::journal::SinkKind;
use gps_obs::{Exporter, Level, ObsConfig, SloSpec, TelemetryConfig};
use gps_par::Pool;
use gps_sim::campaign::Campaign;
use gps_sim::runner::SingleNodeRunConfig;
use gps_sim::{SlotOutput, SlottedGps};
use gps_sources::{OnOffSource, SlotSource};
use gps_stats::rng::SeedSequence;
use gps_stats::{BinnedCcdf, StreamingMoments};

const REPLICATIONS: u64 = 4;

fn base_config() -> SingleNodeRunConfig {
    SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 1_000,
        measure: 20_000,
        seed: 0x0B5E,
        backlog_grid: (0..60).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..60).map(|i| i as f64).collect(),
    }
}

fn make_sources() -> Vec<Box<dyn SlotSource>> {
    OnOffSource::paper_table1()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn SlotSource>)
        .collect()
}

/// The campaign's per-replication work with every `gps_obs` call site
/// stripped: same seeding, same simulation steps, same CCDF folds as
/// `run_single_node_core_scratch`, so any timing difference against the real
/// runner is observability overhead, not workload drift.
fn uninstrumented_replication(config: &SingleNodeRunConfig) -> (Vec<BinnedCcdf>, f64) {
    let n = config.phis.len();
    let seeds = SeedSequence::new(config.seed);
    let mut rngs: Vec<_> = (0..n).map(|i| seeds.rng("source", i as u64)).collect();
    let mut sources = make_sources();
    for (s, rng) in sources.iter_mut().zip(&mut rngs) {
        s.reset(rng);
    }
    let mut server = SlottedGps::new(config.phis.clone(), config.capacity);
    let mut arrivals = vec![0.0; n];
    let mut out = SlotOutput::new();
    for _ in 0..config.warmup {
        for i in 0..n {
            arrivals[i] = sources[i].next_slot(&mut rngs[i]);
        }
        server.step_into(&arrivals, &mut out);
    }
    let mut backlog: Vec<BinnedCcdf> = (0..n)
        .map(|_| BinnedCcdf::new(config.backlog_grid.clone()))
        .collect();
    let mut delay: Vec<BinnedCcdf> = (0..n)
        .map(|_| BinnedCcdf::new(config.delay_grid.clone()))
        .collect();
    let mut moments: Vec<StreamingMoments> = (0..n).map(|_| StreamingMoments::new()).collect();
    let mut volume = 0.0;
    let measure_start = server.slot();
    for _ in 0..config.measure {
        for i in 0..n {
            arrivals[i] = sources[i].next_slot(&mut rngs[i]);
        }
        server.step_into(&arrivals, &mut out);
        for i in 0..n {
            let q = server.backlog(i);
            backlog[i].push(q);
            moments[i].push(q);
            volume += out.services[i];
        }
        for &(i, t0, d) in &out.cleared {
            if t0 >= measure_start {
                delay[i].push(d as f64);
            }
        }
    }
    (backlog, volume)
}

fn run_campaign(base: &SingleNodeRunConfig) {
    black_box(
        Campaign::new(Pool::new(1), REPLICATIONS)
            .run(base, |_r| make_sources())
            .expect("unsupervised campaign")
            .into_reports(),
    );
}

fn main() {
    let base = base_config();
    let slots = REPLICATIONS * (base.warmup + base.measure);
    let mut h = BenchHarness::new("obs_overhead");

    // Floor: no observability call sites at all.
    h.bench_elems("obs_overhead/uninstrumented", slots, || {
        for r in 0..REPLICATIONS {
            let mut cfg = base.clone();
            cfg.seed = base.seed.wrapping_add(r);
            black_box(uninstrumented_replication(&cfg));
        }
    });

    // Production default: hub present but fully disabled.
    gps_obs::global().reconfigure(&ObsConfig {
        sink: SinkKind::Noop,
        level: Level::Info,
        timing: false,
    });
    h.bench_elems("obs_overhead/noop_journal", slots, || run_campaign(&base));

    // Journal on, events to stderr.
    gps_obs::global().reconfigure(&ObsConfig {
        sink: SinkKind::Stderr,
        level: Level::Info,
        timing: false,
    });
    h.bench_elems("obs_overhead/stderr_journal", slots, || run_campaign(&base));

    // Back to Noop, with the live exporter idle on an ephemeral port.
    gps_obs::global().reconfigure(&ObsConfig {
        sink: SinkKind::Noop,
        level: Level::Info,
        timing: false,
    });
    let exporter = Exporter::serve("127.0.0.1:0", gps_obs::metrics().clone(), None, None)
        .expect("bind exporter");
    h.bench_elems("obs_overhead/serving", slots, || run_campaign(&base));
    exporter.shutdown();

    // Flight recorder armed in timing mode (the opt-in profiling cost).
    gps_obs::trace::configure(gps_obs::TraceMode::Timing);
    h.bench_elems("obs_overhead/traced", slots, || {
        gps_obs::trace::reset();
        run_campaign(&base);
    });
    gps_obs::trace::configure(gps_obs::TraceMode::Off);
    gps_obs::trace::reset();

    // Exporter back up, now with request telemetry armed (per-route
    // counters, HDR latency, SLO burn-rate tracking). Telemetry work is
    // per request served, so the campaign loop must not slow down.
    let telemetry = TelemetryConfig::new("bench-obs")
        .with_slos(vec![SloSpec::availability("availability", 0.999)]);
    let exporter = Exporter::serve(
        "127.0.0.1:0",
        gps_obs::metrics().clone(),
        None,
        Some(telemetry),
    )
    .expect("bind telemetry exporter");
    h.bench_elems("obs_overhead/request_telemetry", slots, || {
        run_campaign(&base)
    });
    exporter.shutdown();

    let median_ratio = h.results()[1].median_ns / h.results()[0].median_ns;
    let p10_ratio = h.results()[1].p10_ns / h.results()[0].p10_ns;
    let telem_median = h.results()[5].median_ns / h.results()[0].median_ns;
    let telem_p10 = h.results()[5].p10_ns / h.results()[0].p10_ns;
    let path = h.finish().expect("write bench report");
    println!("report: {}", path.display());
    println!(
        "noop/uninstrumented ratios: median {median_ratio:.4}, p10 {p10_ratio:.4} (budget 1.02)"
    );
    println!(
        "request_telemetry/uninstrumented ratios: median {telem_median:.4}, \
         p10 {telem_p10:.4} (budget 1.02)"
    );
    assert!(
        median_ratio <= 1.02 || p10_ratio <= 1.02,
        "disabled observability must be free: noop/uninstrumented ratio \
         median {median_ratio:.4}, p10 {p10_ratio:.4} — both exceed the 2% budget"
    );
    assert!(
        telem_median <= 1.02 || telem_p10 <= 1.02,
        "request telemetry must not tax the campaign loop: \
         request_telemetry/uninstrumented ratio median {telem_median:.4}, \
         p10 {telem_p10:.4} — both exceed the 2% budget"
    );
}
