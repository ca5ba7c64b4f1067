//! Serial-vs-parallel wall time for the chunked campaign engine.
//!
//! Runs the same single-node and network replication campaigns through
//! the `Campaign` funnel at 1, 2, 4, and 8 workers (explicit thread counts, independent of
//! `GPS_PAR_THREADS`), so the JSON report pins both the serial baseline
//! and the parallel speedup on the current host. A final group times the
//! memory-bounded merged campaign on a million-replication configuration
//! (tiny per-replication work, so the bench measures engine overhead:
//! chunk scheduling, scratch reuse, fold contention). Span timing is
//! enabled, so per-phase span statistics fold into the report.
//!
//! Note: the speedup at k workers is bounded by the machine's core
//! count; on a single-core host all variants should be ~equal (the
//! scaling/determinism tests, not this bench, are the correctness gate).

use gps_bench::harness::{black_box, BenchHarness};
use gps_core::NetworkTopology;
use gps_par::Pool;
use gps_sim::campaign::Campaign;
use gps_sim::runner::{NetworkRunConfig, SingleNodeRunConfig};
use gps_sources::{OnOffSource, SlotSource};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn make_sources() -> Vec<Box<dyn SlotSource>> {
    OnOffSource::paper_table1()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn SlotSource>)
        .collect()
}

fn bench_single_node(h: &mut BenchHarness) {
    let replications = 8u64;
    let base = SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 1_000,
        measure: 20_000,
        seed: 0xBE7C,
        backlog_grid: (0..60).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..60).map(|i| i as f64).collect(),
    };
    let slots = replications * base.measure;
    for threads in THREAD_COUNTS {
        h.bench_elems(
            &format!("single_node_campaign/8x20k_{threads}thread"),
            slots,
            || {
                black_box(
                    Campaign::new(Pool::new(threads), replications)
                        .run(&base, |_r| make_sources())
                        .expect("unsupervised campaign")
                        .into_reports(),
                )
            },
        );
    }
}

fn bench_network(h: &mut BenchHarness) {
    let replications = 8u64;
    let base = NetworkRunConfig {
        topology: NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]),
        warmup: 1_000,
        measure: 10_000,
        seed: 0xF162,
        backlog_grid: (0..60).map(|i| i as f64 * 0.25).collect(),
        delay_grid: (0..60).map(|i| i as f64).collect(),
    };
    let slots = replications * base.measure;
    for threads in THREAD_COUNTS {
        h.bench_elems(
            &format!("network_campaign/fig2_8x10k_{threads}thread"),
            slots,
            || {
                black_box(
                    Campaign::new(Pool::new(threads), replications)
                        .run(&base, |_r| make_sources())
                        .expect("unsupervised campaign")
                        .into_reports(),
                )
            },
        );
    }
}

/// Million-replication configuration through the memory-bounded merged
/// campaign: 10^6 replications of 10 measured slots each (10^7 slots per
/// iteration). Per-replication work is deliberately tiny so the number
/// is dominated by the engine itself — chunk scheduling, per-worker
/// scratch reuse, and the ordered partial-report merge.
fn bench_million(h: &mut BenchHarness) {
    let replications = 1_000_000u64;
    let base = SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 0,
        measure: 10,
        seed: 0x1E6,
        backlog_grid: (0..8).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..8).map(|i| i as f64).collect(),
    };
    let slots = replications * base.measure;
    for threads in [1usize, Pool::from_env().threads.max(2)] {
        h.bench_elems(
            &format!("merged_campaign/1e6x10_{threads}thread"),
            slots,
            || {
                black_box(
                    Campaign::new(Pool::new(threads), replications)
                        .merged()
                        .run(&base, |_r| make_sources())
                        .expect("unsupervised campaign")
                        .merged
                        .expect("merged fold"),
                )
            },
        );
    }
}

fn main() {
    gps_obs::global().set_timing(true);
    let mut h = BenchHarness::new("campaign_par");
    bench_single_node(&mut h);
    bench_network(&mut h);
    bench_million(&mut h);
    h.finish().expect("write bench report");
}
