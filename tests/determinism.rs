//! End-to-end determinism of the measurement campaigns: the entire
//! simulation pipeline (SeedSequence → per-source RNG streams → slotted
//! GPS → CCDF/moment accumulation) must be a pure function of the master
//! seed. Two runs with the same seed produce bit-identical
//! `SessionReport`s; a different seed produces different measurements.

use gps_qos::prelude::*;
use gps_sim::runner::{SessionReport, SingleNodeRunReport};
use gps_sources::SlotSource;

fn config(seed: u64) -> SingleNodeRunConfig {
    SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 1_000,
        measure: 30_000,
        seed,
        backlog_grid: (0..60).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..60).map(|i| i as f64).collect(),
    }
}

fn campaign(seed: u64) -> SingleNodeRunReport {
    let mut sources: Vec<Box<dyn SlotSource>> = OnOffSource::paper_table1()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn SlotSource>)
        .collect();
    run_single_node(&mut sources, &config(seed))
}

/// Bit-exact equality for f64 series (== would accept -0.0 vs 0.0 and
/// reject NaN; reports must match to the bit).
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn assert_session_reports_identical(a: &SessionReport, b: &SessionReport, i: usize) {
    let (sa, sb) = (a.backlog.series(), b.backlog.series());
    assert_eq!(sa.len(), sb.len());
    for (&(xa, pa), &(xb, pb)) in sa.iter().zip(&sb) {
        assert!(
            bits_eq(xa, xb) && bits_eq(pa, pb),
            "session {i}: backlog series diverge at x={xa}"
        );
    }
    let (da, db) = (a.delay.series(), b.delay.series());
    assert_eq!(da.len(), db.len());
    for (&(xa, pa), &(xb, pb)) in da.iter().zip(&db) {
        assert!(
            bits_eq(xa, xb) && bits_eq(pa, pb),
            "session {i}: delay series diverge at x={xa}"
        );
    }
    assert_eq!(a.backlog.len(), b.backlog.len());
    assert_eq!(a.delay.len(), b.delay.len());
    assert_eq!(a.backlog_moments.count(), b.backlog_moments.count());
    assert!(bits_eq(a.backlog_moments.mean(), b.backlog_moments.mean()));
    assert!(bits_eq(
        a.backlog_moments.sample_variance(),
        b.backlog_moments.sample_variance()
    ));
    assert!(bits_eq(a.backlog_moments.min(), b.backlog_moments.min()));
    assert!(bits_eq(a.backlog_moments.max(), b.backlog_moments.max()));
    assert!(
        bits_eq(a.throughput, b.throughput),
        "session {i} throughput"
    );
}

#[test]
fn same_master_seed_is_bit_identical() {
    let a = campaign(0xD5A1_94C3);
    let b = campaign(0xD5A1_94C3);
    assert_eq!(a.measured_slots, b.measured_slots);
    assert_eq!(a.sessions.len(), b.sessions.len());
    for (i, (ra, rb)) in a.sessions.iter().zip(&b.sessions).enumerate() {
        assert_session_reports_identical(ra, rb, i);
    }
}

// ---------------------------------------------------------------------
// Campaign-level determinism: the parallel campaign engine must produce
// the same bytes as the serial path at any worker count. These tests pin
// the explicit-thread variants (rather than GPS_PAR_THREADS) so they
// stay race-free under the multithreaded test runner.

use gps_obs::metrics::Registry;
use gps_sim::runner::{
    merge_network_reports, merge_single_node_reports, record_network_metrics,
    record_single_node_metrics, NetworkRunReport,
};

fn make_sources() -> Vec<Box<dyn SlotSource>> {
    OnOffSource::paper_table1()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn SlotSource>)
        .collect()
}

/// Formats a merged report exactly the way the experiment binaries write
/// CSV rows (`{:.10e}` cells), so equality here means byte-identical
/// output files.
fn single_node_csv_rows(report: &SingleNodeRunReport) -> Vec<String> {
    let mut rows = Vec::new();
    for (i, s) in report.sessions.iter().enumerate() {
        for (x, p) in s.backlog.series() {
            rows.push(format!("{i},0,{x:.10e},{p:.10e}"));
        }
        for (x, p) in s.delay.series() {
            rows.push(format!("{i},1,{x:.10e},{p:.10e}"));
        }
        rows.push(format!("{i},tput,{:.10e}", s.throughput));
    }
    rows
}

fn network_csv_rows(report: &NetworkRunReport) -> Vec<String> {
    let mut rows = Vec::new();
    for i in 0..report.backlog.len() {
        for (x, p) in report.backlog[i].series() {
            rows.push(format!("{i},0,{x:.10e},{p:.10e}"));
        }
        for (x, p) in report.delay[i].series() {
            rows.push(format!("{i},1,{x:.10e},{p:.10e}"));
        }
    }
    rows
}

#[test]
fn parallel_single_node_campaign_matches_serial_byte_for_byte() {
    let base = {
        let mut c = config(0xCAFE);
        c.warmup = 500;
        c.measure = 8_000;
        c
    };
    let serial = Campaign::new(Pool::new(1), 6)
        .run(&base, |_r| make_sources())
        .unwrap()
        .into_reports();
    let parallel = Campaign::new(Pool::new(4), 6)
        .run(&base, |_r| make_sources())
        .unwrap()
        .into_reports();

    // Byte-identical CSV rows from the merged reports.
    let ms = merge_single_node_reports(&serial);
    let mp = merge_single_node_reports(&parallel);
    assert_eq!(single_node_csv_rows(&ms), single_node_csv_rows(&mp));

    // Identical metrics snapshots when folded in replication order into
    // fresh registries (span timings are nondeterministic and excluded).
    let reg_serial = Registry::new();
    for r in &serial {
        record_single_node_metrics(&reg_serial, r);
    }
    let reg_parallel = Registry::new();
    for r in &parallel {
        record_single_node_metrics(&reg_parallel, r);
    }
    assert_eq!(
        reg_serial.snapshot().to_json_without_spans(),
        reg_parallel.snapshot().to_json_without_spans()
    );
}

#[test]
fn parallel_network_campaign_matches_serial_byte_for_byte() {
    let base = NetworkRunConfig {
        topology: NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]),
        warmup: 500,
        measure: 6_000,
        seed: 0xF00D,
        backlog_grid: (0..40).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..40).map(|i| i as f64).collect(),
    };
    let serial = Campaign::new(Pool::new(1), 5)
        .run(&base, |_r| make_sources())
        .unwrap()
        .into_reports();
    let parallel = Campaign::new(Pool::new(3), 5)
        .run(&base, |_r| make_sources())
        .unwrap()
        .into_reports();

    let ms = merge_network_reports(&serial);
    let mp = merge_network_reports(&parallel);
    assert_eq!(ms.measured_slots, mp.measured_slots);
    assert_eq!(network_csv_rows(&ms), network_csv_rows(&mp));

    let reg_serial = Registry::new();
    for r in &serial {
        record_network_metrics(&reg_serial, r);
    }
    let reg_parallel = Registry::new();
    for r in &parallel {
        record_network_metrics(&reg_parallel, r);
    }
    assert_eq!(
        reg_serial.snapshot().to_json_without_spans(),
        reg_parallel.snapshot().to_json_without_spans()
    );
}

#[test]
fn different_master_seeds_differ() {
    let a = campaign(1);
    let c = campaign(2);
    // At 30k slots of four bursty sources, identical empirical CCDFs from
    // independent streams are (astronomically) improbable: some session's
    // backlog or throughput must differ.
    let any_diff = a.sessions.iter().zip(&c.sessions).any(|(ra, rc)| {
        ra.backlog.series() != rc.backlog.series()
            || ra.delay.series() != rc.delay.series()
            || !bits_eq(ra.throughput, rc.throughput)
    });
    assert!(any_diff, "different seeds produced identical campaigns");
}
