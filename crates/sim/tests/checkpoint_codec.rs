//! Robustness of the checkpoint codec, which reads lines back from disk
//! and from the network: decoding arbitrary bytes, or a valid line with
//! one byte changed, never panics, and valid reports — empty sessions
//! with infinite moment extrema included — round-trip bit-exactly.

use gps_core::NetworkTopology;
use gps_obs::json::{self, Json};
use gps_sim::campaign::Replication;
use gps_sim::runner::{
    NetworkRunConfig, NetworkRunReport, SessionReport, SingleNodeRunConfig, SingleNodeRunReport,
};
use gps_sim::supervise::{checkpoint_line, decode_checkpoint_line};
use gps_stats::prop::{vec_of, Config, Strategy};
use gps_stats::{proptest, BinnedCcdf, StreamingMoments};

fn single_node_cfg() -> SingleNodeRunConfig {
    SingleNodeRunConfig {
        phis: vec![0.5, 0.5],
        capacity: 1.0,
        warmup: 0,
        measure: 10,
        seed: 7,
        backlog_grid: vec![0.0, 0.5, 1.0, 2.0],
        delay_grid: vec![0.0, 1.0, 2.0],
    }
}

fn network_cfg() -> NetworkRunConfig {
    NetworkRunConfig {
        topology: NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]),
        warmup: 0,
        measure: 10,
        seed: 9,
        backlog_grid: vec![0.0, 0.5, 1.0],
        delay_grid: vec![0.0, 1.0, 2.0, 4.0],
    }
}

/// A CCDF over `grid` holding `samples` (an empty one when there are
/// none).
fn ccdf(grid: &[f64], samples: &[f64]) -> BinnedCcdf {
    let mut c = BinnedCcdf::new(grid.to_vec());
    for &x in samples {
        c.push(x);
    }
    c
}

fn single_node_report(samples: &[Vec<f64>], throughput: f64) -> SingleNodeRunReport {
    let cfg = single_node_cfg();
    SingleNodeRunReport {
        sessions: (0..cfg.phis.len())
            .map(|i| {
                // Session 1 stays empty: its moments keep the infinite
                // min/max extrema of an empty accumulator.
                let xs: &[f64] = if i == 0 { &samples[0] } else { &[] };
                let mut moments = StreamingMoments::new();
                xs.iter().for_each(|&x| moments.push(x));
                SessionReport {
                    backlog: ccdf(&cfg.backlog_grid, xs),
                    delay: ccdf(&cfg.delay_grid, &samples[1]),
                    backlog_moments: moments,
                    throughput,
                }
            })
            .collect(),
        measured_slots: samples[0].len() as u64,
    }
}

fn network_report(samples: &[Vec<f64>]) -> NetworkRunReport {
    let cfg = network_cfg();
    let n = cfg.topology.num_sessions();
    NetworkRunReport {
        backlog: (0..n)
            .map(|_| ccdf(&cfg.backlog_grid, &samples[0]))
            .collect(),
        delay: (0..n).map(|_| ccdf(&cfg.delay_grid, &samples[1])).collect(),
        measured_slots: samples[0].len() as u64,
    }
}

fn line<C: Replication>(cfg: &C, replication: u64, report: &C::Report) -> String {
    checkpoint_line(
        C::KIND,
        cfg.fingerprint(),
        cfg.seed(),
        replication,
        &C::report_to_json(report),
    )
}

/// Runs every decoder a checkpoint line meets on `text`; none may panic.
fn decode_everything(text: &str) {
    let sn = single_node_cfg();
    let net = network_cfg();
    if let Some((_, payload)) = decode_checkpoint_line(text, "single_node", sn.fingerprint(), 7) {
        let _ = sn.report_from_json(&payload);
    }
    if let Some((_, payload)) = decode_checkpoint_line(text, "network", net.fingerprint(), 9) {
        let _ = net.report_from_json(&payload);
    }
    if let Ok(doc) = json::parse(text) {
        let payload = doc.get("report").cloned().unwrap_or(doc);
        let _ = sn.report_from_json(&payload);
        let _ = net.report_from_json(&payload);
    }
}

/// Bit patterns of everything a single-node report carries.
fn single_node_bits(r: &SingleNodeRunReport) -> Vec<u64> {
    let mut bits = vec![r.measured_slots];
    for s in &r.sessions {
        let m = &s.backlog_moments;
        bits.extend([s.backlog.len(), s.delay.len(), m.count()]);
        bits.extend(s.backlog.exceed_counts());
        bits.extend(s.delay.exceed_counts());
        bits.extend([m.mean(), m.m2(), m.min(), m.max(), s.throughput].map(f64::to_bits));
    }
    bits
}

fn network_bits(r: &NetworkRunReport) -> Vec<u64> {
    let mut bits = vec![r.measured_slots];
    for c in r.backlog.iter().chain(&r.delay) {
        bits.push(c.len());
        bits.extend(c.exceed_counts());
    }
    bits
}

fn samples() -> impl Strategy<Value = Vec<Vec<f64>>> {
    vec_of(vec_of(0.0f64..5.0, 0..30), 2..3)
}

proptest! {
    #![config(Config::default().cases(256))]

    fn arbitrary_bytes_never_panic(bytes in vec_of(0usize..256, 0..300)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        decode_everything(&String::from_utf8_lossy(&bytes));
    }

    fn single_byte_mutations_never_panic(
        samples in samples(),
        pos in 0usize..100_000,
        byte in 0usize..256,
    ) {
        let sn = single_node_cfg();
        let net = network_cfg();
        for valid in [
            line(&sn, 3, &single_node_report(&samples, 0.25)),
            line(&net, 4, &network_report(&samples)),
        ] {
            let mut bytes = valid.into_bytes();
            let at = pos % bytes.len();
            bytes[at] = byte as u8;
            decode_everything(&String::from_utf8_lossy(&bytes));
        }
    }

    fn single_node_reports_round_trip_bit_exactly(
        samples in samples(),
        throughput in -1.0e9f64..1.0e9,
        replication in 0u64..1_000_000,
    ) {
        let cfg = single_node_cfg();
        let report = single_node_report(&samples, throughput);
        let text = line(&cfg, replication, &report);
        let (r, payload) = decode_checkpoint_line(&text, "single_node", cfg.fingerprint(), 7)
            .expect("valid line decodes");
        assert_eq!(r, replication);
        let back = cfg.report_from_json(&payload).expect("valid payload decodes");
        assert_eq!(single_node_bits(&back), single_node_bits(&report));
    }

    fn network_reports_round_trip_bit_exactly(
        samples in samples(),
        replication in 0u64..1_000_000,
    ) {
        let cfg = network_cfg();
        let report = network_report(&samples);
        let text = line(&cfg, replication, &report);
        let (r, payload) = decode_checkpoint_line(&text, "network", cfg.fingerprint(), 9)
            .expect("valid line decodes");
        assert_eq!(r, replication);
        let back = cfg.report_from_json(&payload).expect("valid payload decodes");
        assert_eq!(network_bits(&back), network_bits(&report));
    }
}

#[test]
fn empty_session_extrema_are_infinite_and_survive() {
    let cfg = single_node_cfg();
    let report = single_node_report(&[vec![1.0, 2.0], vec![0.5]], 0.5);
    let empty = &report.sessions[1].backlog_moments;
    assert_eq!(
        (empty.min(), empty.max()),
        (f64::INFINITY, f64::NEG_INFINITY)
    );
    let payload = SingleNodeRunConfig::report_to_json(&report);
    let reparsed: Json = json::parse(&payload.to_compact()).expect("payload parses");
    let back = cfg.report_from_json(&reparsed).expect("payload decodes");
    assert_eq!(single_node_bits(&back), single_node_bits(&report));
}
