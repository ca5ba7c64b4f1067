//! End-to-end supervision guarantees for the measurement campaigns: a
//! campaign that is killed mid-flight and resumed from its crash-safe
//! checkpoint — or that loses a replication to a transient panic and
//! retries it — must produce *byte-identical* CSV rows and metrics to a
//! straight-through run, at any worker count.
//!
//! These are the integration-level counterparts of the unit tests in
//! `gps_sim::supervise`: they exercise the full pipeline (supervised
//! campaign → merge → `{:.10e}` CSV formatting → metrics fold →
//! `to_json_without_spans`), i.e. exactly what the experiment binaries
//! write to `results/`.

use gps_obs::metrics::Registry;
use gps_qos::prelude::*;
use gps_sim::runner::{
    merge_network_reports, merge_single_node_reports, record_network_metrics,
    record_single_node_metrics, NetworkRunReport, SingleNodeRunReport,
};
use gps_sim::supervise::{PanicInjection, Supervisor};
use gps_sources::SlotSource;
use std::path::{Path, PathBuf};

const REPLICATIONS: u64 = 6;

fn single_node_config() -> SingleNodeRunConfig {
    SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 500,
        measure: 8_000,
        seed: 0x5A5A,
        backlog_grid: (0..60).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..60).map(|i| i as f64).collect(),
    }
}

fn network_config() -> NetworkRunConfig {
    NetworkRunConfig {
        topology: NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]),
        warmup: 500,
        measure: 6_000,
        seed: 0xF00D,
        backlog_grid: (0..40).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..40).map(|i| i as f64).collect(),
    }
}

fn make_sources() -> Vec<Box<dyn SlotSource>> {
    OnOffSource::paper_table1()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn SlotSource>)
        .collect()
}

fn temp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gps_supervision_it_{}_{tag}.ndjson",
        std::process::id()
    ))
}

/// Simulates a crash mid-append: keeps the first `keep` complete
/// checkpoint lines plus the first half of the next one (a torn write),
/// discarding the rest.
fn truncate_checkpoint(path: &Path, keep: usize) {
    let content = std::fs::read_to_string(path).expect("read checkpoint");
    let lines: Vec<&str> = content.split_inclusive('\n').collect();
    assert!(
        lines.len() > keep,
        "checkpoint has {} lines, cannot keep {keep} + a torn one",
        lines.len()
    );
    let mut kept: String = lines[..keep].concat();
    let torn = lines[keep];
    kept.push_str(&torn[..torn.len() / 2]);
    std::fs::write(path, kept).expect("rewrite checkpoint");
}

/// CSV rows exactly as the experiment binaries format them (`{:.10e}`
/// cells), so equality here means byte-identical output files.
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

fn single_node_metrics_json(reports: &[SingleNodeRunReport]) -> String {
    let reg = Registry::new();
    for r in reports {
        record_single_node_metrics(&reg, r);
    }
    reg.snapshot().to_json_without_spans()
}

fn network_metrics_json(reports: &[NetworkRunReport]) -> String {
    let reg = Registry::new();
    for r in reports {
        record_network_metrics(&reg, r);
    }
    reg.snapshot().to_json_without_spans()
}

#[test]
fn killed_and_resumed_single_node_campaign_is_byte_identical() {
    let base = single_node_config();

    // Straight-through baseline (serial, no checkpoint).
    let baseline = Campaign::new(Pool::new(1), REPLICATIONS)
        .supervisor(&Supervisor::new())
        .run(&base, |_r| make_sources())
        .expect("baseline campaign");
    assert_eq!(baseline.restored, 0);
    assert!(baseline.quarantined.is_empty());
    let baseline_reports = baseline.completed();
    let baseline_rows = single_node_csv_rows(&merge_single_node_reports(&baseline_reports));
    let baseline_metrics = single_node_metrics_json(&baseline_reports);

    for threads in [1usize, 4] {
        let ckpt = temp_ckpt(&format!("single_kill_t{threads}"));

        // Full checkpointed run, then simulate a crash that tears the
        // fourth checkpoint line mid-append.
        Campaign::new(Pool::new(threads), REPLICATIONS)
            .supervisor(&Supervisor::new().with_checkpoint(&ckpt))
            .run(&base, |_r| make_sources())
            .expect("checkpointed campaign");
        truncate_checkpoint(&ckpt, 3);

        // Resume: the three intact lines restore, the torn one and the
        // missing tail recompute.
        let resumed = Campaign::new(Pool::new(threads), REPLICATIONS)
            .supervisor(&Supervisor::new().with_checkpoint(&ckpt).with_resume(true))
            .run(&base, |_r| make_sources())
            .expect("resumed campaign");
        assert_eq!(
            resumed.restored, 3,
            "threads {threads}: torn line must not restore"
        );
        assert!(resumed.quarantined.is_empty());

        let reports = resumed.completed();
        assert_eq!(
            single_node_csv_rows(&merge_single_node_reports(&reports)),
            baseline_rows,
            "threads {threads}: resumed CSV rows diverge from straight-through"
        );
        assert_eq!(
            single_node_metrics_json(&reports),
            baseline_metrics,
            "threads {threads}: resumed metrics diverge from straight-through"
        );
        let _ = std::fs::remove_file(&ckpt);
    }
}

#[test]
fn killed_and_resumed_network_campaign_is_byte_identical() {
    let base = network_config();

    let baseline = Campaign::new(Pool::new(1), REPLICATIONS)
        .supervisor(&Supervisor::new())
        .run(&base, |_r| make_sources())
        .expect("baseline campaign");
    let baseline_reports = baseline.completed();
    let baseline_rows = network_csv_rows(&merge_network_reports(&baseline_reports));
    let baseline_metrics = network_metrics_json(&baseline_reports);

    for threads in [1usize, 4] {
        let ckpt = temp_ckpt(&format!("network_kill_t{threads}"));
        Campaign::new(Pool::new(threads), REPLICATIONS)
            .supervisor(&Supervisor::new().with_checkpoint(&ckpt))
            .run(&base, |_r| make_sources())
            .expect("checkpointed campaign");
        truncate_checkpoint(&ckpt, 3);

        let resumed = Campaign::new(Pool::new(threads), REPLICATIONS)
            .supervisor(&Supervisor::new().with_checkpoint(&ckpt).with_resume(true))
            .run(&base, |_r| make_sources())
            .expect("resumed campaign");
        assert_eq!(resumed.restored, 3);

        let reports = resumed.completed();
        assert_eq!(
            network_csv_rows(&merge_network_reports(&reports)),
            baseline_rows,
            "threads {threads}: resumed CSV rows diverge from straight-through"
        );
        assert_eq!(
            network_metrics_json(&reports),
            baseline_metrics,
            "threads {threads}: resumed metrics diverge from straight-through"
        );
        let _ = std::fs::remove_file(&ckpt);
    }
}

#[test]
fn transient_panic_retries_to_byte_identical_output() {
    let base = single_node_config();
    let clean = Campaign::new(Pool::new(1), REPLICATIONS)
        .supervisor(&Supervisor::new())
        .run(&base, |_r| make_sources())
        .expect("clean campaign");
    let clean_reports = clean.completed();

    for threads in [1usize, 4] {
        let faulted = Campaign::new(Pool::new(threads), REPLICATIONS)
            .supervisor(&Supervisor::new().with_inject(Some(PanicInjection {
                replication: 2,
                once: true,
            })))
            .run(&base, |_r| make_sources())
            .expect("faulted campaign");
        assert!(faulted.quarantined.is_empty(), "transient panic recovered");
        assert_eq!(faulted.tasks[2].attempts, 2, "replication 2 was retried");

        let reports = faulted.completed();
        assert_eq!(
            single_node_csv_rows(&merge_single_node_reports(&reports)),
            single_node_csv_rows(&merge_single_node_reports(&clean_reports)),
            "threads {threads}: retried campaign diverges from clean run"
        );
        assert_eq!(
            single_node_metrics_json(&reports),
            single_node_metrics_json(&clean_reports),
            "threads {threads}: retried metrics diverge from clean run"
        );
    }
}

#[test]
fn permanent_panic_quarantines_and_campaign_completes() {
    let base = single_node_config();
    let outcome = Campaign::new(Pool::new(2), REPLICATIONS)
        .supervisor(&Supervisor::new().with_inject(Some(PanicInjection {
            replication: 4,
            once: false,
        })))
        .run(&base, |_r| make_sources())
        .expect("campaign with permanent fault");
    assert_eq!(outcome.quarantined, vec![4]);
    let reports = outcome.completed();
    assert_eq!(reports.len() as u64, REPLICATIONS - 1);
    // The survivors still merge into a usable report.
    let merged = merge_single_node_reports(&reports);
    assert_eq!(
        merged.measured_slots,
        base.measure * (REPLICATIONS - 1),
        "merged report covers exactly the surviving replications"
    );
}

/// Wraps a source and panics on its `after`-th slot: a replication that
/// dies partway through the measure loop, leaving the worker's simulator
/// scratch half-stepped.
struct PanicMidRun {
    inner: Box<dyn SlotSource>,
    after: u64,
}

impl SlotSource for PanicMidRun {
    fn next_slot(&mut self, rng: &mut gps_stats::rng::Xoshiro256pp) -> f64 {
        self.after -= 1;
        assert!(self.after > 0, "injected mid-run panic");
        self.inner.next_slot(rng)
    }
    fn mean_rate(&self) -> f64 {
        self.inner.mean_rate()
    }
    fn peak_rate(&self) -> Option<f64> {
        self.inner.peak_rate()
    }
    fn reset(&mut self, rng: &mut gps_stats::rng::Xoshiro256pp) {
        self.inner.reset(rng);
    }
}

/// Sources whose first build for replication 2 panics halfway through
/// the measure loop; every later build (the retry) is clean.
fn panicking_once_at_rep2(slots: u64) -> impl Fn(u64) -> Vec<Box<dyn SlotSource>> + Sync {
    let armed = std::sync::atomic::AtomicBool::new(true);
    move |r| {
        let mut sources = make_sources();
        if r == 2 && armed.swap(false, std::sync::atomic::Ordering::Relaxed) {
            let inner = sources.remove(0);
            sources.insert(
                0,
                Box::new(PanicMidRun {
                    inner,
                    after: slots,
                }),
            );
        }
        sources
    }
}

#[test]
fn mid_run_panic_retries_on_rebuilt_scratch_single_node() {
    let base = single_node_config();
    let clean = Campaign::new(Pool::new(1), REPLICATIONS)
        .supervisor(&Supervisor::new())
        .run(&base, |_r| make_sources())
        .expect("clean campaign")
        .into_reports();
    // One worker drains every replication as one chunk, so the retry of
    // replication 2 runs on the same worker that panicked mid-measure.
    let pool = Pool {
        threads: 1,
        chunk: Some(REPLICATIONS as usize),
    };
    let faulted = Campaign::new(pool, REPLICATIONS)
        .supervisor(&Supervisor::new())
        .run(
            &base,
            panicking_once_at_rep2(base.warmup + base.measure / 2),
        )
        .expect("faulted campaign");
    assert_eq!(faulted.tasks[2].attempts, 2);
    assert!(faulted.quarantined.is_empty());
    let reports = faulted.into_reports();
    assert_eq!(
        single_node_csv_rows(&merge_single_node_reports(&reports)),
        single_node_csv_rows(&merge_single_node_reports(&clean))
    );
    assert_eq!(
        single_node_metrics_json(&reports),
        single_node_metrics_json(&clean)
    );
}

#[test]
fn mid_run_panic_retries_on_rebuilt_scratch_network() {
    let base = network_config();
    let clean = Campaign::new(Pool::new(1), REPLICATIONS)
        .supervisor(&Supervisor::new())
        .run(&base, |_r| make_sources())
        .expect("clean campaign")
        .into_reports();
    let pool = Pool {
        threads: 1,
        chunk: Some(REPLICATIONS as usize),
    };
    let faulted = Campaign::new(pool, REPLICATIONS)
        .supervisor(&Supervisor::new())
        .run(
            &base,
            panicking_once_at_rep2(base.warmup + base.measure / 2),
        )
        .expect("faulted campaign");
    assert_eq!(faulted.tasks[2].attempts, 2);
    assert!(faulted.quarantined.is_empty());
    let reports = faulted.into_reports();
    assert_eq!(
        network_csv_rows(&merge_network_reports(&reports)),
        network_csv_rows(&merge_network_reports(&clean))
    );
    assert_eq!(network_metrics_json(&reports), network_metrics_json(&clean));
}
