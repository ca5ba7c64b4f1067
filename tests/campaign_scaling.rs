//! Scaling/determinism harness for the chunked campaign engine: the
//! chunk size and worker count are pure scheduling knobs — every
//! `(threads, chunk)` combination must produce byte-identical campaign
//! output (CSV rows as the experiment binaries format them, plus the
//! ordered metrics fold), supervised campaigns must restore/retry/
//! quarantine identically under chunking, and the memory-bounded merged
//! campaign must be thread-invariant at a fixed chunk.
//!
//! The `#[ignore]`d smoke-scale test at the bottom runs a 10^5-
//! replication merged campaign and checks the multi-worker path is not
//! slower than serial (the historical failure mode this harness exists
//! to prevent: threads making campaigns *slower*).

use gps_obs::metrics::Registry;
use gps_par::TaskOutcome;
use gps_qos::prelude::*;
use gps_sim::runner::{record_single_node_metrics, NetworkRunReport, SingleNodeRunReport};
use gps_sources::SlotSource;
use std::path::{Path, PathBuf};

const REPLICATIONS: u64 = 6;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn single_node_config() -> SingleNodeRunConfig {
    SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 300,
        measure: 5_000,
        seed: 0xCA11,
        backlog_grid: (0..50).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..50).map(|i| i as f64).collect(),
    }
}

fn network_config() -> NetworkRunConfig {
    NetworkRunConfig {
        topology: NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]),
        warmup: 300,
        measure: 3_000,
        seed: 0xBEEF,
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

/// The chunk sweep every identity test runs: single-replication chunks
/// (maximal scheduling freedom), the `GPS_PAR_CHUNK`-aware default, and
/// one chunk spanning the whole campaign (fully serial per worker).
fn chunk_sweep() -> [Option<usize>; 3] {
    [Some(1), None, Some(REPLICATIONS as usize)]
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

#[test]
fn single_node_campaign_is_identical_across_threads_and_chunks() {
    let base = single_node_config();
    let baseline = Campaign::new(Pool::new(1), REPLICATIONS)
        .run(&base, |_| make_sources())
        .unwrap()
        .into_reports();
    let baseline_rows: Vec<Vec<String>> = baseline.iter().map(single_node_csv_rows).collect();
    let baseline_metrics = single_node_metrics_json(&baseline);

    for threads in THREAD_COUNTS {
        for chunk in chunk_sweep() {
            let reports = Campaign::new(Pool { threads, chunk }, REPLICATIONS)
                .run(&base, |_| make_sources())
                .unwrap()
                .into_reports();
            assert_eq!(reports.len() as u64, REPLICATIONS);
            for (r, rep) in reports.iter().enumerate() {
                assert_eq!(
                    single_node_csv_rows(rep),
                    baseline_rows[r],
                    "threads={threads} chunk={chunk:?} replication {r}: CSV rows diverge"
                );
            }
            assert_eq!(
                single_node_metrics_json(&reports),
                baseline_metrics,
                "threads={threads} chunk={chunk:?}: metrics fold diverges"
            );
        }
    }
}

#[test]
fn network_campaign_is_identical_across_threads_and_chunks() {
    let base = network_config();
    let baseline = Campaign::new(
        Pool {
            threads: 1,
            chunk: Some(1),
        },
        REPLICATIONS,
    )
    .run(&base, |_| make_sources())
    .unwrap()
    .into_reports();
    let baseline_rows: Vec<Vec<String>> = baseline.iter().map(network_csv_rows).collect();

    for threads in THREAD_COUNTS {
        for chunk in chunk_sweep() {
            let reports = Campaign::new(Pool { threads, chunk }, REPLICATIONS)
                .run(&base, |_| make_sources())
                .unwrap()
                .into_reports();
            assert_eq!(reports.len() as u64, REPLICATIONS);
            for (r, rep) in reports.iter().enumerate() {
                assert_eq!(
                    network_csv_rows(rep),
                    baseline_rows[r],
                    "threads={threads} chunk={chunk:?} replication {r}: CSV rows diverge"
                );
            }
        }
    }
}

#[test]
fn merged_campaign_is_thread_invariant_at_fixed_chunk() {
    let base = single_node_config();
    let baseline = Campaign::new(
        Pool {
            threads: 1,
            chunk: Some(2),
        },
        REPLICATIONS,
    )
    .merged()
    .run(&base, |_| make_sources())
    .unwrap()
    .merged
    .expect("merged fold");
    let baseline_rows = single_node_csv_rows(&baseline);
    for threads in THREAD_COUNTS {
        let merged = Campaign::new(
            Pool {
                threads,
                chunk: Some(2),
            },
            REPLICATIONS,
        )
        .merged()
        .run(&base, |_| make_sources())
        .unwrap()
        .merged
        .expect("merged fold");
        assert_eq!(
            single_node_csv_rows(&merged),
            baseline_rows,
            "threads={threads}: merged campaign diverges at fixed chunk"
        );
    }
}

#[test]
fn merged_campaign_ccdf_counts_match_vec_campaign_at_any_chunk() {
    let base = single_node_config();
    let reports = Campaign::new(Pool::new(1), REPLICATIONS)
        .run(&base, |_| make_sources())
        .unwrap()
        .into_reports();
    let pooled = merge_single_node_reports(&reports);
    // The pooled CCDF tails are ratios of exact u64 counts; they cannot
    // depend on how replications were grouped into chunks.
    for chunk in [1usize, 2, 4, REPLICATIONS as usize] {
        let merged = Campaign::new(
            Pool {
                threads: 4,
                chunk: Some(chunk),
            },
            REPLICATIONS,
        )
        .merged()
        .run(&base, |_| make_sources())
        .unwrap()
        .merged
        .expect("merged fold");
        assert_eq!(merged.measured_slots, pooled.measured_slots);
        for (i, (a, b)) in merged.sessions.iter().zip(&pooled.sessions).enumerate() {
            assert_eq!(a.backlog.len(), b.backlog.len(), "session {i} backlog n");
            assert_eq!(a.delay.len(), b.delay.len(), "session {i} delay n");
            for ((xa, pa), (xb, pb)) in a.backlog.series().iter().zip(&b.backlog.series()) {
                assert_eq!(xa.to_bits(), xb.to_bits());
                assert_eq!(
                    pa.to_bits(),
                    pb.to_bits(),
                    "chunk={chunk} session {i}: pooled backlog tail diverges at x={xa}"
                );
            }
            for ((xa, pa), (xb, pb)) in a.delay.series().iter().zip(&b.delay.series()) {
                assert_eq!(xa.to_bits(), xb.to_bits());
                assert_eq!(
                    pa.to_bits(),
                    pb.to_bits(),
                    "chunk={chunk} session {i}: pooled delay tail diverges at x={xa}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Supervised campaigns under chunking: restore, retry, and quarantine
// must be byte-identical for every chunk size.
// ---------------------------------------------------------------------

fn temp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gps_campaign_scaling_it_{}_{tag}.ndjson",
        std::process::id()
    ))
}

/// Simulates a crash mid-append: keeps the first `keep` complete
/// checkpoint lines plus the first half of the next one (a torn write),
/// discarding the rest.
fn truncate_checkpoint(path: &Path, keep: usize) {
    let content = std::fs::read_to_string(path).expect("read checkpoint");
    let lines: Vec<&str> = content.split_inclusive('\n').collect();
    assert!(lines.len() > keep, "checkpoint too short to truncate");
    let mut kept: String = lines[..keep].concat();
    let torn = lines[keep];
    kept.push_str(&torn[..torn.len() / 2]);
    std::fs::write(path, kept).expect("rewrite checkpoint");
}

#[test]
fn supervised_resume_is_chunk_invariant() {
    let base = single_node_config();
    let baseline = Campaign::new(Pool::new(1), REPLICATIONS)
        .run(&base, |_| make_sources())
        .unwrap()
        .into_reports();
    let baseline_rows: Vec<Vec<String>> = baseline.iter().map(single_node_csv_rows).collect();

    for (tag, chunk) in [("c1", Some(1)), ("cd", None), ("call", Some(6))] {
        let ckpt = temp_ckpt(tag);
        let _ = std::fs::remove_file(&ckpt);
        let sup = Supervisor::new().with_checkpoint(&ckpt).with_resume(true);
        // First pass writes the checkpoint; then crash it mid-line and
        // resume with a *different* chunk size than the first pass.
        Campaign::new(Pool { threads: 2, chunk }, REPLICATIONS)
            .supervisor(&sup)
            .run(&base, |_| make_sources())
            .expect("first pass");
        truncate_checkpoint(&ckpt, 3);
        let outcome = Campaign::new(
            Pool {
                threads: 4,
                chunk: Some(2),
            },
            REPLICATIONS,
        )
        .supervisor(&sup)
        .run(&base, |_| make_sources())
        .expect("resumed pass");
        assert_eq!(
            outcome.restored, 3,
            "chunk={chunk:?}: torn checkpoint should restore 3 replications"
        );
        let reports = outcome.completed();
        assert_eq!(reports.len() as u64, REPLICATIONS);
        for (r, rep) in reports.iter().enumerate() {
            assert_eq!(
                single_node_csv_rows(rep),
                baseline_rows[r],
                "chunk={chunk:?} replication {r}: resumed rows diverge"
            );
        }
        let _ = std::fs::remove_file(&ckpt);
    }
}

#[test]
fn supervised_retry_and_quarantine_are_chunk_invariant() {
    let base = single_node_config();
    let baseline = Campaign::new(Pool::new(1), REPLICATIONS)
        .run(&base, |_| make_sources())
        .unwrap()
        .into_reports();
    let baseline_rows: Vec<Vec<String>> = baseline.iter().map(single_node_csv_rows).collect();

    for chunk in chunk_sweep() {
        // Replication 2 panics on attempt 1 only (transient): it must
        // retry to a byte-identical report at any chunk size.
        let sup = Supervisor::new().with_inject(Some(PanicInjection {
            replication: 2,
            once: true,
        }));
        let outcome = Campaign::new(Pool { threads: 4, chunk }, REPLICATIONS)
            .supervisor(&sup)
            .run(&base, |_| make_sources())
            .expect("transient campaign");
        assert!(outcome.quarantined.is_empty(), "chunk={chunk:?}");
        let retried = &outcome.tasks[2];
        assert_eq!(retried.attempts, 2, "chunk={chunk:?}: one retry expected");
        let reports = outcome.completed();
        assert_eq!(reports.len() as u64, REPLICATIONS);
        for (r, rep) in reports.iter().enumerate() {
            assert_eq!(
                single_node_csv_rows(rep),
                baseline_rows[r],
                "chunk={chunk:?} replication {r}: retried rows diverge"
            );
        }

        // Replication 4 always panics (permanent): quarantined, the
        // other replications still byte-identical.
        let sup = Supervisor::new().with_inject(Some(PanicInjection {
            replication: 4,
            once: false,
        }));
        let outcome = Campaign::new(Pool { threads: 4, chunk }, REPLICATIONS)
            .supervisor(&sup)
            .run(&base, |_| make_sources())
            .expect("permanent campaign");
        assert_eq!(outcome.quarantined, vec![4], "chunk={chunk:?}");
        assert!(
            matches!(outcome.tasks[4].outcome, TaskOutcome::Panicked(_)),
            "chunk={chunk:?}: replication 4 should be quarantined"
        );
        let mut surviving = 0u64;
        for (r, t) in outcome.tasks.iter().enumerate() {
            if let TaskOutcome::Ok(rep) = &t.outcome {
                assert_eq!(
                    single_node_csv_rows(rep),
                    baseline_rows[r],
                    "chunk={chunk:?} replication {r}: surviving rows diverge"
                );
                surviving += 1;
            }
        }
        assert_eq!(surviving, REPLICATIONS - 1, "chunk={chunk:?}");
    }
}

// ---------------------------------------------------------------------
// Smoke-scale: 10^5 replications through the memory-bounded merged
// campaign. Ignored by default (seconds of wall-clock); verify.sh and
// humans run it with `cargo test -- --ignored`.
// ---------------------------------------------------------------------

#[test]
#[ignore = "smoke-scale: ~1e5 replications, run explicitly"]
fn merged_campaign_smoke_scale_parallel_not_slower_than_serial() {
    // Tiny per-replication work so the test measures engine overhead
    // (scheduling, scratch reuse, contention), not simulation time.
    let base = SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 0,
        measure: 12,
        seed: 0x5CA1E,
        backlog_grid: (0..8).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..8).map(|i| i as f64).collect(),
    };
    let reps: u64 = 100_000;
    let threads = Pool::from_env().threads.max(2);

    let t0 = std::time::Instant::now();
    let serial = Campaign::new(Pool::new(1), reps)
        .merged()
        .run(&base, |_| make_sources())
        .unwrap()
        .merged
        .expect("merged fold");
    let serial_elapsed = t0.elapsed();

    let t1 = std::time::Instant::now();
    let parallel = Campaign::new(Pool::new(threads), reps)
        .merged()
        .run(&base, |_| make_sources())
        .unwrap()
        .merged
        .expect("merged fold");
    let parallel_elapsed = t1.elapsed();

    assert_eq!(serial.measured_slots, reps * base.measure);
    assert_eq!(parallel.measured_slots, serial.measured_slots);
    // Pooled counts are chunk-independent, so the tails must agree
    // exactly even though the default chunk differs between runs.
    for (a, b) in serial.sessions.iter().zip(&parallel.sessions) {
        assert_eq!(a.backlog.len(), b.backlog.len());
        assert_eq!(a.delay.len(), b.delay.len());
    }

    // The historical regression this guards: adding workers made
    // campaigns *slower*. Allow 25% noise margin (CI boxes vary), but a
    // 1.5x+ slowdown like the pre-chunking engine fails loudly.
    let ratio = parallel_elapsed.as_secs_f64() / serial_elapsed.as_secs_f64();
    assert!(
        ratio <= 1.25,
        "{threads}-worker merged campaign took {ratio:.2}x the 1-worker time \
         ({parallel_elapsed:?} vs {serial_elapsed:?})"
    );
}
