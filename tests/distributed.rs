//! End-to-end guarantees for the distributed orchestration layer
//! (`gps_sim::orchestrate`): a campaign spread over any number of
//! workers — through abandoned leases, duplicate deliveries, worker
//! replacement, coordinator restarts, and the real HTTP transport with
//! 503 backpressure — must produce CSV rows and metrics **byte-identical**
//! to a straight-through single-process supervised run.
//!
//! These are the integration-level counterparts of the unit tests in
//! `gps_sim::orchestrate`: they exercise the full pipeline the
//! `campaignd` / `campaign-worker` binaries run, minus process
//! boundaries (plus one case over a real socket).

use gps_obs::metrics::Registry;
use gps_obs::{Exporter, HttpRequest, RequestHandler, RouteResponse};
use gps_qos::prelude::*;
use gps_sim::orchestrate::{
    run_worker, CampaignSpec, CompleteReply, Coordinator, CoordinatorConfig, HttpTransport,
    LeaseReply, LocalTransport, SubmitReply, WorkerOptions, WorkerScenario, KIND_SINGLE_NODE,
};
use gps_sim::runner::{
    merge_single_node_reports, record_single_node_metrics, run_single_node_core_scratch,
    SingleNodeRunReport,
};
use gps_sim::supervise::{checkpoint_line, Supervisor};
use gps_sources::SlotSource;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const REPLICATIONS: u64 = 6;
const SHARD_SIZE: u64 = 2;
const SCENARIO: &str = "itest";

fn config() -> SingleNodeRunConfig {
    SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 500,
        measure: 3_000,
        seed: 0xD157,
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

fn resolver(name: &str) -> Option<WorkerScenario> {
    (name == SCENARIO).then(|| WorkerScenario {
        cfg: config(),
        make_sources: Arc::new(|_r| make_sources()),
    })
}

fn spec() -> CampaignSpec {
    CampaignSpec {
        scenario: SCENARIO.to_string(),
        cfg: config(),
        replications: REPLICATIONS,
        shard_size: SHARD_SIZE,
    }
}

fn coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig {
        // Patient: happy-path tests must never expire a live worker's
        // lease (the twitchy-expiry tests override this downward).
        lease_patience: 10_000,
        max_inflight: 8,
        journal: None,
        resume: false,
        durable: false,
    }
}

fn worker_opts(id: &str) -> WorkerOptions {
    WorkerOptions {
        worker_id: id.to_string(),
        threads: 1,
        poll: Duration::from_millis(1),
        ..WorkerOptions::default()
    }
}

/// CSV rows exactly as the experiment binaries format them (`{:.10e}`
/// cells), so equality here means byte-identical output files.
fn csv_rows(report: &SingleNodeRunReport) -> Vec<String> {
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

fn metrics_json(report: &SingleNodeRunReport) -> String {
    let reg = Registry::new();
    record_single_node_metrics(&reg, report);
    reg.snapshot().to_json_without_spans()
}

/// The canonical single-process result every distributed variant must
/// reproduce byte-for-byte.
fn straight_through() -> SingleNodeRunReport {
    let outcome = Campaign::new(Pool::from_env(), REPLICATIONS)
        .supervisor(&Supervisor::new())
        .run(&config(), |_r| make_sources())
        .expect("straight-through campaign");
    assert_eq!(outcome.completed().len(), REPLICATIONS as usize);
    merge_single_node_reports(&outcome.completed())
}

/// One precomputed checkpoint line for replication `r`, as a worker
/// would stream it.
fn line_for(r: u64) -> String {
    let cfg = config();
    let mut cfg_r = cfg.clone();
    cfg_r.seed = cfg.seed.wrapping_add(r);
    let mut sources = make_sources();
    let report = run_single_node_core_scratch(&mut Default::default(), &mut sources, &cfg_r);
    checkpoint_line(
        KIND_SINGLE_NODE,
        cfg.fingerprint(),
        cfg.seed,
        r,
        &SingleNodeRunConfig::report_to_json(&report),
    )
}

fn assert_identical(tag: &str, expected: &SingleNodeRunReport, got: &SingleNodeRunReport) {
    assert_eq!(csv_rows(expected), csv_rows(got), "{tag}: CSV rows differ");
    assert_eq!(
        metrics_json(expected),
        metrics_json(got),
        "{tag}: metrics JSON differs"
    );
}

fn run_local_workers(coordinator: &Arc<Mutex<Coordinator>>, n: usize) -> Vec<u64> {
    let handles: Vec<_> = (0..n)
        .map(|w| {
            let transport = LocalTransport::new(Arc::clone(coordinator));
            std::thread::spawn(move || {
                run_worker(transport, &worker_opts(&format!("w{w}")), resolver).expect("worker")
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("worker thread").replications_run)
        .collect()
}

#[test]
fn distributed_runs_match_straight_through_at_one_and_four_workers() {
    let expected = straight_through();
    for workers in [1usize, 4] {
        let coordinator = Arc::new(Mutex::new(
            Coordinator::new(spec(), &coordinator_config()).expect("coordinator"),
        ));
        let ran = run_local_workers(&coordinator, workers);
        assert_eq!(
            ran.iter().sum::<u64>(),
            REPLICATIONS,
            "{workers} workers: every replication computed exactly once"
        );
        let c = coordinator.lock().unwrap();
        assert!(c.is_done());
        assert_identical(
            &format!("{workers} workers"),
            &expected,
            &c.merged().expect("merged"),
        );
    }
}

#[test]
fn abandoned_lease_is_taken_over_and_output_identical() {
    let expected = straight_through();
    let coordinator = Arc::new(Mutex::new(
        Coordinator::new(
            spec(),
            &CoordinatorConfig {
                lease_patience: 3,
                ..coordinator_config()
            },
        )
        .expect("coordinator"),
    ));
    // A ghost worker leases the first shard and is never heard from
    // again — the kill -9 case, minus the process.
    let ghost = match coordinator.lock().unwrap().lease("ghost") {
        LeaseReply::Shard { shard, token, .. } => (shard, token),
        other => panic!("ghost expected a shard, got {other:?}"),
    };
    let transport = LocalTransport::new(Arc::clone(&coordinator));
    let summary = run_worker(transport, &worker_opts("rescuer"), resolver).expect("rescuer");
    assert!(
        summary.takeovers >= 1,
        "the rescuer must take over the ghost's expired lease"
    );
    assert_eq!(summary.replications_run, REPLICATIONS);
    let mut c = coordinator.lock().unwrap();
    assert!(c.is_done());
    assert!(c.stats().expired >= 1);
    // The ghost coming back to life cannot double-complete its shard.
    assert_eq!(c.complete(ghost.0, ghost.1), CompleteReply::Complete);
    assert_identical("takeover", &expected, &c.merged().expect("merged"));
}

#[test]
fn coordinator_restart_resumes_journal_and_output_identical() {
    let expected = straight_through();
    let journal = std::env::temp_dir().join(format!(
        "gps_distributed_it_restart_{}.ndjson",
        std::process::id()
    ));
    std::fs::remove_file(&journal).ok();
    let journaled = |resume: bool| CoordinatorConfig {
        journal: Some(PathBuf::from(&journal)),
        resume,
        durable: true,
        ..coordinator_config()
    };
    // First incarnation: one shard is leased, streamed, and sealed;
    // then the coordinator "crashes" (is dropped).
    {
        let mut c = Coordinator::new(spec(), &journaled(false)).expect("coordinator");
        let (shard, token, start, end) = match c.lease("w0") {
            LeaseReply::Shard {
                shard,
                token,
                start,
                end,
                ..
            } => (shard, token, start, end),
            other => panic!("expected a shard, got {other:?}"),
        };
        for r in start..end {
            assert_eq!(c.submit_line(&line_for(r)), SubmitReply::Accepted);
        }
        assert_eq!(c.complete(shard, token), CompleteReply::Complete);
    }
    // Second incarnation resumes the journal: the sealed shard is born
    // done, nothing already computed is recomputed.
    let coordinator = Arc::new(Mutex::new(
        Coordinator::new(spec(), &journaled(true)).expect("resumed coordinator"),
    ));
    assert_eq!(coordinator.lock().unwrap().stats().restored, SHARD_SIZE);
    let ran = run_local_workers(&coordinator, 2);
    assert_eq!(
        ran.iter().sum::<u64>(),
        REPLICATIONS - SHARD_SIZE,
        "restored replications must not be recomputed"
    );
    let c = coordinator.lock().unwrap();
    assert!(c.is_done());
    assert_identical("restart", &expected, &c.merged().expect("merged"));
    std::fs::remove_file(&journal).ok();
}

#[test]
fn duplicate_shard_delivery_is_idempotent() {
    let expected = straight_through();
    let mut c = Coordinator::new(
        spec(),
        &CoordinatorConfig {
            lease_patience: 3,
            ..coordinator_config()
        },
    )
    .expect("coordinator");
    let lines: Vec<String> = (0..REPLICATIONS).map(line_for).collect();
    let (shard, stale_token) = match c.lease("w0") {
        LeaseReply::Shard { shard, token, .. } => (shard, token),
        other => panic!("expected a shard, got {other:?}"),
    };
    // w0 delivers its shard but dies before completing; w1 drains the
    // remaining shards, and once w0's lease goes stale enough, takes it
    // over too — redelivering every one of its lines.
    for line in &lines[..SHARD_SIZE as usize] {
        assert_eq!(c.submit_line(line), SubmitReply::Accepted);
    }
    let mut others = Vec::new();
    let mut takeover = None;
    for _ in 0..50 {
        match c.lease("w1") {
            LeaseReply::Shard {
                shard,
                token,
                takeover: true,
                ..
            } => {
                takeover = Some((shard, token));
                break;
            }
            LeaseReply::Shard { shard, token, .. } => others.push((shard, token)),
            LeaseReply::Wait => {}
            LeaseReply::Done => panic!("campaign cannot be done yet"),
        }
    }
    let (reshard, token) = takeover.expect("w0's lease never expired");
    assert_eq!(reshard, shard);
    for line in &lines[..SHARD_SIZE as usize] {
        assert_eq!(c.submit_line(line), SubmitReply::Duplicate);
    }
    assert_eq!(c.complete(shard, token), CompleteReply::Complete);
    assert_eq!(c.complete(shard, stale_token), CompleteReply::Complete);
    // w1's own shards arrive normally (plus one stray duplicate of an
    // already-accepted line).
    for line in &lines[SHARD_SIZE as usize..] {
        assert_eq!(c.submit_line(line), SubmitReply::Accepted);
    }
    assert_eq!(c.submit_line(&lines[0]), SubmitReply::Duplicate);
    for (s, t) in others {
        assert_eq!(c.complete(s, t), CompleteReply::Complete);
    }
    assert!(c.is_done());
    let stats = c.stats();
    assert_eq!(stats.submitted, REPLICATIONS);
    assert_eq!(stats.duplicates, SHARD_SIZE + 1);
    assert_identical("duplicates", &expected, &c.merged().expect("merged"));
}

#[test]
fn http_transport_completes_campaign_through_backpressure() {
    let expected = straight_through();
    let coordinator = Arc::new(Mutex::new(
        Coordinator::new(spec(), &coordinator_config()).expect("coordinator"),
    ));
    // A minimal campaignd: the orchestration routes behind the real
    // exporter, with the first few requests shed as 503 to exercise the
    // transport's bounded backpressure loop.
    let handler_coordinator = Arc::clone(&coordinator);
    let shed_budget = Arc::new(AtomicUsize::new(3));
    let handler: RequestHandler = Arc::new(move |req: &HttpRequest| {
        if shed_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
        {
            return Some(RouteResponse::json(503, "{\"error\":\"busy\"}"));
        }
        let (path, query) = match req.path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (req.path.as_str(), ""),
        };
        let param = |key: &str| {
            query
                .split('&')
                .filter_map(|kv| kv.split_once('='))
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        };
        let mut c = handler_coordinator.lock().unwrap();
        match (req.method.as_str(), path) {
            ("GET", "/shard") => Some(RouteResponse::json(
                200,
                c.lease(&param("worker").unwrap_or_default()).to_json(),
            )),
            ("POST", "/result") => {
                let reply = c.submit_line(req.body.trim_end());
                let status = match reply {
                    SubmitReply::Rejected(_) => 400,
                    _ => 200,
                };
                Some(RouteResponse::json(status, reply.to_json()))
            }
            ("POST", "/complete") => {
                let shard = param("shard").and_then(|v| v.parse().ok()).unwrap();
                let token = param("token").and_then(|v| v.parse().ok()).unwrap();
                let reply = c.complete(shard, token);
                let status = match reply {
                    CompleteReply::Incomplete { .. } => 409,
                    _ => 200,
                };
                Some(RouteResponse::json(status, reply.to_json()))
            }
            _ => None,
        }
    });
    let server =
        Exporter::serve_requests("127.0.0.1:0", Registry::new(), handler, None).expect("exporter");
    let addr = server.local_addr();
    let handles: Vec<_> = (0..2)
        .map(|w| {
            std::thread::spawn(move || {
                let mut transport = HttpTransport::connect(addr).expect("connect");
                transport.backpressure_step = Duration::from_millis(1);
                run_worker(transport, &worker_opts(&format!("http-w{w}")), resolver)
                    .expect("http worker")
            })
        })
        .collect();
    let total: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread").replications_run)
        .sum();
    assert_eq!(total, REPLICATIONS);
    let c = coordinator.lock().unwrap();
    assert!(c.is_done());
    assert_identical("http", &expected, &c.merged().expect("merged"));
    drop(c);
    server.shutdown();
}

/// A replication quarantined inside a multi-replication shard is
/// reported by its own index, not by the shard's first.
#[test]
fn quarantined_replication_is_reported_by_its_own_index() {
    let spec = CampaignSpec {
        shard_size: 3,
        ..spec()
    };
    let coordinator = Arc::new(Mutex::new(
        Coordinator::new(spec, &coordinator_config()).expect("coordinator"),
    ));
    // Shard [3, 6): replication 5 = start + 2 panics on every build.
    let resolve = |name: &str| {
        (name == SCENARIO).then(|| WorkerScenario {
            cfg: config(),
            make_sources: Arc::new(|r| {
                assert!(r != 5, "make_sources fails for replication 5");
                make_sources()
            }),
        })
    };
    let err = run_worker(
        LocalTransport::new(Arc::clone(&coordinator)),
        &worker_opts("w-quarantine"),
        resolve,
    )
    .expect_err("the shard holding replication 5 cannot complete");
    match err {
        SimError::Panicked {
            replication,
            message,
        } => {
            assert_eq!(replication, 5, "reported index is start + 2");
            assert!(message.contains("replication 5"), "{message}");
        }
        other => panic!("expected a quarantined replication, got {other:?}"),
    }
}
