//! `campaignd` — the distributed-campaign coordinator daemon: a
//! `gps_sim::orchestrate::Coordinator` behind the in-tree exporter,
//! leasing (fingerprint, seed, replication-range) shards to
//! `campaign-worker` processes and merging their streamed checkpoint
//! lines into artifacts **byte-identical** to a single-process run.
//!
//! ```text
//! campaignd [--scenario paper|overload] [--replications N] [--shard-size N]
//!           [--listen ADDR] [--addr-file PATH] [--local N] [--resume]
//!           [--lease-patience N] [--max-inflight N] [--http-inflight N]
//!           [--out-service PATH] [--quiet]
//! ```
//!
//! With `--local N` no socket is opened: N in-process worker threads
//! drain the campaign through the `LocalTransport` — the reference
//! output the distributed drill in `scripts/verify.sh` compares against.
//! Otherwise the daemon serves `GET /shard`, `POST /result`,
//! `POST /complete`, and `GET /orchestrate` (live status JSON) next to
//! the built-in `/metrics` + `/slo` telemetry until the campaign
//! completes, then writes the artifacts and exits.
//!
//! Robustness surfaces:
//!
//! * crash recovery — every accepted result lands in
//!   `results/campaignd_<scenario>_checkpoint.ndjson`, an append-only
//!   journal that each sealed shard makes durable with one `fdatasync`
//!   (see `gps_sim::orchestrate`). `--resume`
//!   restores the journal after a coordinator crash and recomputes
//!   nothing that survived.
//! * backpressure — more than `--http-inflight` concurrently executing
//!   orchestration requests answer `503`; workers absorb this with
//!   bounded deterministic backoff.
//! * the shard-completion SLO — a synthetic availability SLO (route
//!   `shard`) fed into the same burn-rate tracker the HTTP telemetry
//!   uses: sealed shards count good, expired leases count bad. Served
//!   at `/slo` and persisted via `--out-service` for the dashboard's
//!   service panel.

use gps_experiments::scenarios::{resolve, write_campaign_artifacts, CampaignScenario};
use gps_experiments::service::service_json;
use gps_experiments::{finish_obs, init_obs, results_dir};
use gps_obs::{
    ClientConfig, Exporter, HttpClient, HttpRequest, RequestHandler, RouteResponse, RunManifest,
    SloSet, SloSpec, TelemetryConfig,
};
use gps_sim::orchestrate::{
    run_worker, CampaignSpec, Coordinator, CoordinatorConfig, LocalTransport, WorkerOptions,
};
use gps_sim::runner::SingleNodeRunReport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    arg_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Routes one orchestration request into the coordinator. Factored out
/// of the closure so the status/SLO wiring reads linearly.
fn dispatch(
    req: &HttpRequest,
    coordinator: &Arc<Mutex<Coordinator>>,
    slo: &SloSet,
    epoch: &Instant,
) -> Option<RouteResponse> {
    let (path, query) = req.path.split_once('?').unwrap_or((req.path, ""));
    let now_s = epoch.elapsed().as_secs();
    match (req.method, path) {
        ("GET", "/shard") => {
            let worker = query_param(query, "worker").unwrap_or("anonymous");
            let mut c = coordinator.lock().expect("coordinator poisoned");
            let expired_before = c.stats().expired;
            let reply = c.lease(worker);
            // Every lease the staleness machinery expired is a failed
            // shard-completion promise: feed the SLO a bad event.
            for _ in expired_before..c.stats().expired {
                slo.record(gps_obs::metrics(), now_s, "shard", 500, 0);
            }
            Some(RouteResponse::json(200, reply.to_json()))
        }
        ("POST", "/result") => {
            let mut c = coordinator.lock().expect("coordinator poisoned");
            let reply = c.submit_line(req.body.trim_end());
            let status = match reply {
                gps_sim::orchestrate::SubmitReply::Rejected(_) => 400,
                _ => 200,
            };
            Some(RouteResponse::json(status, reply.to_json()))
        }
        ("POST", "/complete") => {
            let shard = query_param(query, "shard").and_then(|v| v.parse().ok());
            let token = query_param(query, "token").and_then(|v| v.parse().ok());
            let (Some(shard), Some(token)) = (shard, token) else {
                return Some(RouteResponse::json(
                    400,
                    "{\"error\":\"complete needs shard and token\"}",
                ));
            };
            let mut c = coordinator.lock().expect("coordinator poisoned");
            let reply = c.complete(shard, token);
            let status = match reply {
                gps_sim::orchestrate::CompleteReply::Complete => {
                    slo.record(gps_obs::metrics(), now_s, "shard", 200, 0);
                    200
                }
                gps_sim::orchestrate::CompleteReply::Incomplete { .. } => 409,
                gps_sim::orchestrate::CompleteReply::Stale => 200,
            };
            Some(RouteResponse::json(status, reply.to_json()))
        }
        ("GET", "/orchestrate") => {
            let c = coordinator.lock().expect("coordinator poisoned");
            Some(RouteResponse::json(200, c.status_json()))
        }
        _ => None,
    }
}

/// Prints the certificate check and (for `overload`) the shed summary,
/// mirroring what the dashboard's overload panel renders.
fn print_summary(scenario: &CampaignScenario, report: &SingleNodeRunReport) {
    for (i, session) in report.sessions.iter().enumerate() {
        let Some(bounds) = scenario.bounds.get(i).copied().flatten() else {
            continue;
        };
        let se = |p: f64| (p * (1.0 - p) / report.measured_slots as f64).sqrt();
        let viol_q = session
            .backlog
            .series()
            .into_iter()
            .filter(|&(x, p)| p > bounds.backlog.tail(x) + 3.0 * se(p))
            .count();
        let viol_d = session
            .delay
            .series()
            .into_iter()
            .filter(|&(x, p)| p > bounds.delay.tail(x) + 3.0 * se(p))
            .count();
        println!(
            "session {}: g = {:.4}, throughput {:.4}, bound violations: backlog {viol_q}, delay {viol_d} (expect 0, 0)",
            i + 1,
            scenario.guaranteed_rate(i),
            session.throughput,
        );
    }
    if let (Some(attack), Some(measured)) =
        (scenario.attack, scenario.measured_shed_fraction(report))
    {
        println!(
            "attack session {}: offered mean {:.3}, admitted ceiling {:.3}, shed fraction measured {:.4} (analytic {:.4})",
            attack.session + 1,
            attack.offered_mean,
            attack.token_rate,
            measured,
            attack.analytic_shed_fraction(),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let obs = init_obs("campaignd", quiet);
    let scenario_name = arg_value(&args, "--scenario").unwrap_or_else(|| "paper".to_string());
    let Some(scenario) = resolve(&scenario_name) else {
        eprintln!(
            "campaignd: unknown scenario {scenario_name:?} (have: {})",
            gps_experiments::scenarios::names().join(", ")
        );
        std::process::exit(2);
    };
    let replications = arg_u64(&args, "--replications", 8);
    let shard_size = arg_u64(&args, "--shard-size", 2);
    let resume = args.iter().any(|a| a == "--resume");
    let spec = CampaignSpec {
        scenario: scenario.name.to_string(),
        cfg: scenario.cfg.clone(),
        replications,
        shard_size,
    };
    let journal = results_dir().join(format!("campaignd_{}_checkpoint.ndjson", scenario.name));
    let ccfg = CoordinatorConfig {
        lease_patience: arg_u64(&args, "--lease-patience", 200),
        max_inflight: arg_u64(&args, "--max-inflight", 64) as usize,
        journal: Some(journal),
        resume,
        durable: true,
    };
    let coordinator = match Coordinator::new(spec, &ccfg) {
        Ok(c) => Arc::new(Mutex::new(c)),
        Err(e) => {
            eprintln!("campaignd: {e}");
            std::process::exit(2);
        }
    };

    let local_workers = arg_value(&args, "--local").and_then(|v| v.parse::<usize>().ok());
    let mut exporter: Option<Exporter> = None;
    let slo_set = Arc::new(SloSet::new(vec![SloSpec::availability(
        "shard-completion",
        0.99,
    )
    .for_route("shard")]));
    let epoch = Instant::now();

    if let Some(n) = local_workers {
        // Reference mode: drain the whole campaign with in-process
        // workers over the LocalTransport — no sockets anywhere.
        let handles: Vec<_> = (0..n.max(1))
            .map(|w| {
                let transport = LocalTransport::new(Arc::clone(&coordinator));
                let name = scenario_name.clone();
                std::thread::spawn(move || {
                    let opts = WorkerOptions {
                        worker_id: format!("local-{w}"),
                        poll: Duration::from_millis(2),
                        ..WorkerOptions::default()
                    };
                    run_worker(transport, &opts, |n| {
                        (n == name).then(|| resolve(&name).unwrap().worker_scenario())
                    })
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Ok(summary)) => println!(
                    "campaignd local worker: {} shards, {} replications, {} takeovers",
                    summary.shards_completed, summary.replications_run, summary.takeovers
                ),
                Ok(Err(e)) => {
                    eprintln!("campaignd: local worker failed: {e}");
                    std::process::exit(1);
                }
                Err(_) => {
                    eprintln!("campaignd: local worker panicked");
                    std::process::exit(1);
                }
            }
        }
    } else {
        let listen = arg_value(&args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
        let http_inflight = arg_u64(&args, "--http-inflight", 64) as usize;
        let in_flight = Arc::new(AtomicUsize::new(0));
        let handler_coordinator = Arc::clone(&coordinator);
        let handler_slo = Arc::clone(&slo_set);
        let handler: RequestHandler = Arc::new(move |req: &HttpRequest| {
            struct Guard<'a>(&'a AtomicUsize);
            impl Drop for Guard<'_> {
                fn drop(&mut self) {
                    self.0.fetch_sub(1, Ordering::SeqCst);
                }
            }
            if in_flight.fetch_add(1, Ordering::SeqCst) >= http_inflight {
                let _g = Guard(&in_flight);
                gps_obs::metrics().counter("orchestrate.http.shed").inc();
                return Some(RouteResponse::json(
                    503,
                    "{\"error\":\"orchestration backpressure\"}",
                ));
            }
            let _g = Guard(&in_flight);
            dispatch(req, &handler_coordinator, &handler_slo, &epoch)
        });
        let telemetry =
            TelemetryConfig::from_env("campaignd").with_shared_slo(Arc::clone(&slo_set));
        let server = match Exporter::serve(
            &listen,
            gps_obs::metrics().clone(),
            Some(handler),
            Some(telemetry),
        ) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("campaignd: cannot listen on {listen}: {e}");
                std::process::exit(2);
            }
        };
        let addr = server.local_addr();
        println!("campaignd: coordinating {scenario_name} ({replications} replications, shard size {shard_size}) on http://{addr}");
        if let Some(path) = arg_value(&args, "--addr-file") {
            if let Err(e) = std::fs::write(&path, format!("{addr}\n")) {
                eprintln!("campaignd: write {path}: {e}");
                std::process::exit(2);
            }
        }
        while !coordinator.lock().expect("coordinator poisoned").is_done() {
            std::thread::sleep(Duration::from_millis(50));
        }
        // Grace period: let straggling workers poll once more and see
        // Done before the listener goes away.
        std::thread::sleep(Duration::from_millis(500));
        // Pull /slo through the real HTTP surface (burn-rate fields
        // included) for the service snapshot before shutting down.
        let no_retry = ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        };
        let slo_body = HttpClient::connect(addr, no_retry)
            .ok()
            .and_then(|mut c| c.get("/slo").ok())
            .filter(|(status, _)| *status == 200)
            .map(|(_, body)| body);
        if let Some(path) = arg_value(&args, "--out-service") {
            let body = service_json("campaignd", gps_obs::metrics(), slo_body.as_deref());
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("campaignd: write {path}: {e}");
                std::process::exit(2);
            }
            println!("campaignd service snapshot -> {path}");
        }
        exporter = Some(server);
    }

    let (merged, status, stats) = {
        let c = coordinator.lock().expect("coordinator poisoned");
        (c.merged(), c.status_json(), c.stats())
    };
    let merged = match merged {
        Ok(m) => m,
        Err(e) => {
            eprintln!("campaignd: merge failed: {e}");
            std::process::exit(1);
        }
    };
    println!("campaignd status: {status}");
    print_summary(&scenario, &merged);
    let artifacts =
        match write_campaign_artifacts(&scenario, &merged, &format!("campaignd_{}", scenario.name))
        {
            Ok(a) => a,
            Err(e) => {
                eprintln!("campaignd: artifacts: {e}");
                std::process::exit(1);
            }
        };
    println!(
        "written: {} ({} rows), {}",
        artifacts.csv.display(),
        artifacts.rows,
        artifacts.metrics.display()
    );

    let mut manifest = RunManifest::new("campaignd")
        .seed(scenario.cfg.seed)
        .param("scenario", scenario.name)
        .param("replications", replications)
        .param("shard_size", shard_size)
        .param("leases", stats.leases)
        .param("leases_expired", stats.expired)
        .param("duplicates", stats.duplicates)
        .param("restored", stats.restored);
    manifest.output(&format!("campaignd_{}.csv", scenario.name), artifacts.rows);
    if let Some(server) = exporter {
        server.shutdown();
    }
    finish_obs(obs, manifest).expect("obs teardown");
}
