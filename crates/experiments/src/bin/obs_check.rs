//! Integration check for the live telemetry server and the flight
//! recorder: runs a tiny campaign with the exporter bound to an ephemeral
//! port and tracing armed, fetches `/metrics`, `/metrics.json`,
//! `/health`, and the live `/progress` tracker over plain TCP (no
//! external HTTP client), verifies the responses and the scheduler
//! accounting gauges, and round-trips the exported Chrome trace through
//! the in-tree JSON parser. Exits nonzero on any failure —
//! `scripts/verify.sh` runs this instead of depending on `curl`.

use gps_experiments::{init_obs, serve_addr_from_args};
use gps_obs::{ClientConfig, HttpClient};
use gps_par::Pool;
use gps_sim::campaign::Campaign;
use gps_sim::runner::SingleNodeRunConfig;
use gps_sources::{OnOffSource, SlotSource};

/// Client policy for every check: the first transport error is the
/// result, and no request is ever sent twice.
fn no_retry() -> ClientConfig {
    ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    }
}

fn check(name: &str, ok: bool, detail: &str) -> bool {
    if ok {
        println!("ok   {name}");
    } else {
        println!("FAIL {name}: {detail}");
    }
    ok
}

/// Stands up an [`gps_analysis::AdmissionEngine`] behind
/// [`gps_obs::Exporter::serve`] with request telemetry the way `admitd` does,
/// then drives scripted admit/depart load over a single keep-alive
/// connection and asserts the JSON endpoints, the `admission_cache_*`
/// counters, the `admission_region_occupancy` gauges, the per-route
/// request telemetry (counters + HDR latency buckets), and the `/slo`
/// burn-rate surface.
fn admission_service_checks() -> bool {
    use gps_analysis::{AdmissionEngine, CertBackend, ClassSpec, QosTarget};
    use gps_ebb::{EbbProcess, TimeModel};
    use gps_obs::metrics::Registry;
    use gps_obs::{Exporter, HttpRequest, RequestHandler, RouteResponse, SloSpec, TelemetryConfig};
    use std::sync::{Arc, Mutex};

    let classes = vec![
        ClassSpec::new(
            "voice",
            EbbProcess::new(0.02, 1.0, 17.4),
            QosTarget::new(5.0, 1e-6),
        ),
        ClassSpec::new(
            "video",
            EbbProcess::new(0.08, 2.0, 6.0),
            QosTarget::new(10.0, 1e-4),
        ),
    ];
    let engine = AdmissionEngine::with_cache_cap(
        classes,
        1.0,
        TimeModel::Discrete,
        CertBackend::EffectiveBandwidth,
        1 << 12,
    )
    .expect("engine builds");
    let registry = Registry::new();
    let engine = Arc::new(Mutex::new(engine));
    let handler: RequestHandler = {
        let engine = Arc::clone(&engine);
        let registry = registry.clone();
        Arc::new(move |req: &HttpRequest| {
            let (route, query) = match req.path.split_once('?') {
                Some((r, q)) => (r, Some(q)),
                None => (req.path, None),
            };
            let class: usize = query
                .and_then(|q| q.strip_prefix("class="))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let mut engine = engine.lock().expect("engine poisoned");
            let body = match route {
                "/admit" => {
                    let d = engine.admit(class);
                    format!(
                        "{{\"accepted\": {}, \"sessions\": {}}}",
                        d.accepted, d.sessions
                    )
                }
                "/depart" => {
                    let d = engine.depart(class);
                    format!(
                        "{{\"accepted\": {}, \"sessions\": {}}}",
                        d.accepted, d.sessions
                    )
                }
                "/region" => {
                    let rows: Vec<String> = engine
                        .region()
                        .iter()
                        .map(|r| {
                            format!(
                                "{{\"name\": \"{}\", \"sessions\": {}, \"headroom\": {}}}",
                                r.name, r.sessions, r.headroom
                            )
                        })
                        .collect();
                    format!("{{\"classes\": [{}]}}", rows.join(", "))
                }
                _ => return None,
            };
            engine.publish(&registry);
            Some(RouteResponse::json(200, body))
        })
    };
    let telemetry = TelemetryConfig::new("obs-check-admit")
        .with_slos(vec![SloSpec::availability("availability", 0.999)]);
    let exporter = Exporter::serve(
        "127.0.0.1:0",
        registry.clone(),
        Some(handler),
        Some(telemetry),
    )
    .expect("bind");
    let addr = exporter.local_addr();

    let mut ok = true;
    let mut client = HttpClient::connect(addr, no_retry()).expect("socket address resolves");
    // Scripted load on one keep-alive connection: admits on both classes
    // until the first rejection, then a depart and a re-admit.
    let mut last_accepted = true;
    let mut decisions = 0usize;
    while last_accepted && decisions < 80 {
        match client.get(&format!("/admit?class={}", decisions % 2)) {
            Ok((status, body)) => {
                ok &= check(
                    "admit status",
                    status == 200,
                    &format!("status {status} at decision {decisions}"),
                );
                last_accepted = body.contains("\"accepted\": true");
                decisions += 1;
            }
            Err(e) => {
                ok = check("admit request", false, &e.to_string());
                break;
            }
        }
        if !ok {
            break;
        }
    }
    ok &= check(
        "admission saturates",
        !last_accepted && decisions > 2,
        &format!("{decisions} decisions, last accepted: {last_accepted}"),
    );
    let rejected_class = (decisions - 1) % 2;
    if let Ok((_, body)) = client.get(&format!("/depart?class={rejected_class}")) {
        ok &= check(
            "depart accepted",
            body.contains("\"accepted\": true"),
            &body,
        );
    }
    if let Ok((_, body)) = client.get(&format!("/admit?class={rejected_class}")) {
        ok &= check(
            "slot reopens after depart",
            body.contains("\"accepted\": true"),
            &body,
        );
    }
    match client.get("/region") {
        Ok((status, body)) => {
            let parsed = gps_obs::json::parse(&body);
            ok &= check(
                "/region parses with classes",
                status == 200
                    && parsed
                        .as_ref()
                        .ok()
                        .and_then(|d| {
                            if let Some(gps_obs::json::Json::Arr(rows)) = d.get("classes") {
                                Some(rows.len())
                            } else {
                                None
                            }
                        })
                        .map(|n| n == 2)
                        .unwrap_or(false),
                &body,
            );
        }
        Err(e) => ok = check("/region", false, &e.to_string()),
    }
    // All of the above rode one connection; the exposition must show the
    // admission counters and gauges the engine published.
    match client.get("/metrics") {
        Ok((status, body)) => {
            ok &= check(
                "/metrics admission counters",
                status == 200
                    && body.contains("admission_cache_hits_total")
                    && body.contains("admission_cache_misses_total"),
                "missing admission_cache_* counters",
            );
            ok &= check(
                "/metrics region occupancy",
                body.contains("admission_region_occupancy{class=\"voice\"}")
                    && body.contains("admission_region_occupancy{class=\"video\"}"),
                "missing admission_region_occupancy gauges",
            );
            ok &= check(
                "/metrics per-route request counters",
                body.contains("obs_http_requests_total{route=\"/admit\",status=\"200\"}"),
                "missing obs_http_requests_total route series",
            );
            ok &= check(
                "/metrics HDR latency buckets",
                body.contains("obs_http_request_duration_ns_bucket{route=\"/admit\",le=\"")
                    && body.contains("obs_http_request_duration_ns_count{route=\"/admit\"}"),
                "missing obs_http_request_duration_ns histogram series",
            );
        }
        Err(e) => ok = check("/metrics admission", false, &e.to_string()),
    }
    match client.get("/slo") {
        Ok((status, body)) => {
            let parsed = gps_obs::json::parse(&body);
            let first_slo = parsed.as_ref().ok().and_then(|d| {
                if let Some(gps_obs::json::Json::Arr(slos)) = d.get("slos") {
                    slos.first().cloned()
                } else {
                    None
                }
            });
            ok &= check(
                "/slo burn-rate JSON",
                status == 200
                    && first_slo
                        .as_ref()
                        .map(|s| {
                            s.get("budget_remaining").and_then(|v| v.as_f64()).is_some()
                                && s.get("fast")
                                    .and_then(|w| w.get("burn_rate"))
                                    .and_then(|v| v.as_f64())
                                    .is_some()
                        })
                        .unwrap_or(false),
                &body,
            );
        }
        Err(e) => ok = check("/slo", false, &e.to_string()),
    }
    match client.get("/health") {
        Ok((status, body)) => {
            ok &= check(
                "telemetry /health names the service",
                status == 200 && body.contains("\"service\":\"obs-check-admit\""),
                &body,
            );
        }
        Err(e) => ok = check("telemetry /health", false, &e.to_string()),
    }
    let stats = engine.lock().expect("engine poisoned").cache_stats();
    ok &= check(
        "warm cache hits dominate",
        stats.hits > stats.misses,
        &format!("{} hits vs {} misses", stats.hits, stats.misses),
    );
    exporter.shutdown();
    ok
}

fn main() {
    // Default to an ephemeral loopback port so the check never collides,
    // while still honoring an explicit --serve / GPS_OBS_SERVE.
    if serve_addr_from_args().is_none() {
        std::env::set_var("GPS_OBS_SERVE", "127.0.0.1:0");
    }
    let setup = init_obs("obs_check", true);
    // Exercise the full instrumented path: span timing (scheduler
    // accounting + progress gauges) and the timeline flight recorder.
    gps_obs::global().set_timing(true);
    gps_obs::trace::configure(gps_obs::TraceMode::Timing);
    let addr = match setup.exporter_addr() {
        Some(a) => a,
        None => {
            println!("FAIL exporter did not start");
            std::process::exit(1);
        }
    };

    // A tiny campaign so the registry has live data to expose.
    let cfg = SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 100,
        measure: 2_000,
        seed: 20260806,
        backlog_grid: (0..20).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..20).map(|i| i as f64).collect(),
    };
    let mk = |_: u64| -> Vec<Box<dyn SlotSource>> {
        OnOffSource::paper_table1()
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn SlotSource>)
            .collect()
    };
    let reports = Campaign::new(Pool::from_env(), 2)
        .run(&cfg, mk)
        .expect("unsupervised campaign")
        .into_reports();
    assert_eq!(reports.len(), 2);

    let mut ok = true;
    let mut client = HttpClient::connect(addr, no_retry()).expect("socket address resolves");
    match client.get("/health") {
        Ok((status, body)) => {
            ok &= check("/health status", status == 200, &format!("status {status}"));
            let parsed = gps_obs::json::parse(&body);
            ok &= check(
                "/health structured body",
                parsed
                    .as_ref()
                    .ok()
                    .map(|d| {
                        d.get("status").and_then(|v| v.as_str()) == Some("ok")
                            && d.get("uptime_seconds").and_then(|v| v.as_u64()).is_some()
                            && d.get("requests").and_then(|v| v.as_u64()).is_some()
                    })
                    .unwrap_or(false),
                &format!("body {body:?}"),
            );
        }
        Err(e) => ok = check("/health", false, &e.to_string()),
    }
    match client.get("/healthz") {
        Ok((status, body)) => {
            ok &= check(
                "/healthz plain alias",
                status == 200 && body == "ok\n",
                &format!("status {status}, body {body:?}"),
            );
        }
        Err(e) => ok = check("/healthz", false, &e.to_string()),
    }
    match client.get("/metrics") {
        Ok((status, body)) => {
            ok &= check(
                "/metrics status",
                status == 200,
                &format!("status {status}"),
            );
            ok &= check(
                "/metrics exposition",
                body.contains("# TYPE") && body.contains("sim_measured_slots_total"),
                &format!("{} bytes, no expected families", body.len()),
            );
            ok &= check(
                "/metrics progress gauges",
                body.contains("sim_progress_done") && body.contains("sim_progress_total"),
                "missing sim_progress_* gauges",
            );
            ok &= check(
                "/metrics pool accounting",
                body.contains("par_pool_workers") && body.contains("par_worker_busy_ns"),
                "missing par.pool/par.worker gauges",
            );
        }
        Err(e) => ok = check("/metrics", false, &e.to_string()),
    }
    match client.get("/metrics.json") {
        Ok((status, body)) => {
            ok &= check(
                "/metrics.json status",
                status == 200,
                &format!("status {status}"),
            );
            let parsed = gps_obs::json::parse(&body);
            ok &= check(
                "/metrics.json parses",
                parsed
                    .as_ref()
                    .map(|doc| doc.get("counters").is_some())
                    .unwrap_or(false),
                &format!("{parsed:?}"),
            );
        }
        Err(e) => ok = check("/metrics.json", false, &e.to_string()),
    }
    match client.get("/progress") {
        Ok((status, body)) => {
            ok &= check(
                "/progress status",
                status == 200,
                &format!("status {status}"),
            );
            let parsed = gps_obs::json::parse(&body);
            let field = |k: &str| parsed.as_ref().ok().and_then(|d| d.get(k)?.as_u64());
            ok &= check(
                "/progress campaign",
                parsed
                    .as_ref()
                    .ok()
                    .and_then(|d| d.get("campaign")?.as_str().map(str::to_string))
                    .as_deref()
                    == Some("single_node"),
                &body,
            );
            ok &= check(
                "/progress counts",
                field("total") == Some(2) && field("done") == Some(2),
                &body,
            );
        }
        Err(e) => ok = check("/progress", false, &e.to_string()),
    }
    match client.get("/nope") {
        Ok((status, _)) => ok &= check("unknown path -> 404", status == 404, &format!("{status}")),
        Err(e) => ok = check("unknown path", false, &e.to_string()),
    }

    // The admission-control service: an engine behind a request handler,
    // driven over one persistent connection — checks the custom routes,
    // keep-alive, the cache counters, and the region gauges end to end.
    ok &= admission_service_checks();

    // Round-trip the flight recorder: export the Chrome trace collected
    // during the campaign, write it out, and re-parse it with the in-tree
    // JSON parser the way the report generator does.
    let trace_path = std::env::temp_dir().join(format!("obs_check_trace_{}.json", addr.port()));
    match gps_obs::trace::export_json("obs_check") {
        Some(body) => {
            std::fs::write(&trace_path, &body).expect("write trace file");
            let text = std::fs::read_to_string(&trace_path).expect("read trace file");
            let events = gps_obs::json::parse(&text).ok().and_then(|doc| {
                if let Some(gps_obs::json::Json::Arr(evs)) = doc.get("traceEvents") {
                    Some(evs.len())
                } else {
                    None
                }
            });
            ok &= check(
                "trace file parses",
                events.is_some(),
                "traceEvents missing or not an array",
            );
            ok &= check(
                "trace has events",
                events.unwrap_or(0) > 0,
                "empty traceEvents",
            );
            std::fs::remove_file(&trace_path).ok();
        }
        None => ok = check("trace export", false, "export_json returned None"),
    }
    gps_obs::trace::configure(gps_obs::TraceMode::Off);
    gps_obs::trace::reset();

    // Drop the setup without finish_obs: this check must not overwrite any
    // campaign's results files. The exporter shuts down on drop.
    drop(setup);
    if !ok {
        std::process::exit(1);
    }
    println!("obs_check: all exporter checks passed on {addr}");
}
