//! Scheduler-aware pool accounting: the per-worker busy/wait/idle
//! gauges, the `par/chunk` span, and the flight-recorder chunk events
//! added to the chunked range engine.
//!
//! The trace mode and the timing switch are process-global, so these
//! tests live in their own integration binary and serialize behind one
//! lock.

use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// With timing on, a fork-join leaves per-worker accounting gauges and
/// the load-imbalance summary on the global registry.
#[test]
fn timing_mode_publishes_worker_accounts() {
    let _g = locked();
    gps_obs::global().set_timing(true);
    gps_obs::metrics().reset();
    let items: Vec<u64> = (0..1000).collect();
    let out = gps_par::Pool::new(4).map(&items, |_, &x| {
        std::hint::black_box(x.wrapping_mul(2654435761))
    });
    gps_obs::global().set_timing(false);
    assert_eq!(out.len(), 1000);

    let snap = gps_obs::metrics().snapshot();
    let gauge = |name: &str| snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(gauge("par.pool.workers"), Some(4.0));
    assert!(gauge("par.pool.wall_ns").unwrap_or(0.0) > 0.0);
    assert!(
        gauge("par.pool.imbalance_permille").unwrap_or(0.0) >= 1000.0,
        "max/mean busy ratio is at least 1"
    );
    // Every worker has a full account: busy + wait + idle and the chunk
    // tally. Worker 0 always claims at least one chunk.
    for w in 0..4 {
        for field in ["busy_ns", "wait_ns", "idle_ns", "chunks"] {
            let name = format!("par.worker.{field}{{worker={w}}}");
            assert!(
                gauge(&name).is_some(),
                "missing gauge {name}; have {:?}",
                snap.gauges.iter().map(|(n, _)| n).collect::<Vec<_>>()
            );
        }
    }
    assert!(gauge("par.worker.chunks{worker=0}").unwrap_or(0.0) >= 1.0);
    // The per-chunk span fed the max/mean chunk wall-clock stats.
    let chunk_stats = snap.spans.iter().find(|(n, _)| n == "par/chunk");
    assert!(chunk_stats.is_some(), "par/chunk span stats missing");
    assert!(chunk_stats.unwrap().1.count >= 4);
}

/// Counts-mode chunk items are a pure function of the workload: the
/// summed chunk lengths equal `n` at every thread count and chunk size,
/// and the export bytes are identical.
#[test]
fn counts_mode_chunk_items_are_schedule_invariant() {
    let _g = locked();
    gps_obs::trace::configure(gps_obs::TraceMode::Counts);
    let mut exports = Vec::new();
    let items: Vec<usize> = (0..640).collect();
    for (threads, chunk) in [(1usize, 1usize), (1, 160), (4, 1), (4, 160)] {
        gps_obs::trace::reset();
        let pool = gps_par::Pool {
            threads,
            chunk: Some(chunk),
        };
        pool.map(&items, |i, _| {
            std::hint::black_box(i.wrapping_mul(31));
        });
        exports.push(gps_obs::trace::export_json("pool_test").expect("counts export"));
    }
    gps_obs::trace::configure(gps_obs::TraceMode::Off);
    gps_obs::trace::reset();
    for e in &exports[1..] {
        assert_eq!(&exports[0], e, "counts export must be schedule-invariant");
    }
    let doc = gps_obs::json::parse(&exports[0]).expect("counts export parses");
    let events = match doc.get("events") {
        Some(gps_obs::json::Json::Arr(evs)) => evs.clone(),
        other => panic!("no events array: {other:?}"),
    };
    let chunk_items = events
        .iter()
        .find(|e| e.get("kind").and_then(|k| k.as_str()) == Some("worker_chunk"))
        .and_then(|e| e.get("items"))
        .and_then(|v| v.as_u64());
    assert_eq!(chunk_items, Some(640));
}

/// With tracing and timing both off, the engine takes the bare drain
/// path: no accounting gauges appear.
#[test]
fn disabled_instrumentation_leaves_no_gauges() {
    let _g = locked();
    gps_obs::global().set_timing(false);
    gps_obs::trace::configure(gps_obs::TraceMode::Off);
    gps_obs::metrics().reset();
    let items: Vec<u64> = (0..64).collect();
    let _ = gps_par::Pool::new(4).map(&items, |_, &x| x + 1);
    let snap = gps_obs::metrics().snapshot();
    assert!(
        !snap
            .gauges
            .iter()
            .any(|(n, _)| n.starts_with("par.worker.")),
        "worker gauges must be timing-gated"
    );
    assert!(snap.spans.iter().all(|(n, _)| n != "par/chunk"));
}
