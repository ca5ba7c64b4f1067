//! End-to-end flight-recorder guarantees at the campaign level.
//!
//! Counts mode participates in the repo's determinism contract: the
//! exported digest is a pure function of the workload, byte-identical
//! across every `(threads, chunk)` scheduling choice. Timing mode makes
//! no byte-level promise (timestamps are wall clock), but its Chrome
//! trace must always be *well-formed*: parseable by the in-tree JSON
//! parser, with properly nested begin/end events on every lane.
//!
//! The trace mode is process-global, so the tests serialize on a lock.

use gps_par::Pool;
use gps_sim::campaign::Campaign;
use gps_sim::runner::SingleNodeRunConfig;
use gps_sources::{OnOffSource, SlotSource};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn config() -> SingleNodeRunConfig {
    SingleNodeRunConfig {
        phis: vec![0.2, 0.25, 0.2, 0.25],
        capacity: 1.0,
        warmup: 50,
        measure: 1_000,
        seed: 20260807,
        backlog_grid: (0..20).map(|i| i as f64 * 0.5).collect(),
        delay_grid: (0..20).map(|i| i as f64).collect(),
    }
}

fn sources(_: u64) -> Vec<Box<dyn SlotSource>> {
    OnOffSource::paper_table1()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn SlotSource>)
        .collect()
}

/// The counts-only digest of a whole campaign is byte-identical across
/// thread counts and chunk sizes — the flight-recorder extension of the
/// campaign determinism contract.
#[test]
fn counts_digest_is_schedule_invariant_for_campaigns() {
    let _g = locked();
    gps_obs::trace::configure(gps_obs::TraceMode::Counts);
    let cfg = config();
    let mut exports = Vec::new();
    for (threads, chunk) in [(1usize, Some(1usize)), (1, None), (4, Some(1)), (4, None)] {
        gps_obs::trace::reset();
        let reports = Campaign::new(Pool { threads, chunk }, 6)
            .run(&cfg, sources)
            .unwrap()
            .into_reports();
        assert_eq!(reports.len(), 6);
        exports.push(gps_obs::trace::export_json("flight_recorder").expect("counts export"));
    }
    gps_obs::trace::configure(gps_obs::TraceMode::Off);
    gps_obs::trace::reset();
    for (i, e) in exports.iter().enumerate().skip(1) {
        assert_eq!(
            &exports[0], e,
            "counts digest diverged at schedule variant {i}"
        );
    }
    // The digest really covers the campaign: 6 replications flowed
    // through worker chunks.
    let doc = gps_obs::json::parse(&exports[0]).expect("digest parses");
    let events = match doc.get("events") {
        Some(gps_obs::json::Json::Arr(evs)) => evs.clone(),
        other => panic!("no events array: {other:?}"),
    };
    let items_of = |kind: &str| {
        events
            .iter()
            .find(|e| e.get("kind").and_then(|k| k.as_str()) == Some(kind))
            .and_then(|e| e.get("items"))
            .and_then(|v| v.as_u64())
    };
    assert_eq!(items_of("worker_chunk"), Some(6));
}

/// A timing-mode campaign exports a well-formed Chrome trace: every
/// lane's begin/end events nest properly (depth never goes negative and
/// returns to zero), and the chunks landed on worker lanes.
#[test]
fn timing_trace_nests_properly_per_lane() {
    let _g = locked();
    gps_obs::trace::configure(gps_obs::TraceMode::Timing);
    gps_obs::trace::reset();
    let cfg = config();
    let reports = Campaign::new(Pool::new(4), 8)
        .run(&cfg, sources)
        .unwrap()
        .into_reports();
    assert_eq!(reports.len(), 8);
    let json = gps_obs::trace::export_json("flight_recorder").expect("timing export");
    gps_obs::trace::configure(gps_obs::TraceMode::Off);
    gps_obs::trace::reset();

    let doc = gps_obs::json::parse(&json).expect("chrome trace parses");
    let events = match doc.get("traceEvents") {
        Some(gps_obs::json::Json::Arr(evs)) => evs.clone(),
        other => panic!("no traceEvents array: {other:?}"),
    };
    assert_eq!(
        doc.get("otherData")
            .and_then(|o| o.get("dropped"))
            .and_then(|v| v.as_u64()),
        Some(0),
        "tiny campaign must not overflow the ring"
    );

    // Events are exported in timestamp order; walk each lane's depth.
    let mut depth: std::collections::BTreeMap<u64, i64> = std::collections::BTreeMap::new();
    let mut worker_chunks = 0u64;
    for e in &events {
        let ph = e.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        let tid = e.get("tid").and_then(|t| t.as_u64()).unwrap_or(0);
        match ph {
            "B" => {
                *depth.entry(tid).or_insert(0) += 1;
                if e.get("cat").and_then(|c| c.as_str()) == Some("worker_chunk") {
                    assert!(tid >= 1, "chunks run on worker lanes, got tid {tid}");
                    worker_chunks += 1;
                }
            }
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "unbalanced end event on lane {tid}");
            }
            _ => {}
        }
    }
    for (tid, d) in &depth {
        assert_eq!(*d, 0, "lane {tid} left {d} unclosed begin events");
    }
    assert!(
        worker_chunks >= 1,
        "expected at least one chunk slice on a worker lane"
    );
    // The decoder the dashboard uses accepts the same document.
    let timeline = gps_obs::report::timeline_from_chrome_trace(&doc).expect("timeline decodes");
    assert_eq!(timeline.campaign, "flight_recorder");
    assert!(timeline.lanes.iter().any(|l| l.name.starts_with("worker-")));
}
