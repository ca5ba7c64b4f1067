//! Live campaign progress: a process-global tracker the campaign engine
//! updates per replication and the exporter serves at `/progress`.
//!
//! The tracker is deliberately cheap — plain relaxed atomics, bumped
//! once per replication (orders of magnitude coarser than the simulator
//! slot loop) — so it is always on; there is no knob. The *served* JSON
//! includes wall-clock-derived fields (elapsed, throughput, ETA), which
//! is fine because `/progress` is a live surface, not a results
//! artifact. The gauge mirror ([`publish_gauges`](Progress::publish_gauges)) is timing-gated by
//! the caller for the same reason the pool's `par.pool.workers` gauge
//! is: final gauge values for done/total are deterministic, but the
//! restored/retried counts differ between a straight-through and a
//! resumed run of the same campaign, and the metrics snapshots of those
//! two runs must stay byte-identical in the default configuration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The process-global campaign progress state.
#[derive(Debug)]
pub struct Progress {
    campaign: Mutex<(String, Option<Instant>)>,
    total: AtomicU64,
    done: AtomicU64,
    restored: AtomicU64,
    retried: AtomicU64,
    quarantined: AtomicU64,
    chunks: AtomicU64,
}

static PROGRESS: Progress = Progress {
    campaign: Mutex::new((String::new(), None)),
    total: AtomicU64::new(0),
    done: AtomicU64::new(0),
    restored: AtomicU64::new(0),
    retried: AtomicU64::new(0),
    quarantined: AtomicU64::new(0),
    chunks: AtomicU64::new(0),
};

/// The global tracker.
pub fn global_progress() -> &'static Progress {
    &PROGRESS
}

impl Progress {
    /// Starts (or restarts) tracking a campaign of `total` replications:
    /// zeroes every counter and anchors the throughput clock.
    pub fn begin_campaign(&self, name: &str, total: u64) {
        *self.campaign.lock().unwrap() = (name.to_string(), Some(Instant::now()));
        self.total.store(total, Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
        self.restored.store(0, Ordering::Relaxed);
        self.retried.store(0, Ordering::Relaxed);
        self.quarantined.store(0, Ordering::Relaxed);
        self.chunks.store(0, Ordering::Relaxed);
    }

    /// `n` more replications finished (computed, not restored).
    pub fn add_done(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` more replications restored from a checkpoint.
    pub fn add_restored(&self, n: u64) {
        self.restored.fetch_add(n, Ordering::Relaxed);
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` more replication attempts were retried after a panic.
    pub fn add_retried(&self, n: u64) {
        self.retried.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` more replications were quarantined (retries exhausted).
    pub fn add_quarantined(&self, n: u64) {
        self.quarantined.fetch_add(n, Ordering::Relaxed);
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// One more worker chunk was drained.
    pub fn add_chunk(&self) {
        self.chunks.fetch_add(1, Ordering::Relaxed);
    }

    /// Replications completed so far (computed + restored + quarantined).
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// The campaign's replication target.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Renders the live JSON document served at `/progress`. Elapsed,
    /// throughput, and ETA come from the wall clock; everything else is
    /// the raw counters.
    pub fn to_json(&self) -> String {
        let (name, started) = {
            let g = self.campaign.lock().unwrap();
            (g.0.clone(), g.1)
        };
        let total = self.total.load(Ordering::Relaxed);
        let done = self.done.load(Ordering::Relaxed);
        let elapsed = started.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let eta = if rate > 0.0 && total > done {
            (total - done) as f64 / rate
        } else {
            0.0
        };
        let mut out = String::from("{\"campaign\":");
        crate::json::write_escaped(&name, &mut out);
        out.push_str(&format!(
            ",\"total\":{total},\"done\":{done},\"restored\":{},\
             \"retried\":{},\"quarantined\":{},\"chunks\":{},\
             \"elapsed_s\":{},\"rate_per_s\":{},\"eta_s\":{}}}",
            self.restored.load(Ordering::Relaxed),
            self.retried.load(Ordering::Relaxed),
            self.quarantined.load(Ordering::Relaxed),
            self.chunks.load(Ordering::Relaxed),
            crate::json::fmt_f64(elapsed),
            crate::json::fmt_f64(rate),
            crate::json::fmt_f64(eta),
        ));
        out
    }

    /// Mirrors the counters into `registry` as `sim.progress.*` gauges.
    /// Callers gate this behind the timing switch: restored/retried
    /// counts are run-history-dependent and must stay out of the
    /// deterministic metrics snapshot in the default configuration.
    pub fn publish_gauges(&self, registry: &crate::metrics::Registry) {
        registry
            .gauge("sim.progress.total")
            .set(self.total.load(Ordering::Relaxed) as f64);
        registry
            .gauge("sim.progress.done")
            .set(self.done.load(Ordering::Relaxed) as f64);
        registry
            .gauge("sim.progress.restored")
            .set(self.restored.load(Ordering::Relaxed) as f64);
        registry
            .gauge("sim.progress.retried")
            .set(self.retried.load(Ordering::Relaxed) as f64);
        registry
            .gauge("sim.progress.quarantined")
            .set(self.quarantined.load(Ordering::Relaxed) as f64);
        registry
            .gauge("sim.progress.chunks")
            .set(self.chunks.load(Ordering::Relaxed) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_counts_and_json_shape() {
        let p = Progress {
            campaign: Mutex::new((String::new(), None)),
            total: AtomicU64::new(0),
            done: AtomicU64::new(0),
            restored: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
        };
        p.begin_campaign("demo", 8);
        p.add_done(3);
        p.add_restored(2);
        p.add_retried(1);
        p.add_quarantined(1);
        p.add_chunk();
        assert_eq!(p.done(), 6);
        assert_eq!(p.total(), 8);
        let j = p.to_json();
        let doc = crate::json::parse(&j).unwrap_or_else(|e| panic!("{e}: {j}"));
        assert_eq!(doc.get("campaign").and_then(|v| v.as_str()), Some("demo"));
        assert_eq!(doc.get("total").and_then(|v| v.as_u64()), Some(8));
        assert_eq!(doc.get("done").and_then(|v| v.as_u64()), Some(6));
        assert_eq!(doc.get("restored").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(doc.get("retried").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("quarantined").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("chunks").and_then(|v| v.as_u64()), Some(1));
        assert!(doc.get("rate_per_s").and_then(|v| v.as_f64()).is_some());
        assert!(doc.get("eta_s").and_then(|v| v.as_f64()).is_some());
    }

    #[test]
    fn begin_campaign_resets_counters() {
        let p = Progress {
            campaign: Mutex::new((String::new(), None)),
            total: AtomicU64::new(0),
            done: AtomicU64::new(0),
            restored: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
        };
        p.begin_campaign("a", 4);
        p.add_done(4);
        p.begin_campaign("b", 2);
        assert_eq!(p.done(), 0);
        assert_eq!(p.total(), 2);
    }

    #[test]
    fn gauges_mirror_counters() {
        // A local tracker: the global one is exercised by the exporter's
        // `/progress` round-trip test, which runs in parallel with this.
        let p = Progress {
            campaign: Mutex::new((String::new(), None)),
            total: AtomicU64::new(0),
            done: AtomicU64::new(0),
            restored: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
        };
        p.begin_campaign("gauge_test", 5);
        p.add_done(5);
        let r = crate::metrics::Registry::new();
        p.publish_gauges(&r);
        let snap = r.snapshot();
        let get = |name: &str| snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("sim.progress.total"), Some(5.0));
        assert_eq!(get("sim.progress.done"), Some(5.0));
        assert_eq!(get("sim.progress.quarantined"), Some(0.0));
    }
}
