//! The metrics registry: counters, gauges, and HDR latency histograms,
//! snapshotted to deterministic JSON.
//!
//! Recording is built for hot paths: a [`Counter`] or [`Gauge`] handle is
//! one `Arc<AtomicU64>`, so after registration an update is a single
//! atomic op with no lock and no lookup. Registration (name → handle) goes
//! through a mutex-guarded `BTreeMap` and is expected once per metric, not
//! per observation.
//!
//! The one histogram is [`crate::hdrhist::HdrHistogram`]: log-bucketed
//! over integer nanoseconds, so one instrument resolves a sub-microsecond
//! cache hit and a multi-second stall alike.
//!
//! Snapshots render with sorted metric names and fixed key order, so a
//! seeded run produces a byte-identical `*_metrics.json` every time; the
//! only nondeterministic section is `"spans"` (wall-clock timing), which
//! consumers strip before comparing (see [`Snapshot::to_json_without_spans`]).

use crate::hdrhist::{HdrHandle, HdrHistogram, HdrSnapshot};
use crate::json::{fmt_f64, write_escaped};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Builds the canonical labeled metric name: `name{k=v,k2=v2}`.
///
/// Keys/values must not contain `{`, `}`, `,`, or `=`; labels are emitted
/// in the order given, so callers should pass them pre-sorted when they
/// want cross-site consistency.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        debug_assert!(
            !k.contains(['{', '}', ',', '=']) && !v.contains(['{', '}', ',', '=']),
            "label parts must be free of {{}},= separators"
        );
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins float gauge handle (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Accumulated wall-clock statistics for one span label.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// Shortest span.
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
}

impl SpanStats {
    /// Mean span duration in nanoseconds (0 when empty).
    pub(crate) fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    hdr: BTreeMap<String, HdrHandle>,
    spans: BTreeMap<String, SpanStats>,
}

/// A registry of named metrics. Cloning shares the underlying storage.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.counters
            .entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns the gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))))
            .clone()
    }

    /// Returns the log-bucketed (HDR-style) histogram named `name`,
    /// creating it with the default configuration on first use — the
    /// instrument for latency-like quantities spanning many orders of
    /// magnitude (see [`crate::hdrhist`]).
    pub fn hdr(&self, name: &str) -> HdrHandle {
        self.hdr_with(name, HdrHistogram::new)
    }

    /// Like [`hdr`](Self::hdr) with an explicit first-use constructor
    /// (later calls ignore the shape).
    pub(crate) fn hdr_with(&self, name: &str, build: impl FnOnce() -> HdrHistogram) -> HdrHandle {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.hdr
            .entry(name.to_string())
            .or_insert_with(|| HdrHandle::new(build()))
            .clone()
    }

    /// Folds one completed span duration into the stats for `path`.
    pub fn record_span(&self, path: &str, ns: u64) {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.spans.entry(path.to_string()).or_default().record(ns);
    }

    /// Accumulated stats for span `path`, if any completed.
    pub fn span_stats(&self, path: &str) -> Option<SpanStats> {
        self.inner
            .lock()
            .expect("registry poisoned")
            .spans
            .get(path)
            .copied()
    }

    /// Clears every metric back to its initial state. Outstanding handles
    /// stay valid (counters/gauges are zeroed in place); HDR histograms
    /// keep their configuration with counts reset.
    pub fn reset(&self) {
        let mut g = self.inner.lock().expect("registry poisoned");
        for c in g.counters.values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for v in g.gauges.values() {
            v.0.store(0.0f64.to_bits(), Ordering::Relaxed);
        }
        for h in g.hdr.values() {
            h.clear();
        }
        g.spans.clear();
    }

    /// Takes a point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.inner.lock().expect("registry poisoned");
        Snapshot {
            counters: g
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            hdr: g
                .hdr
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            spans: g.spans.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        }
    }
}

/// A point-in-time copy of a [`Registry`], renderable as deterministic
/// JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// HDR (log-bucketed) histogram snapshots by name.
    pub hdr: Vec<(String, HdrSnapshot)>,
    /// Span timing stats by hierarchical path (wall-clock; nondeterministic).
    pub spans: Vec<(String, SpanStats)>,
}

impl Snapshot {
    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hdr.is_empty()
            && self.spans.is_empty()
    }

    /// Renders the full snapshot, spans included.
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// Renders only the deterministic sections — the byte-comparison form
    /// for same-seed runs.
    pub fn to_json_without_spans(&self) -> String {
        self.render(false)
    }

    /// Renders just the `"spans"` object body (for embedding in other
    /// reports, e.g. the bench harness JSON).
    pub fn spans_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(name, &mut out);
            out.push_str(&format!(
                ":{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns,
                fmt_f64(s.mean_ns()),
            ));
        }
        out.push('}');
        out
    }

    fn render(&self, with_spans: bool) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            write_escaped(name, &mut out);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            write_escaped(name, &mut out);
            out.push_str(&format!(": {}", fmt_f64(*v)));
        }
        // "histograms" and "summaries" are kept as empty objects: every
        // committed `*_metrics.json` carries them, so dropping the keys
        // would change those bytes.
        out.push_str("\n  },\n  \"histograms\": {\n  }");
        // The HDR section appears only when an HDR histogram was
        // registered: pre-existing snapshots keep their exact bytes.
        if !self.hdr.is_empty() {
            out.push_str(",\n  \"hdr_histograms\": {");
            for (i, (name, h)) in self.hdr.iter().enumerate() {
                out.push_str(if i > 0 { ",\n    " } else { "\n    " });
                write_escaped(name, &mut out);
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|(le, c)| format!("[{le},{c}]"))
                    .collect();
                let q = |p: f64| match h.value_at_quantile(p) {
                    Some(v) => v.to_string(),
                    None => "null".to_string(),
                };
                out.push_str(&format!(
                    ": {{\"sub_bits\": {}, \"max_trackable\": {}, \"count\": {}, \
                     \"sum\": {}, \"min\": {}, \"max\": {}, \"saturated\": {}, \
                     \"buckets\": [{}], \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
                    h.sub_bits,
                    h.max_trackable,
                    h.total,
                    h.sum,
                    h.min,
                    h.max,
                    h.saturated,
                    buckets.join(","),
                    q(0.5),
                    q(0.9),
                    q(0.99),
                    q(0.999),
                ));
            }
            out.push_str("\n  }");
        }
        out.push_str(",\n  \"summaries\": {\n  }");
        if with_spans {
            out.push_str(",\n  \"spans\": ");
            out.push_str(&self.spans_json());
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_storage() {
        let r = Registry::new();
        let c1 = r.counter("hits");
        let c2 = r.counter("hits");
        c1.inc();
        c2.add(4);
        assert_eq!(r.counter("hits").get(), 5);
        let g = r.gauge("load");
        g.set(0.75);
        assert_eq!(r.gauge("load").get(), 0.75);
    }

    #[test]
    fn labeled_names() {
        assert_eq!(labeled("x", &[]), "x");
        assert_eq!(
            labeled("faults.drops", &[("session", "2"), ("node", "a")]),
            "faults.drops{session=2,node=a}"
        );
    }

    #[test]
    fn span_stats_accumulate() {
        let r = Registry::new();
        r.record_span("a/b", 100);
        r.record_span("a/b", 300);
        let s = r.span_stats("a/b").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 400);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 300);
        assert_eq!(s.mean_ns(), 200.0);
        assert!(r.span_stats("missing").is_none());
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let build = || {
            let r = Registry::new();
            r.counter("z.last").add(2);
            r.counter("a.first").add(1);
            r.gauge("mid").set(1.5);
            r.record_span("timed", 123); // wall clock — excluded below
            r.snapshot()
        };
        let (s1, s2) = (build(), build());
        assert_eq!(s1.to_json_without_spans(), s2.to_json_without_spans());
        let json = s1.to_json();
        // Sorted counter order and span presence in the full render.
        let a = json.find("a.first").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < z);
        assert!(json.contains("\"spans\""));
        assert!(!s1.to_json_without_spans().contains("\"spans\""));
        // Both renders parse as JSON.
        assert!(crate::json::parse(&json).is_ok());
        assert!(crate::json::parse(&s1.to_json_without_spans()).is_ok());
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("n");
        c.add(5);
        r.record_span("sp", 10);
        r.reset();
        assert_eq!(c.get(), 0);
        assert!(r.span_stats("sp").is_none());
        c.inc(); // handle still live
        assert_eq!(r.counter("n").get(), 1);
    }

    #[test]
    fn hdr_histograms_register_reset_and_render() {
        let r = Registry::new();
        let h = r.hdr("lat");
        h.observe(460);
        h.observe(40_000_000);
        r.hdr("lat").observe(460); // same handle by name
        let snap = r.snapshot();
        assert_eq!(snap.hdr.len(), 1);
        assert_eq!(snap.hdr[0].1.total, 3);
        let json = snap.to_json_without_spans();
        assert!(json.contains("\"hdr_histograms\""));
        assert!(json.contains("\"p999\""));
        assert!(crate::json::parse(&json).is_ok());
        // Absent entirely when no HDR histogram exists (byte-stability
        // of pre-existing snapshots).
        let plain = Registry::new();
        plain.counter("c").inc();
        assert!(!plain.snapshot().to_json().contains("hdr_histograms"));
        // Reset zeroes data but keeps the instrument and configuration.
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.hdr[0].1.total, 0);
        h.observe(7);
        assert_eq!(r.snapshot().hdr[0].1.total, 1);
    }

    /// Golden snapshot layout: key order, indentation, the empty
    /// `"histograms"` / `"summaries"` objects every committed
    /// `*_metrics.json` carries, and `"hdr_histograms"` between them,
    /// pinned byte-for-byte.
    #[test]
    fn snapshot_json_golden() {
        let r = Registry::new();
        r.counter("sim.measured_slots").add(240);
        r.gauge(&labeled("sim.session.throughput", &[("session", "0")]))
            .set(0.25);
        // Tiny HDR config (4 unit buckets, 2 sub-buckets per octave,
        // saturation at 48): 100 clamps into the [48,64) top bucket.
        let hdr = r.hdr_with("rpc.latency_ns", || HdrHistogram::with_config(2, 48));
        for v in [1u64, 5, 7, 100] {
            hdr.observe(v);
        }
        r.record_span("sim/step", 100); // wall clock — not rendered
        let expected = "\
{
  \"counters\": {
    \"sim.measured_slots\": 240
  },
  \"gauges\": {
    \"sim.session.throughput{session=0}\": 0.25
  },
  \"histograms\": {
  },
  \"hdr_histograms\": {
    \"rpc.latency_ns\": {\"sub_bits\": 2, \"max_trackable\": 48, \"count\": 4, \"sum\": 61, \"min\": 1, \"max\": 48, \"saturated\": 1, \"buckets\": [[1,1],[5,1],[7,1],[63,1]], \"p50\": 5, \"p90\": 63, \"p99\": 63, \"p999\": 63}
  },
  \"summaries\": {
  }
}
";
        assert_eq!(r.snapshot().to_json_without_spans(), expected);
    }

    #[test]
    fn empty_snapshot() {
        let snap = Registry::new().snapshot();
        assert!(snap.is_empty());
        assert!(crate::json::parse(&snap.to_json()).is_ok());
    }
}
