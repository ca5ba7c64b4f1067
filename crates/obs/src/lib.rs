//! In-tree observability for the GPS workspace: a structured event
//! journal, a metrics registry, and span timing — with **zero external
//! dependencies**, consistent with the hermetic-build policy.
//!
//! The three pillars:
//!
//! * [`journal`] — leveled, component-targeted events serialized as
//!   NDJSON to a runtime-selectable sink ([`journal::Sink::Noop`] /
//!   `Stderr` / `File`). The default is `Noop`: silent and
//!   allocation-free, so library code can emit unconditionally.
//! * [`metrics`](mod@metrics) — counters, gauges, and HDR latency
//!   histograms ([`hdrhist`]), snapshotted to deterministic JSON reports
//!   (`results/*_metrics.json`).
//! * [`span`](mod@span) — RAII wall-clock timers with hierarchical `/`-separated
//!   labels for the hot paths (θ/ξ optimization, Perron iteration, the
//!   simulator event loops), folded into the same registry.
//!
//! Plus [`manifest`] — per-campaign provenance records (seed, config,
//!  output row counts) — and [`json`], the shared writer/parser.
//!
//! On top of the pillars sit the operable surfaces: [`exporter`] (a
//! zero-dependency `/metrics` + `/progress` HTTP server and its client,
//! with [`prometheus`] rendering the text exposition format), [`monitor`]
//! (online bound-violation detection against the paper's analytic tail
//! curves), [`report`] (the static-HTML results dashboard), [`trace`]
//! (the `GPS_OBS_TRACE` flight recorder exporting Chrome trace-event
//! JSON), and [`progress`] (the live campaign progress tracker behind
//! `/progress`).
//!
//! # The global hub
//!
//! Library crates (simulators, solvers) emit through the process-global
//! [`Obs`] hub returned by [`global()`]. It starts disabled (Noop sink, no
//! timing); binaries opt in once at startup via [`init`]:
//!
//! ```
//! use gps_obs::{ObsConfig, journal::SinkKind};
//! // In a binary's main(), before any simulation work:
//! let _ = gps_obs::init(ObsConfig {
//!     sink: SinkKind::Stderr,
//!     level: gps_obs::Level::Info,
//!     timing: true,
//! });
//! gps_obs::info("campaign", "start", &[("seed", 7u64.into())]);
//! let _guard = gps_obs::span("setup");
//! assert!(gps_obs::global().metrics().snapshot().counters.is_empty());
//! ```
//!
//! Determinism contract: with a fixed seed, everything the hub writes is
//! byte-identical across runs except the explicit timing data — the
//! journal's `t_us` field, the manifest's `"timing"` key, and the
//! snapshot's `"spans"` section.

pub mod exporter;
pub mod hdrhist;
pub mod journal;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod monitor;
pub mod progress;
pub mod prometheus;
pub mod report;
pub mod slo;
pub mod span;
pub mod trace;

pub use exporter::{
    current_request_id, ClientConfig, Exporter, HttpClient, HttpRequest, RequestHandler,
    RouteResponse, TelemetryConfig,
};
pub use hdrhist::{HdrHandle, HdrHistogram, HdrSnapshot};
pub use journal::{FieldValue, Journal, Level, ParsedEvent, SinkKind};
pub use manifest::RunManifest;
pub use metrics::{labeled, Counter, Gauge, Registry, Snapshot, SpanStats};
pub use monitor::{BoundCurve, BoundMonitor, SeriesKind, SessionCurves};
pub use progress::{global_progress, Progress};
pub use prometheus::to_prometheus_text;
pub use slo::{SloSet, SloSpec, SloStatus};
pub use span::Span;
pub use trace::{TraceKind, TraceMode, TraceScope};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Configuration for the global hub.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Where journal events go.
    pub sink: SinkKind,
    /// Minimum journal level.
    pub level: Level,
    /// Whether spans measure wall-clock time (off ⇒ spans are free).
    pub timing: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            sink: SinkKind::Noop,
            level: Level::Info,
            timing: false,
        }
    }
}

impl ObsConfig {
    /// Reads `GPS_OBS_SINK` (`noop`/`stderr`/a file path), `GPS_OBS_LEVEL`
    /// (`debug`/`info`/`warn`/`error`), and `GPS_OBS_TIMING` (`1`/`0`),
    /// falling back to `default` for anything unset.
    pub fn from_env_or(default: ObsConfig) -> ObsConfig {
        let sink = match std::env::var("GPS_OBS_SINK") {
            Ok(s) => SinkKind::parse(&s),
            Err(_) => default.sink,
        };
        let level = std::env::var("GPS_OBS_LEVEL")
            .ok()
            .and_then(|s| Level::parse(&s))
            .unwrap_or(default.level);
        let timing = match std::env::var("GPS_OBS_TIMING") {
            Ok(s) => s == "1" || s == "true",
            Err(_) => default.timing,
        };
        ObsConfig {
            sink,
            level,
            timing,
        }
    }
}

/// The observability hub: one journal plus one metrics registry plus the
/// timing switch. Library code talks to the process-global instance (see
/// [`global`]); tests construct their own.
#[derive(Debug)]
pub struct Obs {
    journal: Journal,
    metrics: Registry,
    timing: AtomicBool,
}

impl Obs {
    /// Builds a hub from `config`. Falls back to a Noop journal if the
    /// file sink cannot be opened (observability must never take the
    /// simulation down).
    pub fn new(config: ObsConfig) -> Obs {
        let journal =
            Journal::from_kind(&config.sink, config.level).unwrap_or_else(|_| Journal::noop());
        Obs {
            journal,
            metrics: Registry::new(),
            timing: AtomicBool::new(config.timing),
        }
    }

    /// A fully disabled hub (Noop journal, timing off).
    pub fn disabled() -> Obs {
        Obs::new(ObsConfig::default())
    }

    /// Re-points an already-built hub at a new configuration: the journal
    /// sink and level swap in place and the timing switch follows. The
    /// metrics registry is untouched (callers that want a clean slate
    /// call [`Registry::reset`]). Returns `false` — leaving the journal
    /// as it was — if a file sink cannot be opened.
    ///
    /// This is the escape hatch for the frozen global hub: benches and
    /// integration checks redirect `global()` mid-process without
    /// violating the first-`init`-wins contract.
    pub fn reconfigure(&self, config: &ObsConfig) -> bool {
        let ok = self.journal.reconfigure(&config.sink, config.level).is_ok();
        self.set_timing(config.timing);
        ok
    }

    /// The journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Whether span timing is on.
    #[inline]
    pub fn timing_enabled(&self) -> bool {
        self.timing.load(Ordering::Relaxed)
    }

    /// Switches span timing on or off at runtime.
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Relaxed);
    }

    /// Starts a timed span labeled `label` (inert when timing is off).
    #[inline]
    pub fn span(&self, label: &str) -> Span {
        Span::enter(&self.metrics, label, self.timing_enabled())
    }
}

static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// Installs the global hub. Returns `false` if something (an earlier
/// `init` or a `global()` call) already froze it — first caller wins,
/// matching `OnceLock` semantics.
pub fn init(config: ObsConfig) -> bool {
    let mut installed = false;
    GLOBAL.get_or_init(|| {
        installed = true;
        Obs::new(config)
    });
    installed
}

/// The process-global hub; disabled until [`init`] configures it.
#[inline]
pub fn global() -> &'static Obs {
    GLOBAL.get_or_init(Obs::disabled)
}

/// Emits an event on the global journal (free when the sink is Noop).
#[inline]
pub fn event(level: Level, component: &str, event: &str, fields: &[(&str, FieldValue)]) {
    global().journal().emit(level, component, event, fields);
}

/// [`Level::Info`] shorthand for [`event`].
#[inline]
pub fn info(component: &str, name: &str, fields: &[(&str, FieldValue)]) {
    event(Level::Info, component, name, fields);
}

/// [`Level::Debug`] shorthand for [`event`].
#[inline]
pub fn debug(component: &str, name: &str, fields: &[(&str, FieldValue)]) {
    event(Level::Debug, component, name, fields);
}

/// [`Level::Warn`] shorthand for [`event`].
#[inline]
pub fn warn(component: &str, name: &str, fields: &[(&str, FieldValue)]) {
    event(Level::Warn, component, name, fields);
}

/// [`Level::Error`] shorthand for [`event`].
#[inline]
pub fn error(component: &str, name: &str, fields: &[(&str, FieldValue)]) {
    event(Level::Error, component, name, fields);
}

/// Starts a span on the global hub (inert unless timing was enabled).
#[inline]
pub fn span(label: &str) -> Span {
    global().span(label)
}

/// The global metrics registry.
#[inline]
pub fn metrics() -> &'static Registry {
    global().metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_is_silent_and_spans_inert() {
        let obs = Obs::disabled();
        assert!(!obs.timing_enabled());
        assert!(!obs.journal().enabled(Level::Error));
        {
            let s = obs.span("x");
            assert!(!s.is_active());
        }
        assert!(obs.metrics().snapshot().is_empty());
    }

    #[test]
    fn timing_toggle_controls_spans() {
        let obs = Obs::disabled();
        obs.set_timing(true);
        {
            let s = obs.span("work");
            assert!(s.is_active());
        }
        assert_eq!(obs.metrics().span_stats("work").unwrap().count, 1);
        obs.set_timing(false);
        {
            let _s = obs.span("work");
        }
        assert_eq!(obs.metrics().span_stats("work").unwrap().count, 1);
    }

    #[test]
    fn config_from_env_defaults() {
        // No GPS_OBS_* set in the test environment for these names.
        let cfg = ObsConfig::from_env_or(ObsConfig {
            sink: SinkKind::Stderr,
            level: Level::Warn,
            timing: true,
        });
        // Either the env overrides or the defaults hold; both must parse
        // to a valid config.
        let obs = Obs::new(cfg);
        let _ = obs.timing_enabled();
    }

    #[test]
    fn file_hub_writes_journal_and_metrics() {
        let dir = std::env::temp_dir().join(format!("gps_obs_hub_{}", std::process::id()));
        let path = dir.join("run.ndjson");
        let obs = Obs::new(ObsConfig {
            sink: SinkKind::File(path.clone()),
            level: Level::Info,
            timing: true,
        });
        obs.journal().info("c", "e", &[("n", FieldValue::U64(1))]);
        obs.metrics().counter("k").inc();
        {
            let _s = obs.span("phase");
        }
        let events = journal::parse_ndjson(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(events.len(), 1);
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters, vec![("k".to_string(), 1)]);
        assert_eq!(snap.spans.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
