//! Scoped wall-clock span timing with hierarchical labels.
//!
//! A [`Span`] is an RAII guard: created at the top of a hot path, it
//! records its wall-clock duration into a [`Registry`] when dropped. Nested spans compose their labels into a `/`-separated
//! path through a thread-local stack, so `run_single_node` containing a
//! `measure` phase records under `sim.single_node/measure`.
//!
//! Timing is **off by default**: a disabled span is a unit struct whose
//! construction is one branch and whose drop does nothing — cheap enough
//! to leave in simulator event loops permanently (the ≤5 % bench-neutrality
//! budget is the design constraint here).

use crate::metrics::Registry;
use crate::trace;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static SPAN_PATH: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An in-flight timed span. Create via [`Span::enter`] (or the
/// [`crate::span()`] shorthand against the global hub); the measurement is
/// recorded on drop.
#[derive(Debug)]
pub struct Span {
    /// `None` when timing is disabled — drop is then a no-op.
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    registry: Registry,
    start: Instant,
    /// Mirrors the scope into the flight recorder when tracing is on;
    /// held only for its Drop (the end event).
    _trace: trace::TraceScope,
}

impl Span {
    /// Starts a span labeled `label` recording into `registry` when
    /// `enabled`; returns an inert guard otherwise.
    pub fn enter(registry: &Registry, label: &str, enabled: bool) -> Span {
        if !enabled {
            return Span { active: None };
        }
        SPAN_PATH.with(|p| p.borrow_mut().push(label.to_string()));
        Span {
            active: Some(ActiveSpan {
                registry: registry.clone(),
                start: Instant::now(),
                _trace: trace::scope(trace::TraceKind::SpanScope, label, 0),
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let ns = active.start.elapsed().as_nanos() as u64;
        let path = SPAN_PATH.with(|p| {
            let mut stack = p.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        active.registry.record_span(&path, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let r = Registry::new();
        {
            let s = Span::enter(&r, "idle", false);
            assert!(s.active.is_none());
        }
        assert!(r.snapshot().spans.is_empty());
    }

    #[test]
    fn nested_spans_build_hierarchical_paths() {
        let r = Registry::new();
        {
            let _outer = Span::enter(&r, "run", true);
            {
                let _inner = Span::enter(&r, "measure", true);
                std::hint::black_box(0u64);
            }
            {
                let _inner = Span::enter(&r, "measure", true);
            }
        }
        let snap = r.snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["run", "run/measure"]);
        let inner = r.span_stats("run/measure").unwrap();
        assert_eq!(inner.count, 2);
        let outer = r.span_stats("run").unwrap();
        assert_eq!(outer.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
    }

    #[test]
    fn sibling_spans_share_a_path() {
        let r = Registry::new();
        for _ in 0..3 {
            let _s = Span::enter(&r, "solo", true);
        }
        assert_eq!(r.span_stats("solo").unwrap().count, 3);
    }
}
