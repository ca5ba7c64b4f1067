//! Prometheus text exposition (format v0.0.4) of a registry
//! [`Snapshot`] — the body the exporter serves at `/metrics`.

use crate::metrics::Snapshot;

/// Maps a registry metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Splits the registry's `name{k=v,k2=v2}` form (see
/// [`crate::metrics::labeled`]) back into base name and label pairs.
fn split_labels(full: &str) -> (&str, Vec<(&str, &str)>) {
    match full.find('{') {
        Some(open) if full.ends_with('}') => {
            let base = &full[..open];
            let inner = &full[open + 1..full.len() - 1];
            let labels = inner
                .split(',')
                .filter(|p| !p.is_empty())
                .map(|pair| match pair.find('=') {
                    Some(eq) => (&pair[..eq], &pair[eq + 1..]),
                    None => (pair, ""),
                })
                .collect();
            (base, labels)
        }
        _ => (full, Vec::new()),
    }
}

/// Renders a label set (plus an optional extra label such as `le`) as `{k="v",…}`; empty string when there are none.
fn render_labels(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels.iter().copied().chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&sanitize_name(k));
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Prometheus float rendering: finite values use Rust's shortest
/// round-trip `Display`; non-finite values use the format's spellings.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// One exposition family: a `# TYPE` header followed by sample lines,
/// grouped so each family name is declared exactly once.
struct Family {
    name: String,
    kind: &'static str,
    lines: Vec<String>,
}

fn push_family(
    families: &mut Vec<Family>,
    index: &mut std::collections::BTreeMap<String, usize>,
    name: &str,
    kind: &'static str,
) -> usize {
    if let Some(&i) = index.get(name) {
        return i;
    }
    families.push(Family {
        name: name.to_string(),
        kind,
        lines: Vec::new(),
    });
    index.insert(name.to_string(), families.len() - 1);
    families.len() - 1
}

/// Renders a snapshot in Prometheus text exposition format v0.0.4.
///
/// Registry conventions map as follows: dotted names flatten to
/// underscores, counters gain the `_total` suffix (exactly once), labeled
/// names (`name{k=v}`) become proper label sets, and HDR histograms emit
/// their exact non-empty log buckets as integer `le` boundaries plus
/// `_sum`/`_count`. Span timing stats are exposed as `obs_span_*` gauges
/// labeled by path (`obs_span_samples`, not `_count` — that suffix is
/// reserved for histogram families).
///
/// The output is a pure function of the snapshot: same snapshot, same
/// bytes, which is what lets the thread-count determinism tests pin this
/// surface.
pub fn to_prometheus_text(snap: &Snapshot) -> String {
    let mut families: Vec<Family> = Vec::new();
    let mut index = std::collections::BTreeMap::new();

    for (full, v) in &snap.counters {
        let (base, labels) = split_labels(full);
        // Counters carry exactly one `_total` suffix: appended for the
        // common dotted registry names, left alone if the registry name
        // already ends in `_total`.
        let base = sanitize_name(base);
        let name = if base.ends_with("_total") {
            base
        } else {
            format!("{base}_total")
        };
        let i = push_family(&mut families, &mut index, &name, "counter");
        families[i]
            .lines
            .push(format!("{name}{} {v}", render_labels(&labels, None)));
    }
    for (full, v) in &snap.gauges {
        let (base, labels) = split_labels(full);
        let name = sanitize_name(base);
        let i = push_family(&mut families, &mut index, &name, "gauge");
        families[i].lines.push(format!(
            "{name}{} {}",
            render_labels(&labels, None),
            prom_f64(*v)
        ));
    }
    for (full, h) in &snap.hdr {
        let (base, labels) = split_labels(full);
        let name = sanitize_name(base);
        let i = push_family(&mut families, &mut index, &name, "histogram");
        for (le, cumulative) in h.cumulative_buckets() {
            families[i].lines.push(format!(
                "{name}_bucket{} {cumulative}",
                render_labels(&labels, Some(("le", &le.to_string())))
            ));
        }
        families[i].lines.push(format!(
            "{name}_bucket{} {}",
            render_labels(&labels, Some(("le", "+Inf"))),
            h.total
        ));
        families[i].lines.push(format!(
            "{name}_sum{} {}",
            render_labels(&labels, None),
            h.sum
        ));
        families[i].lines.push(format!(
            "{name}_count{} {}",
            render_labels(&labels, None),
            h.total
        ));
    }
    for (path, s) in &snap.spans {
        for (metric, value) in [
            // `_samples`, not `_count`: the reserved `_count` suffix is
            // kept for histogram families only.
            ("obs_span_samples", s.count as f64),
            ("obs_span_total_ns", s.total_ns as f64),
            ("obs_span_mean_ns", s.mean_ns()),
            ("obs_span_min_ns", s.min_ns as f64),
            ("obs_span_max_ns", s.max_ns as f64),
        ] {
            let i = push_family(&mut families, &mut index, metric, "gauge");
            families[i].lines.push(format!(
                "{metric}{} {}",
                render_labels(&[("path", path)], None),
                prom_f64(value)
            ));
        }
    }

    let mut out = String::new();
    for f in &families {
        out.push_str("# TYPE ");
        out.push_str(&f.name);
        out.push(' ');
        out.push_str(f.kind);
        out.push('\n');
        for line in &f.lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn name_and_label_mapping() {
        assert_eq!(sanitize_name("sim.measured_slots"), "sim_measured_slots");
        assert_eq!(sanitize_name("9lives"), "_lives");
        let (base, labels) = split_labels("sim.session.backlog_mean{session=2,node=a}");
        assert_eq!(base, "sim.session.backlog_mean");
        assert_eq!(labels, vec![("session", "2"), ("node", "a")]);
        let (base, labels) = split_labels("plain");
        assert_eq!(base, "plain");
        assert!(labels.is_empty());
        assert_eq!(
            render_labels(&[("session", "2")], Some(("le", "+Inf"))),
            "{session=\"2\",le=\"+Inf\"}"
        );
    }

    #[test]
    fn prom_float_spellings() {
        assert_eq!(prom_f64(1.5), "1.5");
        assert_eq!(prom_f64(f64::NAN), "NaN");
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
        assert_eq!(prom_f64(f64::NEG_INFINITY), "-Inf");
    }

    /// Golden exposition of a hand-built registry: every metric family
    /// kind, labels, and HDR histogram buckets, pinned
    /// byte-for-byte.
    #[test]
    fn prometheus_text_golden() {
        let r = Registry::new();
        // A registry name already carrying `_total` must not be
        // double-suffixed.
        r.counter("ingest_total").add(9);
        r.counter("sim.measured_slots").add(240);
        r.counter(&crate::metrics::labeled(
            "sim.session.delay_samples",
            &[("session", "0")],
        ))
        .add(12);
        r.gauge(&crate::metrics::labeled(
            "sim.session.throughput",
            &[("session", "0")],
        ))
        .set(0.25);
        // Tiny HDR config (4 unit buckets, 2 sub-buckets per octave,
        // saturation at 48) so the expected `le` boundaries are easy to
        // derive by hand: 100 clamps into the [48,64) top bucket.
        let hdr = r.hdr_with("rpc.latency_ns", || {
            crate::hdrhist::HdrHistogram::with_config(2, 48)
        });
        for v in [1u64, 5, 7, 100] {
            hdr.observe(v);
        }
        r.record_span("sim/step", 100);
        r.record_span("sim/step", 300);
        let text = to_prometheus_text(&r.snapshot());
        let expected = "\
# TYPE ingest_total counter
ingest_total 9
# TYPE sim_measured_slots_total counter
sim_measured_slots_total 240
# TYPE sim_session_delay_samples_total counter
sim_session_delay_samples_total{session=\"0\"} 12
# TYPE sim_session_throughput gauge
sim_session_throughput{session=\"0\"} 0.25
# TYPE rpc_latency_ns histogram
rpc_latency_ns_bucket{le=\"1\"} 1
rpc_latency_ns_bucket{le=\"5\"} 2
rpc_latency_ns_bucket{le=\"7\"} 3
rpc_latency_ns_bucket{le=\"63\"} 4
rpc_latency_ns_bucket{le=\"+Inf\"} 4
rpc_latency_ns_sum 61
rpc_latency_ns_count 4
# TYPE obs_span_samples gauge
obs_span_samples{path=\"sim/step\"} 2
# TYPE obs_span_total_ns gauge
obs_span_total_ns{path=\"sim/step\"} 400
# TYPE obs_span_mean_ns gauge
obs_span_mean_ns{path=\"sim/step\"} 200
# TYPE obs_span_min_ns gauge
obs_span_min_ns{path=\"sim/step\"} 100
# TYPE obs_span_max_ns gauge
obs_span_max_ns{path=\"sim/step\"} 300
";
        assert_eq!(text, expected);
    }
}
