//! Minimal wall-clock benchmark harness (in-tree criterion replacement).
//!
//! Each bench is a closure run through three stages:
//!
//! 1. **Warmup + calibration** — the closure runs for a fixed wall-clock
//!    budget; the observed per-iteration cost picks an iteration count so
//!    each timed sample lasts roughly [`BenchConfig::sample_target`].
//! 2. **Sampling** — [`BenchConfig::samples`] batches are timed and the
//!    per-iteration time of each batch is recorded.
//! 3. **Summary** — the median, p10, and p90 of the per-iteration samples
//!    are reported, printed to stdout and written as hand-rolled JSON to
//!    `results/bench_<suite>.json` (the directory is overridable with the
//!    `GPS_RESULTS_DIR` environment variable, same convention as the
//!    experiment binaries).
//!
//! Environment knobs: `GPS_BENCH_WARMUP_MS`, `GPS_BENCH_SAMPLE_MS`, and
//! `GPS_BENCH_SAMPLES` override the defaults, so CI can run the suites in
//! smoke mode (e.g. `GPS_BENCH_SAMPLES=3 GPS_BENCH_SAMPLE_MS=1`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Timing budget for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Wall-clock budget for the warmup/calibration stage.
    pub warmup: Duration,
    /// Target duration of one timed sample (batch of iterations).
    pub sample_target: Duration,
    /// Number of timed samples.
    pub samples: usize,
}

fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            warmup: Duration::from_millis(env_u64("GPS_BENCH_WARMUP_MS", 200)),
            sample_target: Duration::from_millis(env_u64("GPS_BENCH_SAMPLE_MS", 10)),
            samples: env_u64("GPS_BENCH_SAMPLES", 25).max(1) as usize,
        }
    }
}

/// Summary statistics for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench name (criterion-style `group/name` identifiers).
    pub name: String,
    /// Iterations per timed sample chosen by calibration.
    pub iters_per_sample: u64,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// 10th-percentile per-iteration time in nanoseconds.
    pub p10_ns: f64,
    /// 90th-percentile per-iteration time in nanoseconds.
    pub p90_ns: f64,
    /// Optional element count per iteration, for throughput reporting.
    pub elements: Option<u64>,
}

impl BenchResult {
    /// Elements processed per second at the median, when an element count
    /// was declared.
    pub fn elems_per_sec(&self) -> Option<f64> {
        self.elements.map(|e| e as f64 * 1e9 / self.median_ns)
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice; `q` in
/// `[0, 1]`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Renders a nanosecond figure with an auto-selected unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Gregorian civil date from days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days` algorithm), so history lines can be dated without
/// any external time dependency.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

/// Today's UTC date as `YYYY-MM-DD`.
fn utc_date_today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// The host a run was measured on, as a JSON object: `nproc`, the CPU
/// model from `/proc/cpuinfo` and `rustc -V` (the `$RUSTC` compiler when
/// set), each `"unknown"` when it cannot be read. Numbers from hosts
/// that differ here are not comparable.
fn host_json() -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_escape(&cpu_model),
        json_escape(&rustc)
    )
}

/// The directory bench JSON lands in: `GPS_RESULTS_DIR` when set, else the
/// workspace-level `results/` next to the crates.
fn results_dir() -> PathBuf {
    match std::env::var_os("GPS_RESULTS_DIR") {
        Some(d) => PathBuf::from(d),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    }
}

/// A named suite of wall-clock benchmarks.
pub struct BenchHarness {
    suite: String,
    config: BenchConfig,
    results: Vec<BenchResult>,
}

impl BenchHarness {
    /// Creates a suite with the (env-overridable) default config.
    pub fn new(suite: &str) -> Self {
        Self::with_config(suite, BenchConfig::default())
    }

    /// Creates a suite with an explicit config.
    pub fn with_config(suite: &str, config: BenchConfig) -> Self {
        println!(
            "suite {suite}: {} samples × ~{:?} target, {:?} warmup",
            config.samples, config.sample_target, config.warmup
        );
        Self {
            suite: suite.to_string(),
            config,
            results: Vec::new(),
        }
    }

    /// Times `f` and records the result under `name`.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, f: F) -> &BenchResult {
        self.run(name, None, f)
    }

    /// Times `f`, reporting throughput over `elements` items per iteration.
    pub fn bench_elems<R, F: FnMut() -> R>(
        &mut self,
        name: &str,
        elements: u64,
        f: F,
    ) -> &BenchResult {
        self.run(name, Some(elements), f)
    }

    fn run<R, F: FnMut() -> R>(
        &mut self,
        name: &str,
        elements: Option<u64>,
        mut f: F,
    ) -> &BenchResult {
        // Warmup and calibration: run for the warmup budget (at least one
        // iteration) and use the mean cost to size the timed batches.
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_iters == 0 || start.elapsed() < self.config.warmup {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters = ((self.config.sample_target.as_secs_f64() / per_iter).ceil() as u64).max(1);

        let mut samples_ns = Vec::with_capacity(self.config.samples);
        for _ in 0..self.config.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples_ns.push(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());

        let result = BenchResult {
            name: name.to_string(),
            iters_per_sample: iters,
            samples: samples_ns.len(),
            median_ns: percentile(&samples_ns, 0.5),
            p10_ns: percentile(&samples_ns, 0.1),
            p90_ns: percentile(&samples_ns, 0.9),
            elements,
        };
        let throughput = match result.elems_per_sec() {
            Some(eps) => format!("  ({eps:.0} elems/s)"),
            None => String::new(),
        };
        println!(
            "  {name}: median {} [p10 {} .. p90 {}] ({iters} iters/sample){throughput}",
            fmt_ns(result.median_ns),
            fmt_ns(result.p10_ns),
            fmt_ns(result.p90_ns),
        );
        self.results.push(result);
        self.results.last().unwrap()
    }

    /// Results recorded so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The suite's JSON report. When the global observability hub has
    /// recorded span timings (`GPS_OBS_TIMING=1` or an explicit
    /// `set_timing(true)`), a `"spans"` section with per-path
    /// count/total/min/max/mean nanoseconds is folded in after the bench
    /// array; with timing off (the default) the report is unchanged.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", json_escape(&self.suite)));
        out.push_str("  \"benches\": [\n");
        for (k, r) in self.results.iter().enumerate() {
            let elems = match r.elements {
                Some(e) => e.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters_per_sample\": {}, \"samples\": {}, \
                 \"median_ns\": {:.3}, \"p10_ns\": {:.3}, \"p90_ns\": {:.3}, \"elements\": {}}}{}\n",
                json_escape(&r.name),
                r.iters_per_sample,
                r.samples,
                r.median_ns,
                r.p10_ns,
                r.p90_ns,
                elems,
                if k + 1 < self.results.len() { "," } else { "" },
            ));
        }
        let snapshot = gps_obs::metrics().snapshot();
        if snapshot.spans.is_empty() {
            out.push_str("  ]\n}\n");
        } else {
            out.push_str("  ],\n");
            out.push_str(&format!("  \"spans\": {}\n", snapshot.spans_json()));
            out.push_str("}\n");
        }
        out
    }

    /// Writes the JSON report to an explicit path.
    pub fn write_json_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// One dated NDJSON ledger line summarizing this run: date, suite,
    /// host stamp (`nproc`, CPU model, `rustc -V`), and the
    /// median/p10/p90 of every bench. Appended to
    /// `results/bench_history.ndjson` by [`finish`](Self::finish) so the
    /// pinned `bench_<suite>.json` snapshots keep a queryable trail of
    /// when each number was produced and what it replaced.
    pub fn history_line(&self) -> String {
        let mut line = format!(
            "{{\"date\": \"{}\", \"suite\": \"{}\", \"host\": {}, \"benches\": [",
            utc_date_today(),
            json_escape(&self.suite),
            host_json()
        );
        for (k, r) in self.results.iter().enumerate() {
            if k > 0 {
                line.push_str(", ");
            }
            line.push_str(&format!(
                "{{\"name\": \"{}\", \"median_ns\": {:.3}, \"p10_ns\": {:.3}, \"p90_ns\": {:.3}}}",
                json_escape(&r.name),
                r.median_ns,
                r.p10_ns,
                r.p90_ns,
            ));
        }
        line.push_str("]}");
        line
    }

    /// Appends the [`history_line`](Self::history_line) to an explicit
    /// ledger path (parent directories are created).
    pub fn append_history_to(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.history_line())
    }

    /// Writes the report to `results/bench_<suite>.json`, appends a dated
    /// summary line to `results/bench_history.ndjson`, and returns the
    /// report path. Call this at the end of each bench `main`.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        let path = dir.join(format!("bench_{}.json", self.suite));
        self.write_json_to(&path)?;
        let ledger = dir.join("bench_history.ndjson");
        self.append_history_to(&ledger)?;
        println!("wrote {} (history: {})", path.display(), ledger.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BenchConfig {
        BenchConfig {
            warmup: Duration::from_micros(200),
            sample_target: Duration::from_micros(50),
            samples: 5,
        }
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert!((percentile(&s, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn bench_produces_ordered_stats_and_json() {
        let mut h = BenchHarness::with_config("selftest", quick());
        h.bench("sum", || (0..100u64).sum::<u64>());
        h.bench_elems("sum_tp", 100, || (0..100u64).sum::<u64>());
        let rs = h.results();
        assert_eq!(rs.len(), 2);
        for r in rs {
            assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
            assert!(r.median_ns > 0.0);
            assert!(r.iters_per_sample >= 1);
            assert_eq!(r.samples, 5);
        }
        assert!(rs[0].elems_per_sec().is_none());
        assert!(rs[1].elems_per_sec().unwrap() > 0.0);
        let json = h.to_json();
        assert!(json.contains("\"suite\": \"selftest\""));
        assert!(json.contains("\"name\": \"sum\""));
        assert!(json.contains("\"elements\": 100"));
        assert!(json.contains("\"elements\": null"));
    }

    #[test]
    fn json_report_written_to_explicit_path() {
        let mut h = BenchHarness::with_config("writetest", quick());
        h.bench("noop", || black_box(1u32));
        let dir = std::env::temp_dir().join(format!("gps_bench_test_{}", std::process::id()));
        let path = dir.join("bench_writetest.json");
        h.write_json_to(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"suite\": \"writetest\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn span_stats_fold_into_report_when_timing_enabled() {
        // Global hub: timing off by default keeps the report span-free;
        // flipping it on folds recorded spans into the JSON.
        gps_obs::global().set_timing(true);
        {
            let _s = gps_obs::span("bench_selftest/phase");
            black_box((0..50u64).sum::<u64>());
        }
        gps_obs::global().set_timing(false);
        let mut h = BenchHarness::with_config("spantest", quick());
        h.bench("noop", || black_box(1u32));
        let json = h.to_json();
        assert!(json.contains("\"spans\""));
        assert!(json.contains("\"bench_selftest/phase\""));
        assert!(json.contains("\"count\""));
    }

    #[test]
    fn civil_from_days_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_667), (2026, 8, 2));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn history_line_is_one_dated_json_record() {
        let mut h = BenchHarness::with_config("histtest", quick());
        h.bench("alpha", || black_box(1u32));
        h.bench("beta", || black_box(2u32));
        let line = h.history_line();
        assert!(!line.contains('\n'), "ledger lines must be single-line");
        assert!(line.contains("\"suite\": \"histtest\""));
        assert!(line.contains("\"name\": \"alpha\""));
        assert!(line.contains("\"name\": \"beta\""));
        // Dated with a plausible YYYY-MM-DD prefix.
        let date = line
            .split("\"date\": \"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("date field");
        assert_eq!(date.len(), 10);
        assert_eq!(date.as_bytes()[4], b'-');
        assert_eq!(date.as_bytes()[7], b'-');
        // Stamped with the host it ran on.
        let doc = gps_obs::json::parse(&line).expect("ledger line is JSON");
        let host = doc.get("host").expect("host field");
        assert!(host.get("nproc").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);
        for field in ["cpu_model", "rustc"] {
            let v = host.get(field).and_then(|v| v.as_str());
            assert!(v.is_some_and(|v| !v.is_empty()), "host.{field}: {v:?}");
        }

        // Appending twice yields two ledger lines.
        let dir = std::env::temp_dir().join(format!("gps_bench_hist_{}", std::process::id()));
        let path = dir.join("bench_history.ndjson");
        std::fs::remove_file(&path).ok();
        h.append_history_to(&path).unwrap();
        h.append_history_to(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        for l in body.lines() {
            assert!(l.starts_with("{\"date\": \"") && l.ends_with("]}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain/name"), "plain/name");
    }
}
