//! `gpsbench` — one end-to-end, layer-by-layer benchmark of the two hot
//! paths: distributed simulation campaigns (`campaign_*`) and the
//! `admitd` admission service (`admit_*`).
//!
//! ```text
//! gpsbench --workload NAME --seed N [--trace 0|1] [--out PATH]
//! gpsbench --seed N [--trace 0|1]                # every workload, each in a child process
//! gpsbench --smoke [--workload NAME]             # tiny campaigns, every check on
//! gpsbench compare BASE.json... -- HEAD.json...
//! ```
//!
//! A run prints each metric with its unit, writes a JSON record (with a
//! host stamp) under `<target dir>/gpsbench/`, and ends its output with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. It
//! exits non-zero when any correctness check fails. Metric names, units
//! and bounds live in the repository's `BENCHMARK.json`.

mod admit;
mod campaign;
mod compare;
mod host;
mod http;
mod openloop;
mod spec;
mod stats;

use spec::Spec;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted and failed (replications, or HTTP requests).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub failures: Vec<String>,
}

/// Cargo's target directory: `CARGO_TARGET_DIR` (relative to the working
/// directory, as Cargo reads it) or the repository's `target/`.
pub fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map(|cwd| cwd.join(&dir))
            .unwrap_or_else(|_| PathBuf::from(dir)),
        None => spec::repo_root().join("target"),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Args {
    /// How long a run measures: `run_seconds` from `BENCHMARK.json`, so
    /// every commit is measured at the same length. A smoke run only
    /// checks, so it makes the fewest rounds a run makes.
    fn seconds(&self, spec: &Spec) -> f64 {
        if self.smoke {
            0.0
        } else {
            spec.run_seconds as f64
        }
    }
}

fn parse_args(args: &[String], spec: &Spec) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            // Harnesses that run the benchmark pass the run length they read
            // from BENCHMARK.json; any other length is refused, so two commits
            // are never measured at different lengths.
            "--seconds" => {
                let s = value()?;
                if s.parse::<u64>() != Ok(spec.run_seconds) {
                    return Err(format!(
                        "--seconds {s}: runs measure BENCHMARK.json's run_seconds, {}",
                        spec.run_seconds
                    ));
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !spec.workloads.contains(w) {
            return Err(format!(
                "unknown workload {w:?} (have {:?})",
                spec.workloads
            ));
        }
        if a.smoke && campaign::params(w, true).is_none() {
            return Err(format!(
                "--smoke runs the campaign workloads only, not {w:?}"
            ));
        }
    }
    Ok(a)
}

/// Builds `admitd` the way a user would, so the benchmark measures the
/// checkout's own binary.
fn build_admitd() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest = spec::repo_root().join("Cargo.toml");
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "-p",
            "gps-experiments",
            "--bin",
            "admitd",
            "--manifest-path",
        ])
        .arg(&manifest)
        .status()
        .map_err(|e| format!("cargo build admitd: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build admitd: {status}"));
    }
    Ok(admit::admitd_path())
}

fn run_workload(
    workload: &str,
    a: &Args,
    seconds: f64,
    work_dir: &std::path::Path,
) -> Result<Outcome, String> {
    if let Some(p) = campaign::params(workload, a.smoke) {
        return Ok(campaign::run(&p, a.seed, seconds, a.traced, work_dir));
    }
    if let Some(p) = admit::params(workload) {
        let bin = build_admitd()?;
        return Ok(admit::run(&p, &bin, a.seed, seconds, a.traced));
    }
    Err(format!("no runner for workload {workload:?}"))
}

/// The metrics the contract asks for in this mode, in `BENCHMARK.json`
/// order. A per-layer metric of a layer the workload does not pass
/// through reads 0; a missing end-to-end metric is a bug.
fn reported<'s>(
    spec: &'s Spec,
    out: &Outcome,
    traced: bool,
) -> Result<Vec<(&'s spec::Metric, f64)>, String> {
    if traced {
        return Ok(spec
            .per_layer
            .iter()
            .map(|m| (m, out.metrics.get(&m.name).copied().unwrap_or(0.0)))
            .collect());
    }
    spec.end_to_end
        .iter()
        .map(|m| match out.metrics.get(&m.name) {
            Some(&v) => Ok((m, v)),
            None => Err(format!("workload produced no {}", m.name)),
        })
        .collect()
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    gps_obs::json::write_escaped(s, &mut out);
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn result_line(correct: bool, out: &Outcome, metrics: &[(&spec::Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

/// Runs one workload in this process and reports it.
fn single(workload: &str, a: &Args, spec: &Spec) -> Result<bool, String> {
    let out_dir = target_dir().join("gpsbench");
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let seconds = a.seconds(spec);
    let ticks = host::cpu_ticks();
    let result = run_workload(workload, a, seconds, &work_dir);
    let steal = host::steal_frac(ticks, host::cpu_ticks());
    let stamp = host::HostStamp::collect(&work_dir);
    std::fs::remove_dir_all(&work_dir).ok();
    let out = result?;
    let metrics = reported(spec, &out, a.traced)?;
    let correct = out.failures.is_empty() && out.failed == 0;

    println!(
        "workload {workload} seed {} trace {} (host steal {:.1} % of CPU time)",
        a.seed,
        u8::from(a.traced),
        steal * 100.0
    );
    for f in &out.failures {
        println!("check FAILED: {f}");
    }
    for (m, v) in &metrics {
        println!("metric {:<28} {:>16.6} {}", m.name, v, m.unit);
    }
    let line = result_line(correct, &out, &metrics);
    let checks: Vec<String> = out.failures.iter().map(|f| json_string(f)).collect();
    let checks = checks.join(", ");
    let record = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"smoke\": {}, \"host\": {}, \"steal_frac\": {}, \"checks_failed\": [{checks}], {}\n",
        a.seed,
        u8::from(a.traced),
        json_number(seconds),
        a.smoke,
        stamp.to_json(),
        json_number(steal),
        &line[1..]
    );
    let path = a.out.clone().unwrap_or_else(|| {
        out_dir.join(format!(
            "{workload}.seed{}.trace{}.json",
            a.seed,
            u8::from(a.traced)
        ))
    });
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("record written to {}", path.display());
    println!("{line}");
    Ok(correct)
}

/// Runs every workload, each in a child process of its own.
fn all(a: &Args, spec: &Spec) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    for workload in &spec.workloads {
        if a.smoke && campaign::params(workload, true).is_none() {
            continue;
        }
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }]);
        if a.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{workload}: cannot start: {e}"))?;
        correct &= status.success();
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gpsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..], &spec)
    } else {
        match parse_args(&args, &spec) {
            Ok(a) => match &a.workload {
                Some(w) => single(w, &a, &spec),
                None => all(&a, &spec),
            },
            Err(e) => {
                eprintln!("gpsbench: {e}");
                return ExitCode::from(2);
            }
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gpsbench: {e}");
            ExitCode::from(2)
        }
    }
}
