//! The benchmark's contract, read from `BENCHMARK.json` at the repository
//! root: run length, workload names, and every metric's unit, direction
//! and regression bound. The workloads only produce numbers; names and
//! units come from this one file.

use gps_obs::json::{self, Json};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median a metric may worsen by (end-to-end only).
    pub bound: Option<f64>,
    /// Absolute change, in the metric's unit, that never counts as a
    /// regression however small the parent's median is.
    pub floor: f64,
}

/// Set-up time may grow by up to 50 ms before it counts as worse: a set-up
/// of a few hundred microseconds moves by more than its relative bound on
/// scheduler jitter alone. `BENCHMARK.json`'s schema has no field for an
/// absolute floor, so it lives here.
const SETUP_FLOOR_S: f64 = 0.05;

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package sits inside the repository")
        .to_path_buf()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let path = repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => Ok(items.clone()),
            _ => Err(format!("missing list {key:?}")),
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let name = text_of(m, "name")?;
                    Ok(Metric {
                        floor: if name == "setup_s" {
                            SETUP_FLOOR_S
                        } else {
                            0.0
                        },
                        name,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("missing run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
