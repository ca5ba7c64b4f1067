//! Run manifests: one small JSON file per experiment campaign recording
//! its provenance — seed, configuration, and what it produced — so a
//! `results/` directory is self-describing long after the terminal
//! transcript is gone.
//!
//! The manifest is deterministic by construction: configuration keys are
//! sorted, outputs are listed in the order they were declared, and the
//! only wall-clock datum lives under the single `"timing"` key, which
//! comparison tooling strips (same convention as the journal's `t_us`).

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Provenance record for one campaign run.
#[derive(Debug, Clone)]
pub struct RunManifest {
    campaign: String,
    seed: Option<u64>,
    config: BTreeMap<String, Json>,
    outputs: Vec<(String, u64)>,
    journal: Option<String>,
    trace: Option<String>,
    wall_ms: Option<f64>,
}

impl RunManifest {
    /// Starts a manifest for the campaign named `campaign` (the binary
    /// name by convention).
    pub fn new(campaign: &str) -> RunManifest {
        RunManifest {
            campaign: campaign.to_string(),
            seed: None,
            config: BTreeMap::new(),
            outputs: Vec::new(),
            journal: None,
            trace: None,
            wall_ms: None,
        }
    }

    /// Records the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Records one configuration parameter (keys are emitted sorted).
    pub fn param(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.config.insert(key.to_string(), value.into());
        self
    }

    /// Records an output artifact and its row/record count.
    pub fn output(&mut self, file: &str, rows: u64) {
        self.outputs.push((file.to_string(), rows));
    }

    /// Records the journal file this run wrote, if any.
    pub fn journal(&mut self, file: &str) {
        self.journal = Some(file.to_string());
    }

    /// Records the flight-recorder trace file this run exported, if any.
    /// The key is omitted entirely when tracing was off, so untraced
    /// manifests are byte-identical to those from before tracing existed.
    pub fn trace(&mut self, file: &str) {
        self.trace = Some(file.to_string());
    }

    /// Records elapsed wall-clock milliseconds (the one timing field).
    pub fn wall_ms(&mut self, ms: f64) {
        self.wall_ms = Some(ms);
    }

    /// Renders the manifest as JSON.
    pub fn to_json(&self) -> String {
        let mut root: Vec<(String, Json)> = vec![
            ("campaign".into(), Json::Str(self.campaign.clone())),
            (
                "seed".into(),
                match self.seed {
                    Some(s) => Json::U64(s),
                    None => Json::Null,
                },
            ),
            (
                "config".into(),
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
            (
                "outputs".into(),
                Json::Arr(
                    self.outputs
                        .iter()
                        .map(|(file, rows)| {
                            Json::Obj(vec![
                                ("file".into(), Json::Str(file.clone())),
                                ("rows".into(), Json::U64(*rows)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "journal".into(),
                match &self.journal {
                    Some(f) => Json::Str(f.clone()),
                    None => Json::Null,
                },
            ),
        ];
        if let Some(f) = &self.trace {
            root.push(("trace".into(), Json::Str(f.clone())));
        }
        if let Some(ms) = self.wall_ms {
            root.push((
                "timing".into(),
                Json::Obj(vec![("wall_ms".into(), Json::F64(ms))]),
            ));
        }
        let mut text = Json::Obj(root).to_compact();
        text.push('\n');
        text
    }

    /// Writes `<dir>/<campaign>_manifest.json` and returns the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}_manifest.json", self.campaign));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("validate_single")
            .seed(20260704)
            .param("measure", 4_000_000u64)
            .param("warmup", 50_000u64)
            .param("capacity", 1.0)
            .param("set", "Set1");
        m.output("validate_single.csv", 560);
        m.journal("validate_single_journal.ndjson");
        m
    }

    #[test]
    fn manifest_parses_and_carries_provenance() {
        let m = sample();
        let v = json::parse(&m.to_json()).unwrap();
        assert_eq!(v.get("campaign").unwrap().as_str(), Some("validate_single"));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(20260704));
        let cfg = v.get("config").unwrap();
        assert_eq!(cfg.get("measure").unwrap().as_u64(), Some(4_000_000));
        assert_eq!(cfg.get("capacity").unwrap().as_f64(), Some(1.0));
        assert_eq!(cfg.get("set").unwrap().as_str(), Some("Set1"));
        match v.get("outputs").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].get("rows").unwrap().as_u64(), Some(560));
            }
            other => panic!("outputs not an array: {other:?}"),
        }
    }

    #[test]
    fn deterministic_without_timing() {
        assert_eq!(sample().to_json(), sample().to_json());
        let mut a = sample();
        a.wall_ms(12.5);
        let mut b = sample();
        b.wall_ms(99.0);
        // Identical except under the "timing" key.
        let strip = |m: &RunManifest| {
            let text = m.to_json();
            text[..text.find(",\"timing\"").unwrap()].to_string()
        };
        assert_eq!(strip(&a), strip(&b));
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn trace_key_present_only_when_traced() {
        assert!(!sample().to_json().contains("\"trace\""));
        let mut t = sample();
        t.trace("validate_single_trace.json");
        let v = json::parse(&t.to_json()).unwrap();
        assert_eq!(
            v.get("trace").unwrap().as_str(),
            Some("validate_single_trace.json")
        );
    }

    #[test]
    fn config_keys_sorted() {
        let m = RunManifest::new("c")
            .param("zeta", 1u64)
            .param("alpha", 2u64);
        let text = m.to_json();
        assert!(text.find("alpha").unwrap() < text.find("zeta").unwrap());
    }

    #[test]
    fn writes_named_file() {
        let dir = std::env::temp_dir().join(format!("gps_obs_manifest_{}", std::process::id()));
        let path = sample().write_to(&dir).unwrap();
        assert!(path.ends_with("validate_single_manifest.json"));
        assert!(json::parse(&std::fs::read_to_string(&path).unwrap()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
