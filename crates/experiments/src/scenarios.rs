//! Named campaign scenarios shared by the distributed-orchestration
//! binaries (`campaignd`, `campaign-worker`) and the tests that drive
//! them in-process.
//!
//! A distributed campaign ships only a scenario *name* over the wire;
//! coordinator and workers each resolve the name locally with
//! [`resolve`] and must arrive at the identical
//! [`SingleNodeRunConfig`] — the lease carries the config fingerprint
//! and base seed, and `gps_sim::orchestrate` refuses to run a shard
//! whose locally resolved scenario hashes differently. The
//! `GPS_CAMPAIGN_WARMUP` / `GPS_CAMPAIGN_MEASURE` knobs scale every
//! scenario (they are part of the fingerprint, so mismatched settings
//! between processes fail loudly instead of corrupting a merge).
//!
//! Two scenarios ship:
//!
//! * **`paper`** — the paper's Section-6.3 Set-1 single-node scenario:
//!   four Table-1 on-off sources under RPPS weights, each with its
//!   Theorem-10 backlog/delay certificate.
//! * **`overload`** — the admission-controlled overload drill: the four
//!   legitimate Table-1 sessions (weights φᵢ strictly above their Set-1
//!   envelope rates ρᵢ) share the server with a fifth *attack* session —
//!   a high-rate bursty on-off flow behind a shedding `(σ, ρ)`
//!   token-bucket policer ([`TokenShedSource`]). The policer caps the
//!   attack's admitted long-run rate below its GPS share, so the legit
//!   sessions' Theorem-10 certificates keep holding no matter how hard
//!   the attacker pushes; [`CampaignScenario::attack`] records what the
//!   policer analytically sheds.

use crate::paper::{characterize, table1_sources, ParamSet};
use gps_analysis::partition_bounds::theorem10;
use gps_ebb::{TailBound, TimeModel};
use gps_sim::orchestrate::WorkerScenario;
use gps_sim::runner::{SingleNodeRunConfig, SingleNodeRunReport};
use gps_sources::{OnOffSource, SlotSource, TokenShedSource};
use std::sync::Arc;

/// Theorem-10 certificate for one protected session.
#[derive(Debug, Clone, Copy)]
pub struct SessionBounds {
    /// Backlog tail bound `P{Q > x}`.
    pub backlog: TailBound,
    /// Clearing-delay tail bound `P{D > x}`.
    pub delay: TailBound,
}

/// The attack leg of the `overload` scenario, as data: which session is
/// hostile and what its policer admits.
#[derive(Debug, Clone, Copy)]
pub struct AttackSpec {
    /// Index of the attack session in the config's `phis`.
    pub session: usize,
    /// Analytic mean rate the attacker *offers*.
    pub offered_mean: f64,
    /// Token rate `ρ` of the shedding policer (admitted ceiling).
    pub token_rate: f64,
    /// Burst allowance `σ` of the policer.
    pub sigma: f64,
}

impl AttackSpec {
    /// Fraction of offered attack traffic the policer sheds in the long
    /// run, `1 - min(offered, ρ)/offered`.
    pub fn analytic_shed_fraction(&self) -> f64 {
        1.0 - self.offered_mean.min(self.token_rate) / self.offered_mean
    }
}

/// A resolved scenario: the campaign config, the per-replication source
/// factory, and the analytic sidecars the reporting layer uses.
pub struct CampaignScenario {
    /// Scenario name (the wire identifier).
    pub name: &'static str,
    /// The campaign config; `cfg.fingerprint()` (`gps_sim::campaign::Replication`) is what the
    /// coordinator's leases advertise.
    pub cfg: SingleNodeRunConfig,
    /// Builds the (fresh) sources for one replication.
    pub make_sources: Arc<dyn Fn(u64) -> Vec<Box<dyn SlotSource>> + Send + Sync>,
    /// Theorem-10 certificates per session (`None` for the attack
    /// session, which holds no QoS contract).
    pub bounds: Vec<Option<SessionBounds>>,
    /// The attack leg, when the scenario has one.
    pub attack: Option<AttackSpec>,
}

impl std::fmt::Debug for CampaignScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignScenario")
            .field("name", &self.name)
            .field("cfg", &self.cfg)
            .field("bounds", &self.bounds)
            .field("attack", &self.attack)
            .finish_non_exhaustive()
    }
}

impl CampaignScenario {
    /// The worker-side view `gps_sim::orchestrate::run_worker` needs.
    pub fn worker_scenario(&self) -> WorkerScenario {
        WorkerScenario {
            cfg: self.cfg.clone(),
            make_sources: Arc::clone(&self.make_sources),
        }
    }

    /// GPS guaranteed rate of session `i` (`φᵢ/Σφ · C`).
    pub fn guaranteed_rate(&self, i: usize) -> f64 {
        let total: f64 = self.cfg.phis.iter().sum();
        self.cfg.phis[i] / total * self.cfg.capacity
    }

    /// Measured attack shed fraction, derived deterministically from a
    /// merged report: `1 - throughput/offered_mean` for the attack
    /// session (`None` when the scenario has no attack leg).
    pub fn measured_shed_fraction(&self, report: &SingleNodeRunReport) -> Option<f64> {
        let attack = self.attack?;
        let served = report.sessions.get(attack.session)?.throughput;
        Some(1.0 - served / attack.offered_mean)
    }
}

/// Written campaign artifacts: the CSV path, its row count, and the
/// metrics-JSON path.
#[derive(Debug, Clone)]
pub struct CampaignArtifacts {
    /// `results/<prefix>.csv`.
    pub csv: std::path::PathBuf,
    /// Data rows written to the CSV.
    pub rows: u64,
    /// `results/<prefix>_metrics.json`.
    pub metrics: std::path::PathBuf,
}

/// Writes the deterministic result artifacts for a merged campaign
/// report: `results/<prefix>.csv` (per-session backlog/delay CCDFs
/// against the Theorem-10 certificates, plus per-session throughput
/// summary rows) and `results/<prefix>_metrics.json` (the report folded
/// into a *fresh* registry, serialized without spans).
///
/// Both files are pure functions of `(scenario, report)` — every path
/// that produces the same merged report (serial, parallel, resumed,
/// distributed across any worker count, through kills and coordinator
/// restarts) writes byte-identical artifacts, which is exactly what
/// `scripts/verify.sh` compares with `cmp`.
pub fn write_campaign_artifacts(
    scenario: &CampaignScenario,
    report: &SingleNodeRunReport,
    prefix: &str,
) -> std::io::Result<CampaignArtifacts> {
    let mut csv =
        crate::csv::CsvWriter::create(prefix, &["session", "kind", "x", "empirical", "bound"])?;
    for (i, session) in report.sessions.iter().enumerate() {
        let bounds = scenario.bounds.get(i).copied().flatten();
        for (x, p) in session.backlog.series() {
            let b = bounds.map_or(f64::NAN, |c| c.backlog.tail(x));
            csv.row(&[(i + 1) as f64, 0.0, x, p, b])?;
        }
        for (x, p) in session.delay.series() {
            let b = bounds.map_or(f64::NAN, |c| c.delay.tail(x));
            csv.row(&[(i + 1) as f64, 1.0, x, p, b])?;
        }
        csv.row(&[
            (i + 1) as f64,
            2.0,
            0.0,
            session.throughput,
            scenario.guaranteed_rate(i),
        ])?;
    }
    let rows = csv.rows();
    let csv_path = csv.finish()?;
    // The metrics artifact folds the merged report into a registry of
    // its own: nothing wall-clock-shaped or process-local can leak in.
    let registry = gps_obs::metrics::Registry::new();
    gps_sim::runner::record_single_node_metrics(&registry, report);
    let metrics_path = crate::results_dir().join(format!("{prefix}_metrics.json"));
    std::fs::write(&metrics_path, registry.snapshot().to_json_without_spans())?;
    Ok(CampaignArtifacts {
        csv: csv_path,
        rows,
        metrics: metrics_path,
    })
}

/// The shipped scenario names, in documentation order.
pub fn names() -> &'static [&'static str] {
    &["paper", "overload"]
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn grids() -> (Vec<f64>, Vec<f64>) {
    let backlog = (0..60).map(|i| i as f64 * 0.5).collect();
    let delay = (0..60).map(|i| i as f64).collect();
    (backlog, delay)
}

fn boxed(sources: impl IntoIterator<Item = impl SlotSource + 'static>) -> Vec<Box<dyn SlotSource>> {
    sources
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn SlotSource>)
        .collect()
}

/// Resolves a scenario name. Both halves of a distributed campaign call
/// this; the orchestration layer's fingerprint check guarantees they
/// resolved identically.
pub fn resolve(name: &str) -> Option<CampaignScenario> {
    let warmup = env_u64("GPS_CAMPAIGN_WARMUP", 2_000);
    let measure = env_u64("GPS_CAMPAIGN_MEASURE", 20_000);
    let (backlog_grid, delay_grid) = grids();
    match name {
        "paper" => {
            let set = ParamSet::Set1;
            let rhos = set.rhos();
            let cfg = SingleNodeRunConfig {
                phis: rhos.to_vec(),
                capacity: 1.0,
                warmup,
                measure,
                seed: 20260807,
                backlog_grid,
                delay_grid,
            };
            let sessions = characterize(set);
            let total: f64 = cfg.phis.iter().sum();
            let bounds = (0..4)
                .map(|i| {
                    let g = cfg.phis[i] / total * cfg.capacity;
                    let (backlog, delay) = theorem10(sessions[i], g, TimeModel::Discrete);
                    Some(SessionBounds { backlog, delay })
                })
                .collect();
            Some(CampaignScenario {
                name: "paper",
                cfg,
                make_sources: Arc::new(|_r| boxed(table1_sources())),
                bounds,
                attack: None,
            })
        }
        "overload" => {
            // Legit weights sit strictly above the Set-1 envelope rates
            // (φᵢ > ρᵢ), the attack session gets the leftover 0.06.
            let legit_phis = [0.21, 0.26, 0.21, 0.26];
            let attack = AttackSpec {
                session: 4,
                // On-off (p=0.05, q=0.25, λ=3.0): mean 0.5, peak 3.0,
                // heavily bursty — an order of magnitude over its share.
                offered_mean: 0.5,
                token_rate: 0.05,
                sigma: 4.0,
            };
            let cfg = SingleNodeRunConfig {
                phis: legit_phis
                    .iter()
                    .copied()
                    .chain(std::iter::once(0.06))
                    .collect(),
                capacity: 1.0,
                warmup,
                measure,
                seed: 20260808,
                backlog_grid,
                delay_grid,
            };
            let sessions = characterize(ParamSet::Set1);
            let total: f64 = cfg.phis.iter().sum();
            let mut bounds: Vec<Option<SessionBounds>> = (0..4)
                .map(|i| {
                    let g = cfg.phis[i] / total * cfg.capacity;
                    let (backlog, delay) = theorem10(sessions[i], g, TimeModel::Discrete);
                    Some(SessionBounds { backlog, delay })
                })
                .collect();
            bounds.push(None);
            Some(CampaignScenario {
                name: "overload",
                cfg,
                make_sources: Arc::new(move |_r| {
                    let mut sources = boxed(table1_sources());
                    sources.push(Box::new(TokenShedSource::new(
                        OnOffSource::new(0.05, 0.25, 3.0),
                        attack.sigma,
                        attack.token_rate,
                    )));
                    sources
                }),
                bounds,
                attack: Some(attack),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_sim::campaign::Replication;

    #[test]
    fn both_scenarios_resolve_and_unknown_does_not() {
        for name in names() {
            let s = resolve(name).expect("shipped scenario resolves");
            assert_eq!(&s.name, name);
            assert_eq!(s.bounds.len(), s.cfg.phis.len());
            // Resolution is deterministic: same name, same fingerprint.
            let again = resolve(name).unwrap();
            assert_eq!(s.cfg.fingerprint(), again.cfg.fingerprint());
        }
        assert!(resolve("no-such-scenario").is_none());
    }

    #[test]
    fn overload_keeps_legit_sessions_guaranteed() {
        let s = resolve("overload").unwrap();
        let attack = s.attack.unwrap();
        let rhos = ParamSet::Set1.rhos();
        for (i, rho) in rhos.iter().enumerate().take(4) {
            assert!(
                s.guaranteed_rate(i) > *rho,
                "legit session {i} must be guaranteed above its envelope rate"
            );
            assert!(
                s.bounds[i].is_some(),
                "legit session {i} carries a certificate"
            );
        }
        assert!(s.bounds[attack.session].is_none());
        // The policer admits less than the attack session's GPS share,
        // and far less than is offered.
        assert!(attack.token_rate < s.guaranteed_rate(attack.session));
        assert!(attack.analytic_shed_fraction() > 0.8);
        // Admitted total load keeps the server stable.
        let load: f64 = resolve("overload").unwrap().make_sources.as_ref()(0)
            .iter()
            .map(|src| src.mean_rate())
            .sum();
        assert!(load < 1.0, "admitted load {load} must be < capacity");
    }

    #[test]
    fn sources_match_config_shape() {
        for name in names() {
            let s = resolve(name).unwrap();
            let sources = (s.make_sources)(0);
            assert_eq!(sources.len(), s.cfg.phis.len(), "{name}");
        }
    }
}
