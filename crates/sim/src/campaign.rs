//! The campaign funnel: one [`Campaign`] spec, run through one generic
//! [`Campaign::run`], for every Monte Carlo campaign in the workspace.
//!
//! A campaign runs replications `range` of a base config on a
//! [`gps_par::Pool`]; replication `r` uses master seed `base.seed + r`
//! and fresh sources from `make_sources(r)`, so every replication is a
//! pure function of its index. The spec's settable values are:
//!
//! * `pool` — worker count and chunk size (scheduling only: reports are
//!   byte-identical for every `(threads, chunk)`);
//! * `range` — the replications to run (a sub-range is a shard of a
//!   distributed campaign, see [`crate::orchestrate`]);
//! * `monitor` — an optional [`BoundMonitor`] checked against the pooled
//!   tails after every fold;
//! * `supervisor` — an optional [`Supervisor`]: panic retry and
//!   quarantine, typed failures, the crash-safe checkpoint (path and
//!   resume flag), panic injection, and the `on_complete` hook;
//! * `fold` — [`Fold::Vec`] (one report per replication) or
//!   [`Fold::Merged`] (one pooled report in `O(workers)` memory).
//!
//! The funnel is generic over [`Replication`], implemented by
//! [`SingleNodeRunConfig`] and [`NetworkRunConfig`]: the trait supplies
//! the per-kind pieces (simulator, scratch, merge, metrics record,
//! monitor fold, fingerprint, checkpoint codec, validation) and the
//! funnel supplies everything else once.
//!
//! # Guarantees
//!
//! * Every worker reuses one simulator scratch across the replications
//!   it drains ([`gps_par::Pool::map_with`]), supervised or not. After a
//!   caught panic the pool rebuilds that worker's scratch before the
//!   retry, so a retried replication starts from the same fresh state as
//!   a first attempt and is byte-identical to a run that never panicked.
//! * Without a supervisor a replication panic propagates to the caller,
//!   after the other workers finish.
//! * Metrics and monitor folds run after the join, in replication order,
//!   over the completed reports — worker count, chunk size, and resume
//!   state never change the metrics snapshot.
//! * Checkpoint restores are decided inside the worker closure, so
//!   restored replications still pass through the pool and its
//!   accounting (`par.tasks_executed`) is identical to a fresh run.
//! * The live `/progress` tracker names the campaign after its kind:
//!   `single_node` / `network`, prefixed `supervised_` under a supervisor
//!   and suffixed `_merged` under [`Fold::Merged`].

use crate::runner::{
    monitor_network_fold, monitor_single_node_fold, record_network_metrics,
    record_single_node_metrics, run_network_core_scratch, run_single_node_core_scratch,
    NetworkRunConfig, NetworkRunReport, NetworkScratch, SessionReport, SingleNodePool,
    SingleNodeRunConfig, SingleNodeRunReport, SingleNodeScratch,
};
use crate::supervise::{
    ccdf_from_json, ccdf_to_json, fnv1a, moments_from_json, moments_to_json, num_from_json,
    num_to_json, push_f64s, CheckpointFile, SimError, Supervisor,
};
use gps_obs::json::Json;
use gps_obs::metrics::{labeled, Registry};
use gps_obs::monitor::BoundMonitor;
use gps_par::{CacheAligned, Pool, TaskOutcome, TaskReport};
use gps_sources::SlotSource;
use gps_stats::BinnedCcdf;
use std::collections::HashMap;
use std::ops::Range;

/// One kind of campaign replication: a base config that runs one
/// replication per seed, plus everything the funnel needs to fold,
/// checkpoint, and check the reports.
pub trait Replication: Clone + Sync {
    /// One replication's measurements.
    type Report: Clone + Send + Sync;
    /// Per-worker simulator state reused across replications.
    type Scratch: Default;
    /// A running pool of reports (see [`Replication::pool`]).
    type Pooled: Send;
    /// Checkpoint `kind` tag and campaign name (`single_node`,
    /// `network`).
    const KIND: &'static str;

    /// The master seed of replication 0.
    fn seed(&self) -> u64;
    /// This config with master seed `seed`.
    fn with_seed(&self, seed: u64) -> Self;
    /// Runs one replication over caller-owned scratch; the report is a
    /// pure function of `(sources, self)` whatever the scratch held.
    fn run_core_scratch(
        &self,
        scratch: &mut Self::Scratch,
        sources: &mut [Box<dyn SlotSource>],
    ) -> Self::Report;
    /// Starts a running pool from its first report.
    fn pool(first: Self::Report) -> Self::Pooled;
    /// Pools one more report.
    fn pool_push(pooled: &mut Self::Pooled, report: &Self::Report);
    /// The pooled report.
    fn pool_finish(pooled: Self::Pooled) -> Self::Report;
    /// Pools `reports` in order — bit-identical to the kind's
    /// `merge_*_reports` over them. Panics when there are none.
    fn merge(reports: impl IntoIterator<Item = Self::Report>) -> Self::Report {
        let mut reports = reports.into_iter();
        let mut pooled = Self::pool(reports.next().expect("at least one report"));
        for r in reports {
            Self::pool_push(&mut pooled, &r);
        }
        Self::pool_finish(pooled)
    }
    /// Folds one report into `registry` (`record_*_metrics`).
    fn record_metrics(registry: &Registry, report: &Self::Report);
    /// Checks a pooled report against `monitor` (`monitor_*_fold`);
    /// returns the number of violating grid points.
    fn monitor_fold(
        monitor: &BoundMonitor,
        registry: &Registry,
        pooled: &Self::Report,
        fold: u64,
    ) -> u64;
    /// Checkpoint fingerprint (FNV-1a) of everything but the seed: the
    /// seed is stored separately on every checkpoint line, so one file
    /// can in principle hold several campaigns of the same shape.
    fn fingerprint(&self) -> u64;
    /// Checkpoint payload of one report. Grids are omitted — the
    /// fingerprint pins them.
    fn report_to_json(report: &Self::Report) -> Json;
    /// Inverse of [`Replication::report_to_json`], taking the grids from
    /// this config; `None` on any structural mismatch.
    fn report_from_json(&self, payload: &Json) -> Option<Self::Report>;
    /// Rejects a report a supervised campaign must not fold (for example
    /// one carrying non-finite statistics); accepts everything by default.
    fn validate(_replication: u64, _report: &Self::Report) -> Result<(), SimError> {
        Ok(())
    }
}

impl Replication for SingleNodeRunConfig {
    type Report = SingleNodeRunReport;
    type Scratch = SingleNodeScratch;
    type Pooled = SingleNodePool;
    const KIND: &'static str = "single_node";

    fn seed(&self) -> u64 {
        self.seed
    }
    fn with_seed(&self, seed: u64) -> Self {
        Self {
            seed,
            ..self.clone()
        }
    }
    fn run_core_scratch(
        &self,
        scratch: &mut SingleNodeScratch,
        sources: &mut [Box<dyn SlotSource>],
    ) -> SingleNodeRunReport {
        run_single_node_core_scratch(scratch, sources, self)
    }
    fn pool(first: SingleNodeRunReport) -> SingleNodePool {
        SingleNodePool::new(first)
    }
    fn pool_push(pooled: &mut SingleNodePool, report: &SingleNodeRunReport) {
        pooled.push(report);
    }
    fn pool_finish(pooled: SingleNodePool) -> SingleNodeRunReport {
        pooled.finish()
    }
    fn record_metrics(registry: &Registry, report: &SingleNodeRunReport) {
        record_single_node_metrics(registry, report);
    }
    fn monitor_fold(
        monitor: &BoundMonitor,
        registry: &Registry,
        pooled: &SingleNodeRunReport,
        fold: u64,
    ) -> u64 {
        monitor_single_node_fold(monitor, registry, pooled, fold)
    }
    fn fingerprint(&self) -> u64 {
        let mut s = String::from("single_node;");
        push_f64s(&mut s, "phis", &self.phis);
        push_f64s(&mut s, "capacity", &[self.capacity]);
        s.push_str(&format!("warmup:{};measure:{};", self.warmup, self.measure));
        push_f64s(&mut s, "backlog_grid", &self.backlog_grid);
        push_f64s(&mut s, "delay_grid", &self.delay_grid);
        fnv1a(&s)
    }
    fn report_to_json(report: &SingleNodeRunReport) -> Json {
        let session = |s: &SessionReport| {
            Json::Obj(vec![
                ("backlog".to_string(), ccdf_to_json(&s.backlog)),
                ("delay".to_string(), ccdf_to_json(&s.delay)),
                ("moments".to_string(), moments_to_json(&s.backlog_moments)),
                ("throughput".to_string(), num_to_json(s.throughput)),
            ])
        };
        Json::Obj(vec![
            (
                "measured_slots".to_string(),
                Json::U64(report.measured_slots),
            ),
            (
                "sessions".to_string(),
                Json::Arr(report.sessions.iter().map(session).collect()),
            ),
        ])
    }
    fn report_from_json(&self, payload: &Json) -> Option<SingleNodeRunReport> {
        let measured_slots = payload.get("measured_slots")?.as_u64()?;
        let Json::Arr(items) = payload.get("sessions")? else {
            return None;
        };
        if items.len() != self.phis.len() {
            return None;
        }
        let sessions: Option<Vec<SessionReport>> = items
            .iter()
            .map(|s| {
                Some(SessionReport {
                    backlog: ccdf_from_json(&self.backlog_grid, s.get("backlog")?)?,
                    delay: ccdf_from_json(&self.delay_grid, s.get("delay")?)?,
                    backlog_moments: moments_from_json(s.get("moments")?)?,
                    throughput: num_from_json(s.get("throughput")?)?,
                })
            })
            .collect();
        Some(SingleNodeRunReport {
            sessions: sessions?,
            measured_slots,
        })
    }
    fn validate(replication: u64, report: &SingleNodeRunReport) -> Result<(), SimError> {
        for s in &report.sessions {
            let m = &s.backlog_moments;
            let what = if !s.throughput.is_finite() {
                "throughput"
            } else if !m.mean().is_finite() || !m.m2().is_finite() {
                "backlog_moments"
            } else {
                continue;
            };
            return Err(SimError::NonFinite { replication, what });
        }
        Ok(())
    }
}

impl Replication for NetworkRunConfig {
    type Report = NetworkRunReport;
    type Scratch = NetworkScratch;
    type Pooled = NetworkRunReport;
    const KIND: &'static str = "network";

    fn seed(&self) -> u64 {
        self.seed
    }
    fn with_seed(&self, seed: u64) -> Self {
        Self {
            seed,
            ..self.clone()
        }
    }
    fn run_core_scratch(
        &self,
        scratch: &mut NetworkScratch,
        sources: &mut [Box<dyn SlotSource>],
    ) -> NetworkRunReport {
        run_network_core_scratch(scratch, sources, self)
    }
    fn pool(first: NetworkRunReport) -> NetworkRunReport {
        first
    }
    fn pool_push(pooled: &mut NetworkRunReport, report: &NetworkRunReport) {
        pooled.merge_from(report);
    }
    fn pool_finish(pooled: NetworkRunReport) -> NetworkRunReport {
        pooled
    }
    fn record_metrics(registry: &Registry, report: &NetworkRunReport) {
        record_network_metrics(registry, report);
    }
    fn monitor_fold(
        monitor: &BoundMonitor,
        registry: &Registry,
        pooled: &NetworkRunReport,
        fold: u64,
    ) -> u64 {
        monitor_network_fold(monitor, registry, pooled, fold)
    }
    fn fingerprint(&self) -> u64 {
        let mut s = String::from("network;");
        let topo = &self.topology;
        let rates: Vec<f64> = (0..topo.num_nodes()).map(|m| topo.node_rate(m)).collect();
        push_f64s(&mut s, "node_rates", &rates);
        for (i, sess) in topo.sessions().iter().enumerate() {
            s.push_str(&format!("session{i}:"));
            for &n in &sess.route {
                s.push_str(&format!("{n},"));
            }
            s.push('|');
            for p in &sess.phis {
                s.push_str(&format!("{:016x},", p.to_bits()));
            }
            s.push(';');
        }
        s.push_str(&format!("warmup:{};measure:{};", self.warmup, self.measure));
        push_f64s(&mut s, "backlog_grid", &self.backlog_grid);
        push_f64s(&mut s, "delay_grid", &self.delay_grid);
        fnv1a(&s)
    }
    fn report_to_json(report: &NetworkRunReport) -> Json {
        let arr = |ccdfs: &[BinnedCcdf]| Json::Arr(ccdfs.iter().map(ccdf_to_json).collect());
        Json::Obj(vec![
            (
                "measured_slots".to_string(),
                Json::U64(report.measured_slots),
            ),
            ("backlog".to_string(), arr(&report.backlog)),
            ("delay".to_string(), arr(&report.delay)),
        ])
    }
    fn report_from_json(&self, payload: &Json) -> Option<NetworkRunReport> {
        let measured_slots = payload.get("measured_slots")?.as_u64()?;
        let n = self.topology.num_sessions();
        let decode = |key: &str, grid: &[f64]| -> Option<Vec<BinnedCcdf>> {
            let Json::Arr(items) = payload.get(key)? else {
                return None;
            };
            if items.len() != n {
                return None;
            }
            items.iter().map(|c| ccdf_from_json(grid, c)).collect()
        };
        Some(NetworkRunReport {
            backlog: decode("backlog", &self.backlog_grid)?,
            delay: decode("delay", &self.delay_grid)?,
            measured_slots,
        })
    }
}

/// How a campaign folds its replication reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// One report per replication, in replication order
    /// ([`CampaignOutcome::tasks`]); `O(R)` memory.
    Vec,
    /// One pooled report ([`CampaignOutcome::merged`]) in `O(workers)`
    /// memory: the range is cut into chunks of `pool.chunk` replications
    /// (default [`Pool::chunk_for`]), each worker pools its chunks in
    /// place, and the per-chunk partials pool in chunk order after the
    /// join. At a fixed explicit chunk the result is byte-identical for
    /// every worker count; the pooled CCDF tails are exact counts and
    /// never differ from merging the [`Fold::Vec`] reports. The metrics
    /// fold records the pooled report once.
    Merged,
}

/// What a campaign runs: see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Campaign<'a> {
    /// Worker count and chunk size.
    pub pool: Pool,
    /// Replications to run; replication `r` uses master seed
    /// `base.seed + r` wherever the range starts.
    pub range: Range<u64>,
    /// Online bound monitor, checked after every fold.
    pub monitor: Option<&'a BoundMonitor>,
    /// Retry, quarantine, checkpoint/resume, injection, and streaming.
    pub supervisor: Option<&'a Supervisor>,
    /// Per-replication reports or one pooled report.
    pub fold: Fold,
}

/// Result of a campaign.
#[derive(Debug)]
pub struct CampaignOutcome<R> {
    /// [`Fold::Vec`]: per-replication outcome and attempt count, in
    /// replication order (every outcome is `Ok` without a supervisor).
    /// Empty under [`Fold::Merged`].
    pub tasks: Vec<TaskReport<R, SimError>>,
    /// [`Fold::Merged`]: the pooled report.
    pub merged: Option<R>,
    /// Replications restored from the checkpoint instead of recomputed.
    pub restored: u64,
    /// Replication indices quarantined after exhausting retries.
    pub quarantined: Vec<u64>,
}

impl<R: Clone> CampaignOutcome<R> {
    /// The completed reports, in replication order (quarantined and
    /// failed slots omitted).
    pub fn completed(&self) -> Vec<R> {
        self.tasks
            .iter()
            .filter_map(|t| t.outcome.as_ok().cloned())
            .collect()
    }
}

impl<R> CampaignOutcome<R> {
    /// [`completed`](Self::completed) without the copies.
    pub fn into_reports(self) -> Vec<R> {
        self.tasks
            .into_iter()
            .filter_map(|t| t.outcome.ok())
            .collect()
    }
}

impl<'a> Campaign<'a> {
    /// Replications `0..replications` on `pool`, one report each, no
    /// monitor, no supervisor.
    pub fn new(pool: Pool, replications: u64) -> Self {
        Campaign {
            pool,
            range: 0..replications,
            monitor: None,
            supervisor: None,
            fold: Fold::Vec,
        }
    }

    /// Sets the online bound monitor.
    pub fn monitor(mut self, monitor: &'a BoundMonitor) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Sets the supervisor.
    pub fn supervisor(mut self, supervisor: &'a Supervisor) -> Self {
        self.supervisor = Some(supervisor);
        self
    }

    /// Switches to the memory-bounded [`Fold::Merged`].
    pub fn merged(mut self) -> Self {
        self.fold = Fold::Merged;
        self
    }

    /// Runs the campaign. Errors only under a supervisor whose checkpoint
    /// cannot be opened; per-replication failures land in
    /// [`CampaignOutcome::tasks`].
    ///
    /// # Panics
    ///
    /// Without a supervisor, re-raises the first replication panic. A
    /// [`Fold::Merged`] campaign panics on an empty range or when given a
    /// monitor or supervisor: both need per-replication reports after
    /// the join, which the merged fold never materializes.
    pub fn run<C, F>(
        &self,
        base: &C,
        make_sources: F,
    ) -> Result<CampaignOutcome<C::Report>, SimError>
    where
        C: Replication,
        F: Fn(u64) -> Vec<Box<dyn SlotSource>> + Sync,
    {
        let kind = C::KIND;
        let (campaign, span) = match (self.supervisor, self.fold) {
            (None, Fold::Vec) => (kind.to_string(), format!("sim/{kind}_campaign")),
            (Some(_), _) => (
                format!("supervised_{kind}"),
                format!("sim/supervised_{kind}_campaign"),
            ),
            (None, Fold::Merged) => (
                format!("{kind}_merged"),
                format!("sim/{kind}_campaign_merged"),
            ),
        };
        let count = self.range.end.saturating_sub(self.range.start);
        gps_obs::info(
            "sim.campaign",
            "campaign_start",
            &[
                ("campaign", campaign.as_str().into()),
                ("replications", count.into()),
                ("threads", (self.pool.threads as u64).into()),
                ("base_seed", base.seed().into()),
            ],
        );
        let _span = gps_obs::span(&span);
        gps_obs::global_progress().begin_campaign(&campaign, count);
        let outcome = match self.fold {
            Fold::Vec => self.run_vec(base, &make_sources)?,
            Fold::Merged => self.run_merged(base, &make_sources),
        };
        if gps_obs::global().timing_enabled() {
            gps_obs::global_progress().publish_gauges(gps_obs::metrics());
        }
        Ok(outcome)
    }

    fn run_vec<C, F>(
        &self,
        base: &C,
        make_sources: &F,
    ) -> Result<CampaignOutcome<C::Report>, SimError>
    where
        C: Replication,
        F: Fn(u64) -> Vec<Box<dyn SlotSource>> + Sync,
    {
        let reps: Vec<u64> = self.range.clone().collect();
        let mut outcome = match self.supervisor {
            None => CampaignOutcome {
                tasks: self
                    .pool
                    .map_with(&reps, C::Scratch::default, |scratch, _, &r| {
                        let report = simulate(base, scratch, r, make_sources);
                        gps_obs::global_progress().add_done(1);
                        TaskReport {
                            outcome: TaskOutcome::Ok(report),
                            attempts: 1,
                        }
                    }),
                merged: None,
                restored: 0,
                quarantined: Vec::new(),
            },
            Some(sup) => self.run_supervised(sup, base, &reps, make_sources)?,
        };
        outcome.quarantined =
            account_outcomes(C::KIND, &outcome.tasks, outcome.restored, self.range.start);
        let completed = || outcome.tasks.iter().filter_map(|t| t.outcome.as_ok());
        for report in completed() {
            C::record_metrics(gps_obs::metrics(), report);
        }
        if let Some(mon) = self.monitor {
            let mut pooled: Option<C::Report> = None;
            for (fold, report) in completed().enumerate() {
                let fold = fold as u64;
                let _t =
                    gps_obs::trace::scope(gps_obs::TraceKind::MonitorFold, "monitor_fold", fold);
                let next = pooled
                    .take()
                    .map_or_else(|| report.clone(), |prev| C::merge([prev, report.clone()]));
                C::monitor_fold(mon, gps_obs::metrics(), &next, fold);
                pooled = Some(next);
            }
        }
        Ok(outcome)
    }

    /// The supervised map over `reps`: restores what `sup`'s checkpoint
    /// holds, retries and quarantines panics under its policy, and
    /// appends and streams every freshly computed replication.
    fn run_supervised<C, F>(
        &self,
        sup: &Supervisor,
        base: &C,
        reps: &[u64],
        make_sources: &F,
    ) -> Result<CampaignOutcome<C::Report>, SimError>
    where
        C: Replication,
        F: Fn(u64) -> Vec<Box<dyn SlotSource>> + Sync,
    {
        let mut ckpt = None;
        let mut restored: HashMap<u64, C::Report> = HashMap::new();
        if let Some(path) = &sup.checkpoint {
            let (file, payloads) =
                CheckpointFile::open(path, C::KIND, base.fingerprint(), base.seed(), sup.resume)?;
            // Only in-range payloads that decode against this config
            // restore; anything else is recomputed.
            restored = payloads
                .into_iter()
                .filter(|(r, _)| self.range.contains(r))
                .filter_map(|(r, payload)| Some((r, base.report_from_json(&payload)?)))
                .collect();
            ckpt = Some(file);
        }
        let tasks = self.pool.try_map(
            reps,
            sup.retry,
            C::Scratch::default,
            |scratch, _, attempt, &r| {
                if let Some(report) = restored.get(&r) {
                    gps_obs::trace::instant(
                        gps_obs::TraceKind::CheckpointRestore,
                        "checkpoint_restore",
                        r,
                    );
                    gps_obs::global_progress().add_restored(1);
                    return Ok(report.clone());
                }
                if attempt > 0 {
                    gps_obs::global_progress().add_retried(1);
                }
                if let Some(inj) = &sup.inject {
                    inj.arm(r, attempt);
                }
                let report = simulate(base, scratch, r, make_sources);
                C::validate(r, &report)?;
                if ckpt.is_some() || sup.on_complete.is_some() {
                    let payload = C::report_to_json(&report);
                    if let Some(c) = &ckpt {
                        c.append(r, payload.clone());
                    }
                    if let Some(hook) = &sup.on_complete {
                        hook(r, &payload).map_err(SimError::Checkpoint)?;
                    }
                }
                gps_obs::global_progress().add_done(1);
                Ok(report)
            },
        );
        if let Some(c) = &ckpt {
            // Completed work reaches the platter before the campaign is
            // reported done.
            c.sync();
        }
        Ok(CampaignOutcome {
            tasks,
            merged: None,
            restored: restored.len() as u64,
            quarantined: Vec::new(),
        })
    }

    fn run_merged<C, F>(&self, base: &C, make_sources: &F) -> CampaignOutcome<C::Report>
    where
        C: Replication,
        F: Fn(u64) -> Vec<Box<dyn SlotSource>> + Sync,
    {
        assert!(
            self.monitor.is_none() && self.supervisor.is_none(),
            "a merged campaign takes neither monitor nor supervisor"
        );
        let Range { start, end } = self.range;
        assert!(end > start, "merged campaign needs >= 1 replication");
        let chunk = self.pool.chunk_for((end - start) as usize).max(1) as u64;
        let chunks: Vec<Range<u64>> = (start..end)
            .step_by(chunk as usize)
            .map(|s| s..(s + chunk).min(end))
            .collect();
        let partials =
            Pool::new(self.pool.threads).map_with(&chunks, C::Scratch::default, |scratch, _, c| {
                // Cache-line aligned so adjacent workers' partials never
                // false-share.
                CacheAligned(C::merge(c.clone().map(|r| {
                    let report = simulate(base, scratch, r, make_sources);
                    gps_obs::global_progress().add_done(1);
                    report
                })))
            });
        let merged = C::merge(partials.into_iter().map(|CacheAligned(p)| p));
        C::record_metrics(gps_obs::metrics(), &merged);
        CampaignOutcome {
            tasks: Vec::new(),
            merged: Some(merged),
            restored: 0,
            quarantined: Vec::new(),
        }
    }
}

/// Replication `r` of `base`, run over `scratch`.
fn simulate<C, F>(base: &C, scratch: &mut C::Scratch, r: u64, make_sources: &F) -> C::Report
where
    C: Replication,
    F: Fn(u64) -> Vec<Box<dyn SlotSource>>,
{
    let cfg = base.with_seed(base.seed().wrapping_add(r));
    let mut sources = make_sources(r);
    cfg.run_core_scratch(scratch, &mut sources)
}

/// Quarantine/failure bookkeeping. Restores are journal-only (no
/// counters) so a resumed run's metrics snapshot is byte-identical to a
/// straight-through run's; quarantines *do* move counters — they only
/// occur under real or injected faults. `start` offsets task indices
/// into absolute replication indices for range-sharded campaigns.
fn account_outcomes<R>(
    kind: &str,
    tasks: &[TaskReport<R, SimError>],
    restored: u64,
    start: u64,
) -> Vec<u64> {
    if restored > 0 {
        gps_obs::info(
            "sim.supervise",
            "replications_restored",
            &[("campaign", kind.into()), ("count", restored.into())],
        );
    }
    let mut quarantined = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let r = start + i as u64;
        match &t.outcome {
            TaskOutcome::Ok(_) => {}
            TaskOutcome::Panicked(message) => {
                quarantined.push(r);
                gps_obs::global_progress().add_quarantined(1);
                let m = gps_obs::metrics();
                m.counter("sim.campaign.quarantined").inc();
                let rep = r.to_string();
                m.counter(&labeled(
                    "sim.campaign.quarantined",
                    &[("replication", &rep)],
                ))
                .inc();
                gps_obs::warn(
                    "sim.supervise",
                    "replication_quarantined",
                    &[
                        ("campaign", kind.into()),
                        ("replication", r.into()),
                        ("attempts", u64::from(t.attempts).into()),
                        ("message", message.as_str().into()),
                    ],
                );
            }
            TaskOutcome::Failed(e) => {
                gps_obs::global_progress().add_done(1);
                gps_obs::metrics().counter("sim.campaign.failed").inc();
                gps_obs::warn(
                    "sim.supervise",
                    "replication_failed",
                    &[
                        ("campaign", kind.into()),
                        ("replication", r.into()),
                        ("error", e.to_string().as_str().into()),
                    ],
                );
            }
        }
    }
    quarantined
}
