//! Fault-tolerant distributed campaign orchestration: a coordinator
//! leases (config-fingerprint, seed, replication-range) shards to worker
//! processes over the in-tree HTTP stack; workers run them through the
//! supervised campaign funnel ([`crate::campaign`]) and stream
//! checkpoint NDJSON lines back; the coordinator merges in replication
//! order, so a distributed run is **byte-identical** to a single-process
//! supervised run.
//!
//! # Protocol
//!
//! Three operations, carried over `gps_obs::exporter` routes when the
//! halves live in different processes ([`HttpTransport`]) or plain
//! method calls when they don't ([`LocalTransport`]):
//!
//! * **lease** (`GET /shard?worker=ID`) — the coordinator hands out the
//!   lowest pending shard, or [`LeaseReply::Wait`] when everything is
//!   leased (or the in-flight cap is reached), or [`LeaseReply::Done`]
//!   when the campaign is complete.
//! * **submit** (`POST /result`, body = one checkpoint line) — a worker
//!   streams each completed replication as a [`checkpoint_line`]
//!   in the exact v1 format local checkpoints use. Submission is
//!   **idempotent**: lines are deduplicated by replication index after
//!   validating the (kind, fingerprint, seed) identity, so at-least-once
//!   delivery and shard reassignment can never double-count.
//! * **complete** (`POST /complete?shard=N&token=T`) — the worker claims
//!   the shard is fully delivered; the coordinator verifies every
//!   replication of the shard is present before sealing it ([`CompleteReply::Incomplete`]
//!   otherwise). The journal is append-only — `submit` appends each
//!   accepted line after dedup — so sealing a [`CoordinatorConfig::durable`]
//!   shard is one `fdatasync` (`CheckpointFile` says why that survives
//!   power loss).
//!
//! # Lease state machine
//!
//! ```text
//!           lease()                    complete(token ok, all present)
//! Pending ──────────▶ Leased{token} ──────────────────────────────▶ Done
//!    ▲                   │ staleness > patience (bumped by Wait polls)
//!    └───────────────────┘ re-leased to the polling worker (new token)
//! ```
//!
//! Lease expiry is **deterministic and clockless**: every poll that finds
//! no pending shard bumps a staleness counter on all leased shards; a
//! shard whose staleness exceeds [`CoordinatorConfig::lease_patience`]
//! is reassigned to the polling worker. Submissions for a shard reset
//! its staleness (they are the heartbeat), so a live worker streaming
//! results is never preempted, while a `kill -9`'d worker's shard is
//! re-leased after finitely many polls by the survivors. No wall-clock
//! time participates in any of this, and none is needed for the merge.
//!
//! # Byte-identity contract
//!
//! The merged result is a pure function of the campaign spec: reports
//! are decoded from the journal in ascending replication order and
//! folded exactly as [`merge_single_node_reports`] does locally.
//! Worker count, shard size, arrival order, duplicate deliveries, worker
//! kills, and coordinator restarts are all invisible in the output.
//!
//! # Fault injection
//!
//! `GPS_FAULT_WORKER_KILL=<r>` aborts the worker process right before it
//! would submit replication `r`; `GPS_FAULT_WORKER_KILL=<r>:stall`
//! instead prints a `gps-worker-stall` marker and parks forever — the
//! shape `scripts/verify.sh` uses to find a victim PID and `kill -9` it
//! mid-campaign.

use crate::campaign::{Campaign, Replication};
use crate::runner::{merge_single_node_reports, SingleNodeRunConfig, SingleNodeRunReport};
use crate::supervise::{
    checkpoint_line, decode_checkpoint_line, CheckpointFile, OnComplete, SimError, Supervisor,
};
use gps_obs::json::{self, Json};
use gps_obs::{ClientConfig, HttpClient};
use gps_par::{Pool, RetryPolicy, TaskOutcome};
use gps_sources::SlotSource;
use std::collections::BTreeMap;
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Campaign kind tag carried on every protocol message and journal line.
/// Only single-node campaigns are orchestrated today; the tag keeps the
/// wire format forward-compatible with network campaigns.
pub const KIND_SINGLE_NODE: &str = SingleNodeRunConfig::KIND;

// ---------------------------------------------------------------------
// Campaign spec and coordinator state

/// What a distributed campaign computes: a named scenario (workers
/// resolve the name to the same config + sources locally), the base
/// config, the total replication count, and the shard granularity.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Scenario name workers resolve locally (e.g. `"paper"`).
    pub scenario: String,
    /// Base single-node config; replication `r` runs with seed
    /// `cfg.seed + r` exactly as in a local supervised campaign.
    pub cfg: SingleNodeRunConfig,
    /// Total replications.
    pub replications: u64,
    /// Replications per shard (the lease/recovery granule).
    pub shard_size: u64,
}

/// Coordinator tuning: lease patience, in-flight cap, journal.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Wait-polls a leased shard survives without a submission before it
    /// is re-leased. Deterministic: counts polls, not seconds.
    pub lease_patience: u64,
    /// Maximum shards leased at once (backpressure on workers: beyond
    /// this, polls get [`LeaseReply::Wait`]).
    pub max_inflight: usize,
    /// Journal path; `None` runs without crash recovery.
    pub journal: Option<PathBuf>,
    /// When true, an existing journal's replications are restored (the
    /// coordinator-restart path); when false a stale journal is removed.
    pub resume: bool,
    /// When true, sealing a shard makes the journal's appended lines
    /// durable (one `fdatasync`, plus one directory `fsync` the first
    /// time), so completed shards survive power loss; when false, they
    /// survive process death only and a seal never syncs.
    pub durable: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            lease_patience: 8,
            max_inflight: 64,
            journal: None,
            resume: false,
            durable: true,
        }
    }
}

/// One shard's lease phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardPhase {
    Pending,
    Leased,
    Done,
}

#[derive(Debug, Clone)]
struct Shard {
    start: u64,
    end: u64,
    phase: ShardPhase,
    token: u64,
    staleness: u64,
    worker: String,
}

/// Monotonic orchestration counters, also mirrored into the global
/// metrics registry under `orchestrate.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrchestrateStats {
    /// Leases granted (takeovers included).
    pub leases: u64,
    /// Leases expired by staleness and re-granted.
    pub expired: u64,
    /// Result lines accepted (first delivery).
    pub submitted: u64,
    /// Result lines deduplicated (at-least-once redelivery).
    pub duplicates: u64,
    /// Result lines rejected (wrong campaign identity or malformed).
    pub rejected: u64,
    /// Replications restored from the journal at startup.
    pub restored: u64,
    /// Shards sealed.
    pub shards_done: u64,
    /// Completes refused because the lease token was stale.
    pub stale_completes: u64,
}

/// Reply to a lease poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseReply {
    /// A shard to run: replications `start..end` of the named scenario.
    Shard {
        /// Shard index (stable across the campaign).
        shard: u64,
        /// First replication (inclusive).
        start: u64,
        /// Last replication (exclusive).
        end: u64,
        /// Lease token; quote it back on `complete`.
        token: u64,
        /// Scenario name to resolve locally.
        scenario: String,
        /// Config fingerprint the resolved scenario must match.
        fingerprint: u64,
        /// Base seed the resolved scenario must match.
        seed: u64,
        /// True when this lease recovers a shard from an expired lease.
        takeover: bool,
    },
    /// Nothing to hand out right now; poll again.
    Wait,
    /// Campaign complete; the worker can exit.
    Done,
}

/// Reply to a result submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitReply {
    /// First delivery of this replication; recorded.
    Accepted,
    /// Replication already recorded; dropped idempotently.
    Duplicate,
    /// Line failed identity or payload validation; not recorded.
    Rejected(String),
}

/// Reply to a shard-complete claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompleteReply {
    /// Shard sealed (idempotent: repeated completes of a sealed shard
    /// also land here).
    Complete,
    /// Some replications have not arrived; the claim is premature.
    Incomplete {
        /// How many replications are still missing.
        missing: u64,
    },
    /// The lease token is stale (the shard was re-leased) or the shard
    /// index is unknown; the worker should move on.
    Stale,
}

impl LeaseReply {
    /// Deterministic JSON encoding for the HTTP transport.
    pub fn to_json(&self) -> String {
        match self {
            LeaseReply::Shard {
                shard,
                start,
                end,
                token,
                scenario,
                fingerprint,
                seed,
                takeover,
            } => {
                let mut name = String::new();
                json::write_escaped(scenario, &mut name);
                format!(
                    "{{\"type\":\"shard\",\"shard\":{shard},\"start\":{start},\"end\":{end},\
                     \"token\":{token},\"scenario\":{name},\"kind\":\"{KIND_SINGLE_NODE}\",\
                     \"fingerprint\":\"{fingerprint:016x}\",\"seed\":{seed},\"takeover\":{takeover}}}"
                )
            }
            LeaseReply::Wait => "{\"type\":\"wait\"}".to_string(),
            LeaseReply::Done => "{\"type\":\"done\"}".to_string(),
        }
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub(crate) fn from_json(text: &str) -> Option<LeaseReply> {
        let doc = json::parse(text).ok()?;
        match doc.get("type")?.as_str()? {
            "wait" => Some(LeaseReply::Wait),
            "done" => Some(LeaseReply::Done),
            "shard" => Some(LeaseReply::Shard {
                shard: doc.get("shard")?.as_u64()?,
                start: doc.get("start")?.as_u64()?,
                end: doc.get("end")?.as_u64()?,
                token: doc.get("token")?.as_u64()?,
                scenario: doc.get("scenario")?.as_str()?.to_string(),
                fingerprint: u64::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()?,
                seed: doc.get("seed")?.as_u64()?,
                takeover: doc.get("takeover")?.as_bool()?,
            }),
            _ => None,
        }
    }
}

impl SubmitReply {
    /// Deterministic JSON encoding for the HTTP transport.
    pub fn to_json(&self) -> String {
        match self {
            SubmitReply::Accepted => "{\"status\":\"accepted\"}".to_string(),
            SubmitReply::Duplicate => "{\"status\":\"duplicate\"}".to_string(),
            SubmitReply::Rejected(msg) => {
                let mut m = String::new();
                json::write_escaped(msg, &mut m);
                format!("{{\"status\":\"rejected\",\"error\":{m}}}")
            }
        }
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub(crate) fn from_json(text: &str) -> Option<SubmitReply> {
        let doc = json::parse(text).ok()?;
        match doc.get("status")?.as_str()? {
            "accepted" => Some(SubmitReply::Accepted),
            "duplicate" => Some(SubmitReply::Duplicate),
            "rejected" => Some(SubmitReply::Rejected(
                doc.get("error")?.as_str()?.to_string(),
            )),
            _ => None,
        }
    }
}

impl CompleteReply {
    /// Deterministic JSON encoding for the HTTP transport.
    pub fn to_json(&self) -> String {
        match self {
            CompleteReply::Complete => "{\"type\":\"complete\"}".to_string(),
            CompleteReply::Incomplete { missing } => {
                format!("{{\"type\":\"incomplete\",\"missing\":{missing}}}")
            }
            CompleteReply::Stale => "{\"type\":\"stale\"}".to_string(),
        }
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub(crate) fn from_json(text: &str) -> Option<CompleteReply> {
        let doc = json::parse(text).ok()?;
        match doc.get("type")?.as_str()? {
            "complete" => Some(CompleteReply::Complete),
            "stale" => Some(CompleteReply::Stale),
            "incomplete" => Some(CompleteReply::Incomplete {
                missing: doc.get("missing")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

/// The coordinator half: a clockless shard/lease state machine plus the
/// crash-recovery journal. Thread-safe when wrapped in a `Mutex` (the
/// HTTP route handlers in `campaignd` do exactly that).
#[derive(Debug)]
pub struct Coordinator {
    spec: CampaignSpec,
    fingerprint: u64,
    shards: Vec<Shard>,
    completed: BTreeMap<u64, Json>,
    journal: Option<CheckpointFile>,
    lease_patience: u64,
    max_inflight: usize,
    durable: bool,
    next_token: u64,
    stats: OrchestrateStats,
}

impl Coordinator {
    /// Builds the shard table (and restores the journal when
    /// `cfg.resume`). Shards fully covered by restored replications are
    /// born sealed — the coordinator-restart path recomputes nothing.
    pub fn new(spec: CampaignSpec, cfg: &CoordinatorConfig) -> Result<Coordinator, SimError> {
        if spec.replications == 0 || spec.shard_size == 0 {
            return Err(SimError::Checkpoint(
                "campaign needs replications >= 1 and shard_size >= 1".to_string(),
            ));
        }
        let fingerprint = spec.cfg.fingerprint();
        let (journal, mut restored) = match &cfg.journal {
            Some(path) => {
                let (file, map) = CheckpointFile::open(
                    path,
                    KIND_SINGLE_NODE,
                    fingerprint,
                    spec.cfg.seed,
                    cfg.resume,
                )?;
                (Some(file), map)
            }
            None => (None, Default::default()),
        };
        // Only in-range payloads that decode against this config count
        // as restored; anything else is recomputed.
        restored.retain(|&r, payload| {
            r < spec.replications && spec.cfg.report_from_json(payload).is_some()
        });
        let completed: BTreeMap<u64, Json> = restored.into_iter().collect();
        let mut shards = Vec::new();
        let mut start = 0u64;
        let mut sealed = 0u64;
        while start < spec.replications {
            let end = (start + spec.shard_size).min(spec.replications);
            let done = (start..end).all(|r| completed.contains_key(&r));
            if done {
                sealed += 1;
            }
            shards.push(Shard {
                start,
                end,
                phase: if done {
                    ShardPhase::Done
                } else {
                    ShardPhase::Pending
                },
                token: 0,
                staleness: 0,
                worker: String::new(),
            });
            start = end;
        }
        let stats = OrchestrateStats {
            restored: completed.len() as u64,
            shards_done: sealed,
            ..OrchestrateStats::default()
        };
        gps_obs::info(
            "sim.orchestrate",
            "coordinator_started",
            &[
                ("scenario", spec.scenario.as_str().into()),
                ("replications", spec.replications.into()),
                ("shards", (shards.len() as u64).into()),
                ("restored", stats.restored.into()),
            ],
        );
        Ok(Coordinator {
            spec,
            fingerprint,
            shards,
            completed,
            journal,
            lease_patience: cfg.lease_patience,
            max_inflight: cfg.max_inflight.max(1),
            durable: cfg.durable,
            next_token: 1,
            stats,
        })
    }

    /// The campaign spec under coordination.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The config fingerprint every submission must carry.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Orchestration counters so far.
    pub fn stats(&self) -> OrchestrateStats {
        self.stats
    }

    /// True when every shard is sealed.
    pub fn is_done(&self) -> bool {
        self.shards.iter().all(|s| s.phase == ShardPhase::Done)
    }

    /// Handles one lease poll from `worker`.
    pub fn lease(&mut self, worker: &str) -> LeaseReply {
        if self.is_done() {
            return LeaseReply::Done;
        }
        // Seal pending shards that at-least-once delivery already
        // covered (possible after restarts and takeovers).
        for i in 0..self.shards.len() {
            if self.shards[i].phase == ShardPhase::Pending && self.missing_in(i) == 0 {
                self.seal(i);
            }
        }
        if self.is_done() {
            return LeaseReply::Done;
        }
        let leased = self
            .shards
            .iter()
            .filter(|s| s.phase == ShardPhase::Leased)
            .count();
        let pending = self
            .shards
            .iter()
            .position(|s| s.phase == ShardPhase::Pending);
        if let Some(i) = pending {
            if leased < self.max_inflight {
                return self.grant(i, worker, false);
            }
        }
        // No grantable pending shard: this poll is idle capacity. Age
        // every lease and take over the stalest expired one, if any
        // (re-leasing keeps the in-flight count unchanged, so this is
        // allowed even at the cap).
        self.bump_staleness();
        let expired = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase == ShardPhase::Leased && s.staleness > self.lease_patience)
            .max_by_key(|(i, s)| (s.staleness, std::cmp::Reverse(*i)))
            .map(|(i, _)| i);
        match expired {
            Some(i) => {
                self.stats.expired += 1;
                gps_obs::metrics()
                    .counter("orchestrate.leases.expired")
                    .inc();
                gps_obs::warn(
                    "sim.orchestrate",
                    "lease_expired",
                    &[
                        ("shard", (i as u64).into()),
                        ("worker", self.shards[i].worker.as_str().into()),
                        ("staleness", self.shards[i].staleness.into()),
                    ],
                );
                self.grant(i, worker, true)
            }
            None => LeaseReply::Wait,
        }
    }

    fn grant(&mut self, i: usize, worker: &str, takeover: bool) -> LeaseReply {
        let token = self.next_token;
        self.next_token += 1;
        let s = &mut self.shards[i];
        s.phase = ShardPhase::Leased;
        s.token = token;
        s.staleness = 0;
        s.worker = worker.to_string();
        self.stats.leases += 1;
        gps_obs::metrics().counter("orchestrate.leases").inc();
        LeaseReply::Shard {
            shard: i as u64,
            start: s.start,
            end: s.end,
            token,
            scenario: self.spec.scenario.clone(),
            fingerprint: self.fingerprint,
            seed: self.spec.cfg.seed,
            takeover,
        }
    }

    fn bump_staleness(&mut self) {
        for s in &mut self.shards {
            if s.phase == ShardPhase::Leased {
                s.staleness += 1;
            }
        }
    }

    fn missing_in(&self, i: usize) -> u64 {
        let s = &self.shards[i];
        (s.start..s.end)
            .filter(|r| !self.completed.contains_key(r))
            .count() as u64
    }

    fn seal(&mut self, i: usize) {
        self.shards[i].phase = ShardPhase::Done;
        self.stats.shards_done += 1;
        gps_obs::metrics()
            .counter("orchestrate.shards.completed")
            .inc();
        // Every line of the shard is already appended (submit_line
        // journals each new replication once, after dedup; restored ones
        // are never re-appended), so sealing only makes them durable.
        if let Some(j) = self.journal.as_ref().filter(|_| self.durable) {
            j.sync();
        }
    }

    /// Handles one streamed checkpoint line. Identity (kind,
    /// fingerprint, seed) and payload shape are validated before the
    /// line is recorded; duplicates are dropped idempotently. An
    /// accepted or duplicate line resets its shard's staleness — results
    /// are the lease heartbeat.
    pub fn submit_line(&mut self, line: &str) -> SubmitReply {
        let decoded =
            decode_checkpoint_line(line, KIND_SINGLE_NODE, self.fingerprint, self.spec.cfg.seed);
        let Some((r, payload)) = decoded else {
            return self.reject("line does not match campaign identity");
        };
        if r >= self.spec.replications {
            return self.reject("replication out of range");
        }
        if self.spec.cfg.report_from_json(&payload).is_none() {
            return self.reject("report payload malformed for this config");
        }
        if let Some(i) = self.shard_index_of(r) {
            if self.shards[i].phase == ShardPhase::Leased {
                self.shards[i].staleness = 0;
            }
        }
        if self.completed.contains_key(&r) {
            self.stats.duplicates += 1;
            gps_obs::metrics().counter("orchestrate.duplicates").inc();
            return SubmitReply::Duplicate;
        }
        if let Some(j) = &self.journal {
            j.append(r, payload.clone());
        }
        self.completed.insert(r, payload);
        self.stats.submitted += 1;
        gps_obs::metrics().counter("orchestrate.submissions").inc();
        SubmitReply::Accepted
    }

    fn reject(&mut self, msg: &str) -> SubmitReply {
        self.stats.rejected += 1;
        gps_obs::metrics().counter("orchestrate.rejected").inc();
        gps_obs::warn(
            "sim.orchestrate",
            "submission_rejected",
            &[("reason", msg.into())],
        );
        SubmitReply::Rejected(msg.to_string())
    }

    fn shard_index_of(&self, r: u64) -> Option<usize> {
        let i = (r / self.spec.shard_size) as usize;
        (i < self.shards.len()).then_some(i)
    }

    /// Handles a shard-complete claim against lease `token`.
    pub fn complete(&mut self, shard: u64, token: u64) -> CompleteReply {
        let i = shard as usize;
        if i >= self.shards.len() {
            self.stats.stale_completes += 1;
            return CompleteReply::Stale;
        }
        if self.shards[i].phase == ShardPhase::Done {
            return CompleteReply::Complete;
        }
        if self.shards[i].phase != ShardPhase::Leased || self.shards[i].token != token {
            self.stats.stale_completes += 1;
            gps_obs::metrics()
                .counter("orchestrate.completes.stale")
                .inc();
            return CompleteReply::Stale;
        }
        let missing = self.missing_in(i);
        if missing > 0 {
            return CompleteReply::Incomplete { missing };
        }
        self.seal(i);
        CompleteReply::Complete
    }

    /// All replication reports in ascending replication order — the
    /// merge input. Errors unless the campaign is complete.
    pub(crate) fn completed_reports(&self) -> Result<Vec<SingleNodeRunReport>, SimError> {
        if self.completed.len() as u64 != self.spec.replications {
            return Err(SimError::Checkpoint(format!(
                "campaign incomplete: {} of {} replications",
                self.completed.len(),
                self.spec.replications
            )));
        }
        (0..self.spec.replications)
            .map(|r| {
                let payload = self.completed.get(&r).ok_or_else(|| {
                    SimError::Checkpoint(format!("replication {r} missing from journal"))
                })?;
                self.spec.cfg.report_from_json(payload).ok_or_else(|| {
                    SimError::Checkpoint(format!("replication {r} payload malformed"))
                })
            })
            .collect()
    }

    /// The pooled report, merged in the exact fold order a local
    /// supervised campaign uses.
    pub fn merged(&self) -> Result<SingleNodeRunReport, SimError> {
        Ok(merge_single_node_reports(&self.completed_reports()?))
    }

    /// Live status document (served at `/orchestrate` by `campaignd`).
    pub fn status_json(&self) -> String {
        let leased = self
            .shards
            .iter()
            .filter(|s| s.phase == ShardPhase::Leased)
            .count();
        let mut scenario = String::new();
        json::write_escaped(&self.spec.scenario, &mut scenario);
        format!(
            "{{\"scenario\":{scenario},\"fingerprint\":\"{:016x}\",\"seed\":{},\
             \"replications\":{},\"shard_size\":{},\"shards\":{},\"shards_done\":{},\
             \"shards_leased\":{leased},\"completed\":{},\"submitted\":{},\"duplicates\":{},\
             \"rejected\":{},\"restored\":{},\"leases\":{},\"leases_expired\":{},\
             \"stale_completes\":{},\"done\":{}}}",
            self.fingerprint,
            self.spec.cfg.seed,
            self.spec.replications,
            self.spec.shard_size,
            self.shards.len(),
            self.stats.shards_done,
            self.completed.len(),
            self.stats.submitted,
            self.stats.duplicates,
            self.stats.rejected,
            self.stats.restored,
            self.stats.leases,
            self.stats.expired,
            self.stats.stale_completes,
            self.is_done(),
        )
    }
}

// ---------------------------------------------------------------------
// Transports

/// How a worker reaches the coordinator. Implementations must be
/// usable from multiple worker threads behind a mutex (the worker
/// serializes submissions itself).
pub trait ShardTransport: Send {
    /// Poll for work.
    fn lease(&mut self, worker: &str) -> Result<LeaseReply, String>;
    /// Stream one checkpoint line.
    fn submit(&mut self, line: &str) -> Result<SubmitReply, String>;
    /// Claim a shard complete.
    fn complete(&mut self, shard: u64, token: u64) -> Result<CompleteReply, String>;
}

/// In-process transport: direct calls into a shared [`Coordinator`].
/// The integration tests drive whole distributed campaigns through this
/// without sockets.
#[derive(Debug, Clone)]
pub struct LocalTransport {
    coordinator: Arc<Mutex<Coordinator>>,
}

impl LocalTransport {
    /// Wraps a shared coordinator.
    pub fn new(coordinator: Arc<Mutex<Coordinator>>) -> LocalTransport {
        LocalTransport { coordinator }
    }
}

impl ShardTransport for LocalTransport {
    fn lease(&mut self, worker: &str) -> Result<LeaseReply, String> {
        let mut c = self
            .coordinator
            .lock()
            .map_err(|_| "coordinator poisoned")?;
        Ok(c.lease(worker))
    }

    fn submit(&mut self, line: &str) -> Result<SubmitReply, String> {
        let mut c = self
            .coordinator
            .lock()
            .map_err(|_| "coordinator poisoned")?;
        Ok(c.submit_line(line))
    }

    fn complete(&mut self, shard: u64, token: u64) -> Result<CompleteReply, String> {
        let mut c = self
            .coordinator
            .lock()
            .map_err(|_| "coordinator poisoned")?;
        Ok(c.complete(shard, token))
    }
}

/// HTTP transport against a `campaignd` coordinator: requests ride an
/// [`HttpClient`] with the [`ClientConfig::from_env`] policy
/// (deterministic timeout/retry/backoff from `GPS_HTTP_TIMEOUT_MS` /
/// `GPS_HTTP_RETRIES`), and `503` backpressure is absorbed with a
/// bounded linear-backoff poll loop.
#[derive(Debug)]
pub struct HttpTransport {
    client: HttpClient,
    /// How many consecutive 503s to absorb before giving up.
    pub backpressure_budget: u32,
    /// Backoff step between 503 retries (linear, no jitter).
    pub backpressure_step: Duration,
}

impl HttpTransport {
    /// A transport for the coordinator at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<HttpTransport> {
        Ok(HttpTransport {
            client: HttpClient::connect(addr, ClientConfig::from_env())?,
            backpressure_budget: 200,
            backpressure_step: Duration::from_millis(5),
        })
    }

    fn roundtrip(
        &mut self,
        what: &str,
        mut send: impl FnMut(&mut HttpClient) -> std::io::Result<(u16, String)>,
    ) -> Result<(u16, String), String> {
        for attempt in 0..=self.backpressure_budget {
            let (status, body) = send(&mut self.client).map_err(|e| format!("{what}: {e}"))?;
            if status != 503 {
                return Ok((status, body));
            }
            if attempt == self.backpressure_budget {
                break;
            }
            gps_obs::metrics()
                .counter("orchestrate.backpressure.retries")
                .inc();
            std::thread::sleep(self.backpressure_step * (attempt + 1));
        }
        Err(format!("{what}: backpressure persisted past budget"))
    }
}

impl ShardTransport for HttpTransport {
    fn lease(&mut self, worker: &str) -> Result<LeaseReply, String> {
        let path = format!("/shard?worker={worker}");
        let (status, body) = self.roundtrip("lease", |c| c.get(&path))?;
        if status != 200 {
            return Err(format!("lease: coordinator answered {status}: {body}"));
        }
        LeaseReply::from_json(&body).ok_or_else(|| format!("lease: unparseable reply: {body}"))
    }

    fn submit(&mut self, line: &str) -> Result<SubmitReply, String> {
        let (status, body) = self.roundtrip("submit", |c| c.post("/result", line))?;
        if status != 200 && status != 400 {
            return Err(format!("submit: coordinator answered {status}: {body}"));
        }
        SubmitReply::from_json(&body).ok_or_else(|| format!("submit: unparseable reply: {body}"))
    }

    fn complete(&mut self, shard: u64, token: u64) -> Result<CompleteReply, String> {
        let path = format!("/complete?shard={shard}&token={token}");
        let (status, body) = self.roundtrip("complete", |c| c.post(&path, ""))?;
        if status != 200 && status != 409 {
            return Err(format!("complete: coordinator answered {status}: {body}"));
        }
        CompleteReply::from_json(&body)
            .ok_or_else(|| format!("complete: unparseable reply: {body}"))
    }
}

// ---------------------------------------------------------------------
// Worker half

/// Deterministic worker-kill injection, normally parsed from
/// `GPS_FAULT_WORKER_KILL` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillInjection {
    /// The replication whose submission triggers the fault.
    pub replication: u64,
    /// `false`: abort the process (immediate `kill -9`-equivalent).
    /// `true`: print a `gps-worker-stall` marker and park forever, so an
    /// external harness can deliver a real `kill -9`.
    pub stall: bool,
}

impl KillInjection {
    /// Parses `GPS_FAULT_WORKER_KILL` (`"<r>"` or `"<r>:stall"`).
    /// Malformed values warn and are ignored.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("GPS_FAULT_WORKER_KILL").ok()?;
        let (num, stall) = match raw.strip_suffix(":stall") {
            Some(head) => (head, true),
            None => (raw.as_str(), false),
        };
        match num.trim().parse::<u64>() {
            Ok(replication) => Some(Self { replication, stall }),
            Err(_) => {
                gps_obs::warn(
                    "sim.orchestrate",
                    "bad_kill_injection",
                    &[("value", raw.as_str().into())],
                );
                None
            }
        }
    }

    /// Fires iff `replication` is the injected target. Never returns
    /// when it fires.
    pub fn arm(&self, replication: u64) {
        if replication != self.replication {
            return;
        }
        if self.stall {
            println!(
                "gps-worker-stall replication={replication} pid={}",
                std::process::id()
            );
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        std::process::abort();
    }
}

/// Worker tuning.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Identity quoted on lease polls (shows up in coordinator logs).
    pub worker_id: String,
    /// Pool threads per shard run (0 → [`Pool::from_env`]).
    pub threads: usize,
    /// Chunk size for the shard run's task queue (`None` → default).
    pub chunk: Option<usize>,
    /// Sleep between [`LeaseReply::Wait`] polls.
    pub poll: Duration,
    /// Give up after this many consecutive `Wait` polls (guards against
    /// a wedged coordinator; generous by default).
    pub max_wait_polls: u64,
    /// Retry budget for panicking replications inside a shard.
    pub retry: RetryPolicy,
    /// Worker-kill fault injection (from `GPS_FAULT_WORKER_KILL` in the
    /// shipped binaries).
    pub kill: Option<KillInjection>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            worker_id: format!("worker-{}", std::process::id()),
            threads: 0,
            chunk: None,
            poll: Duration::from_millis(20),
            max_wait_polls: 100_000,
            retry: RetryPolicy::default(),
            kill: None,
        }
    }
}

/// What a worker did before the coordinator said [`LeaseReply::Done`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Shards sealed by this worker's `complete` claims.
    pub shards_completed: u64,
    /// Replications computed and submitted.
    pub replications_run: u64,
    /// Shards that were takeovers of expired leases.
    pub takeovers: u64,
    /// `Wait` polls observed.
    pub wait_polls: u64,
    /// Completes answered `Stale` (the shard had been re-leased; the
    /// work was still counted via idempotent submission).
    pub stale_completes: u64,
}

/// A scenario resolved worker-side: the config must hash to the
/// fingerprint in the lease, and `make_sources(r)` must build the same
/// sources the local campaign would.
pub struct WorkerScenario {
    /// Base config (seed included).
    pub cfg: SingleNodeRunConfig,
    /// Per-replication source factory.
    pub make_sources: Arc<dyn Fn(u64) -> Vec<Box<dyn SlotSource>> + Send + Sync>,
}

/// Runs the worker loop until the coordinator reports the campaign done:
/// poll for a shard, resolve its scenario locally, verify the config
/// fingerprint, run the replication range through the supervised engine
/// (streaming each completed replication back through the transport),
/// then claim the shard complete. Transport submissions happen under a
/// mutex from the pool's worker threads, so one slow send never loses
/// computed work — and a failed send fails the replication rather than
/// silently dropping it.
pub fn run_worker<T, F>(
    transport: T,
    opts: &WorkerOptions,
    resolve: F,
) -> Result<WorkerSummary, SimError>
where
    T: ShardTransport + 'static,
    F: Fn(&str) -> Option<WorkerScenario>,
{
    let transport = Arc::new(Mutex::new(transport));
    let mut summary = WorkerSummary::default();
    let mut waits_in_a_row = 0u64;
    loop {
        let reply = {
            let mut t = transport.lock().expect("transport mutex poisoned");
            t.lease(&opts.worker_id).map_err(SimError::Checkpoint)?
        };
        let LeaseReply::Shard {
            shard,
            start,
            end,
            token,
            scenario,
            fingerprint,
            seed,
            takeover,
        } = reply
        else {
            if reply == LeaseReply::Done {
                gps_obs::info(
                    "sim.orchestrate",
                    "worker_done",
                    &[
                        ("worker", opts.worker_id.as_str().into()),
                        ("shards", summary.shards_completed.into()),
                        ("replications", summary.replications_run.into()),
                    ],
                );
                return Ok(summary);
            }
            summary.wait_polls += 1;
            waits_in_a_row += 1;
            if waits_in_a_row > opts.max_wait_polls {
                return Err(SimError::Checkpoint(format!(
                    "worker {} starved: {} consecutive wait polls",
                    opts.worker_id, waits_in_a_row
                )));
            }
            std::thread::sleep(opts.poll);
            continue;
        };
        waits_in_a_row = 0;
        if takeover {
            summary.takeovers += 1;
        }
        let resolved = resolve(&scenario).ok_or_else(|| {
            SimError::Checkpoint(format!("worker cannot resolve scenario {scenario:?}"))
        })?;
        let local_fp = resolved.cfg.fingerprint();
        if local_fp != fingerprint || resolved.cfg.seed != seed {
            return Err(SimError::Checkpoint(format!(
                "scenario {scenario:?} mismatch: lease wants fp={fingerprint:016x} seed={seed}, \
                 local is fp={local_fp:016x} seed={}",
                resolved.cfg.seed
            )));
        }
        gps_obs::info(
            "sim.orchestrate",
            "shard_leased",
            &[
                ("worker", opts.worker_id.as_str().into()),
                ("shard", shard.into()),
                ("start", start.into()),
                ("end", end.into()),
                ("takeover", takeover.into()),
            ],
        );
        let hook_transport = Arc::clone(&transport);
        let kill = opts.kill;
        let hook: OnComplete = Arc::new(move |r, payload| {
            if let Some(k) = &kill {
                k.arm(r);
            }
            let line = checkpoint_line(KIND_SINGLE_NODE, fingerprint, seed, r, payload);
            let mut t = hook_transport
                .lock()
                .map_err(|_| "transport mutex poisoned".to_string())?;
            match t.submit(&line)? {
                SubmitReply::Accepted | SubmitReply::Duplicate => Ok(()),
                SubmitReply::Rejected(msg) => Err(format!("submission rejected: {msg}")),
            }
        });
        let supervisor = Supervisor {
            retry: opts.retry,
            checkpoint: None,
            resume: false,
            inject: None,
            on_complete: Some(hook),
        };
        let threads = if opts.threads == 0 {
            Pool::from_env().threads
        } else {
            opts.threads
        };
        let pool = Pool {
            threads,
            chunk: opts.chunk,
        };
        let campaign = Campaign {
            range: start..end,
            ..Campaign::new(pool, 0)
        };
        let make_sources = &resolved.make_sources;
        let outcome = campaign
            .supervisor(&supervisor)
            .run(&resolved.cfg, |r| make_sources(r))?;
        for (r, t) in (start..end).zip(&outcome.tasks) {
            match &t.outcome {
                TaskOutcome::Ok(_) => summary.replications_run += 1,
                TaskOutcome::Failed(e) => return Err(e.clone()),
                TaskOutcome::Panicked(msg) => {
                    return Err(SimError::Panicked {
                        replication: r,
                        message: msg.clone(),
                    })
                }
            }
        }
        let reply = {
            let mut t = transport.lock().expect("transport mutex poisoned");
            t.complete(shard, token).map_err(SimError::Checkpoint)?
        };
        match reply {
            CompleteReply::Complete => summary.shards_completed += 1,
            CompleteReply::Stale => summary.stale_completes += 1,
            CompleteReply::Incomplete { missing } => {
                return Err(SimError::Checkpoint(format!(
                    "shard {shard} claimed complete but {missing} replications missing"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_sources::OnOffSource;

    fn tiny_cfg() -> SingleNodeRunConfig {
        SingleNodeRunConfig {
            phis: vec![0.2, 0.25, 0.2, 0.25],
            capacity: 1.0,
            warmup: 50,
            measure: 400,
            seed: 0xBEEF,
            backlog_grid: (0..20).map(|i| i as f64 * 0.5).collect(),
            delay_grid: (0..20).map(|i| i as f64).collect(),
        }
    }

    fn tiny_spec(replications: u64, shard_size: u64) -> CampaignSpec {
        CampaignSpec {
            scenario: "tiny".to_string(),
            cfg: tiny_cfg(),
            replications,
            shard_size,
        }
    }

    fn tiny_scenario() -> WorkerScenario {
        WorkerScenario {
            cfg: tiny_cfg(),
            make_sources: Arc::new(|_r| {
                OnOffSource::paper_table1()
                    .into_iter()
                    .map(|s| Box::new(s) as Box<dyn SlotSource>)
                    .collect()
            }),
        }
    }

    fn line_for(cfg: &SingleNodeRunConfig, r: u64) -> String {
        let mut cfg_r = cfg.clone();
        cfg_r.seed = cfg.seed.wrapping_add(r);
        let mut sources: Vec<Box<dyn SlotSource>> = OnOffSource::paper_table1()
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn SlotSource>)
            .collect();
        let report = crate::runner::run_single_node_core_scratch(
            &mut Default::default(),
            &mut sources,
            &cfg_r,
        );
        checkpoint_line(
            KIND_SINGLE_NODE,
            cfg.fingerprint(),
            cfg.seed,
            r,
            &SingleNodeRunConfig::report_to_json(&report),
        )
    }

    #[test]
    fn lease_reply_json_round_trips() {
        for reply in [
            LeaseReply::Wait,
            LeaseReply::Done,
            LeaseReply::Shard {
                shard: 3,
                start: 12,
                end: 16,
                token: 42,
                scenario: "paper \"quoted\"".to_string(),
                fingerprint: 0xDEAD_BEEF_1234_5678,
                seed: 7,
                takeover: true,
            },
        ] {
            assert_eq!(LeaseReply::from_json(&reply.to_json()), Some(reply));
        }
        for reply in [
            SubmitReply::Accepted,
            SubmitReply::Duplicate,
            SubmitReply::Rejected("bad \"identity\"".to_string()),
        ] {
            assert_eq!(SubmitReply::from_json(&reply.to_json()), Some(reply));
        }
        for reply in [
            CompleteReply::Complete,
            CompleteReply::Stale,
            CompleteReply::Incomplete { missing: 9 },
        ] {
            assert_eq!(CompleteReply::from_json(&reply.to_json()), Some(reply));
        }
    }

    #[test]
    fn leases_expire_deterministically_and_reassign() {
        let mut c = Coordinator::new(
            tiny_spec(4, 2),
            &CoordinatorConfig {
                lease_patience: 3,
                max_inflight: 1,
                journal: None,
                resume: false,
                durable: false,
            },
        )
        .unwrap();
        let LeaseReply::Shard {
            shard,
            token,
            takeover,
            ..
        } = c.lease("w1")
        else {
            panic!("expected first shard");
        };
        assert_eq!((shard, takeover), (0, false));
        // The in-flight cap of 1 keeps w2 waiting; each wait ages w1's
        // lease until patience runs out and the shard is taken over.
        let mut got = None;
        for polls in 1..=10 {
            match c.lease("w2") {
                LeaseReply::Wait => {}
                LeaseReply::Shard {
                    shard: s,
                    token: t2,
                    takeover,
                    ..
                } => {
                    got = Some((polls, s, t2, takeover));
                    break;
                }
                LeaseReply::Done => panic!("campaign cannot be done"),
            }
        }
        let (polls, s, t2, takeover) = got.expect("takeover never happened");
        assert_eq!(s, 0, "the expired shard is re-leased first");
        assert!(takeover);
        assert!(t2 > token, "tokens are monotone");
        assert_eq!(polls, 4, "expiry after exactly patience+1 idle polls");
        assert_eq!(c.stats().expired, 1);
        // The original worker's complete is now stale.
        assert_eq!(c.complete(0, token), CompleteReply::Stale);
    }

    #[test]
    fn submissions_heartbeat_their_lease() {
        let cfg = tiny_cfg();
        let mut c = Coordinator::new(
            tiny_spec(2, 2),
            &CoordinatorConfig {
                lease_patience: 2,
                max_inflight: 2,
                journal: None,
                resume: false,
                durable: false,
            },
        )
        .unwrap();
        let LeaseReply::Shard { token, .. } = c.lease("w1") else {
            panic!()
        };
        // w1 streams a result between w3's idle polls: its staleness
        // resets each time, so patience is never exceeded.
        for _ in 0..8 {
            assert_eq!(c.lease("w3"), LeaseReply::Wait);
            let line = line_for(&cfg, 0);
            // Re-submitting the same replication is a heartbeat too
            // (duplicates are idempotent).
            let _ = c.submit_line(&line);
        }
        assert_eq!(c.stats().expired, 0);
        assert!(c.shards[0].token == token);
    }

    #[test]
    fn submit_validates_dedups_and_completes() {
        let cfg = tiny_cfg();
        let mut c = Coordinator::new(
            tiny_spec(2, 2),
            &CoordinatorConfig {
                lease_patience: 8,
                max_inflight: 2,
                journal: None,
                resume: false,
                durable: false,
            },
        )
        .unwrap();
        let LeaseReply::Shard { shard, token, .. } = c.lease("w1") else {
            panic!()
        };
        // Premature complete.
        assert_eq!(
            c.complete(shard, token),
            CompleteReply::Incomplete { missing: 2 }
        );
        // Wrong identity and garbage are rejected.
        assert!(matches!(
            c.submit_line("{\"v\":1}"),
            SubmitReply::Rejected(_)
        ));
        let other_seed = {
            let mut other = cfg.clone();
            other.seed = 999;
            checkpoint_line(
                KIND_SINGLE_NODE,
                cfg.fingerprint(),
                other.seed,
                0,
                &Json::U64(1),
            )
        };
        assert!(matches!(
            c.submit_line(&other_seed),
            SubmitReply::Rejected(_)
        ));
        // Valid lines accept once, dedup after.
        let l0 = line_for(&cfg, 0);
        let l1 = line_for(&cfg, 1);
        assert_eq!(c.submit_line(&l0), SubmitReply::Accepted);
        assert_eq!(c.submit_line(&l0), SubmitReply::Duplicate);
        assert_eq!(c.submit_line(&l1), SubmitReply::Accepted);
        assert_eq!(c.complete(shard, token), CompleteReply::Complete);
        // Idempotent re-complete; campaign done.
        assert_eq!(c.complete(shard, token), CompleteReply::Complete);
        assert!(c.is_done());
        assert_eq!(c.lease("w1"), LeaseReply::Done);
        let merged = c.merged().unwrap();
        assert_eq!(merged.sessions.len(), 4);
        let stats = c.stats();
        assert_eq!(
            (stats.submitted, stats.duplicates, stats.rejected),
            (2, 1, 2)
        );
    }

    #[test]
    fn journal_resume_restores_and_seals_shards() {
        let cfg = tiny_cfg();
        let path = std::env::temp_dir().join(format!(
            "gps_test_orchestrate_journal_{}.ndjson",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let ccfg = CoordinatorConfig {
            lease_patience: 8,
            max_inflight: 4,
            journal: Some(path.clone()),
            resume: false,
            durable: true,
        };
        let mut c = Coordinator::new(tiny_spec(4, 2), &ccfg).unwrap();
        let LeaseReply::Shard { shard, token, .. } = c.lease("w1") else {
            panic!()
        };
        assert_eq!(c.submit_line(&line_for(&cfg, 0)), SubmitReply::Accepted);
        assert_eq!(c.submit_line(&line_for(&cfg, 1)), SubmitReply::Accepted);
        assert_eq!(c.complete(shard, token), CompleteReply::Complete);
        // Plus one stray result for the unleased shard.
        assert_eq!(c.submit_line(&line_for(&cfg, 2)), SubmitReply::Accepted);
        drop(c);
        // "Crash": a brand-new coordinator resumes from the journal.
        let resumed_cfg = CoordinatorConfig {
            resume: true,
            ..ccfg
        };
        let mut c2 = Coordinator::new(tiny_spec(4, 2), &resumed_cfg).unwrap();
        assert_eq!(c2.stats().restored, 3);
        assert_eq!(c2.stats().shards_done, 1, "fully covered shard born sealed");
        // Only replication 3 is actually missing; the second shard is
        // leased, filled by one submission, and the campaign completes.
        let LeaseReply::Shard {
            shard,
            start,
            end,
            token,
            ..
        } = c2.lease("w1")
        else {
            panic!("second shard should lease");
        };
        assert_eq!((shard, start, end), (1, 2, 4));
        assert_eq!(c2.submit_line(&line_for(&cfg, 2)), SubmitReply::Duplicate);
        assert_eq!(c2.submit_line(&line_for(&cfg, 3)), SubmitReply::Accepted);
        assert_eq!(c2.complete(shard, token), CompleteReply::Complete);
        assert!(c2.is_done());
        assert!(c2.merged().is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn local_worker_runs_whole_campaign() {
        let spec = tiny_spec(4, 2);
        let coordinator = Arc::new(Mutex::new(
            Coordinator::new(
                spec,
                &CoordinatorConfig {
                    lease_patience: 8,
                    max_inflight: 4,
                    journal: None,
                    resume: false,
                    durable: false,
                },
            )
            .unwrap(),
        ));
        let opts = WorkerOptions {
            worker_id: "t-worker".to_string(),
            threads: 1,
            poll: Duration::from_millis(1),
            ..WorkerOptions::default()
        };
        let summary = run_worker(
            LocalTransport::new(Arc::clone(&coordinator)),
            &opts,
            |name| (name == "tiny").then(tiny_scenario),
        )
        .unwrap();
        assert_eq!(summary.shards_completed, 2);
        assert_eq!(summary.replications_run, 4);
        let c = coordinator.lock().unwrap();
        assert!(c.is_done());
        let merged = c.merged().unwrap();
        assert_eq!(merged.sessions.len(), 4);
    }

    #[test]
    fn kill_injection_parses() {
        // from_env is covered via direct construction (env mutation races
        // the parallel test harness); here we pin the parser shape only.
        let k = KillInjection {
            replication: 5,
            stall: false,
        };
        assert_eq!(k.replication, 5);
        assert!(!k.stall);
        // Arming a non-matching replication returns.
        k.arm(4);
    }
}
