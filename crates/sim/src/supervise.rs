//! Campaign supervision: the typed failure taxonomy, the [`Supervisor`]
//! spec, and the crash-safe checkpoint codec and file that the campaign
//! funnel ([`crate::campaign`]) runs under.
//!
//! A plain campaign re-raises the first replication panic and loses all
//! completed work when the process dies. A campaign given a
//! [`Supervisor`] runs every replication through
//! [`gps_par::Pool::try_map`] instead, so that:
//!
//! * a panicking replication is retried up to [`gps_par::RetryPolicy`]
//!   attempts with the *same* replication seed (replication `r` always
//!   uses master seed `base.seed + r`, and the pool rebuilds the worker's
//!   simulator scratch after every caught panic, so a recovered run is
//!   byte-identical to one that never panicked), then **quarantined** —
//!   the campaign completes with the surviving replications and the
//!   quarantined indices are surfaced through `sim.campaign.quarantined`
//!   counters and `warn` journal events;
//! * typed failures ([`SimError`]) are never retried — they are
//!   deterministic functions of the inputs;
//! * completed replication reports are appended to a **line-atomic NDJSON
//!   checkpoint** in `results/`, keyed by (config fingerprint, base seed,
//!   replication index). A killed campaign resumes with
//!   [`Supervisor::resume`]: checkpointed replications short-circuit
//!   inside the worker closure (so pool/metric accounting is identical)
//!   and only missing indices are recomputed. Straight-through, killed +
//!   resumed, and retried runs all produce byte-identical CSVs and
//!   metrics JSON.
//!
//! # Checkpoint file layout
//!
//! One JSON object per line, written with a single `write_all` under a
//! mutex (line-atomic: a crash can only truncate the *last* line, and the
//! loader skips unparseable or mismatched lines):
//!
//! ```text
//! {"v":1,"kind":"single_node","config":"<16-hex fnv1a>","seed":123,"replication":4,"report":{...}}
//! ```
//!
//! The config fingerprint covers everything but the seed (weights,
//! capacity, warmup/measure, grids, topology), so a stale checkpoint from
//! a different configuration is ignored rather than corrupting results.
//! Grids are pinned by the fingerprint and therefore omitted from the
//! report payload; non-finite floats (legal in empty
//! [`StreamingMoments`] extrema) are encoded as the strings
//! `"inf"`/`"-inf"`/`"nan"` because JSON has no non-finite numbers. Each
//! kind's fingerprint and payload codec live in its
//! [`Replication`](crate::campaign::Replication) impl, built from the
//! shared encoders here.
//!
//! # Fault injection
//!
//! `GPS_FAULT_TASK_PANIC=<r>` makes replication `r` panic on every
//! attempt (quarantine path); `GPS_FAULT_TASK_PANIC=<r>:once` panics only
//! on the first attempt (retry-recovery path). [`PanicInjection`] is also
//! constructible directly so tests need not race on the environment.

use gps_ebb::numeric::NumericError;
use gps_obs::json::{self, Json};
use gps_par::RetryPolicy;
use gps_sources::spectral::ConvergenceError;
use gps_stats::{BinnedCcdf, StreamingMoments};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::faults::FaultConfigError;

/// Typed failure of one campaign replication (or of the campaign itself,
/// for checkpoint I/O). Everything a supervised run can report instead
/// of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A replication panicked on every permitted attempt.
    Panicked {
        /// The replication index.
        replication: u64,
        /// The final panic message.
        message: String,
    },
    /// A numeric helper or θ-optimizer failed.
    Numeric(NumericError),
    /// The Perron power iteration failed to converge.
    Convergence(ConvergenceError),
    /// A fault-injection config was out of domain.
    Fault(FaultConfigError),
    /// The checkpoint file could not be opened or read (campaign-fatal:
    /// running without the requested crash safety would be silent data
    /// loss).
    Checkpoint(String),
    /// A replication produced a non-finite statistic.
    NonFinite {
        /// The replication index.
        replication: u64,
        /// Which statistic escaped.
        what: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Panicked {
                replication,
                message,
            } => {
                write!(f, "replication {replication} panicked: {message}")
            }
            SimError::Numeric(e) => write!(f, "numeric failure: {e}"),
            SimError::Convergence(e) => write!(f, "{e}"),
            SimError::Fault(e) => write!(f, "invalid fault config: {e}"),
            SimError::Checkpoint(msg) => write!(f, "checkpoint failure: {msg}"),
            SimError::NonFinite { replication, what } => {
                write!(f, "replication {replication} produced non-finite {what}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<NumericError> for SimError {
    fn from(e: NumericError) -> Self {
        SimError::Numeric(e)
    }
}

impl From<ConvergenceError> for SimError {
    fn from(e: ConvergenceError) -> Self {
        SimError::Convergence(e)
    }
}

impl From<FaultConfigError> for SimError {
    fn from(e: FaultConfigError) -> Self {
        SimError::Fault(e)
    }
}

/// Deterministic per-replication panic injection, normally parsed from
/// `GPS_FAULT_TASK_PANIC` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicInjection {
    /// The replication index to fault.
    pub replication: u64,
    /// When true, only the first attempt panics (exercises the
    /// retry-recovery path); otherwise every attempt panics (exercises
    /// quarantine).
    pub once: bool,
}

impl PanicInjection {
    /// Parses `GPS_FAULT_TASK_PANIC` (`"<r>"` or `"<r>:once"`). Returns
    /// `None` when unset; malformed values are reported via a `warn`
    /// event and ignored.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("GPS_FAULT_TASK_PANIC").ok()?;
        let (num, once) = match raw.strip_suffix(":once") {
            Some(head) => (head, true),
            None => (raw.as_str(), false),
        };
        match num.trim().parse::<u64>() {
            Ok(replication) => Some(Self { replication, once }),
            Err(_) => {
                gps_obs::warn(
                    "sim.supervise",
                    "bad_fault_injection",
                    &[("value", raw.as_str().into())],
                );
                None
            }
        }
    }

    /// Panics iff this injection targets `replication` on `attempt`.
    pub fn arm(&self, replication: u64, attempt: u32) {
        if replication == self.replication && (!self.once || attempt == 0) {
            panic!(
                "injected task panic (GPS_FAULT_TASK_PANIC) at replication {replication} attempt {attempt}"
            );
        }
    }
}

/// Callback invoked after each freshly computed replication completes
/// (checkpoint payload in hand, before the replication is counted done).
/// Workers in [`crate::orchestrate`] use this to stream results to the
/// coordinator; an `Err` fails the replication with
/// [`SimError::Checkpoint`] (never retried — transport retries belong in
/// the hook).
pub type OnComplete = std::sync::Arc<dyn Fn(u64, &Json) -> Result<(), String> + Send + Sync>;

/// How a supervised campaign should run: retry budget, optional
/// checkpoint file, resume mode, and optional fault injection.
#[derive(Clone, Default)]
pub struct Supervisor {
    /// Retry policy for panicking replications (default: one retry).
    pub retry: RetryPolicy,
    /// Checkpoint NDJSON path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// When true, replications already in the checkpoint are restored
    /// instead of recomputed; when false an existing checkpoint file is
    /// discarded first.
    pub resume: bool,
    /// Deterministic panic injection (tests pass this directly;
    /// binaries use [`PanicInjection::from_env`]).
    pub inject: Option<PanicInjection>,
    /// Streaming hook for freshly computed replications (not fired for
    /// checkpoint restores). See [`OnComplete`].
    pub on_complete: Option<OnComplete>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("retry", &self.retry)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .field("inject", &self.inject)
            .field("on_complete", &self.on_complete.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Supervisor {
    /// A supervisor with default retry, no checkpoint, no injection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the checkpoint path.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Sets resume mode.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Sets the injection knob.
    pub fn with_inject(mut self, inject: Option<PanicInjection>) -> Self {
        self.inject = inject;
        self
    }
}

// ---------------------------------------------------------------------
// Config fingerprints

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(text: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

pub(crate) fn push_f64s(out: &mut String, label: &str, values: &[f64]) {
    out.push_str(label);
    out.push(':');
    for v in values {
        out.push_str(&format!("{:016x},", v.to_bits()));
    }
    out.push(';');
}

// ---------------------------------------------------------------------
// Report (de)serialization

/// JSON-encodes an `f64` exactly: finite values round-trip through the
/// shortest-decimal writer; non-finite values (which `json::fmt_f64`
/// would flatten to `null`) become tagged strings.
pub(crate) fn num_to_json(v: f64) -> Json {
    if v.is_finite() {
        Json::F64(v)
    } else if v.is_nan() {
        Json::Str("nan".to_string())
    } else if v > 0.0 {
        Json::Str("inf".to_string())
    } else {
        Json::Str("-inf".to_string())
    }
}

pub(crate) fn num_from_json(j: &Json) -> Option<f64> {
    match j {
        Json::Str(s) => match s.as_str() {
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            "nan" => Some(f64::NAN),
            _ => None,
        },
        other => other.as_f64(),
    }
}

pub(crate) fn ccdf_to_json(c: &BinnedCcdf) -> Json {
    Json::Obj(vec![
        ("total".to_string(), Json::U64(c.len())),
        (
            "exceed".to_string(),
            Json::Arr(c.exceed_counts().iter().map(|&e| Json::U64(e)).collect()),
        ),
    ])
}

pub(crate) fn ccdf_from_json(grid: &[f64], j: &Json) -> Option<BinnedCcdf> {
    let total = j.get("total")?.as_u64()?;
    let Json::Arr(items) = j.get("exceed")? else {
        return None;
    };
    let exceed: Option<Vec<u64>> = items.iter().map(|e| e.as_u64()).collect();
    BinnedCcdf::from_parts(grid.to_vec(), exceed?, total)
}

pub(crate) fn moments_to_json(m: &StreamingMoments) -> Json {
    Json::Obj(vec![
        ("count".to_string(), Json::U64(m.count())),
        ("mean".to_string(), num_to_json(m.mean())),
        ("m2".to_string(), num_to_json(m.m2())),
        ("min".to_string(), num_to_json(m.min())),
        ("max".to_string(), num_to_json(m.max())),
    ])
}

pub(crate) fn moments_from_json(j: &Json) -> Option<StreamingMoments> {
    Some(StreamingMoments::from_parts(
        j.get("count")?.as_u64()?,
        num_from_json(j.get("mean")?)?,
        num_from_json(j.get("m2")?)?,
        num_from_json(j.get("min")?)?,
        num_from_json(j.get("max")?)?,
    ))
}

// ---------------------------------------------------------------------
// Checkpoint file

/// Renders one checkpoint line (no trailing newline) in the v1 format
/// described in the module docs. The same encoding is used by local
/// checkpoints, worker result streams, and the coordinator journal, so
/// a line written anywhere restores everywhere.
pub fn checkpoint_line(
    kind: &str,
    fingerprint: u64,
    seed: u64,
    replication: u64,
    report: &Json,
) -> String {
    Json::Obj(vec![
        ("v".to_string(), Json::U64(1)),
        ("kind".to_string(), Json::Str(kind.to_string())),
        (
            "config".to_string(),
            Json::Str(format!("{fingerprint:016x}")),
        ),
        ("seed".to_string(), Json::U64(seed)),
        ("replication".to_string(), Json::U64(replication)),
        ("report".to_string(), report.clone()),
    ])
    .to_compact()
}

/// Parses one checkpoint line, returning `(replication, payload)` when
/// the line is well-formed and belongs to the campaign identified by
/// `(kind, fingerprint, seed)`. Inverse of [`checkpoint_line`].
pub fn decode_checkpoint_line(
    line: &str,
    kind: &str,
    fingerprint: u64,
    seed: u64,
) -> Option<(u64, Json)> {
    let v = json::parse(line).ok()?;
    if v.get("v")?.as_u64()? != 1
        || v.get("kind")?.as_str()? != kind
        || v.get("config")?.as_str()? != format!("{fingerprint:016x}")
        || v.get("seed")?.as_u64()? != seed
    {
        return None;
    }
    let r = v.get("replication")?.as_u64()?;
    let report = v.get("report")?.clone();
    Some((r, report))
}

/// Append-only NDJSON checkpoint: appends are single `write_all`s of
/// complete lines under one mutex, so a crash can only truncate the
/// final line, and [`open`](Self::open) skips and newline-terminates
/// such a torn tail. [`sync`](Self::sync) makes every line appended so
/// far survive power loss, not just process death: one `fdatasync` of
/// the append handle, plus one `fsync` of the parent directory on the
/// first call. Synced bytes are never rewritten, so only the unsynced
/// tail can tear. Used for local campaign checkpoints and as the
/// coordinator journal in [`crate::orchestrate`].
#[derive(Debug)]
pub struct CheckpointFile {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    dir_synced: AtomicBool,
    kind: String,
    fingerprint: u64,
    seed: u64,
}

impl CheckpointFile {
    /// Opens (resume) or recreates (fresh) the checkpoint at `path` and
    /// loads the restorable replication payloads.
    pub fn open(
        path: &Path,
        kind: &str,
        fingerprint: u64,
        seed: u64,
        resume: bool,
    ) -> Result<(Self, HashMap<u64, Json>), SimError> {
        let io_err = |what: &str, e: std::io::Error| {
            SimError::Checkpoint(format!("{what} {}: {e}", path.display()))
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| io_err("create dir for", e))?;
            }
        }
        let mut restored = HashMap::new();
        let mut needs_newline = false;
        if resume {
            match std::fs::read_to_string(path) {
                Ok(content) => {
                    needs_newline = !content.is_empty() && !content.ends_with('\n');
                    for (lineno, line) in content.lines().enumerate() {
                        if line.trim().is_empty() {
                            continue;
                        }
                        match decode_checkpoint_line(line, kind, fingerprint, seed) {
                            Some((r, report)) => {
                                restored.insert(r, report);
                            }
                            None => {
                                gps_obs::warn(
                                    "sim.supervise",
                                    "checkpoint_line_skipped",
                                    &[("line", (lineno + 1).into())],
                                );
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err("read", e)),
            }
        } else {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err("remove stale", e)),
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        if needs_newline {
            // Terminate a truncated trailing line so our appends start on
            // a fresh line; the partial line stays (and is skipped by the
            // loader) rather than being rewritten, preserving append-only
            // crash safety.
            file.write_all(b"\n").map_err(|e| io_err("repair", e))?;
        }
        Ok((
            Self {
                path: path.to_path_buf(),
                file: Mutex::new(file),
                dir_synced: AtomicBool::new(false),
                kind: kind.to_string(),
                fingerprint,
                seed,
            },
            restored,
        ))
    }

    /// Appends one completed replication as a full line. Append failures
    /// are reported as `warn` events, not errors — the campaign result is
    /// still correct, the file just protects less work on the next crash.
    pub fn append(&self, replication: u64, report: Json) {
        let mut text = checkpoint_line(
            &self.kind,
            self.fingerprint,
            self.seed,
            replication,
            &report,
        );
        text.push('\n');
        gps_obs::trace::instant(
            gps_obs::TraceKind::CheckpointWrite,
            "checkpoint_write",
            replication,
        );
        let mut file = self.file.lock().expect("checkpoint mutex poisoned");
        if let Err(e) = file.write_all(text.as_bytes()) {
            gps_obs::warn(
                "sim.supervise",
                "checkpoint_append_failed",
                &[
                    ("replication", replication.into()),
                    ("error", e.to_string().as_str().into()),
                ],
            );
        }
    }

    /// Makes every line appended so far durable: `fdatasync` of the
    /// append handle and, on the first successful call, `fsync` of the
    /// parent directory, so the file's creation (and the removal of a
    /// stale file by a fresh [`open`](Self::open)) is durable before any
    /// synced record is relied on. Failures are warn-only, like
    /// [`append`](Self::append); a failed directory sync is retried on
    /// the next call.
    pub fn sync(&self) {
        let file = self.file.lock().expect("checkpoint mutex poisoned");
        let mut result = file.sync_data();
        if result.is_ok() && !self.dir_synced.load(Ordering::Relaxed) {
            let dir = match self.path.parent() {
                Some(d) if !d.as_os_str().is_empty() => d,
                _ => Path::new("."),
            };
            result = std::fs::File::open(dir).and_then(|d| d.sync_all());
            self.dir_synced.store(result.is_ok(), Ordering::Relaxed);
        }
        if let Err(e) = result {
            gps_obs::warn(
                "sim.supervise",
                "checkpoint_sync_failed",
                &[("error", e.to_string().as_str().into())],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Replication};
    use crate::runner::run_single_node_core_scratch;
    use crate::runner::{NetworkRunConfig, SingleNodeRunConfig, SingleNodeRunReport};
    use gps_par::{Pool, TaskOutcome};
    use gps_sources::OnOffSource;
    use gps_sources::SlotSource;

    fn grids() -> (Vec<f64>, Vec<f64>) {
        let b: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let d: Vec<f64> = (0..20).map(|i| i as f64).collect();
        (b, d)
    }

    fn base_cfg(seed: u64) -> SingleNodeRunConfig {
        let (bg, dg) = grids();
        SingleNodeRunConfig {
            phis: vec![0.2, 0.25, 0.2, 0.25],
            capacity: 1.0,
            warmup: 50,
            measure: 500,
            seed,
            backlog_grid: bg,
            delay_grid: dg,
        }
    }

    fn onoff_sources() -> Vec<Box<dyn SlotSource>> {
        OnOffSource::paper_table1()
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn SlotSource>)
            .collect()
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gps_supervise_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}_checkpoint.ndjson"))
    }

    fn assert_reports_equal(a: &SingleNodeRunReport, b: &SingleNodeRunReport) {
        assert_eq!(a.measured_slots, b.measured_slots);
        assert_eq!(a.sessions.len(), b.sessions.len());
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.backlog.exceed_counts(), y.backlog.exceed_counts());
            assert_eq!(x.delay.exceed_counts(), y.delay.exceed_counts());
            assert_eq!(x.backlog_moments, y.backlog_moments);
            assert_eq!(x.throughput.to_bits(), y.throughput.to_bits());
        }
    }

    #[test]
    fn fingerprint_ignores_seed_but_not_shape() {
        let a = base_cfg(1);
        let b = base_cfg(999);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = base_cfg(1);
        c.capacity = 2.0;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = base_cfg(1);
        d.backlog_grid.push(100.0);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn report_json_round_trips_exactly() {
        let cfg = base_cfg(0xAB);
        let mut sources = onoff_sources();
        let report = run_single_node_core_scratch(&mut Default::default(), &mut sources, &cfg);
        let j = SingleNodeRunConfig::report_to_json(&report);
        let text = j.to_compact();
        let back = cfg.report_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_reports_equal(&report, &back);
    }

    #[test]
    fn supervised_matches_plain_campaign() {
        let base = base_cfg(0x5EED);
        let plain = Campaign::new(Pool::new(2), 3)
            .run(&base, |_| onoff_sources())
            .unwrap()
            .into_reports();
        let sup = Supervisor::new();
        let out = Campaign::new(Pool::new(2), 3)
            .supervisor(&sup)
            .run(&base, |_| onoff_sources())
            .unwrap();
        assert_eq!(out.restored, 0);
        assert!(out.quarantined.is_empty());
        let completed = out.completed();
        assert_eq!(completed.len(), 3);
        for (a, b) in plain.iter().zip(&completed) {
            assert_reports_equal(a, b);
        }
    }

    #[test]
    fn checkpoint_then_resume_restores_everything() {
        let base = base_cfg(0xC0);
        let path = temp_path("resume_all");
        let sup = Supervisor::new().with_checkpoint(&path);
        let first = Campaign::new(Pool::new(2), 4)
            .supervisor(&sup)
            .run(&base, |_| onoff_sources())
            .unwrap();
        assert_eq!(first.restored, 0);
        // Resume: every replication restored, no recomputation — and a
        // poisoned make_sources proves nothing runs.
        let resumed = Campaign::new(Pool::new(2), 4)
            .supervisor(&Supervisor::new().with_checkpoint(&path).with_resume(true))
            .run(&base, |_| -> Vec<Box<dyn SlotSource>> {
                panic!("must not recompute")
            })
            .unwrap();
        assert_eq!(resumed.restored, 4);
        for (a, b) in first.completed().iter().zip(&resumed.completed()) {
            assert_reports_equal(a, b);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_checkpoint_resumes_and_matches() {
        let base = base_cfg(0xD1);
        let path = temp_path("truncated");
        let sup = Supervisor::new().with_checkpoint(&path);
        let straight = Campaign::new(Pool::new(1), 4)
            .supervisor(&sup)
            .run(&base, |_| onoff_sources())
            .unwrap();
        // Kill mid-write: keep two full lines plus half of the third.
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 4);
        let truncated = format!(
            "{}\n{}\n{}",
            lines[0],
            lines[1],
            &lines[2][..lines[2].len() / 2]
        );
        std::fs::write(&path, truncated).unwrap();
        let resumed = Campaign::new(Pool::new(2), 4)
            .supervisor(&Supervisor::new().with_checkpoint(&path).with_resume(true))
            .run(&base, |_| onoff_sources())
            .unwrap();
        assert_eq!(resumed.restored, 2);
        for (a, b) in straight.completed().iter().zip(&resumed.completed()) {
            assert_reports_equal(a, b);
        }
        // The repaired file now restores all four.
        let again = Campaign::new(Pool::new(1), 4)
            .supervisor(&Supervisor::new().with_checkpoint(&path).with_resume(true))
            .run(&base, |_| -> Vec<Box<dyn SlotSource>> {
                panic!("must not recompute")
            })
            .unwrap();
        assert_eq!(again.restored, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_fingerprint_lines_are_ignored() {
        let base = base_cfg(0xE2);
        let path = temp_path("stale");
        let sup = Supervisor::new().with_checkpoint(&path);
        Campaign::new(Pool::new(1), 2)
            .supervisor(&sup)
            .run(&base, |_| onoff_sources())
            .unwrap();
        // Same file, different config shape: nothing restorable.
        let mut other = base_cfg(0xE2);
        other.capacity = 2.0;
        let resumed = Campaign::new(Pool::new(1), 2)
            .supervisor(&Supervisor::new().with_checkpoint(&path).with_resume(true))
            .run(&other, |_| onoff_sources())
            .unwrap();
        assert_eq!(resumed.restored, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn permanent_injection_quarantines_and_campaign_completes() {
        let base = base_cfg(0xF3);
        let sup = Supervisor::new().with_inject(Some(PanicInjection {
            replication: 2,
            once: false,
        }));
        let out = Campaign::new(Pool::new(2), 5)
            .supervisor(&sup)
            .run(&base, |_| onoff_sources())
            .unwrap();
        assert_eq!(out.quarantined, vec![2]);
        assert_eq!(out.completed().len(), 4);
        assert!(matches!(
            out.tasks[2].outcome,
            TaskOutcome::Panicked(ref m) if m.contains("GPS_FAULT_TASK_PANIC")
        ));
        assert_eq!(out.tasks[2].attempts, 2); // default policy: one retry
        let quarantined_total = gps_obs::metrics().counter("sim.campaign.quarantined").get();
        assert!(quarantined_total >= 1);
    }

    #[test]
    fn transient_injection_recovers_byte_identically() {
        let base = base_cfg(0x1234);
        let clean = Campaign::new(Pool::new(1), 4)
            .supervisor(&Supervisor::new())
            .run(&base, |_| onoff_sources())
            .unwrap();
        let sup = Supervisor::new().with_inject(Some(PanicInjection {
            replication: 1,
            once: true,
        }));
        let out = Campaign::new(Pool::new(2), 4)
            .supervisor(&sup)
            .run(&base, |_| onoff_sources())
            .unwrap();
        assert!(out.quarantined.is_empty());
        assert_eq!(out.tasks[1].attempts, 2);
        for (a, b) in clean.completed().iter().zip(&out.completed()) {
            assert_reports_equal(a, b);
        }
    }

    #[test]
    fn injection_env_parsing() {
        assert_eq!(
            "7".parse::<u64>().map(|r| PanicInjection {
                replication: r,
                once: false
            }),
            Ok(PanicInjection {
                replication: 7,
                once: false
            })
        );
        // from_env reads the process environment, which tests must not
        // mutate (parallel test runner); the parse paths are covered via
        // the strip_suffix contract instead.
        let raw = "3:once";
        let (num, once) = match raw.strip_suffix(":once") {
            Some(head) => (head, true),
            None => (raw, false),
        };
        assert_eq!((num.parse::<u64>().unwrap(), once), (3, true));
    }

    #[test]
    fn network_checkpoint_round_trips() {
        use gps_core::NetworkTopology;
        let (bg, dg) = grids();
        let base = NetworkRunConfig {
            topology: NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]),
            warmup: 50,
            measure: 400,
            seed: 0x77,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let path = temp_path("network");
        let sup = Supervisor::new().with_checkpoint(&path);
        let first = Campaign::new(Pool::new(2), 3)
            .supervisor(&sup)
            .run(&base, |_| onoff_sources())
            .unwrap();
        let resumed = Campaign::new(Pool::new(2), 3)
            .supervisor(&Supervisor::new().with_checkpoint(&path).with_resume(true))
            .run(&base, |_| -> Vec<Box<dyn SlotSource>> {
                panic!("must not recompute")
            })
            .unwrap();
        assert_eq!(resumed.restored, 3);
        for (a, b) in first.completed().iter().zip(&resumed.completed()) {
            assert_eq!(a.measured_slots, b.measured_slots);
            for i in 0..4 {
                assert_eq!(a.backlog[i].exceed_counts(), b.backlog[i].exceed_counts());
                assert_eq!(a.delay[i].exceed_counts(), b.delay[i].exceed_counts());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sim_error_display_and_froms() {
        let e: SimError = NumericError::EmptyFamily.into();
        assert!(e.to_string().contains("numeric"));
        let e: SimError = ConvergenceError {
            iterations: 10,
            residual: 0.5,
        }
        .into();
        assert!(e.to_string().contains("converge"));
        let e: SimError = FaultConfigError::DropChance(2.0).into();
        assert!(e.to_string().contains("drop_chance"));
        let e = SimError::NonFinite {
            replication: 3,
            what: "throughput",
        };
        assert!(e.to_string().contains("throughput"));
    }

    #[test]
    fn appends_before_and_after_sync_all_restore() {
        let path = temp_path("sync_append");
        let (ckpt, restored) =
            CheckpointFile::open(&path, "single_node", 0xabcd, 7, false).expect("open checkpoint");
        assert!(restored.is_empty());
        ckpt.append(2, Json::U64(22));
        ckpt.append(0, Json::U64(10));
        ckpt.sync();
        let synced = std::fs::read(&path).unwrap();
        // Syncing appends nothing and rewrites nothing; later appends
        // extend the synced bytes, and a second sync is just as inert.
        ckpt.append(1, Json::U64(11));
        ckpt.sync();
        ckpt.append(3, Json::U64(33));
        drop(ckpt);
        let content = std::fs::read(&path).unwrap();
        assert!(content.starts_with(&synced));
        assert_eq!(String::from_utf8(content).unwrap().lines().count(), 4);
        let (_ckpt2, restored) =
            CheckpointFile::open(&path, "single_node", 0xabcd, 7, true).expect("reopen checkpoint");
        let expected: HashMap<u64, Json> = [(0, 10), (1, 11), (2, 22), (3, 33)]
            .into_iter()
            .map(|(r, v)| (r, Json::U64(v)))
            .collect();
        assert_eq!(restored, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_line_round_trips_and_rejects_mismatches() {
        let payload = Json::Obj(vec![("x".to_string(), Json::U64(5))]);
        let line = checkpoint_line("single_node", 0x1234, 99, 41, &payload);
        let (r, back) = decode_checkpoint_line(&line, "single_node", 0x1234, 99).unwrap();
        assert_eq!((r, back), (41, payload));
        // Any identity mismatch makes the line invisible.
        assert!(decode_checkpoint_line(&line, "network", 0x1234, 99).is_none());
        assert!(decode_checkpoint_line(&line, "single_node", 0x9999, 99).is_none());
        assert!(decode_checkpoint_line(&line, "single_node", 0x1234, 98).is_none());
        assert!(decode_checkpoint_line("not json", "single_node", 0x1234, 99).is_none());
    }

    #[test]
    fn non_finite_numbers_round_trip_via_strings() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, 1.5, 0.0] {
            let j = num_to_json(v);
            let text = j.to_compact();
            let back = num_from_json(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "value {v}");
        }
        let j = num_to_json(f64::NAN);
        assert!(num_from_json(&json::parse(&j.to_compact()).unwrap())
            .unwrap()
            .is_nan());
    }
}
