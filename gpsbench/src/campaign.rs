//! Campaign workloads: the paper's Set-1 single-node scenario run through
//! the public orchestration API, the path `campaignd` uses — a
//! `Coordinator` with a durable journal, two `run_worker` threads with one
//! pool thread each, and a `ShardTransport` supplied here — all in this
//! process. One *round* is one whole campaign, from building the scenario
//! to the merged report; a run repeats rounds for the requested time.

use crate::Outcome;
use gps_experiments::paper::table1_sources;
use gps_experiments::scenarios::{self, SessionBounds};
use gps_sim::orchestrate::{
    run_worker, CampaignSpec, CompleteReply, Coordinator, CoordinatorConfig, LeaseReply,
    ShardTransport, SubmitReply, WorkerOptions, WorkerSummary,
};
use gps_sim::runner::{merge_single_node_reports, SingleNodeRunReport};
use gps_sim::supervise::SimError;
use gps_sources::SlotSource;
use gps_stats::RngCore;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker threads, each running its shards on one pool thread: the load
/// fits a 2-CPU host without oversubscribing it.
const WORKERS: usize = 2;
/// Rounds a run makes even when they outlast the requested time.
const MIN_ROUNDS: usize = 3;
const SCENARIO: &str = "paper";

/// Size of one round.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub replications: u64,
    pub warmup: u64,
    pub measure: u64,
    pub shard_size: u64,
    /// Check pooled throughput against the Table-1 means; needs enough
    /// measured slots for the 0.005 tolerance to sit beyond the noise.
    pub check_throughput: bool,
}

/// Round sizes per workload; `smoke` shrinks them for tests.
pub fn params(workload: &str, smoke: bool) -> Option<Params> {
    match (workload, smoke) {
        // Few long replications: the measure loop is nearly all the time.
        // One replication per shard keeps the two workers' finishing times
        // within ~1/32 of a round of each other.
        ("campaign_long", false) => Some(Params {
            replications: 32,
            warmup: 2_000,
            measure: 125_000,
            shard_size: 1,
            check_throughput: true,
        }),
        ("campaign_long", true) => Some(Params {
            replications: 4,
            warmup: 200,
            measure: 60_000,
            shard_size: 1,
            check_throughput: true,
        }),
        // Many 10-slot replications: per-replication overhead and the
        // journal rewrite on every sealed shard are nearly all the time.
        ("campaign_many", false) => Some(Params {
            replications: 2_000,
            warmup: 0,
            measure: 10,
            shard_size: 50,
            check_throughput: false,
        }),
        ("campaign_many", true) => Some(Params {
            replications: 200,
            warmup: 0,
            measure: 10,
            shard_size: 10,
            check_throughput: false,
        }),
        _ => None,
    }
}

/// Source-build counters shared by the workers' `make_sources` closures.
#[derive(Debug, Default)]
struct SourceTrace {
    builds: AtomicU64,
    ns: AtomicU64,
}

/// Time and count of one kind of coordinator call.
#[derive(Debug, Default, Clone, Copy)]
struct CallStats {
    calls: u64,
    wait: Duration,
    busy: Duration,
}

const LEASE: usize = 0;
const SUBMIT: usize = 1;
const COMPLETE: usize = 2;
const CALL_NAMES: [&str; 3] = ["lease", "submit", "complete"];

/// What one worker's transport saw.
#[derive(Debug, Default)]
struct WorkerLog {
    shard_latencies: Vec<Duration>,
    calls: [CallStats; 3],
    submit_bytes: u64,
    accepted: u64,
    /// Time between a `Wait` reply and the next poll (the worker sleeps).
    idle: Duration,
    journal_bytes_rewritten: u64,
}

/// `ShardTransport` over a shared in-process `Coordinator`, like the
/// library's `LocalTransport`, that also times each shard from lease to
/// sealed complete. When traced it times every call: `wait` is the time
/// to get the coordinator lock, `busy` the time in the call.
struct BenchTransport {
    coordinator: Arc<Mutex<Coordinator>>,
    log: Arc<Mutex<WorkerLog>>,
    /// Journal to measure after each seal; `Some` only when traced.
    traced_journal: Option<PathBuf>,
    shard_started: Option<Instant>,
    idle_since: Option<Instant>,
}

impl BenchTransport {
    /// Runs `f` under the coordinator lock, then `after` (still under the
    /// lock, so a seal's journal size is read before the other worker
    /// appends to the journal again).
    fn call<R>(
        &mut self,
        kind: usize,
        f: impl FnOnce(&mut Coordinator) -> R,
        after: impl FnOnce(&R, &mut WorkerLog, bool),
    ) -> Result<R, String> {
        let traced = self.traced_journal.is_some();
        let t0 = Instant::now();
        let mut c = self
            .coordinator
            .lock()
            .map_err(|_| "coordinator poisoned".to_string())?;
        let t1 = Instant::now();
        let reply = f(&mut c);
        let t2 = Instant::now();
        let mut log = self.log.lock().expect("worker log poisoned");
        if traced {
            let stats = &mut log.calls[kind];
            stats.calls += 1;
            stats.wait += t1 - t0;
            stats.busy += t2 - t1;
            if let Some(since) = self.idle_since.take() {
                log.idle += t0.saturating_duration_since(since);
            }
        }
        after(&reply, &mut log, traced);
        drop(c);
        Ok(reply)
    }
}

impl ShardTransport for BenchTransport {
    fn lease(&mut self, worker: &str) -> Result<LeaseReply, String> {
        let reply = self.call(LEASE, |c| c.lease(worker), |_, _, _| {})?;
        match reply {
            LeaseReply::Shard { .. } => self.shard_started = Some(Instant::now()),
            LeaseReply::Wait if self.traced_journal.is_some() => {
                self.idle_since = Some(Instant::now())
            }
            _ => {}
        }
        Ok(reply)
    }

    fn submit(&mut self, line: &str) -> Result<SubmitReply, String> {
        self.call(
            SUBMIT,
            |c| c.submit_line(line),
            |reply, log, traced| {
                if traced {
                    log.submit_bytes += line.len() as u64;
                    log.accepted += u64::from(*reply == SubmitReply::Accepted);
                }
            },
        )
    }

    fn complete(&mut self, shard: u64, token: u64) -> Result<CompleteReply, String> {
        let journal = self.traced_journal.clone();
        let started = self.shard_started.take();
        self.call(
            COMPLETE,
            |c| c.complete(shard, token),
            |reply, log, _| {
                if *reply != CompleteReply::Complete {
                    return;
                }
                if let Some(t) = started {
                    log.shard_latencies.push(t.elapsed());
                }
                if let Some(path) = &journal {
                    log.journal_bytes_rewritten += file_len(path);
                }
            },
        )
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Per-layer figures of one traced round.
#[derive(Debug, Default, Clone)]
struct RoundTrace {
    source_builds: u64,
    source_build: Duration,
    worker_busy: Duration,
    wait_polls: u64,
    calls: [CallStats; 3],
    submit_bytes: u64,
    accepted: u64,
    journal_rewritten: u64,
    journal_final: u64,
    merge: Duration,
    /// Slowest worker's busy-plus-idle span plus the merge, over the wall.
    attributed_frac: f64,
}

struct Round {
    setup: Duration,
    wall: Duration,
    shard_latencies: Vec<Duration>,
    report: SingleNodeRunReport,
    trace: Option<RoundTrace>,
}

/// Runs one campaign. Failed checks and operations are recorded in
/// `out`; `Err` is a worker or merge error.
fn round(
    p: &Params,
    seed: u64,
    journal: &Path,
    traced: bool,
    out: &mut Outcome,
) -> Result<Round, SimError> {
    let t0 = Instant::now();
    let mut scenario = scenarios::resolve(SCENARIO).expect("campaignd's scenario registry has it");
    scenario.cfg.warmup = p.warmup;
    scenario.cfg.measure = p.measure;
    scenario.cfg.seed = seed;
    let spec = CampaignSpec {
        scenario: SCENARIO.to_string(),
        cfg: scenario.cfg.clone(),
        replications: p.replications,
        shard_size: p.shard_size,
    };
    let ccfg = CoordinatorConfig {
        // Live workers must never lose a lease: an expiry is a failure.
        lease_patience: 1_000_000,
        max_inflight: 64,
        journal: Some(journal.to_path_buf()),
        resume: false,
        durable: true,
    };
    let coordinator = Arc::new(Mutex::new(Coordinator::new(spec, &ccfg)?));
    let setup = t0.elapsed();

    let sources = Arc::new(SourceTrace::default());
    if traced {
        scenario.make_sources = counted(Arc::clone(&scenario.make_sources), Arc::clone(&sources));
    }
    let scenario = &scenario;
    let t1 = Instant::now();
    let workers: Vec<(Result<WorkerSummary, SimError>, Duration, WorkerLog)> =
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let log = Arc::new(Mutex::new(WorkerLog::default()));
                    let transport = BenchTransport {
                        coordinator: Arc::clone(&coordinator),
                        log: Arc::clone(&log),
                        traced_journal: traced.then(|| journal.to_path_buf()),
                        shard_started: None,
                        idle_since: None,
                    };
                    s.spawn(move || {
                        let opts = WorkerOptions {
                            worker_id: format!("bench-{w}"),
                            threads: 1,
                            poll: Duration::from_millis(1),
                            max_wait_polls: 1_000_000,
                            ..WorkerOptions::default()
                        };
                        let t = Instant::now();
                        let result = run_worker(transport, &opts, |name| {
                            (name == SCENARIO).then(|| scenario.worker_scenario())
                        });
                        let span = t.elapsed();
                        let log = std::mem::take(&mut *log.lock().expect("worker log poisoned"));
                        (result, span, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
    for (result, _, _) in &workers {
        result.as_ref().map_err(Clone::clone)?;
    }
    let c = coordinator.lock().expect("coordinator poisoned");
    let tm = Instant::now();
    let merged = c.merged();
    let merge = tm.elapsed();
    let wall = t1.elapsed();
    let report = merged?;

    // Correctness: every replication arrived exactly once, nothing was
    // rejected or re-leased, and the merged report covers every slot.
    let stats = c.stats();
    out.failed += stats.rejected
        + stats.duplicates
        + stats.expired
        + p.replications.saturating_sub(stats.submitted);
    let mut check = |ok: bool, what: String| {
        if !ok {
            out.failures.push(what);
        }
    };
    check(
        stats.submitted == p.replications
            && stats.duplicates == 0
            && stats.rejected == 0
            && stats.expired == 0,
        format!(
            "coordinator stats {stats:?} for {} replications",
            p.replications
        ),
    );
    check(
        report.measured_slots == p.replications * p.measure,
        format!(
            "merged report covers {} slots, expected {}",
            report.measured_slots,
            p.replications * p.measure
        ),
    );
    for (i, violations) in bound_violations(&report, &scenario.bounds)
        .into_iter()
        .enumerate()
    {
        check(
            violations == 0,
            format!(
                "session {} exceeds its Theorem-10 bound at {violations} points",
                i + 1
            ),
        );
    }

    let trace = traced.then(|| {
        let mut t = RoundTrace {
            source_builds: sources.builds.load(Ordering::Relaxed),
            source_build: Duration::from_nanos(sources.ns.load(Ordering::Relaxed)),
            merge,
            journal_final: file_len(journal),
            ..RoundTrace::default()
        };
        let mut slowest = Duration::ZERO;
        for (result, span, log) in &workers {
            t.worker_busy += span.saturating_sub(log.idle);
            t.wait_polls += result.as_ref().map_or(0, |s| s.wait_polls);
            for (sum, call) in t.calls.iter_mut().zip(&log.calls) {
                sum.calls += call.calls;
                sum.wait += call.wait;
                sum.busy += call.busy;
            }
            t.submit_bytes += log.submit_bytes;
            t.accepted += log.accepted;
            t.journal_rewritten += log.journal_bytes_rewritten;
            slowest = slowest.max(*span);
        }
        t.attributed_frac = (slowest + merge).as_secs_f64() / wall.as_secs_f64();
        t
    });
    let shard_latencies = workers
        .into_iter()
        .flat_map(|(_, _, log)| log.shard_latencies)
        .collect();
    Ok(Round {
        setup,
        wall,
        shard_latencies,
        report,
        trace,
    })
}

type MakeSources = Arc<dyn Fn(u64) -> Vec<Box<dyn SlotSource>> + Send + Sync>;

/// `make_sources`, counted and timed into `trace`.
fn counted(make_sources: MakeSources, trace: Arc<SourceTrace>) -> MakeSources {
    Arc::new(move |r| {
        let t = Instant::now();
        let sources = make_sources(r);
        trace
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        trace.builds.fetch_add(1, Ordering::Relaxed);
        sources
    })
}

/// Grid points where a session's empirical tail exceeds its certificate
/// by more than three standard errors (the rule `campaignd` prints).
fn bound_violations(report: &SingleNodeRunReport, bounds: &[Option<SessionBounds>]) -> Vec<usize> {
    let se = |p: f64| (p * (1.0 - p) / report.measured_slots as f64).sqrt();
    report
        .sessions
        .iter()
        .zip(bounds)
        .map(|(session, bounds)| {
            let Some(b) = bounds else { return 0 };
            let over = |series: Vec<(f64, f64)>, bound: &gps_ebb::TailBound| {
                series
                    .into_iter()
                    .filter(|&(x, p)| p > bound.tail(x) + 3.0 * se(p))
                    .count()
            };
            over(session.backlog.series(), &b.backlog) + over(session.delay.series(), &b.delay)
        })
        .collect()
}

/// Runs rounds for `seconds` (at least [`MIN_ROUNDS`]). A traced run
/// alternates traced and untraced rounds, so the tracing overhead is
/// measured under the same conditions as the layers.
pub fn run(p: &Params, seed: u64, seconds: f64, traced: bool, work_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let journal = work_dir.join("journal.ndjson");
    // Replication r of round k runs with seed base + k·R + r: rounds cover
    // disjoint replications of one long campaign.
    let base = gps_stats::Xoshiro256pp::seed_from_u64(seed).next_u64() >> 1;
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let k = rounds.len() as u64;
        let round_traced = traced && k.is_multiple_of(2);
        let seed = base.wrapping_add(k * p.replications);
        out.attempted += p.replications;
        let failures = out.failures.len();
        match round(p, seed, &journal, round_traced, &mut out) {
            Ok(r) => rounds.push(r),
            Err(e) => {
                out.failed += p.replications;
                out.failures.push(format!("round {k}: {e}"));
            }
        }
        // Outside the timed windows, so the next set-up starts clean.
        std::fs::remove_file(&journal).ok();
        if out.failures.len() > failures {
            break;
        }
    }
    if rounds.is_empty() {
        return out;
    }
    if p.check_throughput {
        let reports: Vec<SingleNodeRunReport> = rounds.iter().map(|r| r.report.clone()).collect();
        let pooled = merge_single_node_reports(&reports);
        for (i, (session, src)) in pooled.sessions.iter().zip(table1_sources()).enumerate() {
            let mean = src.mean_rate();
            if (session.throughput - mean).abs() > 0.005 {
                out.failures.push(format!(
                    "session {} throughput {:.5} is not within 0.005 of its Table-1 mean {mean:.5}",
                    i + 1,
                    session.throughput
                ));
            }
        }
    }

    let secs = |d: &Duration| d.as_secs_f64();
    let walls = |traced_rounds: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.trace.is_some() == traced_rounds)
            .map(|r| secs(&r.wall))
            .collect()
    };
    let m = &mut out.metrics;
    if !traced {
        let setups: Vec<f64> = rounds.iter().map(|r| secs(&r.setup)).collect();
        let shards: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.shard_latencies.iter().map(|d| d.as_secs_f64() * 1e6))
            .collect();
        m.insert("setup_s".into(), crate::stats::median(&setups));
        // Replications over the mean round time, not the median: a round's
        // cost depends on its seeds, and the mean weighs every round run.
        m.insert(
            "ops_per_s".into(),
            p.replications as f64 / crate::stats::mean(&walls(false)),
        );
        m.insert("p50_us".into(), crate::stats::median(&shards));
        m.insert("peak_rss_mb".into(), crate::host::peak_rss_mb(None));
        return out;
    }

    let traces: Vec<&RoundTrace> = rounds.iter().filter_map(|r| r.trace.as_ref()).collect();
    let n = traces.len() as f64;
    let mean = |f: &dyn Fn(&RoundTrace) -> f64| traces.iter().map(|t| f(t)).sum::<f64>() / n;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let slot_steps = (p.replications * (p.warmup + p.measure)) as f64;
    let busy = mean(&|t| secs(&t.worker_busy));
    let coord = mean(&|t| t.calls.iter().map(|c| secs(&(c.wait + c.busy))).sum());
    let builds = mean(&|t| secs(&t.source_build));
    let sim = busy - coord - builds;
    m.insert("sources.builds".into(), mean(&|t| t.source_builds as f64));
    m.insert("sources.build_ms".into(), builds * 1e3);
    m.insert("worker.busy_s".into(), busy);
    m.insert("worker.wait_polls".into(), mean(&|t| t.wait_polls as f64));
    m.insert("worker.sim_s".into(), sim);
    m.insert("kernel.slot_steps".into(), slot_steps);
    m.insert("kernel.ns_per_step".into(), sim * 1e9 / slot_steps);
    for (k, name) in CALL_NAMES.iter().enumerate() {
        m.insert(
            format!("coord.{name}.calls"),
            mean(&|t| t.calls[k].calls as f64),
        );
        m.insert(
            format!("coord.{name}.wait_ms"),
            mean(&|t| ms(t.calls[k].wait)),
        );
        m.insert(
            format!("coord.{name}.busy_ms"),
            mean(&|t| ms(t.calls[k].busy)),
        );
    }
    m.insert(
        "coord.submit.bytes".into(),
        mean(&|t| t.submit_bytes as f64),
    );
    m.insert(
        "coord.accepted_frac".into(),
        mean(&|t| t.accepted as f64) / mean(&|t| t.calls[SUBMIT].calls as f64),
    );
    m.insert(
        "journal.bytes_rewritten".into(),
        mean(&|t| t.journal_rewritten as f64),
    );
    m.insert(
        "journal.bytes_final".into(),
        mean(&|t| t.journal_final as f64),
    );
    m.insert("fold.merge_ms".into(), mean(&|t| ms(t.merge)));
    let attributed: Vec<f64> = traces.iter().map(|t| t.attributed_frac).collect();
    m.insert(
        "unattributed_frac".into(),
        1.0 - crate::stats::median(&attributed),
    );
    m.insert(
        "trace_overhead_frac".into(),
        crate::stats::mean(&walls(true)) / crate::stats::mean(&walls(false)) - 1.0,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, traced: bool) -> Outcome {
        let dir = crate::target_dir().join(format!(
            "gpsbench/test-{}-{workload}-{traced}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = params(workload, true).unwrap();
        let out = run(&p, 7, 0.0, traced, &dir);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    #[test]
    fn smoke_campaigns_pass_every_check() {
        for workload in ["campaign_long", "campaign_many"] {
            let out = smoke(workload, false);
            assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
            assert_eq!(out.failed, 0);
            for metric in ["setup_s", "ops_per_s", "p50_us", "peak_rss_mb"] {
                let v = out.metrics[metric];
                assert!(v.is_finite() && v > 0.0, "{workload} {metric} = {v}");
            }
        }
    }

    #[test]
    fn traced_smoke_campaign_reports_layers() {
        let out = smoke("campaign_many", true);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let p = params("campaign_many", true).unwrap();
        assert_eq!(out.metrics["sources.builds"], p.replications as f64);
        assert_eq!(out.metrics["coord.submit.calls"], p.replications as f64);
        assert_eq!(out.metrics["coord.accepted_frac"], 1.0);
        assert!(out.metrics["journal.bytes_rewritten"] >= out.metrics["journal.bytes_final"]);
        assert!(out.metrics["trace_overhead_frac"].is_finite());
    }
}
