//! Deterministic scoped fork-join parallelism for measurement campaigns.
//!
//! The workloads this workspace parallelizes — Monte Carlo replications,
//! per-session θ/ξ optimizations, grid sweeps — are embarrassingly
//! parallel: every task owns its inputs (typically a
//! [`SeedSequence`](../gps_stats/rng/struct.SeedSequence.html)-derived
//! RNG) and tasks never communicate. The only thing that can break
//! reproducibility is *result ordering*, so this crate guarantees exactly
//! one thing on top of `std::thread::scope`:
//!
//! > **Results are collected in submission order, regardless of worker
//! > count or scheduling.** [`Pool::map`] with `k` threads returns the
//! > same `Vec` as a serial `map`, element for element.
//!
//! Because each task's output is a pure function of its input, a campaign
//! built on a [`Pool`] produces byte-identical CSVs, metrics snapshots,
//! and golden tables whether it runs on 1 thread or 64 — determinism is
//! the contract, speedup is the side effect.
//!
//! # The pool
//!
//! A [`Pool`] is a plain value — `{ threads, chunk }` — with three
//! methods, all draining through one chunked range engine:
//!
//! * [`Pool::map`] — `f(index, item)` over a slice;
//! * [`Pool::map_with`] — the same with per-worker scratch state: `init`
//!   runs once per worker per fork-join, and the value it builds is
//!   reused across every chunk that worker drains, so expensive per-task
//!   setup (simulator state, output buffers) amortizes to once per
//!   worker;
//! * [`Pool::try_map`] — the supervised variant of `map_with` (see
//!   *Supervision* below).
//!
//! [`Pool::from_env`] reads `GPS_PAR_THREADS`:
//!
//! * unset or `0` — `std::thread::available_parallelism()`;
//! * `1` — exact serial fallback *through the same code path* (a single
//!   worker drains the shared index counter in submission order);
//! * `k` — at most `k` workers (never more than there are tasks).
//!
//! # Task granularity (chunking)
//!
//! Workers pull *chunks* of consecutive indices from a shared atomic
//! cursor, not single indices. An explicit [`Pool::chunk`] is used as
//! given; `None` defers to the `GPS_PAR_CHUNK` environment variable and
//! then to `max(1, n / (workers * DEFAULT_CHUNKS_PER_WORKER))` for `n`
//! tasks on `workers` workers ([`Pool::chunk_for`]). Chunking amortizes
//! the cursor fetch, the per-result collection lock (one push of a whole
//! batch per chunk instead of one per task), and — through `map_with`
//! scratch — per-task setup.
//!
//! Chunking is *never* load-bearing for correctness: each task's output
//! is still placed by its submission index, so any chunk size (and any
//! worker count) produces the same `Vec` — `scripts/verify.sh` runs the
//! whole suite with `GPS_PAR_CHUNK=1` to pin that.
//!
//! # Panics
//!
//! A panicking `map` / `map_with` task does not deadlock the pool: the
//! panic payload is captured at `join` and re-raised on the caller thread
//! ([`std::panic::resume_unwind`]), after all other workers finished.
//!
//! # Supervision
//!
//! The fail-fast behavior above is right for programming errors but wrong
//! for long measurement campaigns, where one poisoned task would discard
//! millions of healthy replications. [`Pool::try_map`] catches each
//! task's panic with [`std::panic::catch_unwind`] and returns a
//! [`TaskReport`] per index instead of aborting the join:
//!
//! * `TaskOutcome::Ok(r)` — the task produced a value (possibly after
//!   retries);
//! * `TaskOutcome::Failed(e)` — the task returned a typed error. Typed
//!   failures are deterministic (a pure function of the task's inputs),
//!   so they are **never retried**;
//! * `TaskOutcome::Panicked(msg)` — the task panicked on every permitted
//!   attempt and is *quarantined*: the slot keeps the final panic message
//!   and the caller decides what to do with the hole.
//!
//! A panic can leave the worker's scratch half-updated, so after every
//! caught panic `try_map` rebuilds that worker's scratch with `init()`
//! before the retry (or before the next task, after a quarantine). The
//! retried task therefore sees the same fresh state as a first attempt.
//!
//! Supervision stays per *task*, not per chunk: each index inside a chunk
//! is independently caught, retried, and (if exhausted) quarantined, so
//! chunked supervised campaigns retry and quarantine identically to
//! per-task ones.
//!
//! The [`RetryPolicy`] is deterministic by construction: a fixed attempt
//! budget, the attempt number passed to the task (so it can re-derive any
//! per-attempt state from its seed), and **no wall-clock backoff** — a
//! replayed campaign makes byte-identical retry decisions. Every caught
//! panic, retry, recovery, and quarantine is surfaced through `gps_obs`
//! (`par.tasks_panicked` / `par.tasks_retried` / `par.tasks_recovered` /
//! `par.tasks_quarantined` / `par.tasks_failed` counters plus `warn`
//! journal events), so a supervised campaign leaves an audit trail of
//! exactly which indices were bumpy. These counters are pure functions of
//! the workload and its injected faults — like `par.tasks_executed`, they
//! never depend on worker count or scheduling.
//!
//! # Pool telemetry
//!
//! Every fork-join bumps the global `par.tasks_executed` counter by the
//! task count — a pure function of the workload, so it never perturbs
//! the cross-thread-count byte-identity of metrics snapshots. The
//! scheduling-dependent signals — the `par.pool.workers` gauge and the
//! per-worker `par/worker_busy` span — are only recorded while
//! `gps_obs` timing is enabled, keeping them in the same
//! explicitly-nondeterministic tier as all other wall-clock data (the
//! snapshot's `"spans"` section and the workers gauge feed the live
//! exporter, not the deterministic reports).

use std::panic;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How many chunks each worker gets on average under the default
/// granularity: `chunk = max(1, n / (workers * DEFAULT_CHUNKS_PER_WORKER))`.
/// A handful of chunks per worker keeps the pool load-balanced against
/// uneven task costs while still amortizing the shared cursor fetch and
/// the collection lock over many tasks.
pub(crate) const DEFAULT_CHUNKS_PER_WORKER: usize = 4;

/// A 64-byte-aligned wrapper that gives a per-chunk fold accumulator its
/// own cache line(s), so partial results accumulated by different workers
/// never false-share while the fold is hot. Campaign folds wrap their
/// per-chunk partials (`BinnedCcdf` + `StreamingMoments` aggregates) in
/// this before handing them back through the collection lock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(align(64))]
pub struct CacheAligned<T>(pub T);

/// A fork-join pool: at most `threads` workers claiming `chunk`
/// consecutive indices at a time (see the crate docs). A `Pool` is a
/// plain value — workers are scoped threads spawned per fork-join — so
/// it is free to copy, compare, and store in a campaign spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    /// Maximum worker count (clamped to `1..=n` per fork-join of `n`
    /// tasks).
    pub threads: usize,
    /// Indices per claim. `None` defers to `GPS_PAR_CHUNK`, then to the
    /// default granularity; see [`Pool::chunk_for`].
    pub chunk: Option<usize>,
}

impl Pool {
    /// A pool of `threads` workers with the default chunking.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads,
            chunk: None,
        }
    }

    /// The pool the environment asks for: worker count from
    /// `GPS_PAR_THREADS` (unset or `0` → available parallelism, always at
    /// least 1), chunk left to [`Pool::chunk_for`] (which honors
    /// `GPS_PAR_CHUNK`).
    pub fn from_env() -> Pool {
        let threads = match std::env::var("GPS_PAR_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            Some(0) | None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Some(k) => k,
        };
        Pool::new(threads)
    }

    /// The chunk size a fork-join of `n` tasks uses: the explicit
    /// [`chunk`](Pool::chunk), else `GPS_PAR_CHUNK` if positive, else
    /// `max(1, n / (workers * DEFAULT_CHUNKS_PER_WORKER))`.
    pub fn chunk_for(&self, n: usize) -> usize {
        if let Some(c) = self.chunk {
            return c;
        }
        match std::env::var("GPS_PAR_CHUNK")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
        {
            Some(c) => c,
            None => {
                let workers = self.threads.max(1).min(n.max(1));
                (n / (workers * DEFAULT_CHUNKS_PER_WORKER)).max(1)
            }
        }
    }

    /// Maps `f(index, item)` over `items`; results come back in
    /// submission order. The index makes it easy to derive per-task seeds
    /// without cloning them into the items.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_with(items, || (), |_, i, item| f(i, item))
    }

    /// Maps `f(&mut scratch, index, item)` over `items` with per-worker
    /// scratch state. `init` runs once per worker per fork-join; the
    /// scratch value it builds is reused across every chunk that worker
    /// drains. Each chunk's results are batched locally and pushed under
    /// the collection lock *once per chunk*, then placed by submission
    /// index after the join — output order is independent of worker
    /// count, chunk size, and scheduling.
    pub fn map_with<T, R, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let n = items.len();
        let chunk = self.chunk_for(n);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let collected: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(
            n.checked_div(chunk).unwrap_or(0).saturating_add(1),
        ));
        run_ranges(self.threads, n, chunk, &init, |scratch, range| {
            let start = range.start;
            let mut batch = Vec::with_capacity(range.len());
            for i in range {
                batch.push(f(scratch, i, &items[i]));
            }
            collected
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((start, batch));
        });
        let produced = collected.into_inner().unwrap_or_else(|e| e.into_inner());
        for (start, batch) in produced {
            for (k, r) in batch.into_iter().enumerate() {
                slots[start + k] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index produced exactly once"))
            .collect()
    }

    /// Supervised [`map_with`](Pool::map_with) with deterministic retry:
    /// `f(&mut scratch, index, attempt, item)` is called with
    /// `attempt = 0` first; every caught panic rebuilds the worker's
    /// scratch with `init()` and consumes one attempt until
    /// [`RetryPolicy::max_attempts`] is exhausted, at which point the
    /// slot is quarantined as [`TaskOutcome::Panicked`]. Typed `Err`
    /// returns are final immediately. Results come back in submission
    /// order, independent of worker count and chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_attempts` is 0.
    pub fn try_map<T, R, E, S, I, F>(
        &self,
        items: &[T],
        policy: RetryPolicy,
        init: I,
        f: F,
    ) -> Vec<TaskReport<R, E>>
    where
        T: Sync,
        R: Send,
        E: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, u32, &T) -> Result<R, E> + Sync,
    {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.map_with(items, &init, |scratch, i, item| {
            supervise_one(scratch, &init, i, item, policy, &f)
        })
    }
}

/// Outcome of one supervised task (see the crate-level *Supervision*
/// section).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome<R, E> {
    /// The task produced a value, possibly after retried panics.
    Ok(R),
    /// The task returned a typed error. Typed failures are deterministic
    /// — a pure function of the task's inputs — so they are not retried.
    Failed(E),
    /// The task panicked on every permitted attempt (the final panic
    /// message is kept) and its slot is quarantined.
    Panicked(String),
}

impl<R, E> TaskOutcome<R, E> {
    /// The produced value, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Borrows the produced value, if any.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// One slot of a supervised fork-join: the outcome plus how many
/// attempts it took.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport<R, E> {
    /// What the task ultimately produced.
    pub outcome: TaskOutcome<R, E>,
    /// Attempts actually made (1 = the first try settled it).
    pub attempts: u32,
}

/// Deterministic retry policy for supervised maps: a fixed attempt
/// budget and nothing else — no wall-clock backoff, no jitter — so a
/// replayed campaign makes byte-identical retry decisions. Only panics
/// are retried; typed [`TaskOutcome::Failed`] errors are deterministic
/// and retrying them cannot change the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per task, including the first (must be ≥ 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// One retry after the first panic — enough to absorb transient
    /// environmental failures without masking systematic ones.
    fn default() -> Self {
        Self { max_attempts: 2 }
    }
}

/// Cached handles for the supervision counters (see crate docs).
struct SupervisionCounters {
    panicked: gps_obs::Counter,
    retried: gps_obs::Counter,
    recovered: gps_obs::Counter,
    quarantined: gps_obs::Counter,
    failed: gps_obs::Counter,
}

fn supervision_counters() -> &'static SupervisionCounters {
    static C: OnceLock<SupervisionCounters> = OnceLock::new();
    C.get_or_init(|| {
        let m = gps_obs::metrics();
        SupervisionCounters {
            panicked: m.counter("par.tasks_panicked"),
            retried: m.counter("par.tasks_retried"),
            recovered: m.counter("par.tasks_recovered"),
            quarantined: m.counter("par.tasks_quarantined"),
            failed: m.counter("par.tasks_failed"),
        }
    })
}

/// Best-effort text of a panic payload (`&str` and `String` payloads,
/// which is what `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one task under the retry policy, catching panics per attempt,
/// rebuilding the scratch after each one, and recording supervision
/// telemetry.
fn supervise_one<T, R, E, S, I, F>(
    scratch: &mut S,
    init: &I,
    i: usize,
    item: &T,
    policy: RetryPolicy,
    f: &F,
) -> TaskReport<R, E>
where
    I: Fn() -> S,
    F: Fn(&mut S, usize, u32, &T) -> Result<R, E>,
{
    let counters = supervision_counters();
    let mut attempts = 0u32;
    loop {
        let attempt = attempts;
        attempts += 1;
        match panic::catch_unwind(panic::AssertUnwindSafe(|| f(scratch, i, attempt, item))) {
            Ok(Ok(r)) => {
                if attempt > 0 {
                    counters.recovered.inc();
                    gps_obs::warn(
                        "par",
                        "task_recovered",
                        &[
                            ("index", i.into()),
                            ("attempts", u64::from(attempts).into()),
                        ],
                    );
                }
                return TaskReport {
                    outcome: TaskOutcome::Ok(r),
                    attempts,
                };
            }
            Ok(Err(e)) => {
                counters.failed.inc();
                gps_obs::warn(
                    "par",
                    "task_failed",
                    &[("index", i.into()), ("attempt", u64::from(attempt).into())],
                );
                return TaskReport {
                    outcome: TaskOutcome::Failed(e),
                    attempts,
                };
            }
            Err(payload) => {
                *scratch = init();
                let message = panic_message(payload.as_ref());
                counters.panicked.inc();
                gps_obs::warn(
                    "par",
                    "task_panicked",
                    &[
                        ("index", i.into()),
                        ("attempt", u64::from(attempt).into()),
                        ("message", message.as_str().into()),
                    ],
                );
                if attempts >= policy.max_attempts {
                    counters.quarantined.inc();
                    gps_obs::warn(
                        "par",
                        "task_quarantined",
                        &[
                            ("index", i.into()),
                            ("attempts", u64::from(attempts).into()),
                            ("message", message.as_str().into()),
                        ],
                    );
                    return TaskReport {
                        outcome: TaskOutcome::Panicked(message),
                        attempts,
                    };
                }
                counters.retried.inc();
            }
        }
    }
}

/// Records pool telemetry for one fork-join of `n` tasks on `workers`
/// workers; returns whether per-worker busy-time spans should be taken.
/// The counter handle is cached so the per-call cost after the first
/// fork-join is one relaxed atomic add.
fn pool_metrics(n: usize, workers: usize) -> bool {
    static TASKS: OnceLock<gps_obs::Counter> = OnceLock::new();
    TASKS
        .get_or_init(|| gps_obs::metrics().counter("par.tasks_executed"))
        .add(n as u64);
    let timing = gps_obs::global().timing_enabled();
    if timing {
        static WORKERS: OnceLock<gps_obs::Gauge> = OnceLock::new();
        WORKERS
            .get_or_init(|| gps_obs::metrics().gauge("par.pool.workers"))
            .set(workers as f64);
    }
    timing
}

/// Per-worker accounting slots for one fork-join, filled only when span
/// timing or the flight recorder is on. Cache-line padded so workers
/// flushing their totals never false-share.
#[derive(Debug, Default)]
struct WorkerAccount {
    /// Wall-clock spent inside `body` (chunk execution).
    busy_ns: AtomicU64,
    /// Wall-clock spent claiming ranges off the shared cursor — the
    /// contention signal of the chunked engine.
    wait_ns: AtomicU64,
    /// Chunks this worker claimed.
    chunks: AtomicU64,
    /// Indices this worker processed (sum of chunk lengths).
    items: AtomicU64,
}

/// Publishes the per-worker and load-imbalance gauges for one finished
/// fork-join: `par.worker.{busy,idle,wait}_ns{worker=w}` and
/// `par.worker.chunks{worker=w}` per worker, plus `par.pool.wall_ns` and
/// `par.pool.imbalance_permille` (1000 × max worker busy / mean worker
/// busy; 1000 ⇒ perfectly balanced). Timing-gated by the caller, like
/// `par.pool.workers`: the values are wall-clock-dependent and must stay
/// out of the deterministic metrics snapshot.
fn publish_pool_accounts(accounts: &[CacheAligned<WorkerAccount>], wall_ns: u64) {
    let m = gps_obs::metrics();
    let mut busy_sum = 0u64;
    let mut busy_max = 0u64;
    for (w, acc) in accounts.iter().enumerate() {
        let busy = acc.0.busy_ns.load(Ordering::Relaxed);
        let wait = acc.0.wait_ns.load(Ordering::Relaxed);
        let idle = wall_ns.saturating_sub(busy + wait);
        busy_sum += busy;
        busy_max = busy_max.max(busy);
        let worker = w.to_string();
        let labels: &[(&str, &str)] = &[("worker", &worker)];
        m.gauge(&gps_obs::labeled("par.worker.busy_ns", labels))
            .set(busy as f64);
        m.gauge(&gps_obs::labeled("par.worker.wait_ns", labels))
            .set(wait as f64);
        m.gauge(&gps_obs::labeled("par.worker.idle_ns", labels))
            .set(idle as f64);
        m.gauge(&gps_obs::labeled("par.worker.chunks", labels))
            .set(acc.0.chunks.load(Ordering::Relaxed) as f64);
    }
    let busy_mean = busy_sum / accounts.len().max(1) as u64;
    m.gauge("par.pool.wall_ns").set(wall_ns as f64);
    if let Some(permille) = busy_max.saturating_mul(1000).checked_div(busy_mean) {
        m.gauge("par.pool.imbalance_permille").set(permille as f64);
    }
}

/// The range engine underneath every fork-join: workers pull
/// `chunk`-sized index ranges from an atomic cursor until exhausted,
/// calling `body(&mut scratch, range)` per range with a per-worker
/// scratch value built once by `init`. With one worker this degenerates
/// to the exact serial `for` order through the same code path.
///
/// When span timing or the `GPS_OBS_TRACE` flight recorder is on, the
/// drain loop additionally accounts per-worker busy / cursor-wait time,
/// chunks claimed, and items processed, records one `par/chunk` span per
/// chunk (max/mean chunk wall-clock fall out of the span stats), emits a
/// begin/end trace event per chunk on the worker's lane, and bumps the
/// live progress tracker's chunk counter. With both off, the drain loop
/// is exactly the bare cursor-and-call path it always was.
fn run_ranges<S, I, B>(threads: usize, n: usize, chunk: usize, init: &I, body: B)
where
    I: Fn() -> S + Sync,
    B: Fn(&mut S, std::ops::Range<usize>) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if n == 0 {
        return;
    }
    let workers = threads.max(1).min(n);
    let timing = pool_metrics(n, workers);
    let tracing = gps_obs::trace::enabled();
    let instrumented = timing || tracing;
    let cursor = AtomicUsize::new(0);
    let accounts: Vec<CacheAligned<WorkerAccount>> = if instrumented {
        (0..workers)
            .map(|_| CacheAligned(WorkerAccount::default()))
            .collect()
    } else {
        Vec::new()
    };
    let t_pool = Instant::now();
    let drain = |_worker: usize| {
        let mut scratch = init();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                return;
            }
            body(&mut scratch, start..(start + chunk).min(n));
        }
    };
    // The accounted drain: same claim/call structure, plus per-chunk
    // clocks, trace events, and progress ticks.
    let drain_accounted = |worker: usize| {
        let mut scratch = init();
        let acc = &accounts[worker].0;
        let mut t_prev = Instant::now();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            let t_claim = Instant::now();
            acc.wait_ns
                .fetch_add((t_claim - t_prev).as_nanos() as u64, Ordering::Relaxed);
            if start >= n {
                return;
            }
            let range = start..(start + chunk).min(n);
            let len = range.len() as u64;
            gps_obs::trace::begin(gps_obs::TraceKind::WorkerChunk, "chunk", len);
            body(&mut scratch, range);
            let t_done = Instant::now();
            gps_obs::trace::end(gps_obs::TraceKind::WorkerChunk, "chunk");
            let chunk_ns = (t_done - t_claim).as_nanos() as u64;
            acc.busy_ns.fetch_add(chunk_ns, Ordering::Relaxed);
            acc.chunks.fetch_add(1, Ordering::Relaxed);
            acc.items.fetch_add(len, Ordering::Relaxed);
            if timing {
                gps_obs::metrics().record_span("par/chunk", chunk_ns);
            }
            gps_obs::global_progress().add_chunk();
            t_prev = t_done;
        }
    };
    let work = |worker: usize| {
        if instrumented {
            gps_obs::trace::set_lane(worker as u16 + 1);
            let t0 = Instant::now();
            drain_accounted(worker);
            if timing {
                gps_obs::metrics().record_span("par/worker_busy", t0.elapsed().as_nanos() as u64);
            }
            // The serial path runs on the caller's thread; give its
            // later events (folds, exports) the main lane back.
            gps_obs::trace::set_lane(0);
        } else {
            drain(worker);
        }
    };
    if workers == 1 {
        // Single worker: same drain loop, no thread spawn — this *is* the
        // serial path, so `GPS_PAR_THREADS=1` costs nothing over a plain
        // loop and trivially preserves submission order.
        work(0);
        if instrumented && timing {
            publish_pool_accounts(&accounts, t_pool.elapsed().as_nanos() as u64);
        }
        return;
    }
    let panics = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().err())
            .collect::<Vec<_>>()
    });
    if instrumented && timing {
        publish_pool_accounts(&accounts, t_pool.elapsed().as_nanos() as u64);
    }
    if let Some(payload) = panics.into_iter().next() {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn pool(threads: usize, chunk: usize) -> Pool {
        Pool {
            threads,
            chunk: Some(chunk),
        }
    }

    #[test]
    fn map_preserves_submission_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 7] {
            let out = Pool::new(threads).map(&items, |_, &x| x * x);
            let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, want, "threads = {threads}");
        }
    }

    #[test]
    fn map_passes_correct_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = Pool::new(3).map(&items, |i, &s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn empty_input_returns_empty() {
        let items: Vec<u32> = vec![];
        assert!(Pool::new(4).map(&items, |_, &x| x).is_empty());
        let none: Vec<()> = pool(4, 8).map(&items, |_, _| panic!("must not run"));
        assert!(none.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = Pool::new(8).map(&[41], |_, &x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn map_covers_every_index_once() {
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        for (threads, chunk) in [(1, 1), (4, 1), (4, 16), (3, 997)] {
            for h in &hits {
                h.store(0, Ordering::Relaxed);
            }
            pool(threads, chunk).map(&hits, |_, h| {
                h.fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads {threads} chunk {chunk}"
            );
        }
    }

    #[test]
    fn disjoint_slot_writes_match_serial() {
        // The one-slot-per-index pattern campaigns use.
        let n = 64;
        let mut parallel = vec![0.0f64; n];
        {
            let cells: Vec<Mutex<&mut f64>> = parallel.iter_mut().map(Mutex::new).collect();
            pool(4, 4).map(&cells, |i, cell| {
                **cell.lock().unwrap() = (i as f64).sqrt();
            });
        }
        let serial: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn panic_propagates_with_payload() {
        let items: Vec<u32> = (0..32).collect();
        let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            Pool::new(4).map(&items, |_, &x| {
                if x == 17 {
                    panic!("task 17 failed");
                }
                x
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_else(|| {
            payload
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .unwrap()
        });
        assert!(msg.contains("task 17 failed"));
    }

    #[test]
    fn serial_fallback_panic_propagates_too() {
        let items: Vec<usize> = (0..4).collect();
        let r = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            pool(1, 1).map(&items, |i, _| assert!(i != 2, "boom"))
        }));
        assert!(r.is_err());
    }

    #[test]
    fn from_env_threads_is_positive() {
        assert!(Pool::from_env().threads >= 1);
    }

    #[test]
    fn tasks_executed_counter_tracks_workload() {
        // The counter is global and other tests run concurrently, so
        // assert growth by at least this call's contribution.
        let before = gps_obs::metrics().counter("par.tasks_executed").get();
        let items: Vec<u64> = (0..123).collect();
        let _ = Pool::new(4).map(&items, |_, &x| x);
        let after = gps_obs::metrics().counter("par.tasks_executed").get();
        assert!(after >= before + 123, "before {before}, after {after}");
    }

    #[test]
    fn try_map_isolates_panics_and_typed_failures() {
        let items: Vec<u32> = (0..32).collect();
        for threads in [1, 4] {
            let out = Pool::new(threads).try_map(
                &items,
                RetryPolicy { max_attempts: 1 },
                || (),
                |_, _, _, &x| {
                    if x == 7 {
                        panic!("task 7 blew up");
                    }
                    if x == 11 {
                        return Err(format!("task {x} declined"));
                    }
                    Ok(x * 2)
                },
            );
            assert_eq!(out.len(), 32, "threads {threads}");
            for (i, o) in out.iter().map(|r| &r.outcome).enumerate() {
                match (i as u32, o) {
                    (7, TaskOutcome::Panicked(msg)) => assert!(msg.contains("task 7 blew up")),
                    (11, TaskOutcome::Failed(e)) => assert_eq!(e, "task 11 declined"),
                    (x, TaskOutcome::Ok(r)) => assert_eq!(*r, x * 2),
                    (x, o) => panic!("index {x}: unexpected outcome {o:?}"),
                }
            }
        }
    }

    #[test]
    fn retry_recovers_transient_panics_with_attempt_number() {
        let items: Vec<u32> = (0..8).collect();
        let out = Pool::new(3).try_map(
            &items,
            RetryPolicy { max_attempts: 3 },
            || (),
            |_, _, attempt, &x| -> Result<u32, String> {
                // Index 5 panics on its first two attempts, then succeeds —
                // the recovery is deterministic in (index, attempt) alone.
                if x == 5 && attempt < 2 {
                    panic!("transient failure, attempt {attempt}");
                }
                Ok(x + 100 * attempt)
            },
        );
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                assert_eq!(r.attempts, 3);
                assert_eq!(r.outcome, TaskOutcome::Ok(5 + 200));
            } else {
                assert_eq!(r.attempts, 1);
                assert_eq!(r.outcome, TaskOutcome::Ok(i as u32));
            }
        }
    }

    #[test]
    fn exhausted_retries_quarantine_with_final_message() {
        let items = [0u8, 1, 2];
        let out = Pool::new(2).try_map(
            &items,
            RetryPolicy { max_attempts: 2 },
            || (),
            |_, _, attempt, &x| -> Result<u8, String> {
                if x == 1 {
                    panic!("always broken (attempt {attempt})");
                }
                Ok(x)
            },
        );
        assert_eq!(out[0].outcome, TaskOutcome::Ok(0));
        assert_eq!(out[2].outcome, TaskOutcome::Ok(2));
        assert_eq!(out[1].attempts, 2);
        match &out[1].outcome {
            TaskOutcome::Panicked(msg) => assert!(msg.contains("attempt 1"), "got {msg}"),
            o => panic!("expected quarantine, got {o:?}"),
        }
    }

    #[test]
    fn typed_failures_are_never_retried() {
        let tries = AtomicU64::new(0);
        let items = [42u8];
        let out = Pool::new(1).try_map(
            &items,
            RetryPolicy { max_attempts: 5 },
            || (),
            |_, _, _, _| -> Result<(), &'static str> {
                tries.fetch_add(1, Ordering::Relaxed);
                Err("deterministic failure")
            },
        );
        assert_eq!(tries.load(Ordering::Relaxed), 1);
        assert_eq!(out[0].attempts, 1);
        assert_eq!(out[0].outcome, TaskOutcome::Failed("deterministic failure"));
    }

    #[test]
    fn supervision_counters_track_outcomes() {
        let m = gps_obs::metrics();
        let before_p = m.counter("par.tasks_panicked").get();
        let before_q = m.counter("par.tasks_quarantined").get();
        let before_r = m.counter("par.tasks_recovered").get();
        let items = [0u8, 1, 2, 3];
        let _ = Pool::new(2).try_map(
            &items,
            RetryPolicy { max_attempts: 2 },
            || (),
            |_, _, attempt, &x| -> Result<u8, String> {
                match x {
                    1 => panic!("permanent"),                 // 2 panics, 1 quarantine
                    2 if attempt == 0 => panic!("transient"), // 1 panic, 1 recovery
                    _ => Ok(x),
                }
            },
        );
        assert!(m.counter("par.tasks_panicked").get() >= before_p + 3);
        assert!(m.counter("par.tasks_quarantined").get() > before_q);
        assert!(m.counter("par.tasks_recovered").get() > before_r);
    }

    #[test]
    fn chunk_for_default_granularity() {
        // verify.sh runs one pass with GPS_PAR_CHUNK=1; the default-math
        // assertions only hold when the override is absent.
        if std::env::var("GPS_PAR_CHUNK").is_ok() {
            return;
        }
        assert_eq!(Pool::new(4).chunk_for(64), 4); // 64 / (4*4)
        assert_eq!(Pool::new(8).chunk_for(1_000_000), 31_250);
        assert_eq!(Pool::new(8).chunk_for(3), 1); // never zero
        assert_eq!(Pool::new(4).chunk_for(0), 1);
        assert_eq!(Pool::new(0).chunk_for(16), 4); // workers clamped to >= 1
        assert_eq!(pool(4, 7).chunk_for(64), 7); // explicit chunk wins
    }

    #[test]
    fn chunked_map_is_chunk_invariant() {
        let items: Vec<u64> = (0..193).collect();
        let want: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 4] {
            for chunk in [Some(1), Some(7), Some(64), Some(193), Some(10_000), None] {
                let out = Pool { threads, chunk }.map(&items, |_, &x| x * 3 + 1);
                assert_eq!(out, want, "threads {threads} chunk {chunk:?}");
            }
        }
    }

    #[test]
    fn scratch_is_per_worker_and_reused_across_chunks() {
        let inits = AtomicU64::new(0);
        let items: Vec<u64> = (0..100).collect();
        let threads = 4;
        // chunk 5 → 20 chunks; scratch must be built at most once per
        // worker, not once per chunk, and each worker's tally of items
        // processed through its scratch must sum to n.
        let out = pool(threads, 5).map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64 // per-worker running count
            },
            |count, _, &x| {
                *count += 1;
                (x, *count)
            },
        );
        let built = inits.load(Ordering::Relaxed);
        assert!(
            built as usize <= threads,
            "scratch built {built} times for {threads} workers"
        );
        assert_eq!(out.len(), 100);
        // Values are placed by submission index regardless of which
        // worker/chunk produced them.
        for (i, &(x, count)) in out.iter().enumerate() {
            assert_eq!(x, i as u64);
            assert!(count >= 1);
        }
        // Exactly one "first item through a fresh scratch" per worker
        // that got work — reuse across chunks means count keeps growing
        // instead of resetting at chunk boundaries.
        let firsts = out.iter().filter(|&&(_, c)| c == 1).count();
        assert!(firsts <= threads, "more fresh-scratch items than workers");
    }

    #[test]
    fn panic_rebuilds_scratch_before_retry() {
        // One worker drains every index through one scratch. Index 3
        // dirties the scratch and then panics on its first attempt; the
        // retry must see a freshly built scratch, and later indices keep
        // reusing that rebuilt value.
        let inits = AtomicU64::new(0);
        let items: Vec<u64> = (0..6).collect();
        let out = pool(1, 6).try_map(
            &items,
            RetryPolicy::default(),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |seen, _, attempt, &x| -> Result<usize, String> {
                seen.push(x);
                if x == 3 && attempt == 0 {
                    panic!("dirty scratch");
                }
                Ok(seen.len())
            },
        );
        assert_eq!(
            inits.load(Ordering::Relaxed),
            2,
            "initial build + one rebuild"
        );
        let lens: Vec<usize> = out
            .iter()
            .map(|r| r.outcome.clone().ok().unwrap())
            .collect();
        assert_eq!(lens, vec![1, 2, 3, 1, 2, 3]);
        assert_eq!(out[3].attempts, 2);
    }

    #[test]
    fn chunked_retry_matches_per_task_supervision() {
        let items: Vec<u32> = (0..40).collect();
        let run = |chunk: Option<usize>| {
            Pool { threads: 3, chunk }.try_map(
                &items,
                RetryPolicy { max_attempts: 2 },
                || (),
                |_, _, attempt, &x| -> Result<u32, String> {
                    match x {
                        13 => panic!("permanent fault"),
                        21 if attempt == 0 => panic!("transient fault"),
                        29 => Err("typed failure".to_string()),
                        _ => Ok(x * 2),
                    }
                },
            )
        };
        let per_task = run(Some(1));
        for chunk in [None, Some(8), Some(40)] {
            assert_eq!(run(chunk), per_task, "chunk {chunk:?}");
        }
        assert_eq!(per_task[21].attempts, 2);
        assert!(matches!(per_task[13].outcome, TaskOutcome::Panicked(_)));
        assert!(matches!(per_task[29].outcome, TaskOutcome::Failed(_)));
    }

    #[test]
    fn cache_aligned_is_a_cache_line() {
        assert_eq!(std::mem::align_of::<CacheAligned<u8>>(), 64);
        let c = CacheAligned(41u64);
        assert_eq!(c.0 + 1, 42);
    }

    #[test]
    fn busy_spans_only_when_timing_enabled() {
        // Timing defaults off: no worker-busy spans, whatever other
        // tests have run (none of them enable timing).
        let items: Vec<u64> = (0..16).collect();
        let _ = Pool::new(2).map(&items, |_, &x| x);
        assert!(gps_obs::metrics().span_stats("par/worker_busy").is_none());
        gps_obs::global().set_timing(true);
        let _ = Pool::new(2).map(&items, |_, &x| x);
        gps_obs::global().set_timing(false);
        let busy = gps_obs::metrics()
            .span_stats("par/worker_busy")
            .expect("busy span recorded under timing");
        assert!(busy.count >= 1);
        assert!(gps_obs::metrics().gauge("par.pool.workers").get() >= 1.0);
    }
}
