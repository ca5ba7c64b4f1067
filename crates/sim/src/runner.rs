//! Measurement campaigns: seeded simulation runs producing per-session
//! backlog and delay CCDFs ready to compare against analytical bounds.
//!
//! Both runners follow the same protocol: a warmup period (discarded), a
//! measurement period collecting per-slot backlog and clearing-delay
//! observations into bounded-memory [`BinnedCcdf`]s, all driven from a
//! single master seed through [`SeedSequence`] so every source gets an
//! independent reproducible stream.
//!
//! # Campaigns
//!
//! This module holds the per-replication pieces — configs, reports, the
//! scratch-reusing simulators, metrics records, monitor folds, and
//! merges. Monte Carlo campaigns over them run through the one funnel in
//! [`crate::campaign`]: a [`Campaign`](crate::campaign::Campaign) spec
//! drives `R` replications (replication `r` uses master seed
//! `base.seed + r`) on a [`gps_par::Pool`] and folds metrics into the
//! global registry *after* the join, in replication order — so parallel
//! and serial campaign runs are byte-identical (CSV rows, merged CCDFs,
//! metrics snapshots), which `tests/determinism.rs` pins.

use crate::network_sim::{NetworkSlotOutput, SlottedGpsNetwork};
use crate::slotted::{SlotOutput, SlottedGps};
use gps_core::NetworkTopology;
use gps_obs::metrics::{labeled, Registry};
use gps_obs::monitor::{BoundMonitor, SeriesKind};
use gps_sources::SlotSource;
use gps_stats::rng::{SeedSequence, Xoshiro256pp};
use gps_stats::{BinnedCcdf, StreamingMoments};

/// Configuration of a single-node measurement run.
#[derive(Debug, Clone)]
pub struct SingleNodeRunConfig {
    /// GPS weights.
    pub phis: Vec<f64>,
    /// Server capacity per slot.
    pub capacity: f64,
    /// Warmup slots (discarded).
    pub warmup: u64,
    /// Measured slots.
    pub measure: u64,
    /// Master seed.
    pub seed: u64,
    /// Backlog CCDF grid (thresholds, strictly increasing).
    pub backlog_grid: Vec<f64>,
    /// Delay CCDF grid in slots.
    pub delay_grid: Vec<f64>,
}

/// Per-session measurement output.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Empirical backlog CCDF (sampled at every measured slot end).
    pub backlog: BinnedCcdf,
    /// Empirical clearing-delay CCDF (one sample per slot watermark).
    pub delay: BinnedCcdf,
    /// Backlog moments.
    pub backlog_moments: StreamingMoments,
    /// Throughput: volume served during measurement / measured slots.
    pub throughput: f64,
}

/// Output of a single-node run.
#[derive(Debug, Clone)]
pub struct SingleNodeRunReport {
    /// One report per session.
    pub sessions: Vec<SessionReport>,
    /// Total measured slots.
    pub measured_slots: u64,
}

/// Runs a single-node slotted GPS simulation with the given sources.
///
/// # Panics
///
/// Panics if `sources.len() != config.phis.len()`.
pub fn run_single_node(
    sources: &mut [Box<dyn SlotSource>],
    config: &SingleNodeRunConfig,
) -> SingleNodeRunReport {
    let report = run_single_node_core_scratch(&mut SingleNodeScratch::default(), sources, config);
    record_single_node_metrics(gps_obs::metrics(), &report);
    report
}

/// Reusable per-worker state for single-node runs: the slotted server,
/// the per-slot arrival and output buffers, and the per-source RNG
/// streams. A campaign worker holds one of these across all the
/// replications (chunks) it drains, so per-replication setup shrinks to
/// a [`SlottedGps::reset`] plus RNG reseeding — no heap allocation. The
/// server is rebuilt only when the config shape (weights/capacity)
/// actually changes between calls.
#[derive(Debug, Default)]
pub struct SingleNodeScratch {
    server: Option<SlottedGps>,
    arrivals: Vec<f64>,
    out: SlotOutput,
    rngs: Vec<Xoshiro256pp>,
}

/// Rebuilds the per-source RNG streams of master seed `seed` in `rngs`
/// and resets every source on its stream: the start of every
/// replication. Public so benches can drive the same streams a run
/// draws from.
pub fn reseed<'a>(
    rngs: &'a mut Vec<Xoshiro256pp>,
    sources: &mut [Box<dyn SlotSource>],
    seed: u64,
) -> &'a mut [Xoshiro256pp] {
    let seeds = SeedSequence::new(seed);
    rngs.clear();
    rngs.extend((0..sources.len()).map(|i| seeds.rng("source", i as u64)));
    for (s, rng) in sources.iter_mut().zip(rngs.iter_mut()) {
        s.reset(rng);
    }
    rngs
}

/// [`run_single_node`] over caller-owned scratch state and without the
/// global-registry metrics fold — the building block campaign workers run
/// in parallel; callers that want metrics record the returned report
/// afterwards (in a deterministic order) via
/// [`record_single_node_metrics`]. The report is a pure function of
/// `(sources, config)` — a reused scratch produces bit-identical output
/// to a fresh one (a reset server is indistinguishable from a new server;
/// every buffer is overwritten before use), which the campaign
/// determinism tests pin.
pub fn run_single_node_core_scratch(
    scratch: &mut SingleNodeScratch,
    sources: &mut [Box<dyn SlotSource>],
    config: &SingleNodeRunConfig,
) -> SingleNodeRunReport {
    let n = config.phis.len();
    assert_eq!(sources.len(), n, "one source per session");
    gps_obs::info(
        "sim.runner",
        "single_node_start",
        &[
            ("sessions", n.into()),
            ("seed", config.seed.into()),
            ("warmup", config.warmup.into()),
            ("measure", config.measure.into()),
            ("capacity", config.capacity.into()),
        ],
    );
    let _run_span = gps_obs::span("sim/run_single_node");
    let rngs = reseed(&mut scratch.rngs, sources, config.seed);

    let reusable = scratch
        .server
        .as_ref()
        .is_some_and(|s| s.same_shape(&config.phis, config.capacity));
    if reusable {
        scratch.server.as_mut().expect("server present").reset();
    } else {
        scratch.server = Some(SlottedGps::new(config.phis.clone(), config.capacity));
    }
    let server = scratch.server.as_mut().expect("server present");
    scratch.arrivals.clear();
    scratch.arrivals.resize(n, 0.0);
    let arrivals = &mut scratch.arrivals;
    let out = &mut scratch.out;

    // Warmup.
    {
        let _warmup_span = gps_obs::span("warmup");
        for _ in 0..config.warmup {
            for i in 0..n {
                arrivals[i] = sources[i].next_slot(&mut rngs[i]);
            }
            server.step_into(arrivals, out);
        }
    }

    let mut reports: Vec<SessionReport> = (0..n)
        .map(|_| SessionReport {
            backlog: BinnedCcdf::new(config.backlog_grid.clone()),
            delay: BinnedCcdf::new(config.delay_grid.clone()),
            backlog_moments: StreamingMoments::new(),
            throughput: 0.0,
        })
        .collect();

    let measure_start = server.slot();
    {
        let _measure_span = gps_obs::span("measure");
        for _ in 0..config.measure {
            for i in 0..n {
                arrivals[i] = sources[i].next_slot(&mut rngs[i]);
            }
            server.step_into(arrivals, out);
            for i in 0..n {
                let q = server.backlog(i);
                reports[i].backlog.push(q);
                reports[i].backlog_moments.push(q);
                reports[i].throughput += out.services[i];
            }
            for &(i, t0, d) in &out.cleared {
                // Only count watermarks set during the measurement window.
                if t0 >= measure_start {
                    reports[i].delay.push(d as f64);
                }
            }
        }
    }
    for r in &mut reports {
        r.throughput /= config.measure as f64;
    }
    let report = SingleNodeRunReport {
        sessions: reports,
        measured_slots: config.measure,
    };
    gps_obs::info(
        "sim.runner",
        "single_node_end",
        &[("measured_slots", report.measured_slots.into())],
    );
    report
}

/// Folds a run report into `registry` as per-session gauges and
/// counters (`sim.session.*{session=<i>}` plus `sim.measured_slots`).
/// `run_single_node` calls this with the global registry; tests can pass
/// their own.
pub fn record_single_node_metrics(registry: &Registry, report: &SingleNodeRunReport) {
    registry
        .counter("sim.measured_slots")
        .add(report.measured_slots);
    for (i, s) in report.sessions.iter().enumerate() {
        let sess = i.to_string();
        let name = |what: &str| labeled(&format!("sim.session.{what}"), &[("session", &sess)]);
        registry
            .gauge(&name("backlog_mean"))
            .set(s.backlog_moments.mean());
        registry
            .gauge(&name("backlog_max"))
            .set(s.backlog_moments.max());
        registry.gauge(&name("throughput")).set(s.throughput);
        registry.counter(&name("delay_samples")).add(s.delay.len());
    }
}

/// Configuration of a network measurement run.
#[derive(Debug, Clone)]
pub struct NetworkRunConfig {
    /// The network (weights/rates included).
    pub topology: NetworkTopology,
    /// Warmup slots.
    pub warmup: u64,
    /// Measured slots.
    pub measure: u64,
    /// Master seed.
    pub seed: u64,
    /// Network-backlog CCDF grid.
    pub backlog_grid: Vec<f64>,
    /// End-to-end delay CCDF grid (slots).
    pub delay_grid: Vec<f64>,
}

/// Output of a network run.
#[derive(Debug, Clone)]
pub struct NetworkRunReport {
    /// Per-session network backlog CCDF.
    pub backlog: Vec<BinnedCcdf>,
    /// Per-session end-to-end clearing-delay CCDF.
    pub delay: Vec<BinnedCcdf>,
    /// Measured slots.
    pub measured_slots: u64,
}

/// Runs a multi-node network simulation.
pub fn run_network(
    sources: &mut [Box<dyn SlotSource>],
    config: &NetworkRunConfig,
) -> NetworkRunReport {
    let report = run_network_core_scratch(&mut NetworkScratch::default(), sources, config);
    record_network_metrics(gps_obs::metrics(), &report);
    report
}

/// Network analogue of [`SingleNodeScratch`]: the network simulator and
/// per-slot buffers a campaign worker reuses across replications. The
/// simulator is rebuilt only when the topology actually changes.
#[derive(Debug, Default)]
pub struct NetworkScratch {
    net: Option<SlottedGpsNetwork>,
    arrivals: Vec<f64>,
    out: NetworkSlotOutput,
    rngs: Vec<Xoshiro256pp>,
}

/// [`run_network`] over caller-owned scratch state and without the
/// metrics fold; bit-identical to a fresh scratch (see
/// [`run_single_node_core_scratch`]).
pub(crate) fn run_network_core_scratch(
    scratch: &mut NetworkScratch,
    sources: &mut [Box<dyn SlotSource>],
    config: &NetworkRunConfig,
) -> NetworkRunReport {
    let n = config.topology.num_sessions();
    assert_eq!(sources.len(), n, "one source per session");
    gps_obs::info(
        "sim.runner",
        "network_start",
        &[
            ("sessions", n.into()),
            ("nodes", config.topology.num_nodes().into()),
            ("seed", config.seed.into()),
            ("warmup", config.warmup.into()),
            ("measure", config.measure.into()),
        ],
    );
    let _run_span = gps_obs::span("sim/run_network");
    let rngs = reseed(&mut scratch.rngs, sources, config.seed);

    let reusable = scratch
        .net
        .as_ref()
        .is_some_and(|net| net.same_topology(&config.topology));
    if reusable {
        scratch.net.as_mut().expect("network present").reset();
    } else {
        scratch.net = Some(SlottedGpsNetwork::new(config.topology.clone()));
    }
    let net = scratch.net.as_mut().expect("network present");
    scratch.arrivals.clear();
    scratch.arrivals.resize(n, 0.0);
    let arrivals = &mut scratch.arrivals;
    let out = &mut scratch.out;

    {
        let _warmup_span = gps_obs::span("warmup");
        for _ in 0..config.warmup {
            for i in 0..n {
                arrivals[i] = sources[i].next_slot(&mut rngs[i]);
            }
            net.step_into(arrivals, out);
        }
    }

    let mut backlog: Vec<BinnedCcdf> = (0..n)
        .map(|_| BinnedCcdf::new(config.backlog_grid.clone()))
        .collect();
    let mut delay: Vec<BinnedCcdf> = (0..n)
        .map(|_| BinnedCcdf::new(config.delay_grid.clone()))
        .collect();

    let measure_start = net.slot();
    {
        let _measure_span = gps_obs::span("measure");
        for _ in 0..config.measure {
            for i in 0..n {
                arrivals[i] = sources[i].next_slot(&mut rngs[i]);
            }
            net.step_into(arrivals, out);
            for i in 0..n {
                backlog[i].push(out.network_backlogs[i]);
            }
            for &(i, t0, d) in &out.cleared {
                if t0 >= measure_start {
                    delay[i].push(d as f64);
                }
            }
        }
    }
    // One batched add instead of one shared atomic inc per slot: same
    // final `sim.network.slots` value, no counter cache-line ping-pong
    // between campaign workers.
    net.flush_slot_metrics();
    let report = NetworkRunReport {
        backlog,
        delay,
        measured_slots: config.measure,
    };
    gps_obs::info(
        "sim.runner",
        "network_end",
        &[("measured_slots", report.measured_slots.into())],
    );
    report
}

/// Network analogue of [`record_single_node_metrics`]: per-session
/// end-to-end delay sample counters plus the measured-slot total.
pub fn record_network_metrics(registry: &Registry, report: &NetworkRunReport) {
    registry
        .counter("sim.measured_slots")
        .add(report.measured_slots);
    for (i, d) in report.delay.iter().enumerate() {
        let sess = i.to_string();
        registry
            .counter(&labeled("sim.session.delay_samples", &[("session", &sess)]))
            .add(d.len());
    }
}

/// Checks every session of a (merged) single-node report against
/// `monitor`'s analytic tail curves, attributing journal events and
/// counters to replication fold `fold`. Backlog tails are weighted by
/// the pooled slot count, delay tails by the per-session clearing-sample
/// count. Returns the number of violating grid points.
pub fn monitor_single_node_fold(
    monitor: &BoundMonitor,
    registry: &Registry,
    merged: &SingleNodeRunReport,
    fold: u64,
) -> u64 {
    let sessions = merged.sessions.iter().map(|s| (&s.backlog, &s.delay));
    monitor_sessions(monitor, registry, merged.measured_slots, sessions, fold)
}

/// Network analogue of [`monitor_single_node_fold`]: checks per-session
/// network-backlog and end-to-end clearing-delay tails of a (merged)
/// report against the monitor's curves. Returns the number of violating
/// grid points.
pub(crate) fn monitor_network_fold(
    monitor: &BoundMonitor,
    registry: &Registry,
    merged: &NetworkRunReport,
    fold: u64,
) -> u64 {
    let sessions = merged.backlog.iter().zip(&merged.delay);
    monitor_sessions(monitor, registry, merged.measured_slots, sessions, fold)
}

/// Checks `(backlog, delay)` tails per session: backlog weighted by the
/// pooled slot count, delay by its own sample count.
fn monitor_sessions<'a>(
    monitor: &BoundMonitor,
    registry: &Registry,
    slots: u64,
    sessions: impl Iterator<Item = (&'a BinnedCcdf, &'a BinnedCcdf)>,
    fold: u64,
) -> u64 {
    let mut violations = 0;
    for (i, (backlog, delay)) in sessions.enumerate() {
        let (b, d) = (SeriesKind::Backlog, SeriesKind::Delay);
        violations += monitor.check_series(registry, i, b, &backlog.series(), slots, fold);
        violations += monitor.check_series(registry, i, d, &delay.series(), delay.len(), fold);
    }
    violations
}

/// A running pool of single-node replication reports: CCDFs and moments
/// merge in place and served volume accumulates per session, so pooling
/// any number of reports holds one report in memory. Pushing reports in
/// order and calling [`finish`](Self::finish) performs exactly the float
/// operations of [`merge_single_node_reports`] over the same slice —
/// that function is built on this type, and so is the memory-bounded
/// merged campaign fold.
#[derive(Debug, Clone)]
pub struct SingleNodePool {
    pooled: SingleNodeRunReport,
    volume: Vec<f64>,
}

impl SingleNodePool {
    /// Starts a pool from its first report.
    pub fn new(first: SingleNodeRunReport) -> Self {
        let volume = first
            .sessions
            .iter()
            .map(|s| s.throughput * first.measured_slots as f64)
            .collect();
        Self {
            pooled: first,
            volume,
        }
    }

    /// Pools one more report. Panics on a mismatched session count.
    pub fn push(&mut self, report: &SingleNodeRunReport) {
        assert_eq!(
            report.sessions.len(),
            self.pooled.sessions.len(),
            "mismatched session counts"
        );
        let sessions = self.pooled.sessions.iter_mut().zip(&mut self.volume);
        for ((p, v), s) in sessions.zip(&report.sessions) {
            p.backlog.merge(&s.backlog);
            p.delay.merge(&s.delay);
            p.backlog_moments.merge(&s.backlog_moments);
            *v += s.throughput * report.measured_slots as f64;
        }
        self.pooled.measured_slots += report.measured_slots;
    }

    /// The pooled report: throughput is served volume over pooled slots.
    pub fn finish(mut self) -> SingleNodeRunReport {
        let slots = self.pooled.measured_slots as f64;
        for (s, v) in self.pooled.sessions.iter_mut().zip(&self.volume) {
            s.throughput = v / slots;
        }
        self.pooled
    }
}

/// Merges replication reports into one (CCDFs and moments pooled,
/// throughput weighted by measured slots, slots summed). Panics on an
/// empty slice or mismatched session counts.
pub fn merge_single_node_reports(reports: &[SingleNodeRunReport]) -> SingleNodeRunReport {
    let (first, rest) = reports.split_first().expect("at least one report");
    let mut pool = SingleNodePool::new(first.clone());
    for r in rest {
        pool.push(r);
    }
    pool.finish()
}

impl NetworkRunReport {
    /// Pools `other` into this report in place: per-session CCDFs merged,
    /// slots summed. Panics on mismatched session counts.
    pub fn merge_from(&mut self, other: &NetworkRunReport) {
        assert_eq!(
            other.backlog.len(),
            self.backlog.len(),
            "mismatched session counts"
        );
        for i in 0..self.backlog.len() {
            self.backlog[i].merge(&other.backlog[i]);
            self.delay[i].merge(&other.delay[i]);
        }
        self.measured_slots += other.measured_slots;
    }
}

/// Merges network replication reports (per-session CCDFs pooled, slots
/// summed). Panics on an empty slice or mismatched session counts.
pub fn merge_network_reports(reports: &[NetworkRunReport]) -> NetworkRunReport {
    let (first, rest) = reports.split_first().expect("at least one report");
    let mut pooled = first.clone();
    for r in rest {
        pooled.merge_from(r);
    }
    pooled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use gps_par::Pool;
    use gps_sources::{CbrSource, OnOffSource};

    fn grids() -> (Vec<f64>, Vec<f64>) {
        let b: Vec<f64> = (0..40).map(|i| i as f64 * 0.25).collect();
        let d: Vec<f64> = (0..40).map(|i| i as f64).collect();
        (b, d)
    }

    #[test]
    fn cbr_under_capacity_never_queues() {
        let (bg, dg) = grids();
        let cfg = SingleNodeRunConfig {
            phis: vec![1.0, 1.0],
            capacity: 1.0,
            warmup: 10,
            measure: 200,
            seed: 7,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let mut sources: Vec<Box<dyn SlotSource>> =
            vec![Box::new(CbrSource::new(0.3)), Box::new(CbrSource::new(0.3))];
        let rep = run_single_node(&mut sources, &cfg);
        for s in &rep.sessions {
            // Backlog never reaches the first positive threshold 0.25.
            assert_eq!(s.backlog.tail_at(1), 0.0);
            // All clearing delays are 0 slots.
            assert_eq!(s.delay.tail_at(1), 0.0);
            assert!((s.throughput - 0.3).abs() < 1e-9);
        }
    }

    #[test]
    fn onoff_produces_queueing() {
        let (bg, dg) = grids();
        let cfg = SingleNodeRunConfig {
            phis: vec![0.2, 0.25, 0.2, 0.25],
            capacity: 1.0,
            warmup: 500,
            measure: 20_000,
            seed: 42,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let mut sources: Vec<Box<dyn SlotSource>> = OnOffSource::paper_table1()
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn SlotSource>)
            .collect();
        let rep = run_single_node(&mut sources, &cfg);
        // Utilization ~0.7: some queueing must occur but tails decay.
        let any_queue = rep.sessions.iter().any(|s| s.backlog.tail_at(1) > 0.0);
        assert!(any_queue, "expected some backlog at 70% load");
        for (i, s) in rep.sessions.iter().enumerate() {
            let t0 = s.backlog.tail_at(0);
            let t_far = s.backlog.tail_at(30);
            assert!(t_far < t0 || t0 == 0.0, "session {i} tail must decay");
            // Throughput equals the source mean (all admitted traffic is
            // served at 70% load).
            let mean = [0.15, 0.2, 0.15, 0.2][i];
            assert!(
                (s.throughput - mean).abs() < 0.02,
                "session {i} throughput {}",
                s.throughput
            );
        }
    }

    #[test]
    fn reproducible_runs() {
        let (bg, dg) = grids();
        let cfg = SingleNodeRunConfig {
            phis: vec![1.0, 1.0],
            capacity: 1.0,
            warmup: 100,
            measure: 2000,
            seed: 99,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let run = |cfg: &SingleNodeRunConfig| {
            let mut sources: Vec<Box<dyn SlotSource>> = vec![
                Box::new(OnOffSource::new(0.3, 0.3, 0.9)),
                Box::new(OnOffSource::new(0.2, 0.4, 0.8)),
            ];
            run_single_node(&mut sources, cfg)
        };
        let a = run(&cfg);
        let b = run(&cfg);
        for i in 0..2 {
            assert_eq!(
                a.sessions[i].backlog.series(),
                b.sessions[i].backlog.series()
            );
            assert_eq!(a.sessions[i].delay.series(), b.sessions[i].delay.series());
        }
        // Different seed -> (almost surely) different measurements.
        let mut cfg2 = cfg.clone();
        cfg2.seed = 100;
        let c = run(&cfg2);
        assert_ne!(
            a.sessions[0].backlog.series(),
            c.sessions[0].backlog.series()
        );
    }

    fn onoff_sources() -> Vec<Box<dyn SlotSource>> {
        OnOffSource::paper_table1()
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn SlotSource>)
            .collect()
    }

    #[test]
    fn campaign_reports_match_manual_serial_runs() {
        let (bg, dg) = grids();
        let base = SingleNodeRunConfig {
            phis: vec![0.2, 0.25, 0.2, 0.25],
            capacity: 1.0,
            warmup: 100,
            measure: 2_000,
            seed: 0x5EED,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let campaign = Campaign::new(Pool::new(3), 4)
            .run(&base, |_| onoff_sources())
            .unwrap()
            .into_reports();
        assert_eq!(campaign.len(), 4);
        for (r, rep) in campaign.iter().enumerate() {
            let mut cfg = base.clone();
            cfg.seed = base.seed + r as u64;
            let mut sources = onoff_sources();
            let manual =
                run_single_node_core_scratch(&mut SingleNodeScratch::default(), &mut sources, &cfg);
            for i in 0..4 {
                assert_eq!(
                    rep.sessions[i].backlog.series(),
                    manual.sessions[i].backlog.series(),
                    "replication {r} session {i}"
                );
            }
        }
    }

    #[test]
    fn merged_campaign_pools_replications() {
        let (bg, dg) = grids();
        let base = SingleNodeRunConfig {
            phis: vec![1.0, 1.0],
            capacity: 1.0,
            warmup: 50,
            measure: 1_000,
            seed: 11,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let mk = |_: u64| -> Vec<Box<dyn SlotSource>> {
            vec![
                Box::new(OnOffSource::new(0.3, 0.3, 0.9)),
                Box::new(OnOffSource::new(0.2, 0.4, 0.8)),
            ]
        };
        let reports = Campaign::new(Pool::new(2), 3)
            .run(&base, mk)
            .unwrap()
            .into_reports();
        let merged = merge_single_node_reports(&reports);
        assert_eq!(merged.measured_slots, 3_000);
        let want: u64 = reports.iter().map(|r| r.sessions[0].backlog.len()).sum();
        assert_eq!(merged.sessions[0].backlog.len(), want);
        let mean_of_means: f64 = reports
            .iter()
            .map(|r| r.sessions[0].throughput)
            .sum::<f64>()
            / 3.0;
        assert!((merged.sessions[0].throughput - mean_of_means).abs() < 1e-12);
    }

    #[test]
    fn network_campaign_is_thread_count_invariant() {
        let (bg, dg) = grids();
        let base = NetworkRunConfig {
            topology: NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]),
            warmup: 100,
            measure: 1_500,
            seed: 77,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let serial = Campaign::new(Pool::new(1), 3)
            .run(&base, |_| onoff_sources())
            .unwrap()
            .into_reports();
        let parallel = Campaign::new(Pool::new(3), 3)
            .run(&base, |_| onoff_sources())
            .unwrap()
            .into_reports();
        for (a, b) in serial.iter().zip(&parallel) {
            for i in 0..4 {
                assert_eq!(a.backlog[i].series(), b.backlog[i].series());
                assert_eq!(a.delay[i].series(), b.delay[i].series());
            }
        }
        let merged = merge_network_reports(&serial);
        assert_eq!(merged.measured_slots, 4_500);
    }

    #[test]
    fn monitored_fold_flags_tight_curve_and_passes_loose_one() {
        use gps_obs::monitor::{BoundCurve, SessionCurves};
        let (bg, dg) = grids();
        let base = SingleNodeRunConfig {
            phis: vec![0.2, 0.25, 0.2, 0.25],
            capacity: 1.0,
            warmup: 200,
            measure: 5_000,
            seed: 3,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let reports = Campaign::new(Pool::new(2), 2)
            .run(&base, |_| onoff_sources())
            .unwrap()
            .into_reports();
        let merged = merge_single_node_reports(&reports);

        // A bound claiming essentially zero tail mass must be violated by
        // any session that ever queues.
        let tight = BoundMonitor::new(vec![
            SessionCurves {
                backlog: Some(BoundCurve::new(1e-9, 10.0)),
                delay: None,
                delay_shift: 0.0,
            };
            4
        ]);
        let reg = Registry::new();
        let v = monitor_single_node_fold(&tight, &reg, &merged, 0);
        assert!(v > 0, "tight bound must be flagged");
        let snap = reg.snapshot();
        let total = snap
            .counters
            .iter()
            .find(|(name, _)| name == "obs.bound_violations")
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert_eq!(total, v);

        // A vacuous bound (tail cap 1.0 everywhere) can never be violated.
        let loose = BoundMonitor::new(vec![
            SessionCurves {
                backlog: Some(BoundCurve::new(10.0, 0.0)),
                delay: Some(BoundCurve::new(10.0, 0.0)),
                delay_shift: 0.0,
            };
            4
        ]);
        let reg2 = Registry::new();
        assert_eq!(monitor_single_node_fold(&loose, &reg2, &merged, 0), 0);
        assert!(reg2.snapshot().counters.is_empty());
    }

    #[test]
    fn monitored_campaign_matches_plain_campaign_reports() {
        use gps_obs::monitor::{BoundCurve, SessionCurves};
        let (bg, dg) = grids();
        let base = NetworkRunConfig {
            topology: NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]),
            warmup: 100,
            measure: 1_000,
            seed: 21,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let plain = Campaign::new(Pool::new(2), 2)
            .run(&base, |_| onoff_sources())
            .unwrap()
            .into_reports();
        let mon = BoundMonitor::new(vec![SessionCurves::default(); 4]);
        let monitored = Campaign::new(Pool::new(2), 2)
            .monitor(&mon)
            .run(&base, |_| onoff_sources())
            .unwrap()
            .into_reports();
        for (a, b) in plain.iter().zip(&monitored) {
            for i in 0..4 {
                assert_eq!(a.backlog[i].series(), b.backlog[i].series());
                assert_eq!(a.delay[i].series(), b.delay[i].series());
            }
        }
        // Tight network curves are flagged by the per-fold check too.
        let merged = merge_network_reports(&plain);
        let tight = BoundMonitor::new(vec![
            SessionCurves {
                backlog: Some(BoundCurve::new(1e-9, 10.0)),
                delay: Some(BoundCurve::new(1e-9, 10.0)),
                delay_shift: 1.0,
            };
            4
        ]);
        let reg = Registry::new();
        assert!(monitor_network_fold(&tight, &reg, &merged, 1) > 0);
    }

    #[test]
    fn step_into_buffer_reuse_matches_step() {
        // The allocating wrapper and the buffer-reusing path must agree
        // bit for bit, including when the buffer held stale data.
        let mut a = SlottedGps::new(vec![1.0, 2.0], 1.0);
        let mut b = SlottedGps::new(vec![1.0, 2.0], 1.0);
        let mut out = SlotOutput {
            services: vec![9.9; 7],
            cleared: vec![(3, 4, 5)],
        };
        let pattern = [[0.9, 0.0], [0.0, 2.5], [0.4, 0.4], [0.0, 0.0]];
        for arr in pattern.iter().cycle().take(50) {
            let want = a.step(arr);
            b.step_into(arr, &mut out);
            assert_eq!(want, out);
        }
    }

    #[test]
    fn network_step_into_matches_step() {
        let topo = NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]);
        let mut a = SlottedGpsNetwork::new(topo.clone());
        let mut b = SlottedGpsNetwork::new(topo);
        let mut out = NetworkSlotOutput::new();
        for t in 0..200u64 {
            let arr = [
                if t % 5 == 0 { 0.9 } else { 0.0 },
                if t % 4 == 1 { 0.8 } else { 0.0 },
                if t % 5 == 2 { 0.7 } else { 0.0 },
                if t % 4 == 3 { 0.9 } else { 0.0 },
            ];
            let want = a.step(&arr);
            b.step_into(&arr, &mut out);
            assert_eq!(want, out, "slot {t}");
        }
    }

    #[test]
    fn network_run_smoke() {
        let (bg, dg) = grids();
        let topo = NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]);
        let cfg = NetworkRunConfig {
            topology: topo,
            warmup: 200,
            measure: 5000,
            seed: 5,
            backlog_grid: bg,
            delay_grid: dg,
        };
        let mut sources: Vec<Box<dyn SlotSource>> = OnOffSource::paper_table1()
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn SlotSource>)
            .collect();
        let rep = run_network(&mut sources, &cfg);
        assert_eq!(rep.backlog.len(), 4);
        for i in 0..4 {
            assert!(!rep.delay[i].is_empty());
            // Delay tails decay.
            assert!(rep.delay[i].tail_at(39) <= rep.delay[i].tail_at(0));
        }
    }
}
