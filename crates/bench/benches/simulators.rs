//! Performance benches for the simulation substrate: slotted fluid GPS
//! throughput, the Set-1 slot kernel split into layers, network-of-GPS
//! throughput, event-driven fluid GPS, and packetized PGPS scheduling.

use gps_bench::harness::{black_box, BenchHarness};
use gps_core::NetworkTopology;
use gps_sim::runner::{reseed, run_single_node_core_scratch, SingleNodeScratch};
use gps_sim::{
    FluidGps, NetworkSlotOutput, Packet, PgpsServer, SingleNodeRunConfig, SlotOutput, SlottedGps,
    SlottedGpsNetwork,
};
use gps_sources::{OnOffSource, SlotSource};
use gps_stats::rng::{SeedSequence, Xoshiro256pp};

fn bench_slotted(h: &mut BenchHarness) {
    let slots = 10_000u64;
    let seeds = SeedSequence::new(1);
    h.bench_elems("slotted_gps/4sessions_10kslots", slots, || {
        let mut server = SlottedGps::new(vec![0.2, 0.25, 0.2, 0.25], 1.0);
        let mut sources = OnOffSource::paper_table1();
        let mut rngs: Vec<_> = (0..4).map(|i| seeds.rng("s", i)).collect();
        let mut arr = [0.0; 4];
        let mut out = SlotOutput::new();
        for _ in 0..slots {
            for i in 0..4 {
                arr[i] = sources[i].next_slot(&mut rngs[i]);
            }
            server.step_into(&arr, &mut out);
            black_box(&out);
        }
    });
}

/// The campaign measure loop of the `paper` scenario (Set 1: Table-1
/// sources, RPPS weights, 60-point grids), stripped down layer by layer.
/// Each layer reseeds the sources as a replication does and then runs
/// the same slots.
struct Set1Kernel {
    cfg: SingleNodeRunConfig,
    sources: Vec<Box<dyn SlotSource>>,
    rngs: Vec<Xoshiro256pp>,
    server: SlottedGps,
    arrivals: Vec<f64>,
    out: SlotOutput,
}

impl Set1Kernel {
    fn new(slots: u64) -> Self {
        let cfg = SingleNodeRunConfig {
            phis: vec![0.2, 0.25, 0.2, 0.25],
            capacity: 1.0,
            warmup: 0,
            measure: slots,
            seed: 20260807,
            backlog_grid: (0..60).map(|i| i as f64 * 0.5).collect(),
            delay_grid: (0..60).map(|i| i as f64).collect(),
        };
        let sources = OnOffSource::paper_table1()
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn SlotSource>)
            .collect();
        let server = SlottedGps::new(cfg.phis.clone(), cfg.capacity);
        Self {
            arrivals: vec![0.0; cfg.phis.len()],
            cfg,
            sources,
            rngs: Vec::new(),
            server,
            out: SlotOutput::new(),
        }
    }

    fn reseed(&mut self) {
        reseed(&mut self.rngs, &mut self.sources, self.cfg.seed);
        self.server.reset();
    }

    fn draw(&mut self) {
        for ((a, s), rng) in self
            .arrivals
            .iter_mut()
            .zip(&mut self.sources)
            .zip(&mut self.rngs)
        {
            *a = s.next_slot(rng);
        }
    }

    /// Layer 1: source draws only.
    fn draws(&mut self) {
        self.reseed();
        for _ in 0..self.cfg.measure {
            self.draw();
            black_box(&self.arrivals);
        }
    }

    /// Layer 2: draws plus `SlottedGps::step_into`.
    fn steps(&mut self) {
        self.reseed();
        for _ in 0..self.cfg.measure {
            self.draw();
            self.server.step_into(&self.arrivals, &mut self.out);
            black_box(&self.out);
        }
    }
}

/// The Set-1 slot kernel in cumulative layers over the same slots: source
/// draws; `+ step_into`; and the full `run_single_node_core_scratch`,
/// which adds the records (backlog and delay CCDF pushes, moments,
/// throughput) and the per-run report. The differences between
/// consecutive layers are the per-layer costs. The layers are timed in
/// alternation: timed one after another on a shared host, drift alone
/// moved a layer by ±20 %.
fn bench_slot_kernel_layers(h: &mut BenchHarness) {
    let slots = 20_000u64;
    let mut k = Set1Kernel::new(slots);
    let mut scratch = SingleNodeScratch::default();
    let names = [
        "slot_kernel/set1_20kslots/1_draws",
        "slot_kernel/set1_20kslots/2_+step_into",
        "slot_kernel/set1_20kslots/3_full_run",
    ];
    let medians = h.bench_interleaved_elems(&names, slots, |layer| match layer {
        0 => k.draws(),
        1 => k.steps(),
        _ => {
            black_box(run_single_node_core_scratch(
                &mut scratch,
                &mut k.sources,
                &k.cfg,
            ));
        }
    });
    let ns: Vec<f64> = medians.iter().map(|m| m / slots as f64).collect();
    println!(
        "  slot kernel ns/slot: draws {:.1}, step_into +{:.1}, records +{:.1} = full run {:.1}",
        ns[0],
        ns[1] - ns[0],
        ns[2] - ns[1],
        ns[2],
    );
}

fn bench_network(h: &mut BenchHarness) {
    let slots = 5_000u64;
    let seeds = SeedSequence::new(2);
    let topo = NetworkTopology::paper_figure2([0.2, 0.25, 0.2, 0.25]);
    h.bench_elems("network_gps/fig2_5kslots", slots, || {
        let mut net = SlottedGpsNetwork::new(topo.clone());
        let mut sources = OnOffSource::paper_table1();
        let mut rngs: Vec<_> = (0..4).map(|i| seeds.rng("s", i)).collect();
        let mut arr = [0.0; 4];
        let mut out = NetworkSlotOutput::new();
        for _ in 0..slots {
            for i in 0..4 {
                arr[i] = sources[i].next_slot(&mut rngs[i]);
            }
            net.step_into(&arr, &mut out);
            black_box(&out);
        }
    });
}

fn bench_fluid_event(h: &mut BenchHarness) {
    let impulses = 2_000usize;
    h.bench_elems("fluid_event/2k_impulses_3sessions", impulses as u64, || {
        let mut g = FluidGps::new(vec![1.0, 2.0, 0.5], 1.0);
        let mut t = 0.0;
        for k in 0..impulses {
            t += 0.31;
            g.arrive(t, k % 3, 0.2 + 0.1 * (k % 4) as f64);
        }
        g.advance_to(t + 1e4);
        black_box(g.take_completions())
    });
}

fn bench_pgps(h: &mut BenchHarness) {
    let n = 5_000usize;
    // Pre-generate packets once.
    let mut packets = Vec::with_capacity(n);
    let mut t = 0.0;
    for k in 0..n {
        t += 0.29 + 0.1 * ((k * 17 % 13) as f64 / 13.0);
        packets.push(Packet {
            session: k % 4,
            size: 0.1 + 0.8 * ((k * 7 % 11) as f64 / 11.0),
            arrival: t,
        });
    }
    let server = PgpsServer::new(vec![1.0, 2.0, 0.5, 1.5], 1.0);
    h.bench_elems("pgps/wfq_5k_packets_4sessions", n as u64, || {
        black_box(server.run(&packets))
    });
}

fn main() {
    let mut h = BenchHarness::new("simulators");
    bench_slotted(&mut h);
    bench_slot_kernel_layers(&mut h);
    bench_network(&mut h);
    bench_fluid_event(&mut h);
    bench_pgps(&mut h);
    h.finish().expect("write bench report");
}
