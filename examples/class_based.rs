//! Class-based GPS — the paper's Section-7 design proposal, end to end.
//!
//! ```sh
//! cargo run --example class_based
//! ```
//!
//! "One approach … is to categorize the traffic in a network into several
//! traffic classes such that traffic with identical or similar
//! characteristics will be grouped into one class." GPS isolates the
//! classes; FCFS inside a class pools the multiplexing gain; the
//! feasible-partition machinery prices it all. This example builds the
//! paper's three-class sketch (peak-rate, 75%, 50% allocations), prints
//! per-class and per-member guarantees, and cross-checks the class
//! aggregate bound by simulation (a class under FCFS is exactly one GPS
//! session whose source is the superposition of its members).

use gps_qos::analysis::class_based::{ClassBasedGps, TrafficClass};
use gps_qos::prelude::*;

fn main() {
    // Member templates.
    let voice = OnOffSource::new(0.4, 0.6, 0.05); // mean .02, peak .05
    let video = OnOffSource::new(0.3, 0.3, 0.16); // mean .08, peak .16
    let bulk = OnOffSource::new(0.2, 0.3, 0.25); // mean .10, peak .25

    let voice_ebb =
        Lnt94Characterization::characterize(voice.as_markov(), 0.03, PrefactorKind::Lnt94)
            .unwrap()
            .ebb;
    let video_ebb =
        Lnt94Characterization::characterize(video.as_markov(), 0.10, PrefactorKind::Lnt94)
            .unwrap()
            .ebb;
    let bulk_ebb =
        Lnt94Characterization::characterize(bulk.as_markov(), 0.14, PrefactorKind::Lnt94)
            .unwrap()
            .ebb;

    // Three classes, allocations per the paper's sketch:
    //   voice at "peak" (ρ/φ = 1), video at ~75% (ρ/φ ≈ 4/3),
    //   bulk at ~50% (ρ/φ ≈ 2).
    let classes = vec![
        TrafficClass::new(vec![voice_ebb; 8], 8.0 * 0.03),
        TrafficClass::new(vec![video_ebb; 3], 3.0 * 0.10 * 0.75),
        TrafficClass::new(vec![bulk_ebb; 2], 2.0 * 0.14 * 0.5),
    ];
    let g = ClassBasedGps::new(classes, 1.0, TimeModel::Discrete).expect("stable");

    println!("class-based GPS: 3 classes on a unit-rate server");
    println!(
        "{:<8} {:>8} {:>8} {:>10} {:>14} {:>22}",
        "class", "ρ̃", "φ̃", "layer", "class rate ĝ", "member Pr{D>=120}"
    );
    for c in 0..3 {
        let d = g.best_member_delay(c, 120.0).expect("feasible");
        println!(
            "{:<8} {:>8.3} {:>8.3} {:>10} {:>14.3} {:>22.3e}",
            ["voice", "video", "bulk"][c],
            [8.0 * 0.03, 3.0 * 0.10, 2.0 * 0.14][c],
            [0.24, 0.225, 0.14][c],
            g.layer_of(c) + 1,
            g.class_rate(c),
            d.tail(120.0)
        );
    }

    // Simulation cross-check of the voice class: the class aggregate is
    // one GPS session fed by the superposition of its 8 members.
    println!("\nsimulating 500k slots of the aggregated system …");
    let cfg = SingleNodeRunConfig {
        phis: vec![0.24, 0.225, 0.14],
        capacity: 1.0,
        warmup: 20_000,
        measure: 500_000,
        seed: 0xC1A5,
        backlog_grid: (0..60).map(|i| i as f64 * 0.25).collect(),
        delay_grid: (0..80).map(|i| i as f64).collect(),
    };
    let mut sources: Vec<Box<dyn SlotSource>> = vec![
        Box::new(Superposition::new(vec![voice; 8])),
        Box::new(Superposition::new(vec![video; 3])),
        Box::new(Superposition::new(vec![bulk; 2])),
    ];
    let rep = run_single_node(&mut sources, &cfg);
    println!(
        "{:<8} {:>18} {:>18} {:>6}",
        "class", "emp Pr{Q>=8}", "bound Pr{Q>=8}", "ok?"
    );
    for c in 0..3 {
        let emp = {
            let s = &rep.sessions[c].backlog;
            let idx = s
                .thresholds()
                .iter()
                .position(|&t| t >= 8.0)
                .unwrap_or(s.thresholds().len() - 1);
            s.tail_at(idx)
        };
        let bound = g.best_class_backlog(c, 8.0).unwrap().tail(8.0);
        println!(
            "{:<8} {:>18.3e} {:>18.3e} {:>6}",
            ["voice", "video", "bulk"][c],
            emp,
            bound,
            if emp <= bound + 1e-6 { "✓" } else { "✗" }
        );
        assert!(emp <= bound + 1e-6);
    }
    println!("\nclass aggregate bounds verified by simulation ✓");
}

/// Superposition of several slot sources (one class's combined traffic).
struct Superposition {
    parts: Vec<OnOffSource>,
}

impl Superposition {
    fn new(parts: Vec<OnOffSource>) -> Self {
        Self { parts }
    }
}

impl SlotSource for Superposition {
    fn next_slot(&mut self, rng: &mut gps_qos::stats::rng::Xoshiro256pp) -> f64 {
        self.parts.iter_mut().map(|p| p.next_slot(rng)).sum()
    }

    fn mean_rate(&self) -> f64 {
        self.parts.iter().map(|p| p.mean_rate()).sum()
    }

    fn peak_rate(&self) -> Option<f64> {
        self.parts.iter().map(|p| p.peak_rate()).sum()
    }

    fn reset(&mut self, rng: &mut gps_qos::stats::rng::Xoshiro256pp) {
        for p in &mut self.parts {
            p.reset(rng);
        }
    }
}
