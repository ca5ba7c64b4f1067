//! Property-based tests for GPS structural invariants: water-filling,
//! feasible orderings, and the feasible partition. Runs on the in-tree
//! harness in `gps_stats::prop`.

use gps_core::{
    find_feasible_ordering, is_feasible_ordering, water_fill, FeasiblePartition, GpsAssignment,
    RateAllocation,
};
use gps_stats::prop::{vec_of, Strategy};
use gps_stats::{prop_assert, prop_assert_eq, proptest};

/// Strategy: 2..8 positive weights.
fn phis() -> impl Strategy<Value = Vec<f64>> {
    vec_of(0.05f64..10.0, 2..8)
}

proptest! {
    fn water_fill_feasible_and_work_conserving(
        ph in phis(),
        cap in 0.1f64..3.0,
        seed in 0u64..500,
    ) {
        let n = ph.len();
        // Deterministic demands from the seed (mix finite/infinite).
        let dem: Vec<f64> = (0..n)
            .map(|i| {
                let h = seed.wrapping_mul(31).wrapping_add(i as u64 * 7) % 10;
                if h == 0 { f64::INFINITY } else { h as f64 * 0.3 }
            })
            .collect();
        let alloc = water_fill(&dem, &ph, cap);
        let total: f64 = alloc.iter().sum();
        let total_demand: f64 = dem.iter().cloned().fold(0.0, |a, d| {
            if d.is_infinite() { f64::INFINITY } else { a + d }
        });
        // Feasibility.
        for (a, d) in alloc.iter().zip(&dem) {
            prop_assert!(*a >= -1e-12);
            prop_assert!(*a <= d + 1e-9);
        }
        // Work conservation.
        let want = cap.min(total_demand);
        prop_assert!((total - want).abs() < 1e-6, "served {total} want {want}");
        // GPS ratio property for unsatisfied sessions.
        for i in 0..n {
            let unmet_i = dem[i] - alloc[i] > 1e-9;
            if unmet_i {
                for j in 0..n {
                    if alloc[j] > 1e-12 {
                        prop_assert!(
                            alloc[i] / alloc[j] >= ph[i] / ph[j] - 1e-6,
                            "ratio violated ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    fn greedy_ordering_always_feasible(ph in phis(), load in 0.1f64..0.999) {
        let n = ph.len();
        let a = GpsAssignment::unit_rate(ph);
        // Rates proportional to a scrambled pattern, scaled to `load`.
        let raw: Vec<f64> = (0..n).map(|i| 0.2 + ((i * 2654435761) % 83) as f64 / 83.0).collect();
        let s: f64 = raw.iter().sum();
        let rs: Vec<f64> = raw.iter().map(|r| r / s * load).collect();
        let perm = find_feasible_ordering(&rs, &a).expect("sum <= 1");
        prop_assert!(is_feasible_ordering(&perm, &rs, &a));
    }

    fn partition_invariants(ph in phis(), load in 0.1f64..0.95, seed in 0u64..300) {
        let n = ph.len();
        let a = GpsAssignment::unit_rate(ph.clone());
        let raw: Vec<f64> = (0..n)
            .map(|i| 0.1 + (seed.wrapping_add(i as u64 * 13) % 37) as f64 / 37.0)
            .collect();
        let s: f64 = raw.iter().sum();
        let rhos: Vec<f64> = raw.iter().map(|r| r / s * load).collect();
        let p = FeasiblePartition::compute(&rhos, &a).expect("stable");
        // Every session in exactly one class.
        let mut seen = vec![false; n];
        for k in 0..p.num_classes() {
            for &i in p.class(k) {
                prop_assert!(!seen[i]);
                seen[i] = true;
                prop_assert_eq!(p.class_of(i), k);
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
        // Chain condition (paper Eq. 40).
        prop_assert!(p.verify_chain(&rhos, &a));
        // H1 membership criterion.
        for (i, &rho) in rhos.iter().enumerate() {
            let in_h1 = p.class_of(i) == 0;
            prop_assert_eq!(in_h1, rho < a.guaranteed_rate(i));
        }
        // Lemma 9 with uniform aggregate slack.
        let slack = 1.0 - rhos.iter().sum::<f64>();
        let eps = vec![slack / p.num_classes() as f64 * 0.99; p.num_classes()];
        prop_assert!(p.lemma9_holds(&rhos, &eps, &a));
    }

    fn rate_allocations_stay_feasible(
        ph in phis(),
        load in 0.1f64..0.95,
        frac in 0.1f64..1.0,
    ) {
        let n = ph.len();
        let rhos: Vec<f64> = (0..n).map(|i| load / n as f64 * (0.5 + (i % 3) as f64 / 3.0)).collect();
        for strat in [
            RateAllocation::Uniform,
            RateAllocation::Proportional,
            RateAllocation::WeightProportional,
        ] {
            if let Some(rs) = strat.dedicated_rates(&rhos, &ph, 1.0, frac) {
                // Every rate above its rho; total within capacity.
                for (r, rho) in rs.iter().zip(&rhos) {
                    prop_assert!(r > rho);
                }
                prop_assert!(rs.iter().sum::<f64>() <= 1.0 + 1e-9);
                // And a feasible ordering exists.
                let a = GpsAssignment::unit_rate(ph.clone());
                prop_assert!(find_feasible_ordering(&rs, &a).is_some());
            }
        }
    }
}
