//! Exact fluid GPS service allocation (water-filling).
//!
//! Over an interval in which session demands are fixed, fluid GPS serves
//! each session at a rate proportional to its weight among sessions that
//! still have demand; sessions whose demand is met by less than their fair
//! share release the surplus, which is redistributed — the classic
//! water-filling fixpoint. One invocation covers both simulators:
//!
//! * the slotted simulator calls it with *amounts* (backlog + arrivals
//!   this slot) and the per-slot capacity;
//! * the event-driven simulator calls it with *rates* (input rates of
//!   non-backlogged sessions, `+∞`-like demand for backlogged ones) and
//!   the server rate.
//!
//! The result satisfies the GPS defining property (paper Eq. 1): among
//! sessions whose demand is not fully met, service is exactly
//! `φ`-proportional.

/// Allocates `capacity` among sessions with the given `demands` and
/// weights `phis`, by water-filling. Returns per-session allocations.
///
/// Properties (all asserted by tests):
/// * `0 <= alloc_i <= demand_i`;
/// * `Σ alloc_i = min(capacity, Σ demand_i)` (work conservation);
/// * sessions with unmet demand receive `φ`-proportional shares.
///
/// Use `f64::INFINITY` as a demand for "always backlogged".
///
/// # Examples
///
/// ```
/// use gps_core::water_fill;
/// // Session 0 is satisfied by less than its fair share; the surplus
/// // goes to the backlogged session 1.
/// let alloc = water_fill(&[0.1, f64::INFINITY], &[1.0, 1.0], 1.0);
/// assert!((alloc[0] - 0.1).abs() < 1e-12);
/// assert!((alloc[1] - 0.9).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics on mismatched lengths, negative demands, non-positive weights or
/// negative capacity.
pub fn water_fill(demands: &[f64], phis: &[f64], capacity: f64) -> Vec<f64> {
    let mut alloc = Vec::new();
    let mut active = Vec::new();
    water_fill_into(demands, phis, capacity, &mut alloc, &mut active);
    alloc
}

/// Allocation-free [`water_fill`]: writes the per-session allocations into
/// `alloc` (cleared and resized to `demands.len()`) and uses `active` as
/// scratch for the active-session set. Simulator hot loops call this once
/// per slot with long-lived buffers so steady state allocates nothing.
pub fn water_fill_into(
    demands: &[f64],
    phis: &[f64],
    capacity: f64,
    alloc: &mut Vec<f64>,
    active: &mut Vec<usize>,
) {
    assert_eq!(demands.len(), phis.len());
    assert!(capacity >= 0.0, "capacity must be nonnegative");
    assert!(
        demands.iter().all(|&d| d >= 0.0),
        "demands must be nonnegative"
    );
    assert!(phis.iter().all(|&p| p > 0.0), "weights must be positive");

    let n = demands.len();
    alloc.clear();
    alloc.resize(n, 0.0);
    water_fill_unchecked(demands, phis, capacity, alloc, active);
}

/// The validated-input water-filling core: fills `alloc` (which must have
/// `demands.len()` elements; prior contents are overwritten) without
/// re-checking the input invariants. Bit-identical to [`water_fill_into`]
/// on the same row — the simulators' per-slot loops call this directly
/// because their inputs are validated once at construction/arrival time.
///
/// Invariants the caller must guarantee (debug-asserted only):
/// `alloc.len() == demands.len() == phis.len()`, `capacity >= 0`,
/// `demands[i] >= 0`, `phis[i] > 0`.
pub fn water_fill_unchecked(
    demands: &[f64],
    phis: &[f64],
    capacity: f64,
    alloc: &mut [f64],
    active: &mut Vec<usize>,
) {
    debug_assert_eq!(demands.len(), phis.len());
    debug_assert_eq!(alloc.len(), demands.len());
    debug_assert!(capacity >= 0.0);
    debug_assert!(demands.iter().all(|&d| d >= 0.0));
    debug_assert!(phis.iter().all(|&p| p > 0.0));

    let n = demands.len();
    alloc.fill(0.0);
    active.clear();
    active.extend((0..n).filter(|&i| demands[i] > 0.0));
    let mut remaining = capacity;

    // Each pass either satisfies at least one session completely (and
    // removes it) or exhausts the capacity proportionally: at most n
    // passes.
    while !active.is_empty() && remaining > 0.0 {
        let phi_sum: f64 = active.iter().map(|&i| phis[i]).sum();
        // Largest uniform "fill level" (service per unit weight) that no
        // active session's remaining demand blocks.
        let mut level = remaining / phi_sum;
        let mut binding: Option<usize> = None;
        for &i in active.iter() {
            let need = (demands[i] - alloc[i]) / phis[i];
            if need < level {
                level = need;
                binding = Some(i);
            }
        }
        for &i in active.iter() {
            alloc[i] += level * phis[i];
        }
        remaining -= level * phi_sum;
        match binding {
            Some(_) => {
                // Remove every session that is now (numerically) satisfied
                // (infinite demands are never satisfied).
                active.retain(|&i| {
                    demands[i].is_infinite() || demands[i] - alloc[i] > 1e-15 * demands[i].max(1.0)
                });
            }
            None => break, // capacity exhausted exactly proportionally
        }
        if remaining <= 1e-18 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    #[test]
    fn all_backlogged_proportional() {
        let a = water_fill(&[f64::INFINITY, f64::INFINITY], &[1.0, 3.0], 1.0);
        assert!((a[0] - 0.25).abs() < 1e-12);
        assert!((a[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn surplus_redistributed() {
        // Session 0 needs only 0.1 < its 0.5 fair share; surplus to 1.
        let a = water_fill(&[0.1, f64::INFINITY], &[1.0, 1.0], 1.0);
        assert!((a[0] - 0.1).abs() < 1e-12);
        assert!((a[1] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn work_conserving() {
        let demands = [0.2, 0.3, 0.1];
        let a = water_fill(&demands, &[1.0, 1.0, 1.0], 1.0);
        // Total demand 0.6 < capacity: everyone fully served.
        assert!((total(&a) - 0.6).abs() < 1e-12);
        for (x, d) in a.iter().zip(&demands) {
            assert!((x - d).abs() < 1e-12);
        }
    }

    #[test]
    fn capacity_binding_proportional_among_unmet() {
        let demands = [10.0, 10.0, 0.05];
        let phis = [2.0, 1.0, 1.0];
        let a = water_fill(&demands, &phis, 1.0);
        assert!((total(&a) - 1.0).abs() < 1e-12);
        // Session 2 fully served.
        assert!((a[2] - 0.05).abs() < 1e-12);
        // Remaining 0.95 split 2:1 between sessions 0 and 1.
        assert!((a[0] / a[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gps_defining_ratio_property() {
        // Paper Eq. 1: for backlogged i: S_i/S_j >= φ_i/φ_j for ALL j.
        let demands = [f64::INFINITY, 0.01, f64::INFINITY, 0.4];
        let phis = [1.0, 5.0, 2.5, 1.0];
        let a = water_fill(&demands, &phis, 1.0);
        for i in 0..4 {
            if demands[i].is_infinite() {
                for j in 0..4 {
                    if i != j && a[j] > 0.0 {
                        assert!(
                            a[i] / a[j] >= phis[i] / phis[j] - 1e-9,
                            "ratio violated for ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_capacity_zero_alloc() {
        let a = water_fill(&[1.0, 2.0], &[1.0, 1.0], 0.0);
        assert_eq!(a, vec![0.0, 0.0]);
    }

    #[test]
    fn zero_demand_sessions_ignored() {
        let a = water_fill(&[0.0, 5.0], &[10.0, 1.0], 1.0);
        assert_eq!(a[0], 0.0);
        assert!((a[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn never_exceeds_demand_or_capacity() {
        let demands = [0.3, 0.7, 0.2, 0.9];
        let phis = [1.0, 2.0, 0.5, 0.1];
        for cap in [0.1, 0.5, 1.0, 2.0, 3.0] {
            let a = water_fill(&demands, &phis, cap);
            for (x, d) in a.iter().zip(&demands) {
                assert!(*x <= d + 1e-12);
                assert!(*x >= 0.0);
            }
            let want = cap.min(total(&demands));
            assert!(
                (total(&a) - want).abs() < 1e-9,
                "cap {cap}: served {} want {want}",
                total(&a)
            );
        }
    }

    #[test]
    fn single_session_gets_everything_it_needs() {
        let a = water_fill(&[f64::INFINITY], &[7.0], 0.9);
        assert!((a[0] - 0.9).abs() < 1e-12);
    }
}
