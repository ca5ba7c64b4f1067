//! The feasible partition (paper Section 5, Eqs. 37–39) and the induced
//! aggregate system (Lemma 9).
//!
//! The feasible partition `H_1, …, H_L` of the sessions is determined only
//! by the ratios `ρ_i/φ_i`:
//!
//! ```text
//! i ∈ H_1    iff  ρ_i/φ_i <  r / Σ_j φ_j
//! i ∈ H_{k+1} iff ρ_i/φ_i <  (r - Σ_{j∈H^k} ρ_j) / Σ_{j∉H^k} φ_j
//! ```
//!
//! where `H^k = H_1 ∪ … ∪ H_k`. A session lands in `H_1` exactly when its
//! long-term rate is below its guaranteed rate `g_i`; under RPPS
//! (`φ_i = ρ_i`) every ratio equals 1 and the partition collapses to a
//! single class. The partition orders the sessions into priority layers:
//! bounds for a session in `H_k` depend only on classes `H_1..H_{k-1}`.

use crate::assignment::GpsAssignment;

/// The feasible partition induced by `{ρ_i}` and `{φ_i}`.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasiblePartition {
    /// `classes[k]` = session indices in `H_{k+1}`, each sorted ascending.
    classes: Vec<Vec<usize>>,
    /// `class_of[i]` = 0-based class index of session `i`.
    class_of: Vec<usize>,
}

impl FeasiblePartition {
    /// Computes the feasible partition. Requires stability
    /// (`Σ ρ_i < r`), which guarantees every stage absorbs at least one
    /// session (same exchange argument as for feasible orderings).
    ///
    /// Returns `None` if `Σ ρ_i >= r`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gps_core::{FeasiblePartition, GpsAssignment};
    /// // A light session (H1) and a heavy one relative to its weight (H2).
    /// let a = GpsAssignment::unit_rate(vec![3.0, 1.0]);
    /// let p = FeasiblePartition::compute(&[0.1, 0.55], &a).unwrap();
    /// assert_eq!(p.num_classes(), 2);
    /// assert_eq!(p.class_of(0), 0);
    /// assert_eq!(p.class_of(1), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `rhos` has the wrong length or negative entries.
    pub fn compute(rhos: &[f64], assignment: &GpsAssignment) -> Option<Self> {
        let n = assignment.len();
        assert_eq!(rhos.len(), n, "one rho per session");
        assert!(rhos.iter().all(|&r| r >= 0.0), "rhos must be nonnegative");
        if rhos.iter().sum::<f64>() >= assignment.rate() {
            return None;
        }

        let mut class_of = vec![usize::MAX; n];
        let mut classes: Vec<Vec<usize>> = Vec::new();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut used_rho = 0.0;

        while !remaining.is_empty() {
            let rem_phi: f64 = remaining.iter().map(|&i| assignment.phi(i)).sum();
            let threshold = (assignment.rate() - used_rho) / rem_phi;
            let (cls, rest): (Vec<usize>, Vec<usize>) = remaining
                .iter()
                .partition(|&&i| rhos[i] / assignment.phi(i) < threshold);
            assert!(
                !cls.is_empty(),
                "feasible partition stage absorbed no session — stability \
                 should preclude this"
            );
            used_rho += cls.iter().map(|&i| rhos[i]).sum::<f64>();
            for &i in &cls {
                class_of[i] = classes.len();
            }
            classes.push(cls);
            remaining = rest;
        }
        Some(Self { classes, class_of })
    }

    /// Number of classes `L`.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Sessions of class `H_{k+1}` (0-based `k`).
    pub fn class(&self, k: usize) -> &[usize] {
        &self.classes[k]
    }

    /// All classes in order.
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// 0-based class index of session `i`.
    pub fn class_of(&self, i: usize) -> usize {
        self.class_of[i]
    }

    /// All sessions in classes strictly below `k` (i.e. `H^k` in paper
    /// notation with `k` classes), ascending.
    pub fn lower_classes(&self, k: usize) -> Vec<usize> {
        let mut v: Vec<usize> = self.classes[..k].iter().flatten().copied().collect();
        v.sort_unstable();
        v
    }

    /// Aggregate rate `ρ̃_k = Σ_{i∈H_k} ρ_i` of each class.
    pub(crate) fn aggregate_rhos(&self, rhos: &[f64]) -> Vec<f64> {
        self.classes
            .iter()
            .map(|c| c.iter().map(|&i| rhos[i]).sum())
            .collect()
    }

    /// Aggregate weight `φ̃_k = Σ_{i∈H_k} φ_i` of each class.
    pub(crate) fn aggregate_phis(&self, assignment: &GpsAssignment) -> Vec<f64> {
        self.classes
            .iter()
            .map(|c| c.iter().map(|&i| assignment.phi(i)).sum())
            .collect()
    }

    /// Verifies the interleaving chain (paper Eq. 40): the aggregate
    /// ratios `ρ̃_k/φ̃_k` are ordered, and each class's ratio lies below
    /// the residual-capacity threshold of its level while the next class's
    /// lies at or above it.
    pub fn verify_chain(&self, rhos: &[f64], assignment: &GpsAssignment) -> bool {
        let ag_rho = self.aggregate_rhos(rhos);
        let ag_phi = self.aggregate_phis(assignment);
        let l = self.num_classes();
        let mut used = 0.0;
        let mut tail_phi: f64 = ag_phi.iter().sum();
        for k in 0..l {
            let threshold = (assignment.rate() - used) / tail_phi;
            if ag_rho[k] / ag_phi[k] >= threshold {
                return false;
            }
            if k + 1 < l {
                // Next class failed this level's test.
                if ag_rho[k + 1] / ag_phi[k + 1] < threshold {
                    return false;
                }
            }
            used += ag_rho[k];
            tail_phi -= ag_phi[k];
        }
        true
    }

    /// Lemma 9: with aggregate rates `r̃_k = ρ̃_k + ε̃_k` summing to at
    /// most the server rate, the identity permutation on the classes is a
    /// feasible ordering of the aggregate system. This checks that claim
    /// numerically for the given `ε̃` vector.
    pub fn lemma9_holds(&self, rhos: &[f64], epsilons: &[f64], assignment: &GpsAssignment) -> bool {
        assert_eq!(epsilons.len(), self.num_classes());
        let ag_rho = self.aggregate_rhos(rhos);
        let ag_phi = self.aggregate_phis(assignment);
        let rs: Vec<f64> = ag_rho.iter().zip(epsilons).map(|(&r, &e)| r + e).collect();
        if rs.iter().sum::<f64>() > assignment.rate() + 1e-12 {
            return false;
        }
        let mut used = 0.0;
        let mut tail_phi: f64 = ag_phi.iter().sum();
        for k in 0..self.num_classes() {
            let budget = ag_phi[k] / tail_phi * (assignment.rate() - used);
            if rs[k] > budget + 1e-12 {
                return false;
            }
            used += rs[k];
            tail_phi -= ag_phi[k];
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpps_single_class() {
        let rhos = [0.2, 0.25, 0.2, 0.25];
        let a = GpsAssignment::rpps(&rhos, 1.0);
        let p = FeasiblePartition::compute(&rhos, &a).unwrap();
        assert_eq!(p.num_classes(), 1);
        assert_eq!(p.class(0), &[0, 1, 2, 3]);
        assert!(p.verify_chain(&rhos, &a));
    }

    #[test]
    fn two_class_example() {
        // Session 0: tiny rate, big weight -> H1.
        // Session 1: rate near its guaranteed share -> later class.
        let rhos = [0.1, 0.55];
        let a = GpsAssignment::unit_rate(vec![3.0, 1.0]);
        // Thresholds: level 1: 1/4 = 0.25. ratios: 0.1/3 = 0.033 < 0.25 ✓;
        // 0.55/1 = 0.55 >= 0.25 ✗. Level 2: (1-0.1)/1 = 0.9 > 0.55 ✓.
        let p = FeasiblePartition::compute(&rhos, &a).unwrap();
        assert_eq!(p.num_classes(), 2);
        assert_eq!(p.class(0), &[0]);
        assert_eq!(p.class(1), &[1]);
        assert_eq!(p.class_of(0), 0);
        assert_eq!(p.class_of(1), 1);
        assert!(p.verify_chain(&rhos, &a));
    }

    #[test]
    fn h1_iff_rho_below_guaranteed_rate() {
        let rhos = [0.05, 0.3, 0.2, 0.1];
        let a = GpsAssignment::unit_rate(vec![1.0, 1.0, 1.0, 1.0]);
        let p = FeasiblePartition::compute(&rhos, &a).unwrap();
        for (i, &rho) in rhos.iter().enumerate() {
            let in_h1 = p.class_of(i) == 0;
            assert_eq!(in_h1, rho < a.guaranteed_rate(i), "session {i}");
        }
    }

    #[test]
    fn unstable_returns_none() {
        let a = GpsAssignment::unit_rate(vec![1.0, 1.0]);
        assert!(FeasiblePartition::compute(&[0.5, 0.5], &a).is_none());
        assert!(FeasiblePartition::compute(&[0.6, 0.6], &a).is_none());
    }

    #[test]
    fn three_layers() {
        // Engineer three distinct layers with a clear hierarchy.
        let rhos = [0.01, 0.25, 0.6];
        let phis = vec![10.0, 2.0, 0.5];
        let a = GpsAssignment::unit_rate(phis);
        // Level 1 threshold: 1/12.5 = 0.08. ratios: 0.001 ✓, 0.125 ✗, 1.2 ✗.
        // Level 2: (1-0.01)/2.5 = 0.396 -> 0.125 ✓, 1.2 ✗.
        // Level 3: (1-0.26)/0.5 = 1.48 -> 1.2 ✓.
        let p = FeasiblePartition::compute(&rhos, &a).unwrap();
        assert_eq!(p.num_classes(), 3);
        assert_eq!(p.class(0), &[0]);
        assert_eq!(p.class(1), &[1]);
        assert_eq!(p.class(2), &[2]);
        assert!(p.verify_chain(&rhos, &a));
        assert_eq!(p.lower_classes(2), vec![0, 1]);
        assert_eq!(p.lower_classes(0), Vec::<usize>::new());
    }

    #[test]
    fn aggregates() {
        let rhos = [0.01, 0.25, 0.6];
        let a = GpsAssignment::unit_rate(vec![10.0, 2.0, 0.5]);
        let p = FeasiblePartition::compute(&rhos, &a).unwrap();
        assert_eq!(p.aggregate_rhos(&rhos), vec![0.01, 0.25, 0.6]);
        assert_eq!(p.aggregate_phis(&a), vec![10.0, 2.0, 0.5]);
    }

    #[test]
    fn lemma9_uniform_slack() {
        let rhos = [0.01, 0.25, 0.6];
        let a = GpsAssignment::unit_rate(vec![10.0, 2.0, 0.5]);
        let p = FeasiblePartition::compute(&rhos, &a).unwrap();
        let slack = 1.0 - rhos.iter().sum::<f64>();
        let eps = vec![slack / 3.0; 3];
        assert!(p.lemma9_holds(&rhos, &eps, &a));
        // Overcommitting epsilon fails.
        let too_much = vec![slack; 3];
        assert!(!p.lemma9_holds(&rhos, &too_much, &a));
    }

    #[test]
    fn mixed_class_memberships() {
        // Two sessions in H1, one in H2.
        let rhos = [0.1, 0.15, 0.5];
        let a = GpsAssignment::unit_rate(vec![1.0, 1.0, 1.0]);
        // Level 1: threshold 1/3: 0.1 ✓, 0.15 ✓, 0.5 ✗.
        // Level 2: (1-0.25)/1 = 0.75 > 0.5 ✓.
        let p = FeasiblePartition::compute(&rhos, &a).unwrap();
        assert_eq!(p.num_classes(), 2);
        assert_eq!(p.class(0), &[0, 1]);
        assert_eq!(p.class(1), &[2]);
        assert!(p.verify_chain(&rhos, &a));
    }
}
