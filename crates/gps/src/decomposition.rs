//! Strategies for choosing the fictitious dedicated rates `r_i = ρ_i + ε_i`
//! of the paper's decomposition (Figure 1 / Eq. 5).
//!
//! The statistical bounds hold for *any* choice with `ε_i > 0` and
//! `Σ r_i <= r`, but their tightness depends on how the slack
//! `r - Σ ρ_i` is split. Three standard strategies:
//!
//! * [`RateAllocation::Uniform`] — equal `ε_i` (the natural default);
//! * [`RateAllocation::Proportional`] — `ε_i ∝ ρ_i` (each session keeps
//!   the same relative headroom, mirroring RPPS);
//! * [`RateAllocation::WeightProportional`] — `ε_i ∝ φ_i` (headroom
//!   follows the GPS weights).
//!
//! Theorem 11's proof uses a *session-targeted* split — concentrating the
//! slack budget `g_i - ρ_i` of a target session across itself and the
//! aggregated lower classes, `ε_i = ψ_i ε̃_1 = … = (g_i - ρ_i)/k` — which
//! `gps_analysis::Theorem11` computes inline.

/// How the capacity slack is divided among the sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateAllocation {
    /// `ε_i = slack / N`.
    Uniform,
    /// `ε_i = slack · ρ_i / Σρ_j` (undefined when all ρ are zero; falls
    /// back to uniform then).
    Proportional,
    /// `ε_i = slack · φ_i / Σφ_j`.
    WeightProportional,
}

impl RateAllocation {
    /// Computes dedicated rates `r_i = ρ_i + ε_i` consuming a fraction
    /// `use_fraction ∈ (0, 1]` of the slack `capacity - Σρ` (using less
    /// than all slack keeps the ε's interior, which some constructions
    /// need).
    ///
    /// Returns `None` when `Σ ρ_i >= capacity` (no slack to allocate).
    pub fn dedicated_rates(
        &self,
        rhos: &[f64],
        phis: &[f64],
        capacity: f64,
        use_fraction: f64,
    ) -> Option<Vec<f64>> {
        assert_eq!(rhos.len(), phis.len());
        assert!(!rhos.is_empty());
        assert!(
            use_fraction > 0.0 && use_fraction <= 1.0,
            "use_fraction must be in (0,1], got {use_fraction}"
        );
        let total_rho: f64 = rhos.iter().sum();
        let slack = capacity - total_rho;
        if slack <= 0.0 {
            return None;
        }
        let budget = slack * use_fraction;
        let n = rhos.len();
        let eps: Vec<f64> = match self {
            RateAllocation::Uniform => vec![budget / n as f64; n],
            RateAllocation::Proportional => {
                if total_rho <= 0.0 {
                    vec![budget / n as f64; n]
                } else {
                    rhos.iter().map(|&r| budget * r / total_rho).collect()
                }
            }
            RateAllocation::WeightProportional => {
                let total_phi: f64 = phis.iter().sum();
                phis.iter().map(|&p| budget * p / total_phi).collect()
            }
        };
        Some(rhos.iter().zip(&eps).map(|(&r, &e)| r + e).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RHOS: [f64; 3] = [0.1, 0.2, 0.3];
    const PHIS: [f64; 3] = [1.0, 2.0, 3.0];

    #[test]
    fn uniform_splits_evenly() {
        let rs = RateAllocation::Uniform
            .dedicated_rates(&RHOS, &PHIS, 1.0, 1.0)
            .unwrap();
        let slack = 0.4;
        for (i, &r) in rs.iter().enumerate() {
            assert!((r - (RHOS[i] + slack / 3.0)).abs() < 1e-12);
        }
        assert!((rs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn proportional_preserves_ratios() {
        let rs = RateAllocation::Proportional
            .dedicated_rates(&RHOS, &PHIS, 1.0, 1.0)
            .unwrap();
        // r_i = ρ_i (1 + slack/Σρ): all sessions share the same relative
        // headroom.
        let scale = 1.0 / 0.6;
        for (i, &r) in rs.iter().enumerate() {
            assert!((r - RHOS[i] * scale).abs() < 1e-12);
        }
    }

    #[test]
    fn weight_proportional_follows_phis() {
        let rs = RateAllocation::WeightProportional
            .dedicated_rates(&RHOS, &PHIS, 1.0, 1.0)
            .unwrap();
        let slack = 0.4;
        for (i, &r) in rs.iter().enumerate() {
            assert!((r - (RHOS[i] + slack * PHIS[i] / 6.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_slack_leaves_headroom() {
        let rs = RateAllocation::Uniform
            .dedicated_rates(&RHOS, &PHIS, 1.0, 0.5)
            .unwrap();
        let total: f64 = rs.iter().sum();
        assert!((total - 0.8).abs() < 1e-12); // 0.6 + half of 0.4
        assert!(rs.iter().zip(&RHOS).all(|(&r, &rho)| r > rho));
    }

    #[test]
    fn no_slack_is_none() {
        assert!(RateAllocation::Uniform
            .dedicated_rates(&[0.5, 0.5], &[1.0, 1.0], 1.0, 1.0)
            .is_none());
    }
}
