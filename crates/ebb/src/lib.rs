//! Exponentially Bounded Burstiness (E.B.B.) traffic models and the
//! moment-generating-function machinery underlying the statistical GPS
//! analysis of Zhang, Towsley & Kurose (SIGCOMM '94 / UMass TR 95-10).
//!
//! # The models
//!
//! A session arrival process `A` is a **(ρ, Λ, α)-E.B.B. process** (Yaron &
//! Sidi) if for all `τ <= t` and `x >= 0`
//!
//! ```text
//! Pr{ A(τ,t) >= ρ·(t-τ) + x } <= Λ e^{-α x}            (paper Eq. 2)
//! ```
//!
//! — the traffic in any interval exceeds its long-term envelope `ρ·len` by
//! more than `x` only with exponentially small probability. A scalar process
//! `X(t)` is an **(Λ, θ)-E.B. process** if `Pr{X(t) >= x} <= Λ e^{-θ x}`
//! (paper Eq. 3); backlog and delay bounds in the paper are statements that
//! those processes are E.B.
//!
//! # The machinery
//!
//! The paper's decomposition replaces the GPS server with fictitious
//! dedicated servers of rates `r_i = ρ_i + ε_i`; the decomposed backlog
//! `δ_i(t) = sup_{s<=t} {A_i(s,t) - r_i (t-s)}` is bounded two ways:
//!
//! * in tail form ([`delta::DeltaTailBound`], paper Lemma 5),
//! * in MGF form `E e^{θ δ_i(t)}` ([`mgf::delta_mgf_log`], paper Lemma 6),
//!   built on the arrival-MGF envelope `E e^{θ A(τ,t)} <=
//!   e^{θ(ρ (t-τ) + σ̂(θ))}` with `σ̂(θ) = ln(1 + θΛ/(α-θ))/θ` (paper
//!   Eq. 19).
//!
//! Individual-session bounds then combine several δ's through Chernoff
//! products (independent sources, Theorem 7) or Hölder products (dependent
//! sources, Theorem 8); the combination kernels live in [`combine`] and the
//! Hölder-exponent allocation in [`holder`].
//!
//! Both the paper's **continuous-time** bounds (discretization parameter
//! `ξ`, default `ξ = 1` as in the paper, optimal `ξ` per Remark 1) and the
//! **discrete-time** variants used in the paper's Section 6.3 numerical
//! example (Eqs. 66–67) are provided; see [`TimeModel`].

pub mod combine;
pub mod delta;
pub mod holder;
pub mod mgf;
pub mod numeric;
pub mod process;

pub use combine::{chernoff_combine, holder_combine, holder_combine_paper_form, WeightedDelta};
pub use delta::DeltaTailBound;
pub use holder::HolderExponents;
pub use mgf::{delta_mgf_log, sigma_hat, AggregateArrival, MgfArrival};
pub use process::{EbProcess, EbbProcess, TailBound};

/// Selects between the paper's continuous-time bounds (with discretization
/// parameter `ξ > 0`) and the discrete-time (slotted) variants it uses in
/// the Section 6.3 numerical example.
///
/// In continuous time, Lemmas 5–6 discretize the supremum over history at
/// granularity `ξ` and pay a factor `e^{θρξ}` for it; the paper takes
/// `ξ = 1` "for simplicity of notation" and gives the optimal choice in
/// Remark 1. In discrete time the supremum is already a maximum over integer
/// lags and no `ξ` appears.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeModel {
    /// Continuous time with discretization step `xi` (must be positive).
    Continuous {
        /// Discretization parameter `ξ` of Lemmas 5 and 6.
        xi: f64,
    },
    /// Discrete (slotted) time; used by the paper's numerical example.
    Discrete,
}

impl TimeModel {
    /// The paper's default: continuous time with `ξ = 1`.
    pub const PAPER_DEFAULT: TimeModel = TimeModel::Continuous { xi: 1.0 };

    /// Returns the effective `ξ` (1.0 for discrete time, where the slot is
    /// the unit).
    pub fn xi(&self) -> f64 {
        match *self {
            TimeModel::Continuous { xi } => xi,
            TimeModel::Discrete => 1.0,
        }
    }

    /// True when the Lemma 5/6 prefactor should include the continuous-time
    /// `e^{θρξ}` overshoot factor.
    pub fn pays_overshoot(&self) -> bool {
        matches!(self, TimeModel::Continuous { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_model_accessors() {
        assert_eq!(TimeModel::PAPER_DEFAULT.xi(), 1.0);
        assert!(TimeModel::PAPER_DEFAULT.pays_overshoot());
        assert_eq!(TimeModel::Discrete.xi(), 1.0);
        assert!(!TimeModel::Discrete.pays_overshoot());
        assert_eq!(TimeModel::Continuous { xi: 0.5 }.xi(), 0.5);
    }
}
