//! GPS (Generalized Processor Sharing) fundamentals.
//!
//! A GPS server of rate `r` serves `N` sessions according to positive
//! weights `{φ_i}` (the *GPS assignment*): whenever session `i` is
//! backlogged over `[τ, t]`,
//!
//! ```text
//! S_i(τ,t) / S_j(τ,t) >= φ_i / φ_j      for all j          (paper Eq. 1)
//! ```
//!
//! which guarantees session `i` a backlog-clearing rate
//! `g_i = φ_i r / Σ_j φ_j`. This crate holds everything about the
//! *structure* of GPS that the statistical analysis builds on:
//!
//! * [`assignment::GpsAssignment`] — weights, guaranteed rates, the RPPS
//!   (`φ_i = ρ_i`) special case;
//! * [`ordering`] — *feasible orderings* (paper Eqs. 4–5): permutations
//!   along which each session's dedicated rate fits in the capacity left by
//!   its predecessors; construction, verification, enumeration;
//! * [`partition`] — the *feasible partition* `H_1, …, H_L` (paper
//!   Eqs. 37–39), the intrinsic priority structure determined by the ratios
//!   `ρ_i/φ_i`; plus the induced aggregate system of Section 5 (Lemma 9);
//! * [`decomposition`] — strategies for choosing the fictitious dedicated
//!   rates `r_i = ρ_i + ε_i` of the paper's Figure-1 decomposition;
//! * [`fluid`] — exact fluid GPS service allocation (water-filling), the
//!   primitive both simulators are built on.

pub mod assignment;
pub mod decomposition;
pub mod fluid;
pub mod network;
pub mod ordering;
pub mod partition;

pub use assignment::GpsAssignment;
pub use decomposition::RateAllocation;
pub use fluid::{water_fill, water_fill_into, water_fill_unchecked};
pub use network::{NetworkTopology, NodeId, SessionId, SessionSpec};
pub use ordering::{find_feasible_ordering, is_feasible_ordering};
pub use partition::FeasiblePartition;
