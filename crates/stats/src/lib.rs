//! Measurement substrate for the GPS statistical-analysis workspace.
//!
//! Simulation experiments in this workspace estimate *tail probabilities* of
//! backlog and delay and compare them against analytical bounds of the form
//! `Pr{X >= x} <= Λ e^{-θ x}`. This crate provides everything those
//! experiments need to measure with:
//!
//! * [`moments::StreamingMoments`] — numerically stable streaming
//!   mean/variance/extrema (Welford's algorithm);
//! * [`ccdf::EmpiricalCcdf`] — an exact empirical complementary CDF built
//!   from retained samples, with log-spaced summarisation for plotting;
//! * [`ccdf::BinnedCcdf`] — a bounded-memory CCDF over a fixed grid for very
//!   long simulation runs;
//! * [`quantile::P2Quantile`] — the P² streaming quantile estimator;
//! * [`batch::BatchMeans`] — batch-means confidence intervals for steady-state
//!   simulation output analysis;
//! * [`fit::ExponentialTailFit`] — least-squares fitting of `ln Pr{X >= x}`
//!   against `x`, recovering an empirical `(Λ, θ)` pair to compare with the
//!   paper's bounds;
//! * [`rng`] — the in-tree random-number substrate (xoshiro256++ generator,
//!   the distributions the workspace samples, and deterministic seed
//!   derivation so every source / replication in an experiment gets an
//!   independent, reproducible RNG stream);
//! * [`prop`] — a small in-tree property-testing harness (seeded case
//!   generation, shrinking, persisted regression seeds).
//!
//! Everything here is plain, allocation-conscious, synchronous Rust with
//! **zero external dependencies** — the workspace builds fully offline (see
//! the hermetic-build policy in the repository README). The workloads are
//! CPU-bound Monte-Carlo loops, so the design follows the "simple and
//! robust" smoltcp ethos rather than any async machinery.

pub mod autocorr;
pub mod batch;
pub mod ccdf;
pub mod fit;
pub mod moments;
pub mod prop;
pub mod quantile;
pub mod rng;

pub use autocorr::{autocorrelation, geometric_decay};
pub use batch::BatchMeans;
pub use ccdf::{BinnedCcdf, EmpiricalCcdf};
pub use fit::ExponentialTailFit;
pub use moments::StreamingMoments;
pub use quantile::P2Quantile;
pub use rng::{RngCore, RngExt, SeedSequence, Xoshiro256pp};
