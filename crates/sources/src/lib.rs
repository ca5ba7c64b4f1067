//! Traffic-source substrate for the GPS statistical analysis.
//!
//! The paper evaluates its bounds on **discrete-time two-state on-off
//! Markov sources** (Section 6.3, Table 1), characterized as E.B.B.
//! processes "using the results for discrete time two-state on-off Markov
//! processes in \[LNT94\]". This crate rebuilds that machinery from scratch
//! and generalizes it:
//!
//! * [`markov::MarkovSource`] — general finite-state discrete-time
//!   Markov-modulated fluid sources (transition matrix + per-state rates),
//!   with simulation, stationary analysis, and spectral machinery;
//! * [`onoff::OnOffSource`] — the two-state special case with the paper's
//!   (pᵢ, qᵢ, λᵢ) parameterization (Table 1);
//! * [`spectral`] — Perron root / eigenvector computation and the
//!   **effective bandwidth** `eb(θ) = ln sp(P·diag(e^{θλ_s}))/θ`;
//! * [`lnt94`] — E.B.B. characterizations `(ρ, Λ, α)`: `α` solves
//!   `eb(α) = ρ`, `Λ = π·h` (the paper's Table 2 values, reproduced
//!   exactly), plus a self-contained Chernoff-provable prefactor and the
//!   **direct queue-tail bound** used for the paper's Figure 4;
//! * [`token_bucket`] — leaky-bucket shaping/policing and the Section-3
//!   *marked traffic* scheme (zero-size bucket, Lindley recursion);
//! * [`poisson`] / [`cbr`] — memoryless and constant-rate sources with
//!   their E.B.B. characterizations;
//! * [`trace`] — recorded arrival traces and empirical E.B.B. fitting.
//!
//! Discrete time is the native setting (slot = paper's time unit); the
//! E.B.B. characterizations plug directly into `gps-ebb`'s machinery with
//! [`gps_ebb::TimeModel::Discrete`].

pub mod cbr;
pub mod ctmc;
pub mod envelope;
pub mod lnt94;
pub mod markov;
pub mod onoff;
pub mod poisson;
pub mod shed;
pub mod spectral;
pub mod token_bucket;
pub mod trace;
pub mod video;

pub use cbr::CbrSource;
pub use ctmc::CtmcFluidSource;
pub use envelope::{envelope_at, fcfs_admissible, max_fcfs_sessions, EnvelopePoint};
pub use lnt94::{Lnt94Characterization, PrefactorKind};
pub use markov::MarkovSource;
pub use onoff::OnOffSource;
pub use poisson::PoissonSource;
pub use shed::TokenShedSource;
pub use token_bucket::{LeakyBucket, MarkedTrafficMeter};
pub use trace::ArrivalTrace;
pub use video::video_source;

/// A discrete-time fluid traffic source: each call to [`SlotSource::next_slot`]
/// returns the (nonnegative) amount of traffic generated in the next slot.
///
/// Implementations are deterministic functions of their internal state and
/// the RNG handed in — sources never own RNGs, so experiment harnesses
/// control seeding centrally (see `gps_stats::rng::SeedSequence`).
///
/// The RNG is the workspace's one generator,
/// [`Xoshiro256pp`](gps_stats::rng::Xoshiro256pp), passed by concrete
/// type rather than as `&mut dyn RngCore`: campaigns hold sources as
/// `Box<dyn SlotSource>`, and a trait-object RNG would add a second
/// virtual call to every uniform draw inside the slot loop. Concrete, the
/// generator inlines into each source's draw; the stream is the same.
pub trait SlotSource {
    /// Produces the traffic amount for the next slot.
    fn next_slot(&mut self, rng: &mut gps_stats::rng::Xoshiro256pp) -> f64;

    /// Long-run mean rate of the source, if known analytically.
    fn mean_rate(&self) -> f64;

    /// Peak (maximum possible) per-slot amount, if finite.
    fn peak_rate(&self) -> Option<f64>;

    /// Resets the source to its initial state (stationary start where
    /// applicable). The next call to `next_slot` behaves as at construction.
    fn reset(&mut self, rng: &mut gps_stats::rng::Xoshiro256pp);
}
