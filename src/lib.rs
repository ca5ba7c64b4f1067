//! # gps-qos — statistical analysis of Generalized Processor Sharing
//!
//! A from-scratch reproduction of Zhang, Towsley & Kurose, *"Statistical
//! Analysis of Generalized Processor Sharing Scheduling Discipline"*
//! (SIGCOMM '94 / UMass TR 95-10), as a production-quality Rust
//! workspace. This facade crate re-exports the public API of every
//! member crate; see the README for the architecture tour and
//! `DESIGN.md` for the paper↔code map.
//!
//! ## Thirty-second tour
//!
//! ```
//! use gps_qos::prelude::*;
//!
//! // 1. Characterize a bursty source as an E.B.B. process (Table 2 style).
//! let video = OnOffSource::new(0.4, 0.4, 0.4); // p, q, peak rate
//! let ebb = Lnt94Characterization::characterize(
//!     video.as_markov(), /*rho=*/0.25, PrefactorKind::Lnt94,
//! ).unwrap().ebb;
//!
//! // 2. Share a unit-rate GPS server with three such sessions (RPPS).
//! let sessions = vec![ebb; 3];
//! let assignment = GpsAssignment::rpps(&[0.25; 3], 1.0);
//!
//! // 3. Statistical delay bound for session 0 (Theorem 10: RPPS => H1).
//! let g = assignment.guaranteed_rate(0);
//! let (_backlog, delay) = theorem10(sessions[0], g, TimeModel::Discrete);
//! let p = delay.tail(40.0); // Pr{D >= 40 slots} <= p
//! assert!(p < 1e-3);
//! ```

pub use gps_analysis as analysis;
pub use gps_core as gps;
pub use gps_ebb as ebb;
pub use gps_netcalc as netcalc;
pub use gps_par as par;
pub use gps_sim as sim;
pub use gps_sources as sources;
pub use gps_stats as stats;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use gps_analysis::admission::{max_rpps_sessions, QosTarget};
    pub use gps_analysis::e2e::e2e_delay;
    pub use gps_analysis::engine::{
        AdmissionEngine, CertBackend, ClassSpec, Decision, Request, RequestKind,
    };
    pub use gps_analysis::network::{CrstAnalysis, CrstError, NetworkSession};
    pub use gps_analysis::partition_bounds::theorem10;
    pub use gps_analysis::{RppsNetworkBounds, SessionBounds, Theorem11, Theorem7, Theorem8};
    pub use gps_core::{
        FeasiblePartition, GpsAssignment, NetworkTopology, RateAllocation, SessionSpec,
    };
    pub use gps_ebb::{DeltaTailBound, EbProcess, EbbProcess, TailBound, TimeModel};
    pub use gps_netcalc::{rpps_network_bounds, AffineCurve, LatencyRate};
    pub use gps_par::Pool;
    pub use gps_sim::campaign::{Campaign, CampaignOutcome, Fold, Replication};
    pub use gps_sim::ct_runner::{run_ct_fluid, CtRunConfig};
    pub use gps_sim::runner::{
        merge_network_reports, merge_single_node_reports, run_network, run_single_node,
        NetworkRunConfig, SingleNodeRunConfig,
    };
    pub use gps_sim::supervise::{PanicInjection, SimError, Supervisor};
    pub use gps_sim::{
        FaultySource, FifoServer, FluidGps, Packet, PgpsServer, PriorityServer, SlottedGps,
        SlottedGpsNetwork,
    };
    pub use gps_sources::lnt94::queue_tail_bound;
    pub use gps_sources::{
        ArrivalTrace, CbrSource, CtmcFluidSource, LeakyBucket, Lnt94Characterization,
        MarkedTrafficMeter, MarkovSource, OnOffSource, PoissonSource, PrefactorKind, SlotSource,
    };
    pub use gps_stats::rng::SeedSequence;
    pub use gps_stats::{BinnedCcdf, EmpiricalCcdf, ExponentialTailFit, StreamingMoments};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let src = OnOffSource::new(0.3, 0.7, 0.5);
        let ebb = Lnt94Characterization::characterize(src.as_markov(), 0.2, PrefactorKind::Lnt94)
            .unwrap()
            .ebb;
        let a = GpsAssignment::rpps(&[0.2, 0.2], 1.0);
        let (q, d) = theorem10(ebb, a.guaranteed_rate(0), TimeModel::Discrete);
        assert!(q.tail(10.0) < 1.0);
        assert!(d.decay > 0.0);
    }
}
