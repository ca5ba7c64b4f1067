//! Simulation substrate for the GPS statistical analysis.
//!
//! The paper closes with "simulation needs to be conducted to verify how
//! good the theoretical bounds we derived in this paper are" — this crate
//! is that simulator, plus the packetized machinery the paper defers to
//! PGPS references:
//!
//! * [`slotted::SlottedGps`] — discrete-time fluid GPS server: exact
//!   water-filling per slot, per-session backlog and FCFS clearing-delay
//!   tracking (the paper's `Q_i(t)` and `D_i(t)`, in the Section-6.3
//!   slotted setting);
//! * [`fluid_event::FluidGps`] — continuous-time event-driven fluid GPS
//!   with impulse (packet) arrivals: exact piecewise-constant-rate
//!   evolution, per-packet fluid completion times;
//! * [`pgps::PgpsServer`] — packet-by-packet GPS (WFQ): the
//!   Demers–Keshav–Shenker / Parekh–Gallager virtual-time discipline,
//!   non-preemptive, plus [`pgps::FifoServer`] and
//!   [`pgps::PriorityServer`] baselines;
//! * [`network_sim::SlottedGpsNetwork`] — multi-node slotted simulation
//!   with store-and-forward hops, per-session network backlog and
//!   end-to-end delay measurement;
//! * [`faults::FaultySource`] — fault injection (drops, duplicated
//!   bursts, rate scaling) for robustness experiments, in the spirit of
//!   smoltcp's `--drop-chance`-style example knobs;
//! * [`runner`] — seeded measurement runs producing per-session
//!   backlog/delay CCDFs ready to compare against analytical bounds;
//! * [`campaign`] — the one campaign funnel: a [`campaign::Campaign`]
//!   spec (pool, replication range, monitor, supervisor, fold mode) run
//!   generically over single-node and network replications;
//! * [`supervise`] — campaign supervision: typed
//!   [`supervise::SimError`] failures, the retry/quarantine/checkpoint
//!   [`supervise::Supervisor`] spec, and the crash-safe NDJSON
//!   checkpoint codec that keeps resumed results byte-identical;
//! * [`orchestrate`] — fault-tolerant multi-process campaigns: a
//!   coordinator leases (fingerprint, seed, replication-range) shards to
//!   workers over the in-tree HTTP stack, workers stream checkpoint
//!   lines back, and the merged result is byte-identical to a local
//!   supervised run even across worker kills and coordinator restarts.
//!
//! Throughout: slot = the paper's discrete time unit; amounts are fluid
//! volumes; capacities are per-slot (rate × slot).

// The simulators index several parallel per-session arrays in lock-step;
// indexed loops are clearer than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]

pub mod campaign;
pub mod ct_runner;
pub mod faults;
pub mod fluid_event;
pub mod fluid_rates;
pub mod network_sim;
pub mod orchestrate;
pub mod packet_network;
pub mod pgps;
pub mod runner;
pub mod slotted;
pub mod supervise;

pub use campaign::{Campaign, CampaignOutcome, Fold, Replication};
pub use ct_runner::{run_ct_fluid, CtRunConfig, CtRunReport};
pub use faults::{FaultConfig, FaultConfigError, FaultySource};
pub use fluid_event::FluidGps;
pub use fluid_rates::RateFluidGps;
pub use network_sim::{NetworkSlotOutput, SlottedGpsNetwork};
pub use orchestrate::{
    CampaignSpec, CompleteReply, Coordinator, CoordinatorConfig, HttpTransport, KillInjection,
    LeaseReply, LocalTransport, ShardTransport, SubmitReply, WorkerOptions, WorkerSummary,
};
pub use packet_network::{run_packet_network, PacketJourney, PacketNetworkError};
pub use pgps::{FifoServer, Packet, PgpsServer, PriorityServer};
pub use runner::{
    merge_network_reports, merge_single_node_reports, NetworkRunConfig, NetworkRunReport,
    SingleNodeRunConfig, SingleNodeRunReport,
};
pub use slotted::{SlotOutput, SlottedGps};
pub use supervise::{PanicInjection, SimError, Supervisor};
