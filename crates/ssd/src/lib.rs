//! Many-chip SSD system substrate for the Sprinkler reproduction.
//!
//! This crate implements the SSD architecture of §2 of the paper — everything the
//! schedulers need to sit on top of:
//!
//! * the NVMHC device-level queue and memory-request composition pipeline
//!   ([`queue`], [`request`], [`dma`]),
//! * the per-chip commitment ledger that enforces the over-commitment cap with
//!   full per-round headroom ([`ledger`]),
//! * one arena of in-flight memory-request records, each held from
//!   commitment to completion, and the transaction fold, which keeps each
//!   chip's delivered requests in service-ordered per-(die, plane) lists,
//!   coalesces them into flash transactions with die interleaving and plane
//!   sharing, and times them ([`controller`]), and the channels whose buses
//!   those transactions share ([`channel`]),
//! * a page-level FTL with static plane striping and greedy garbage collection
//!   ([`ftl`]),
//! * the [`scheduler::IoScheduler`] trait the paper's controllers (VAS, PAS,
//!   SPK1–3 in the `sprinkler-core` crate) implement,
//! * the event-driven simulator itself ([`ssd::Ssd`]) and the run metrics every
//!   figure of the evaluation is derived from ([`metrics`]).
//!
//! # Example
//!
//! ```
//! use sprinkler_ssd::{Ssd, SsdConfig};
//! use sprinkler_ssd::scheduler::CommitAllScheduler;
//! use sprinkler_ssd::request::{Direction, HostRequest};
//! use sprinkler_flash::Lpn;
//! use sprinkler_sim::SimTime;
//!
//! let mut trace = Vec::new();
//! for i in 0..16u64 {
//!     trace.push(HostRequest::new(i, SimTime::from_micros(i * 20), Direction::Read,
//!                                 Lpn::new(i * 8), 8));
//! }
//! let ssd = Ssd::new(SsdConfig::small_test(), Box::new(CommitAllScheduler::new())).unwrap();
//! let metrics = ssd.run(trace);
//! assert_eq!(metrics.io_count, 16);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cand;
pub mod channel;
pub mod config;
pub mod controller;
pub mod debug_invariants;
pub mod dma;
pub mod error;
pub mod ftl;
pub mod ledger;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod scheduler;
pub mod ssd;

pub use cand::{pack_pri, pri_die, pri_page, pri_plane, CandidateView, Row};
pub use config::{AllocationPolicy, GcConfig, SsdConfig};
pub use debug_invariants::{validate_context, validate_round};
pub use error::SsdError;
pub use ledger::CommitmentLedger;
pub use metrics::{
    latency_bucket_bounds, merged_latency_quantile, weighted_mean_latency_ns, ExecutionBreakdown,
    FlpBreakdown, MetricsCollector, RunMetrics, TenantLaneSpec, TenantMetrics, WorkCounts,
};
pub use request::{Direction, HostRequest, MemReqId, Placement, TagId};
pub use scheduler::{Commitment, IoScheduler, SchedulerContext};
pub use ssd::Ssd;
