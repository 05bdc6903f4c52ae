//! Multi-tenant serving front for the Sprinkler reproduction.
//!
//! Sprinkler's device scheduler maximizes chip-level parallelism *inside* one
//! SSD; this crate adds the layer the ROADMAP's serving-system north star
//! needs *above* it: N concurrent tenants — each with its own
//! [`TraceSource`](sprinkler_workloads::TraceSource) stream, footprint slice,
//! priority class, and burst budget — multiplexed into one admission-ordered
//! stream by a deterministic deficit-round-robin fair scheduler.
//!
//! The pieces compose left to right:
//!
//! * [`TenantSpec`] / [`PriorityClass`] — who the tenant is: service class
//!   (which sets the fair-share weight), optional weight override, optional
//!   [`TokenBucketConfig`] burst isolation, and a latency SLO.
//! * [`TokenBucket`] — exact integer-math burst isolation (bytes × ns).
//! * [`TenantMux`] — the fair-queueing multiplexer.  Implements
//!   `TraceSource`, so it can feed a single device, or the striped array
//!   frontend, anywhere a single trace could.
//! * [`run_tenants`] — one-call replay through an SSD with per-tenant metric
//!   lanes ([`sprinkler_ssd::TenantMetrics`]), returning a [`TenantOutcome`]
//!   that pairs them with the mux's [`TenantAdmissionStats`].
//!
//! Determinism is load-bearing: admission decisions use only integer byte and
//! nanosecond arithmetic over the tenant specs and their traces, so the same
//! inputs produce bit-identical admission schedules, metrics, and fairness
//! figures on every replay.
//!
//! # Example
//!
//! ```
//! use sprinkler_core::SchedulerKind;
//! use sprinkler_ssd::SsdConfig;
//! use sprinkler_tenants::{run_tenants, PriorityClass, TenantMux, TenantSpec};
//! use sprinkler_workloads::{FootprintSlice, SlicedSource, SyntheticSpec, TraceSource};
//!
//! let config = SsdConfig::small_test();
//! let slices = FootprintSlice::split_even(config.geometry.capacity_bytes(), 2, 4096);
//! let source = |i: usize, seed| {
//!     let spec = SyntheticSpec::new("t").with_footprint_mb(1);
//!     Box::new(SlicedSource::new(spec.stream(60, seed), slices[i])) as Box<dyn TraceSource>
//! };
//! let mux = TenantMux::new(vec![
//!     (TenantSpec::new("web", PriorityClass::Interactive), source(0, 1)),
//!     (TenantSpec::new("scan", PriorityClass::Batch), source(1, 2)),
//! ]);
//! let outcome = run_tenants(&config, SchedulerKind::Spk3, mux).unwrap();
//! assert_eq!(outcome.metrics.io_count, 120);
//! assert_eq!(outcome.metrics.tenants.len(), 2);
//! let web = &outcome.metrics.tenants[0];
//! assert_eq!(web.name, "web");
//! assert!(web.p99_latency_ns > 0, "per-tenant p99 rides the shared buckets");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bucket;
pub mod mux;
pub mod run;
pub mod spec;

pub use bucket::TokenBucket;
pub use mux::{
    jain_fairness_index, TaggedRecord, TenantAdmissionStats, TenantMux, DEFAULT_QUANTUM_BYTES,
};
pub use run::{run_tenants, TenantOutcome};
pub use spec::{PriorityClass, TenantSpec, TokenBucketConfig};
