//! Multi-SSD array frontend for the Sprinkler reproduction.
//!
//! The paper scales one Sprinkler device to 1024 chips; a production system
//! serving millions of users runs *many* such devices behind a host-level
//! sharding layer.  This crate is that layer, kept deliberately simple and
//! deterministic so scheduler comparisons stay attributable:
//!
//! * [`PlacementMap`] — chunked round-robin striping of one logical byte
//!   address space over N devices, with an exact LPN ↔ (device, local LPN)
//!   bijection and loss-free splitting of requests that straddle stripe
//!   boundaries.  A static array's map tracks no stripe and computes every
//!   placement in closed form; a rebalancing array's map tracks its
//!   footprint's stripes so they can move;
//! * [`Rebalancer`] — per-stripe heat tracking and hot-stripe migration
//!   between replay windows, with the copy cost charged as injected device
//!   traffic (enabled per-array via [`RebalanceConfig`]);
//! * [`StripeRouter`] — routes the records of one trace, in trace order,
//!   through the array's one [`PlacementMap`] into per-device fragments with
//!   dense per-device ids and nondecreasing arrivals, applying the
//!   rebalancer's migrations as it goes;
//! * [`run_array`] — routes a streaming
//!   [`TraceSource`](sprinkler_workloads::TraceSource) on the calling thread
//!   into one bounded channel per device, while every device runs
//!   `Ssd::run_stream` under its own bounded admission on its own scoped
//!   thread;
//! * [`ArrayMetrics`] — the merged host-level view as one `RunMetrics`
//!   (summed totals, the union of the device windows, weighted mean and
//!   exactly merged p99 latency) plus the per-device breakdown, the
//!   placement counters and [`DeviceSkew`] imbalance statistics.
//!
//! # Example
//!
//! ```
//! use sprinkler_array::{run_array, ArrayConfig};
//! use sprinkler_core::SchedulerKind;
//! use sprinkler_ssd::SsdConfig;
//! use sprinkler_workloads::SyntheticSpec;
//!
//! let config = ArrayConfig::new(SsdConfig::paper_default().with_blocks_per_plane(16))
//!     .with_devices(4)
//!     .with_stripe_kb(256);
//! let spec = SyntheticSpec::new("demo").with_footprint_mb(64);
//! let metrics = run_array(&config, SchedulerKind::Spk3, &mut spec.stream(100, 7)).unwrap();
//! assert_eq!(metrics.devices.len(), 4);
//! assert!(metrics.summary.bandwidth_kb_per_sec > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod metrics;
pub mod placement;
pub mod replay;
pub mod splitter;

pub use config::{ArrayConfig, MAX_DEVICES, MAX_TRACKED_STRIPES};
pub use metrics::{ArrayMetrics, DeviceSkew};
pub use placement::{
    Fragment, Migration, PlacementMap, PlacementStats, RebalanceConfig, Rebalancer,
};
pub use replay::{run_array, ArrayError};
pub use splitter::StripeRouter;
