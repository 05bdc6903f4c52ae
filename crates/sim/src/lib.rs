//! Discrete-event simulation primitives for the Sprinkler SSD reproduction.
//!
//! This crate provides the time base, the event queue, deterministic random number
//! generation, and the statistics accumulators that the NAND flash model
//! ([`sprinkler-flash`]), the SSD substrate ([`sprinkler-ssd`]), and the experiment
//! harness build on.
//!
//! The simulation is event driven with nanosecond resolution.  All components share
//! a single monotonic [`SimTime`]; the [`EventQueue`] orders arbitrary event payloads
//! by their firing time and guarantees FIFO ordering among events scheduled for the
//! same instant, which keeps simulations fully deterministic.  A source that
//! schedules in nondecreasing time can have a FIFO lane of the queue to
//! itself, which costs O(1) per event instead of a heap operation; the pop
//! order is the same either way.
//!
//! # Example
//!
//! ```
//! use sprinkler_sim::{EventQueue, SimTime, Duration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + Duration::from_micros(3), Ev::Pong);
//! q.schedule(SimTime::ZERO + Duration::from_micros(1), Ev::Ping);
//!
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!(e1, Ev::Ping);
//! assert_eq!(t1, SimTime::from_nanos(1_000));
//! let (_, e2) = q.pop().unwrap();
//! assert_eq!(e2, Ev::Pong);
//! assert!(q.pop().is_none());
//! ```
//!
//! [`sprinkler-flash`]: https://example.com/sprinkler
//! [`sprinkler-ssd`]: https://example.com/sprinkler

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use event::EventQueue;
pub use rng::{DeterministicRng, SplitMix64};
pub use stats::{Histogram, MeanStat};
pub use telemetry::{
    alloc_count, bytes_allocated, panic_on_alloc, AllocScope, CountingAllocator, TelemetryCounters,
    TelemetrySnapshot,
};
pub use time::{Duration, SimTime};
