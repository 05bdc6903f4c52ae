//! NAND flash microarchitecture model for the Sprinkler reproduction.
//!
//! This crate models everything below the SSD flash controller boundary, following
//! the description in §2.2 of the paper and the ONFI 2.x interface conventions:
//!
//! * [`FlashGeometry`] — how many channels, chips, dies, planes, blocks, and pages
//!   an SSD exposes (the paper's platform uses 2 dies × 4 planes per chip, 8,192
//!   blocks per die, 128 × 2 KB pages per block).
//! * [`PhysicalPageAddr`] / [`Ppn`] / [`Lpn`] — physical and logical addressing.
//! * [`FlashTiming`] — ONFI bus modes, command/address cycle accounting, the 20 µs
//!   read latency and the 200–2200 µs MLC program-latency variation, and erase time.
//! * [`BusPhaseCounts`] — the command, address, and data bus cycles a flash
//!   controller issues before and after each transaction's cell operation.
//! * [`FlashOp`] / [`ParallelismLevel`] — a transaction's operation, and its
//!   classification into NON-PAL, PAL1 (plane sharing), PAL2 (die
//!   interleaving), or PAL3 (both).
//!
//! A chip runs one transaction at a time.  The SSD layer (`sprinkler_ssd`)
//! folds each chip's pending page requests into transactions, at most one per
//! (die, plane), tracks which chips are busy, and sums their busy time from
//! these timings.
//!
//! # Example
//!
//! ```
//! use sprinkler_flash::{FlashGeometry, FlashOp, FlashTiming, ParallelismLevel};
//!
//! let geometry = FlashGeometry::paper_default();
//! let timing = FlashTiming::paper_default();
//!
//! // Two reads on different dies of one chip fold into one die-interleaved
//! // transaction whose cell phases overlap.
//! assert_eq!(ParallelismLevel::of(2, 2), ParallelismLevel::Pal2);
//! assert_eq!(timing.cell_latency(FlashOp::Read, 0), timing.read_latency());
//! let issue = timing.issue_bus_time(FlashOp::Read, 2, geometry.page_size);
//! assert!(issue > timing.issue_bus_time(FlashOp::Read, 1, geometry.page_size));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod command;
pub mod error;
pub mod geometry;
pub mod timing;
pub mod transaction;

pub use address::{ChipLocation, Lpn, PhysicalPageAddr, Ppn};
pub use command::BusPhaseCounts;
pub use error::FlashError;
pub use geometry::FlashGeometry;
pub use timing::{FlashTiming, OnfiMode, ProgramLatencyModel};
pub use transaction::{FlashOp, ParallelismLevel};
