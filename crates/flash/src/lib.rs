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
//! * [`FlashTransaction`] / [`ParallelismLevel`] — a coalesced group of page-level
//!   requests executed as a single chip operation, classified into NON-PAL, PAL1
//!   (plane sharing), PAL2 (die interleaving), or PAL3 (both).
//!
//! A chip runs one transaction at a time; the SSD layer (`sprinkler_ssd`)
//! tracks which chips are busy and sums their busy time from these timings.
//!
//! # Example
//!
//! ```
//! use sprinkler_flash::{FlashGeometry, FlashTiming, FlashOp, TransactionBuilder};
//!
//! let geometry = FlashGeometry::paper_default();
//! let timing = FlashTiming::paper_default();
//!
//! // Coalesce two requests on different dies of chip (0, 0) into one transaction.
//! let mut builder = TransactionBuilder::new(FlashOp::Read, geometry.clone());
//! builder.try_add(geometry.page_addr(0, 0, 0, 0, 10, 0)).unwrap();
//! builder.try_add(geometry.page_addr(0, 0, 1, 0, 10, 0)).unwrap();
//! let txn = builder.build().unwrap();
//!
//! assert_eq!(txn.requests().len(), 2);
//! let cell = timing.cell_time(&txn);
//! assert_eq!(cell, timing.read_latency());          // dies overlap
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
pub use transaction::{FlashOp, FlashTransaction, ParallelismLevel, TransactionBuilder};
