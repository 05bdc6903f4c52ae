//! The Sprinkler schedulers (HPCA 2014) and their baselines.
//!
//! This crate is the paper's primary contribution: device-level I/O schedulers for
//! many-chip SSDs, implemented against the [`sprinkler_ssd::scheduler::IoScheduler`]
//! trait:
//!
//! * [`VirtualAddressScheduler`] (**VAS**) — the conventional FIFO scheduler that
//!   composes memory requests strictly in I/O arrival order and suffers
//!   head-of-line blocking on chip conflicts (§3, Fig 4).
//! * [`PhysicalAddressScheduler`] (**PAS**) — a physical-address-aware scheduler
//!   that skips busy chips at commit time (coarse-grain out-of-order execution,
//!   §3, Fig 5) but never over-commits.
//! * [`SprinklerScheduler`] — the paper's proposal, combining
//!   [`rios`] (Resource-driven I/O Scheduling: compose and commit per *chip*,
//!   traversing chips channel-offset-first, ignoring I/O boundaries) and
//!   [`faro`] (FLP-aware Request Over-commitment: commit multiple requests per
//!   chip, prioritized by overlap depth then connectivity, so the flash controller
//!   can coalesce high-FLP transactions).  The three evaluated variants are
//!   SPK1 (FARO only), SPK2 (RIOS only), and SPK3 (both).
//!
//! # Example
//!
//! ```
//! use sprinkler_core::SchedulerKind;
//! use sprinkler_ssd::{Ssd, SsdConfig};
//! use sprinkler_ssd::request::{Direction, HostRequest};
//! use sprinkler_flash::Lpn;
//! use sprinkler_sim::SimTime;
//!
//! let trace: Vec<HostRequest> = (0..8)
//!     .map(|i| HostRequest::new(i, SimTime::from_micros(i * 10), Direction::Read,
//!                               Lpn::new(i * 16), 16))
//!     .collect();
//! let ssd = Ssd::new(SsdConfig::small_test(), SchedulerKind::Spk3.build()).unwrap();
//! let metrics = ssd.run(trace);
//! assert_eq!(metrics.io_count, 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod faro;
pub mod hazard;
pub mod pas;
pub mod reference;
pub mod rios;
pub mod sprinkler;
pub mod vas;

pub use faro::{FaroConfig, FaroSelector};
pub use pas::PhysicalAddressScheduler;
pub use reference::ReferenceScheduler;
pub use rios::RiosTraversal;
pub use sprinkler::SprinklerScheduler;
pub use vas::VirtualAddressScheduler;

use sprinkler_ssd::IoScheduler;

/// The five schedulers evaluated in the paper (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Virtual address scheduler (FIFO).
    Vas,
    /// Physical address scheduler with per-chip skip (coarse-grain out-of-order).
    Pas,
    /// Sprinkler using only FARO (over-commitment, no resource-driven composition).
    Spk1,
    /// Sprinkler using only RIOS (resource-driven composition, no over-commitment).
    Spk2,
    /// Full Sprinkler: RIOS + FARO.
    Spk3,
}

impl SchedulerKind {
    /// All kinds in the order the paper's figures present them.
    pub const ALL: [SchedulerKind; 5] = [
        SchedulerKind::Vas,
        SchedulerKind::Pas,
        SchedulerKind::Spk1,
        SchedulerKind::Spk2,
        SchedulerKind::Spk3,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Vas => "VAS",
            SchedulerKind::Pas => "PAS",
            SchedulerKind::Spk1 => "SPK1",
            SchedulerKind::Spk2 => "SPK2",
            SchedulerKind::Spk3 => "SPK3",
        }
    }

    /// Instantiates the scheduler with default parameters.
    pub fn build(self) -> Box<dyn IoScheduler> {
        match self {
            SchedulerKind::Vas => Box::new(VirtualAddressScheduler::new()),
            SchedulerKind::Pas => Box::new(PhysicalAddressScheduler::new()),
            SchedulerKind::Spk1 => Box::new(SprinklerScheduler::spk1()),
            SchedulerKind::Spk2 => Box::new(SprinklerScheduler::spk2()),
            SchedulerKind::Spk3 => Box::new(SprinklerScheduler::spk3()),
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_and_report_their_label() {
        for kind in SchedulerKind::ALL {
            let scheduler = kind.build();
            assert_eq!(scheduler.name(), kind.label());
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn only_sprinkler_supports_readdressing() {
        assert!(!SchedulerKind::Vas.build().supports_readdressing());
        assert!(!SchedulerKind::Pas.build().supports_readdressing());
        assert!(SchedulerKind::Spk1.build().supports_readdressing());
        assert!(SchedulerKind::Spk2.build().supports_readdressing());
        assert!(SchedulerKind::Spk3.build().supports_readdressing());
    }
}
