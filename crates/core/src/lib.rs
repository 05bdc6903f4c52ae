//! The Sprinkler schedulers (HPCA 2014) and their baselines.
//!
//! This crate is the paper's primary contribution: device-level I/O schedulers for
//! many-chip SSDs, implemented against the [`sprinkler_ssd::scheduler::IoScheduler`]
//! trait.  The five controllers of §5.1 are one type, [`Scheduler`], built
//! from a [`SchedulerKind`]; they differ on two axes only:
//!
//! * **composition** — **VAS** (the conventional FIFO scheduler, §3 Fig 4),
//!   **PAS** (physical-address-aware, skipping busy chips, §3 Fig 5) and
//!   **SPK1** compose memory requests in I/O arrival order; **SPK2** and
//!   **SPK3** compose per *chip* by [`rios`] (Resource-driven I/O Scheduling,
//!   traversing chips channel-offset-first and ignoring I/O boundaries);
//! * **commitment depth** — SPK1 and SPK3 over-commit several requests per
//!   chip by [`faro`] (FLP-aware Request Over-commitment, prioritized by
//!   overlap depth then connectivity, so the flash controller can coalesce
//!   high-FLP transactions); the others commit one.
//!
//! [`reference`](mod@reference) holds the naive full-scan twin of each kind,
//! which the property tests compare [`Scheduler`] against commitment by
//! commitment.
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
pub mod reference;
pub mod rios;
pub mod sprinkler;

pub use faro::FaroSelector;
pub use reference::ReferenceScheduler;
pub use rios::RiosTraversal;
pub use sprinkler::Scheduler;

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

    /// Instantiates the scheduler of this kind.
    pub fn build(self) -> Box<dyn IoScheduler> {
        Box::new(Scheduler::new(self))
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// The unit tests of VAS and PAS, the two in-order kinds that commit one
// request per chip.
#[cfg(test)]
mod pas;
#[cfg(test)]
mod vas;

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
