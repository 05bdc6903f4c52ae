//! Fig 16 — the number of flash transactions executed as a function of the data
//! transfer size, for 64-chip and 1024-chip SSDs.  FARO's over-commitment lets the
//! controllers coalesce memory requests, roughly halving the transaction count.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::SsdConfig;

use crate::report::Table;
use crate::runner::{run_one, ExperimentScale};

/// The schedulers Fig 16 plots.
pub const FIG16_SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Vas,
    SchedulerKind::Spk1,
    SchedulerKind::Spk2,
    SchedulerKind::Spk3,
];

/// The chip counts of Fig 16's two panels.
pub const CHIP_COUNTS: [usize; 2] = [64, 1024];

/// One measured point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig16Point {
    /// Total flash chips.
    pub chips: usize,
    /// Transfer size in KB.
    pub transfer_kb: u64,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Flash transactions executed.
    pub transactions: u64,
    /// Memory requests served.
    pub memory_requests: u64,
}

/// The full Fig 16 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Result {
    /// All measured points.
    pub points: Vec<Fig16Point>,
    /// The transfer sizes swept.
    pub transfer_sizes_kb: Vec<u64>,
    /// The chip counts swept.
    pub chip_counts: Vec<usize>,
}

/// Runs the sweep.
pub fn run(scale: &ExperimentScale, chip_counts: Option<&[usize]>) -> Fig16Result {
    let chip_counts: Vec<usize> = chip_counts.unwrap_or(&CHIP_COUNTS).to_vec();
    let transfer_sizes = scale.sweep_sizes_kb();
    let mut points = Vec::new();
    for &chips in &chip_counts {
        let config = SsdConfig::paper_default()
            .with_chip_count(chips)
            .with_blocks_per_plane(scale.blocks_per_plane);
        for &transfer_kb in &transfer_sizes {
            let trace = scale.sweep_trace(transfer_kb, 1.0, 0xF16);
            for &scheduler in &FIG16_SCHEDULERS {
                let metrics = run_one(&config, scheduler, &trace);
                points.push(Fig16Point {
                    chips,
                    transfer_kb,
                    scheduler,
                    transactions: metrics.transactions,
                    memory_requests: metrics.memory_requests,
                });
            }
        }
    }
    Fig16Result {
        points,
        transfer_sizes_kb: transfer_sizes,
        chip_counts,
    }
}

impl Fig16Result {
    /// Transactions for a specific point.
    pub fn transactions(
        &self,
        chips: usize,
        transfer_kb: u64,
        scheduler: SchedulerKind,
    ) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.chips == chips && p.transfer_kb == transfer_kb && p.scheduler == scheduler)
            .map(|p| p.transactions)
    }

    /// Total transactions of one scheduler over the whole sweep at one chip count.
    pub fn total_transactions(&self, chips: usize, scheduler: SchedulerKind) -> u64 {
        self.points
            .iter()
            .filter(|p| p.chips == chips && p.scheduler == scheduler)
            .map(|p| p.transactions)
            .sum()
    }

    /// The reduction rate of SPK3's transaction count relative to VAS (0.5 = half
    /// the transactions).
    pub fn reduction_vs_vas(&self, chips: usize) -> f64 {
        let vas = self.total_transactions(chips, SchedulerKind::Vas) as f64;
        let spk3 = self.total_transactions(chips, SchedulerKind::Spk3) as f64;
        if vas <= 0.0 {
            0.0
        } else {
            1.0 - spk3 / vas
        }
    }

    /// Renders one panel (one chip count) of the figure.
    pub fn panel(&self, chips: usize) -> Table {
        let mut table = Table::new(
            format!("Fig 16: number of flash transactions vs transfer size ({chips} chips)"),
            std::iter::once("transfer".to_string())
                .chain(FIG16_SCHEDULERS.iter().map(|k| k.label().to_string()))
                .collect(),
        );
        for &kb in &self.transfer_sizes_kb {
            let mut row = vec![format!("{kb}KB")];
            for &scheduler in &FIG16_SCHEDULERS {
                row.push(
                    self.transactions(chips, kb, scheduler)
                        .map_or_else(String::new, |t| t.to_string()),
                );
            }
            table.add_row(row);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faro_reduces_transactions_relative_to_vas() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let result = run(&scale, Some(&[64]));
        let reduction = result.reduction_vs_vas(64);
        assert!(
            reduction > 0.0,
            "SPK3 must execute fewer transactions than VAS (reduction={reduction:.3})"
        );
        // Same memory requests served either way for the same points.
        for &kb in &result.transfer_sizes_kb {
            let vas = result
                .points
                .iter()
                .find(|p| p.transfer_kb == kb && p.scheduler == SchedulerKind::Vas)
                .unwrap();
            let spk3 = result
                .points
                .iter()
                .find(|p| p.transfer_kb == kb && p.scheduler == SchedulerKind::Spk3)
                .unwrap();
            assert_eq!(vas.memory_requests, spk3.memory_requests);
        }
        assert_eq!(result.panel(64).row_count(), result.transfer_sizes_kb.len());
    }
}
