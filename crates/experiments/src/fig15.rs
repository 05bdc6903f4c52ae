//! Fig 15 — chip utilization as a function of the data transfer size (4 KB – 4 MB)
//! and the SSD population (64, 256, 1024 chips) for VAS, SPK1, SPK2, and SPK3.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::SsdConfig;

use crate::report::{fmt_pct, Table};
use crate::runner::{run_cells, run_one, ExperimentScale};

/// The schedulers Fig 15 plots.
pub const FIG15_SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Vas,
    SchedulerKind::Spk1,
    SchedulerKind::Spk2,
    SchedulerKind::Spk3,
];

/// The chip counts of Fig 15's three panels.
pub const CHIP_COUNTS: [usize; 3] = [64, 256, 1024];

/// One measured point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig15Point {
    /// Total flash chips in the SSD.
    pub chips: usize,
    /// Transfer size in KB.
    pub transfer_kb: u64,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Measured chip utilization.
    pub utilization: f64,
}

/// The full Fig 15 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Result {
    /// All measured points.
    pub points: Vec<Fig15Point>,
    /// The transfer sizes swept.
    pub transfer_sizes_kb: Vec<u64>,
    /// The chip counts swept.
    pub chip_counts: Vec<usize>,
}

/// Runs the sweep.  `chip_counts` defaults to the paper's 64/256/1024 panels when
/// `None`; pass a subset for quicker runs.  The (chip-count × transfer ×
/// scheduler) cells are independent simulations and fan out over [`run_cells`];
/// point order matches the serial loop.
pub fn run(scale: &ExperimentScale, chip_counts: Option<&[usize]>) -> Fig15Result {
    let chip_counts: Vec<usize> = chip_counts.unwrap_or(&CHIP_COUNTS).to_vec();
    let transfer_sizes = scale.sweep_sizes_kb();
    // One trace per transfer size, shared by every (chips, scheduler) cell.
    let traces: Vec<_> = transfer_sizes
        .iter()
        .map(|&transfer_kb| (transfer_kb, scale.sweep_trace(transfer_kb, 1.0, 0xF15)))
        .collect();
    let cells: Vec<(usize, &(u64, sprinkler_workloads::Trace), SchedulerKind)> = chip_counts
        .iter()
        .flat_map(|&chips| {
            traces.iter().flat_map(move |trace| {
                FIG15_SCHEDULERS
                    .iter()
                    .map(move |&scheduler| (chips, trace, scheduler))
            })
        })
        .collect();
    let points = run_cells(&cells, |&(chips, (transfer_kb, trace), scheduler)| {
        let config = SsdConfig::paper_default()
            .with_chip_count(chips)
            .with_blocks_per_plane(scale.blocks_per_plane);
        let metrics = run_one(&config, scheduler, trace);
        Fig15Point {
            chips,
            transfer_kb: *transfer_kb,
            scheduler,
            utilization: metrics.chip_utilization,
        }
    });
    Fig15Result {
        points,
        transfer_sizes_kb: transfer_sizes,
        chip_counts,
    }
}

impl Fig15Result {
    /// Utilization for a specific point.
    pub fn utilization(
        &self,
        chips: usize,
        transfer_kb: u64,
        scheduler: SchedulerKind,
    ) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.chips == chips && p.transfer_kb == transfer_kb && p.scheduler == scheduler)
            .map(|p| p.utilization)
    }

    /// Mean utilization of a scheduler over all transfer sizes at one chip count.
    pub fn mean_utilization(&self, chips: usize, scheduler: SchedulerKind) -> f64 {
        let values: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.chips == chips && p.scheduler == scheduler)
            .map(|p| p.utilization)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Renders one panel (one chip count) of the figure.
    pub fn panel(&self, chips: usize) -> Table {
        let mut table = Table::new(
            format!("Fig 15: chip utilization vs transfer size ({chips} chips)"),
            std::iter::once("transfer".to_string())
                .chain(FIG15_SCHEDULERS.iter().map(|k| k.label().to_string()))
                .collect(),
        );
        for &kb in &self.transfer_sizes_kb {
            let mut row = vec![format!("{kb}KB")];
            for &scheduler in &FIG15_SCHEDULERS {
                row.push(
                    self.utilization(chips, kb, scheduler)
                        .map_or_else(String::new, fmt_pct),
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
    fn spk3_sustains_utilization_where_vas_does_not() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let result = run(&scale, Some(&[64]));
        assert!(!result.points.is_empty());
        let vas = result.mean_utilization(64, SchedulerKind::Vas);
        let spk3 = result.mean_utilization(64, SchedulerKind::Spk3);
        assert!(
            spk3 > vas,
            "SPK3 utilization {spk3:.3} must exceed VAS {vas:.3}"
        );
        let panel = result.panel(64);
        assert_eq!(panel.row_count(), result.transfer_sizes_kb.len());
    }
}
