//! Fig 16 — the number of flash transactions executed as a function of the data
//! transfer size, for 64-chip and 1024-chip SSDs.  FARO's over-commitment lets the
//! controllers coalesce memory requests, roughly halving the transaction count.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::SsdConfig;

use crate::report::{grid_table, Table};
use crate::runner::{find, keys, Cell, ExperimentScale, Sweep};

/// The schedulers Fig 16 plots.
pub const FIG16_SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Vas,
    SchedulerKind::Spk1,
    SchedulerKind::Spk2,
    SchedulerKind::Spk3,
];

/// The chip counts of Fig 16's two panels.
pub const CHIP_COUNTS: [usize; 2] = [64, 1024];

/// Runs the sweep over the scale's transfer sizes: one cell per
/// `(chips, transfer_kb)` and scheduler.
pub fn run(scale: &ExperimentScale, chip_counts: Option<&[usize]>) -> Vec<Cell<(usize, u64)>> {
    Sweep {
        device: SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane),
        chip_counts: chip_counts.unwrap_or(&CHIP_COUNTS),
        transfer_sizes_kb: &scale.sweep_sizes_kb(),
        schedulers: &FIG16_SCHEDULERS,
        read_fraction: 1.0,
        seed: 0xF16,
    }
    .run(scale, None)
}

/// The reduction rate of SPK3's transaction count relative to VAS over the
/// whole sweep at one chip count (0.5 = half the transactions).
pub fn reduction_vs_vas(cells: &[Cell<(usize, u64)>], chips: usize) -> f64 {
    let total = |kind| {
        cells
            .iter()
            .filter(|c| c.key.0 == chips && c.scheduler == kind)
            .map(|c| c.metrics.transactions)
            .sum::<u64>() as f64
    };
    let vas = total(SchedulerKind::Vas);
    let spk3 = total(SchedulerKind::Spk3);
    if vas <= 0.0 {
        0.0
    } else {
        1.0 - spk3 / vas
    }
}

/// Renders one panel (one chip count) of the figure.
pub fn panel(cells: &[Cell<(usize, u64)>], chips: usize) -> Table {
    grid_table(
        format!("Fig 16: number of flash transactions vs transfer size ({chips} chips)"),
        "transfer",
        keys(cells)
            .into_iter()
            .filter(|key| key.0 == chips)
            .map(|&(_, kb)| (format!("{kb}KB"), kb)),
        FIG16_SCHEDULERS.map(|k| (k.label().to_string(), k)),
        |&kb, &kind| {
            find(cells, &(chips, kb), kind).map_or_else(String::new, |m| m.transactions.to_string())
        },
    )
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
        let cells = run(&scale, Some(&[64]));
        let reduction = reduction_vs_vas(&cells, 64);
        assert!(
            reduction > 0.0,
            "SPK3 must execute fewer transactions than VAS (reduction={reduction:.3})"
        );
        // Same memory requests served either way for the same points.
        let sizes = scale.sweep_sizes_kb();
        for &kb in &sizes {
            let vas = find(&cells, &(64, kb), SchedulerKind::Vas).unwrap();
            let spk3 = find(&cells, &(64, kb), SchedulerKind::Spk3).unwrap();
            assert_eq!(vas.memory_requests, spk3.memory_requests);
        }
        assert_eq!(panel(&cells, 64).row_count(), sizes.len());
    }
}
