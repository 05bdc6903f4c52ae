//! Fig 15 — chip utilization as a function of the data transfer size (4 KB – 4 MB)
//! and the SSD population (64, 256, 1024 chips) for VAS, SPK1, SPK2, and SPK3.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::SsdConfig;

use crate::report::{fmt_pct, grid_table, Table};
use crate::runner::{find, keys, Cell, ExperimentScale, Sweep};

/// The schedulers Fig 15 plots.
pub const FIG15_SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Vas,
    SchedulerKind::Spk1,
    SchedulerKind::Spk2,
    SchedulerKind::Spk3,
];

/// The chip counts of Fig 15's three panels.
pub const CHIP_COUNTS: [usize; 3] = [64, 256, 1024];

/// Runs the sweep over the scale's transfer sizes: one cell per
/// `(chips, transfer_kb)` and scheduler.  `chip_counts` defaults to the
/// paper's 64/256/1024 panels when `None`; pass a subset for quicker runs.
pub fn run(scale: &ExperimentScale, chip_counts: Option<&[usize]>) -> Vec<Cell<(usize, u64)>> {
    Sweep {
        device: SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane),
        chip_counts: chip_counts.unwrap_or(&CHIP_COUNTS),
        transfer_sizes_kb: &scale.sweep_sizes_kb(),
        schedulers: &FIG15_SCHEDULERS,
        read_fraction: 1.0,
        seed: 0xF15,
    }
    .run(scale, None)
}

/// Renders one panel (one chip count) of the figure.
pub fn panel(cells: &[Cell<(usize, u64)>], chips: usize) -> Table {
    grid_table(
        format!("Fig 15: chip utilization vs transfer size ({chips} chips)"),
        "transfer",
        keys(cells)
            .into_iter()
            .filter(|key| key.0 == chips)
            .map(|&(_, kb)| (format!("{kb}KB"), kb)),
        FIG15_SCHEDULERS.map(|k| (k.label().to_string(), k)),
        |&kb, &kind| {
            find(cells, &(chips, kb), kind)
                .map_or_else(String::new, |m| fmt_pct(m.chip_utilization))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::mean;

    #[test]
    fn spk3_sustains_utilization_where_vas_does_not() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let cells = run(&scale, Some(&[64]));
        assert!(!cells.is_empty());
        let mean_utilization = |kind| {
            mean(
                &cells,
                |c| c.key.0 == 64 && c.scheduler == kind,
                |m| m.chip_utilization,
            )
        };
        let vas = mean_utilization(SchedulerKind::Vas);
        let spk3 = mean_utilization(SchedulerKind::Spk3);
        assert!(
            spk3 > vas,
            "SPK3 utilization {spk3:.3} must exceed VAS {vas:.3}"
        );
        assert_eq!(panel(&cells, 64).row_count(), scale.sweep_sizes_kb().len());
    }
}
