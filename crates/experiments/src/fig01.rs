//! Fig 1 — performance stagnation, chip utilization, and memory-level idleness as
//! the number of flash dies grows, under a conventional (VAS) controller.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::SsdConfig;

use crate::report::{fmt_f64, fmt_pct, grid_table, Table};
use crate::runner::{find, Cell, ExperimentScale, Sweep};

/// The chip counts swept (dies = 2 × chips in the paper's flash package).
pub const CHIP_COUNTS: [usize; 4] = [16, 64, 256, 1024];

/// Transfer sizes (KB) of the Fig 1 curves.
pub const TRANSFER_SIZES_KB: [u64; 4] = [4, 16, 64, 128];

/// Dies per chip in the paper's flash package.
const DIES_PER_CHIP: usize = 2;

/// Runs the Fig 1 sweep with the conventional controller: one VAS cell per
/// `(chips, transfer_kb)`.
pub fn run(scale: &ExperimentScale) -> Vec<Cell<(usize, u64)>> {
    Sweep {
        device: SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane),
        chip_counts: &CHIP_COUNTS,
        transfer_sizes_kb: &TRANSFER_SIZES_KB,
        schedulers: &[SchedulerKind::Vas],
        read_fraction: 1.0,
        seed: 0x01,
    }
    .run(scale, None)
}

/// Fig 1a: read bandwidth (KB/s), one row per die count and one column per
/// transfer size.
pub fn bandwidth_table(cells: &[Cell<(usize, u64)>]) -> Table {
    grid_table(
        "Fig 1a: read bandwidth (KB/s) vs number of dies, conventional controller",
        "dies",
        CHIP_COUNTS.map(|chips| ((chips * DIES_PER_CHIP).to_string(), chips)),
        TRANSFER_SIZES_KB.map(|kb| (format!("{kb}KB"), kb)),
        |&chips, &kb| {
            find(cells, &(chips, kb), SchedulerKind::Vas)
                .map_or_else(String::new, |m| fmt_f64(m.bandwidth_kb_per_sec))
        },
    )
}

/// Fig 1b: chip utilization and memory-level (inter-chip) idleness, one row
/// per cell.
pub fn utilization_table(cells: &[Cell<(usize, u64)>]) -> Table {
    let mut table = Table::new(
        "Fig 1b: chip utilization and memory-level idleness vs number of dies",
        vec![
            "dies".into(),
            "transfer".into(),
            "utilization".into(),
            "idleness".into(),
        ],
    );
    for Cell { key, metrics, .. } in cells {
        table.add_row(vec![
            (key.0 * DIES_PER_CHIP).to_string(),
            format!("{}KB", key.1),
            fmt_pct(metrics.chip_utilization),
            fmt_pct(metrics.inter_chip_idleness),
        ]);
    }
    table
}

/// True when bandwidth stops scaling with the die count: the last doubling of
/// dies yields less than a 1.3× bandwidth gain for the given transfer size —
/// the stagnation the paper motivates with.
pub fn stagnates(cells: &[Cell<(usize, u64)>], transfer_kb: u64) -> bool {
    let series: Vec<f64> = CHIP_COUNTS
        .iter()
        .filter_map(|&chips| find(cells, &(chips, transfer_kb), SchedulerKind::Vas))
        .map(|m| m.bandwidth_kb_per_sec)
        .collect();
    match series.as_slice() {
        [.., prev, last] => *last < *prev * 1.3,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_transfers_stagnate_and_utilization_collapses() {
        let scale = ExperimentScale {
            ios_per_workload: 200,
            blocks_per_plane: 16,
        };
        let cells = run(&scale);
        assert_eq!(cells.len(), CHIP_COUNTS.len() * TRANSFER_SIZES_KB.len());
        // Small transfers cannot feed thousands of dies: bandwidth stagnates.
        assert!(stagnates(&cells, 4), "4KB bandwidth must stop scaling");
        // Utilization falls monotonically as dies grow for the small transfer.
        let util: Vec<f64> = CHIP_COUNTS
            .iter()
            .filter_map(|&chips| find(&cells, &(chips, 4), SchedulerKind::Vas))
            .map(|m| m.chip_utilization)
            .collect();
        assert!(util.first().unwrap() > util.last().unwrap());
        // Idleness is the complement of utilization.
        for Cell { metrics: m, .. } in &cells {
            assert!((m.chip_utilization + m.inter_chip_idleness - 1.0).abs() < 1e-6);
        }
        let rendered = bandwidth_table(&cells).render();
        assert!(rendered.contains("dies"));
        assert!(utilization_table(&cells).row_count() > 0);
    }
}
