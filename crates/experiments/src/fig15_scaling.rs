//! The many-chip scaling sweep (Fig 1 + Fig 15 composite): bandwidth and chip
//! utilization as the SSD grows from 16 to 1024 chips, under the conventional
//! controller (VAS) and full Sprinkler (SPK3).
//!
//! This is the paper's headline claim made first-class: the conventional
//! controller stagnates as chips are added (Fig 1) while Sprinkler keeps
//! converting the added parallelism into bandwidth (Fig 15).  Unlike
//! [`crate::fig15`] — which sweeps transfer sizes at three fixed populations for
//! four schedulers — this experiment sweeps the *population* itself, including
//! the full 1024-chip point, and is designed to run at
//! [`ExperimentScale::full`]: the scheduler hot path is index-driven, so round
//! cost tracks queued work rather than queue depth × pages or the chip count.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::SsdConfig;

use crate::report::{fmt_f64, fmt_pct, Table};
use crate::runner::{find, keys, Cell, ExperimentScale, Sweep};

/// The schedulers the scaling sweep compares.
pub const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Vas, SchedulerKind::Spk3];

/// The chip populations swept, up to the paper's 1024-chip point.
pub const CHIP_COUNTS: [usize; 4] = [16, 64, 256, 1024];

/// Transfer sizes (KB) of the sweep's panels.
pub const TRANSFER_SIZES_KB: [u64; 3] = [4, 32, 128];

/// Runs the sweep: one cell per `(chips, transfer_kb)` and scheduler.
/// `chip_counts` and `transfer_sizes_kb` default to the full 16→1024 panels
/// when `None`; pass subsets for quicker runs.
pub fn run(
    scale: &ExperimentScale,
    chip_counts: Option<&[usize]>,
    transfer_sizes_kb: Option<&[u64]>,
) -> Vec<Cell<(usize, u64)>> {
    Sweep {
        device: SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane),
        chip_counts: chip_counts.unwrap_or(&CHIP_COUNTS),
        transfer_sizes_kb: transfer_sizes_kb.unwrap_or(&TRANSFER_SIZES_KB),
        schedulers: &SCHEDULERS,
        read_fraction: 1.0,
        seed: 0x5CA1E,
    }
    .run(scale, None)
}

/// SPK3-over-VAS bandwidth ratio at one point.
pub fn speedup(cells: &[Cell<(usize, u64)>], chips: usize, transfer_kb: u64) -> Option<f64> {
    let vas = find(cells, &(chips, transfer_kb), SchedulerKind::Vas)?;
    let spk3 = find(cells, &(chips, transfer_kb), SchedulerKind::Spk3)?;
    (vas.bandwidth_kb_per_sec > 0.0).then(|| spk3.bandwidth_kb_per_sec / vas.bandwidth_kb_per_sec)
}

/// Renders one panel (one transfer size) of the sweep.
pub fn panel(cells: &[Cell<(usize, u64)>], transfer_kb: u64) -> Table {
    let mut table = Table::new(
        format!("Scaling: bandwidth and utilization vs chip count ({transfer_kb}KB transfers)"),
        vec![
            "chips".into(),
            "VAS KB/s".into(),
            "VAS util".into(),
            "SPK3 KB/s".into(),
            "SPK3 util".into(),
            "SPK3/VAS".into(),
        ],
    );
    for &(chips, _) in keys(cells).into_iter().filter(|key| key.1 == transfer_kb) {
        let mut row = vec![chips.to_string()];
        for scheduler in SCHEDULERS {
            let point = find(cells, &(chips, transfer_kb), scheduler);
            row.push(point.map_or_else(String::new, |m| fmt_f64(m.bandwidth_kb_per_sec)));
            row.push(point.map_or_else(String::new, |m| fmt_pct(m.chip_utilization)));
        }
        row.push(
            speedup(cells, chips, transfer_kb).map_or_else(String::new, |s| format!("{s:.2}x")),
        );
        table.add_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sprinkler_scales_where_the_conventional_controller_stagnates() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let cells = run(&scale, Some(&[16, 64]), Some(&[32]));
        assert_eq!(cells.len(), 4);
        // Sprinkler converts the added chips into more bandwidth than VAS does.
        let speedup = speedup(&cells, 64, 32).unwrap();
        assert!(
            speedup > 1.0,
            "SPK3 must beat VAS at 64 chips (got {speedup:.2}x)"
        );
        // Growing the population must not shrink Sprinkler's bandwidth.
        let series: Vec<f64> = [16, 64]
            .iter()
            .filter_map(|&chips| find(&cells, &(chips, 32), SchedulerKind::Spk3))
            .map(|m| m.bandwidth_kb_per_sec)
            .collect();
        assert_eq!(series.len(), 2);
        assert!(
            series[1] >= series[0] * 0.9,
            "SPK3 bandwidth must scale with chips: {series:?}"
        );
        // Every cell carries the deterministic round total for baseline gates.
        assert!(cells.iter().all(|c| c.metrics.telemetry.sched_rounds > 0));
        let panel = panel(&cells, 32);
        assert_eq!(panel.row_count(), 2);
        assert!(panel.render().contains("SPK3/VAS"));
    }
}
