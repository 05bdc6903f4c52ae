//! Fig 17 — garbage collection and readdressing impact: bandwidth versus transfer
//! size on pristine and fragmented (95 % pre-filled) SSDs for VAS, PAS, and SPK3.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::{GcConfig, SsdConfig};

use crate::report::{fmt_f64, grid_table, Table};
use crate::runner::{find, keys, Cell, ExperimentScale, Sweep};

/// The schedulers Fig 17 plots.
pub const FIG17_SCHEDULERS: [SchedulerKind; 3] =
    [SchedulerKind::Vas, SchedulerKind::Pas, SchedulerKind::Spk3];

/// The chip counts of Fig 17's two panels.
pub const CHIP_COUNTS: [usize; 2] = [64, 256];

/// Fraction of physical capacity pre-filled for the fragmented (GC) runs.
pub const FRAGMENTED_FILL: f64 = 0.95;

/// Runs the sweep on GC-enabled devices, pristine and pre-filled to
/// [`FRAGMENTED_FILL`]: one cell per `(chips, transfer_kb, fragmented)` and
/// scheduler.  The workload is write-heavy (the paper fragments with 1 MB
/// random writes and then measures mixed traffic).
pub fn run(
    scale: &ExperimentScale,
    chip_counts: Option<&[usize]>,
) -> Vec<Cell<(usize, u64, bool)>> {
    // GC runs amplify every host write by an order of magnitude once the SSD is
    // fragmented, so this figure sweeps up to 512 KB transfers (the qualitative
    // crossover is already visible there) and keeps per-plane capacity small.
    let transfer_sizes: Vec<u64> = scale
        .sweep_sizes_kb()
        .into_iter()
        .filter(|&kb| kb <= 512)
        .collect();
    let sweep = Sweep {
        device: SsdConfig::paper_default()
            .with_blocks_per_plane(scale.blocks_per_plane.min(16))
            .with_gc(GcConfig::enabled()),
        chip_counts: chip_counts.unwrap_or(&CHIP_COUNTS),
        transfer_sizes_kb: &transfer_sizes,
        schedulers: &FIG17_SCHEDULERS,
        read_fraction: 0.3,
        seed: 0xF17,
    };
    [false, true]
        .into_iter()
        .flat_map(|fragmented| {
            let fill = fragmented.then_some(FRAGMENTED_FILL);
            sweep.run(scale, fill).into_iter().map(move |cell| Cell {
                key: (cell.key.0, cell.key.1, fragmented),
                scheduler: cell.scheduler,
                metrics: cell.metrics,
            })
        })
        .collect()
}

/// Total GC invocations observed in the fragmented runs at one chip count.
pub fn gc_invocations(cells: &[Cell<(usize, u64, bool)>], chips: usize) -> u64 {
    cells
        .iter()
        .filter(|c| c.key.0 == chips && c.key.2)
        .map(|c| c.metrics.gc.invocations)
        .sum()
}

/// Renders one panel (one chip count) of the figure: pristine and GC
/// bandwidth side by side for each scheduler.
pub fn panel(cells: &[Cell<(usize, u64, bool)>], chips: usize) -> Table {
    grid_table(
        format!("Fig 17: GC and readdressing impact, bandwidth KB/s ({chips} chips)"),
        "transfer",
        keys(cells)
            .into_iter()
            .filter(|key| key.0 == chips && !key.2)
            .map(|&(_, kb, _)| (format!("{kb}KB"), kb)),
        FIG17_SCHEDULERS.iter().flat_map(|k| {
            let label = k.label();
            [
                (label.to_string(), (*k, false)),
                (format!("{label}-GC"), (*k, true)),
            ]
        }),
        |&kb, &(kind, fragmented)| {
            find(cells, &(chips, kb, fragmented), kind)
                .map_or_else(String::new, |m| fmt_f64(m.bandwidth_kb_per_sec))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::mean;

    #[test]
    fn gc_degrades_bandwidth_but_spk3_stays_ahead() {
        let scale = ExperimentScale {
            ios_per_workload: 120,
            blocks_per_plane: 8,
        };
        let cells = run(&scale, Some(&[64]));
        assert!(
            gc_invocations(&cells, 64) > 0,
            "fragmented runs must trigger GC"
        );
        let mean_bandwidth = |kind, fragmented| {
            mean(
                &cells,
                |c| c.key.0 == 64 && c.scheduler == kind && c.key.2 == fragmented,
                |m| m.bandwidth_kb_per_sec,
            )
        };
        let spk3 = mean_bandwidth(SchedulerKind::Spk3, false);
        let spk3_gc = mean_bandwidth(SchedulerKind::Spk3, true);
        let vas_gc = mean_bandwidth(SchedulerKind::Vas, true);
        assert!(
            spk3_gc <= spk3,
            "GC must not speed SPK3 up ({spk3_gc:.0} vs {spk3:.0})"
        );
        assert!(
            spk3_gc > vas_gc,
            "SPK3 under GC ({spk3_gc:.0}) must still beat VAS under GC ({vas_gc:.0})"
        );
        let sizes = scale.sweep_sizes_kb().into_iter().filter(|&kb| kb <= 512);
        assert_eq!(panel(&cells, 64).row_count(), sizes.count());
    }
}
