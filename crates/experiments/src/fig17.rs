//! Fig 17 — garbage collection and readdressing impact: bandwidth versus transfer
//! size on pristine and fragmented (95 % pre-filled) SSDs for VAS, PAS, and SPK3.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::{GcConfig, SsdConfig};

use crate::report::{fmt_f64, Table};
use crate::runner::{run_one_detailed, ExperimentScale};

/// The schedulers Fig 17 plots.
pub const FIG17_SCHEDULERS: [SchedulerKind; 3] =
    [SchedulerKind::Vas, SchedulerKind::Pas, SchedulerKind::Spk3];

/// The chip counts of Fig 17's two panels.
pub const CHIP_COUNTS: [usize; 2] = [64, 256];

/// Fraction of physical capacity pre-filled for the fragmented (GC) runs.
pub const FRAGMENTED_FILL: f64 = 0.95;

/// One measured point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig17Point {
    /// Total flash chips.
    pub chips: usize,
    /// Transfer size in KB.
    pub transfer_kb: u64,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Whether the SSD was pre-fragmented so GC runs during the measurement.
    pub fragmented: bool,
    /// Measured bandwidth in KB/s.
    pub bandwidth_kb_per_sec: f64,
    /// GC invocations observed.
    pub gc_invocations: u64,
}

/// The full Fig 17 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig17Result {
    /// All measured points.
    pub points: Vec<Fig17Point>,
    /// The transfer sizes swept.
    pub transfer_sizes_kb: Vec<u64>,
    /// The chip counts swept.
    pub chip_counts: Vec<usize>,
}

/// Runs the sweep.  The workload is write-heavy (the paper fragments with 1 MB
/// random writes and then measures mixed traffic).
pub fn run(scale: &ExperimentScale, chip_counts: Option<&[usize]>) -> Fig17Result {
    let chip_counts: Vec<usize> = chip_counts.unwrap_or(&CHIP_COUNTS).to_vec();
    // GC runs amplify every host write by an order of magnitude once the SSD is
    // fragmented, so this figure sweeps up to 512 KB transfers (the qualitative
    // crossover is already visible there) and keeps per-plane capacity small.
    let transfer_sizes: Vec<u64> = scale
        .sweep_sizes_kb()
        .into_iter()
        .filter(|&kb| kb <= 512)
        .collect();
    let blocks_per_plane = scale.blocks_per_plane.min(16);
    let mut points = Vec::new();
    for &chips in &chip_counts {
        let base = SsdConfig::paper_default()
            .with_chip_count(chips)
            .with_blocks_per_plane(blocks_per_plane)
            .with_gc(GcConfig::enabled());
        for &transfer_kb in &transfer_sizes {
            let trace = scale.sweep_trace(transfer_kb, 0.3, 0xF17);
            for &scheduler in &FIG17_SCHEDULERS {
                for fragmented in [false, true] {
                    let precondition = fragmented.then_some(FRAGMENTED_FILL);
                    let metrics = run_one_detailed(&base, scheduler, &trace, false, precondition);
                    points.push(Fig17Point {
                        chips,
                        transfer_kb,
                        scheduler,
                        fragmented,
                        bandwidth_kb_per_sec: metrics.bandwidth_kb_per_sec,
                        gc_invocations: metrics.gc.invocations,
                    });
                }
            }
        }
    }
    Fig17Result {
        points,
        transfer_sizes_kb: transfer_sizes,
        chip_counts,
    }
}

impl Fig17Result {
    /// Bandwidth for a specific point.
    pub fn bandwidth(
        &self,
        chips: usize,
        transfer_kb: u64,
        scheduler: SchedulerKind,
        fragmented: bool,
    ) -> Option<f64> {
        self.points
            .iter()
            .find(|p| {
                p.chips == chips
                    && p.transfer_kb == transfer_kb
                    && p.scheduler == scheduler
                    && p.fragmented == fragmented
            })
            .map(|p| p.bandwidth_kb_per_sec)
    }

    /// Mean bandwidth of one (scheduler, fragmented) series at one chip count.
    pub fn mean_bandwidth(&self, chips: usize, scheduler: SchedulerKind, fragmented: bool) -> f64 {
        let values: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.chips == chips && p.scheduler == scheduler && p.fragmented == fragmented)
            .map(|p| p.bandwidth_kb_per_sec)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Total GC invocations observed in the fragmented runs at one chip count.
    pub fn gc_invocations(&self, chips: usize) -> u64 {
        self.points
            .iter()
            .filter(|p| p.chips == chips && p.fragmented)
            .map(|p| p.gc_invocations)
            .sum()
    }

    /// Renders one panel (one chip count) of the figure.
    pub fn panel(&self, chips: usize) -> Table {
        let mut header = vec!["transfer".to_string()];
        for &scheduler in &FIG17_SCHEDULERS {
            header.push(scheduler.label().to_string());
            header.push(format!("{}-GC", scheduler.label()));
        }
        let mut table = Table::new(
            format!("Fig 17: GC and readdressing impact, bandwidth KB/s ({chips} chips)"),
            header,
        );
        for &kb in &self.transfer_sizes_kb {
            let mut row = vec![format!("{kb}KB")];
            for &scheduler in &FIG17_SCHEDULERS {
                row.push(
                    self.bandwidth(chips, kb, scheduler, false)
                        .map_or_else(String::new, fmt_f64),
                );
                row.push(
                    self.bandwidth(chips, kb, scheduler, true)
                        .map_or_else(String::new, fmt_f64),
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
    fn gc_degrades_bandwidth_but_spk3_stays_ahead() {
        let scale = ExperimentScale {
            ios_per_workload: 120,
            blocks_per_plane: 8,
        };
        let result = run(&scale, Some(&[64]));
        assert!(
            result.gc_invocations(64) > 0,
            "fragmented runs must trigger GC"
        );
        let spk3 = result.mean_bandwidth(64, SchedulerKind::Spk3, false);
        let spk3_gc = result.mean_bandwidth(64, SchedulerKind::Spk3, true);
        let vas_gc = result.mean_bandwidth(64, SchedulerKind::Vas, true);
        assert!(
            spk3_gc <= spk3,
            "GC must not speed SPK3 up ({spk3_gc:.0} vs {spk3:.0})"
        );
        assert!(
            spk3_gc > vas_gc,
            "SPK3 under GC ({spk3_gc:.0}) must still beat VAS under GC ({vas_gc:.0})"
        );
        assert_eq!(result.panel(64).row_count(), result.transfer_sizes_kb.len());
    }
}
