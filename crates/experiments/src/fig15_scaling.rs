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
use crate::runner::{run_cells, run_one, ExperimentScale};

/// The schedulers the scaling sweep compares.
pub const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Vas, SchedulerKind::Spk3];

/// The chip populations swept, up to the paper's 1024-chip point.
pub const CHIP_COUNTS: [usize; 4] = [16, 64, 256, 1024];

/// Transfer sizes (KB) of the sweep's panels.
pub const TRANSFER_SIZES_KB: [u64; 3] = [4, 32, 128];

/// One measured point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Total flash chips in the SSD.
    pub chips: usize,
    /// Transfer size in KB.
    pub transfer_kb: u64,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Read bandwidth in KB/s.
    pub bandwidth_kb_per_sec: f64,
    /// Measured chip utilization.
    pub utilization: f64,
    /// I/Os per second.
    pub iops: f64,
    /// Scheduling rounds the run took — a deterministic telemetry total, so
    /// baseline checks can gate the scheduler core's decision stream, not just
    /// its bandwidth outcome.
    pub sched_rounds: u64,
}

/// The full scaling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingResult {
    /// All measured points.
    pub points: Vec<ScalingPoint>,
    /// The chip counts swept.
    pub chip_counts: Vec<usize>,
    /// The transfer sizes swept.
    pub transfer_sizes_kb: Vec<u64>,
}

/// Runs the sweep.  `chip_counts` and `transfer_sizes_kb` default to the full
/// 16→1024 panels when `None`; pass subsets for quicker runs.  Every
/// (transfer × chip-count × scheduler) cell is an independent simulation, so
/// the sweep fans out over [`run_cells`]; point order matches the serial loop.
pub fn run(
    scale: &ExperimentScale,
    chip_counts: Option<&[usize]>,
    transfer_sizes_kb: Option<&[u64]>,
) -> ScalingResult {
    let chip_counts: Vec<usize> = chip_counts.unwrap_or(&CHIP_COUNTS).to_vec();
    let transfer_sizes_kb: Vec<u64> = transfer_sizes_kb.unwrap_or(&TRANSFER_SIZES_KB).to_vec();
    let cells: Vec<(u64, usize, SchedulerKind)> = transfer_sizes_kb
        .iter()
        .flat_map(|&transfer_kb| {
            chip_counts.iter().flat_map(move |&chips| {
                SCHEDULERS
                    .iter()
                    .map(move |&scheduler| (transfer_kb, chips, scheduler))
            })
        })
        .collect();
    let points = run_cells(&cells, |&(transfer_kb, chips, scheduler)| {
        let config = SsdConfig::paper_default()
            .with_chip_count(chips)
            .with_blocks_per_plane(scale.blocks_per_plane);
        let trace = scale.sweep_trace(transfer_kb, 1.0, 0x5CA1E);
        let metrics = run_one(&config, scheduler, &trace);
        ScalingPoint {
            chips,
            transfer_kb,
            scheduler,
            bandwidth_kb_per_sec: metrics.bandwidth_kb_per_sec,
            utilization: metrics.chip_utilization,
            iops: metrics.iops,
            sched_rounds: metrics.telemetry.sched_rounds,
        }
    });
    ScalingResult {
        points,
        chip_counts,
        transfer_sizes_kb,
    }
}

impl ScalingResult {
    /// The point for one (chips, transfer, scheduler) triple.
    pub fn point(
        &self,
        chips: usize,
        transfer_kb: u64,
        scheduler: SchedulerKind,
    ) -> Option<&ScalingPoint> {
        self.points
            .iter()
            .find(|p| p.chips == chips && p.transfer_kb == transfer_kb && p.scheduler == scheduler)
    }

    /// SPK3-over-VAS bandwidth ratio at one point.
    pub fn speedup(&self, chips: usize, transfer_kb: u64) -> Option<f64> {
        let vas = self.point(chips, transfer_kb, SchedulerKind::Vas)?;
        let spk3 = self.point(chips, transfer_kb, SchedulerKind::Spk3)?;
        (vas.bandwidth_kb_per_sec > 0.0)
            .then(|| spk3.bandwidth_kb_per_sec / vas.bandwidth_kb_per_sec)
    }

    /// Bandwidth across the chip counts for one scheduler and transfer size,
    /// smallest population first.
    pub fn bandwidth_series(&self, transfer_kb: u64, scheduler: SchedulerKind) -> Vec<f64> {
        self.chip_counts
            .iter()
            .filter_map(|&chips| {
                self.point(chips, transfer_kb, scheduler)
                    .map(|p| p.bandwidth_kb_per_sec)
            })
            .collect()
    }

    /// Renders one panel (one transfer size) of the sweep.
    pub fn panel(&self, transfer_kb: u64) -> Table {
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
        for &chips in &self.chip_counts {
            let mut row = vec![chips.to_string()];
            for &scheduler in &SCHEDULERS {
                match self.point(chips, transfer_kb, scheduler) {
                    Some(p) => {
                        row.push(fmt_f64(p.bandwidth_kb_per_sec));
                        row.push(fmt_pct(p.utilization));
                    }
                    None => {
                        row.push(String::new());
                        row.push(String::new());
                    }
                }
            }
            row.push(
                self.speedup(chips, transfer_kb)
                    .map_or_else(String::new, |s| format!("{s:.2}x")),
            );
            table.add_row(row);
        }
        table
    }
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
        let result = run(&scale, Some(&[16, 64]), Some(&[32]));
        assert_eq!(result.points.len(), 4);
        // Sprinkler converts the added chips into more bandwidth than VAS does.
        let speedup = result.speedup(64, 32).unwrap();
        assert!(
            speedup > 1.0,
            "SPK3 must beat VAS at 64 chips (got {speedup:.2}x)"
        );
        // Growing the population must not shrink Sprinkler's bandwidth.
        let series = result.bandwidth_series(32, SchedulerKind::Spk3);
        assert_eq!(series.len(), 2);
        assert!(
            series[1] >= series[0] * 0.9,
            "SPK3 bandwidth must scale with chips: {series:?}"
        );
        // Every point carries the deterministic round total for baseline gates.
        assert!(result.points.iter().all(|p| p.sched_rounds > 0));
        let panel = result.panel(32);
        assert_eq!(panel.row_count(), 2);
        assert!(panel.render().contains("SPK3/VAS"));
    }
}
