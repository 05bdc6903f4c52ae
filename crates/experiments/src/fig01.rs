//! Fig 1 — performance stagnation, chip utilization, and memory-level idleness as
//! the number of flash dies grows, under a conventional (VAS) controller.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::SsdConfig;

use crate::report::{fmt_f64, fmt_pct, Table};
use crate::runner::{run_one, ExperimentScale};

/// One measured point of Fig 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig01Point {
    /// Number of flash dies in the configuration.
    pub dies: usize,
    /// Data transfer size in KB.
    pub transfer_kb: u64,
    /// Read bandwidth in KB/s (Fig 1a).
    pub bandwidth_kb_per_sec: f64,
    /// Chip utilization (Fig 1b).
    pub chip_utilization: f64,
    /// Memory-level idleness (Fig 1b).
    pub idleness: f64,
}

/// The full Fig 1 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig01Result {
    /// All measured points.
    pub points: Vec<Fig01Point>,
}

/// The chip counts swept (dies = 2 × chips in the paper's flash package).
pub const CHIP_COUNTS: [usize; 4] = [16, 64, 256, 1024];

/// Transfer sizes (KB) of the Fig 1 curves.
pub const TRANSFER_SIZES_KB: [u64; 4] = [4, 16, 64, 128];

/// Runs the Fig 1 sweep with the conventional controller.
pub fn run(scale: &ExperimentScale) -> Fig01Result {
    let mut points = Vec::new();
    for &chips in &CHIP_COUNTS {
        let config = SsdConfig::paper_default()
            .with_chip_count(chips)
            .with_blocks_per_plane(scale.blocks_per_plane);
        for &transfer_kb in &TRANSFER_SIZES_KB {
            let trace = scale.sweep_trace(transfer_kb, 1.0, 0x01);
            let metrics = run_one(&config, SchedulerKind::Vas, &trace);
            points.push(Fig01Point {
                dies: chips * config.geometry.dies_per_chip,
                transfer_kb,
                bandwidth_kb_per_sec: metrics.bandwidth_kb_per_sec,
                chip_utilization: metrics.chip_utilization,
                idleness: metrics.inter_chip_idleness,
            });
        }
    }
    Fig01Result { points }
}

impl Fig01Result {
    /// The bandwidth series of Fig 1a.
    pub fn bandwidth_table(&self) -> Table {
        let mut table = Table::new(
            "Fig 1a: read bandwidth (KB/s) vs number of dies, conventional controller",
            std::iter::once("dies".to_string())
                .chain(TRANSFER_SIZES_KB.iter().map(|kb| format!("{kb}KB")))
                .collect(),
        );
        for &chips in &CHIP_COUNTS {
            let dies = chips * 2;
            let mut row = vec![dies.to_string()];
            for &kb in &TRANSFER_SIZES_KB {
                let point = self
                    .points
                    .iter()
                    .find(|p| p.dies == dies && p.transfer_kb == kb);
                row.push(point.map_or_else(String::new, |p| fmt_f64(p.bandwidth_kb_per_sec)));
            }
            table.add_row(row);
        }
        table
    }

    /// The utilization / idleness series of Fig 1b.
    pub fn utilization_table(&self) -> Table {
        let mut table = Table::new(
            "Fig 1b: chip utilization and memory-level idleness vs number of dies",
            vec![
                "dies".into(),
                "transfer".into(),
                "utilization".into(),
                "idleness".into(),
            ],
        );
        for point in &self.points {
            table.add_row(vec![
                point.dies.to_string(),
                format!("{}KB", point.transfer_kb),
                fmt_pct(point.chip_utilization),
                fmt_pct(point.idleness),
            ]);
        }
        table
    }

    /// Bandwidth for a given transfer size across the die counts, smallest first.
    pub fn bandwidth_series(&self, transfer_kb: u64) -> Vec<f64> {
        CHIP_COUNTS
            .iter()
            .filter_map(|&chips| {
                self.points
                    .iter()
                    .find(|p| p.dies == chips * 2 && p.transfer_kb == transfer_kb)
                    .map(|p| p.bandwidth_kb_per_sec)
            })
            .collect()
    }

    /// True when bandwidth stops scaling with the die count: the last doubling of
    /// dies yields less than a 1.3× bandwidth gain for the given transfer size —
    /// the stagnation the paper motivates with.
    pub fn stagnates(&self, transfer_kb: u64) -> bool {
        let series = self.bandwidth_series(transfer_kb);
        match series.as_slice() {
            [.., prev, last] => *last < *prev * 1.3,
            _ => false,
        }
    }

    /// Utilization for a given transfer size across the die counts.
    pub fn utilization_series(&self, transfer_kb: u64) -> Vec<f64> {
        CHIP_COUNTS
            .iter()
            .filter_map(|&chips| {
                self.points
                    .iter()
                    .find(|p| p.dies == chips * 2 && p.transfer_kb == transfer_kb)
                    .map(|p| p.chip_utilization)
            })
            .collect()
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
        let result = run(&scale);
        assert_eq!(
            result.points.len(),
            CHIP_COUNTS.len() * TRANSFER_SIZES_KB.len()
        );
        // Small transfers cannot feed thousands of dies: bandwidth stagnates.
        assert!(result.stagnates(4), "4KB bandwidth must stop scaling");
        // Utilization falls monotonically as dies grow for the small transfer.
        let util = result.utilization_series(4);
        assert!(util.first().unwrap() > util.last().unwrap());
        // Idleness is the complement of utilization.
        for p in &result.points {
            assert!((p.chip_utilization + p.idleness - 1.0).abs() < 1e-6);
        }
        let rendered = result.bandwidth_table().render();
        assert!(rendered.contains("dies"));
        assert!(result.utilization_table().row_count() > 0);
    }
}
