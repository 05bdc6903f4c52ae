//! Fig 12 — latency time-series analysis over the first requests of `msnfs1`,
//! comparing VAS against PAS and against SPK3.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::{RunMetrics, SsdConfig};
use sprinkler_workloads::workload;

use crate::report::{fmt_f64, Table};
use crate::runner::{run_one_detailed, ExperimentScale};

/// The schedulers plotted in Fig 12.
pub const FIG12_SCHEDULERS: [SchedulerKind; 3] =
    [SchedulerKind::Vas, SchedulerKind::Pas, SchedulerKind::Spk3];

/// The Fig 12 measurement: per-I/O latency series per scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Result {
    /// Per-scheduler run metrics including the latency series.
    pub runs: Vec<(SchedulerKind, RunMetrics)>,
    /// How many I/O requests were replayed.
    pub io_count: u64,
}

/// Runs the time-series experiment over the first `io_count` requests of msnfs1
/// (the paper uses three thousand).
pub fn run(scale: &ExperimentScale, io_count: u64) -> Fig12Result {
    let spec = workload("msnfs1").expect("msnfs1 is part of Table 1");
    let trace = spec
        .generate(io_count.max(1), 0xF12)
        .truncated(io_count as usize);
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    let runs = FIG12_SCHEDULERS
        .iter()
        .map(|&kind| (kind, run_one_detailed(&config, kind, &trace, true, None)))
        .collect();
    Fig12Result { runs, io_count }
}

impl Fig12Result {
    /// The latency series of one scheduler, in request order.
    pub fn series(&self, kind: SchedulerKind) -> Option<&[(u64, u64)]> {
        self.runs
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| m.latency_series.as_slice())
    }

    /// Mean latency (ns) of one scheduler over the replayed window.
    pub fn mean_latency(&self, kind: SchedulerKind) -> f64 {
        self.runs
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| m.avg_latency_ns)
            .unwrap_or(0.0)
    }

    /// Renders a summary table (mean / p99 / max latency per scheduler).
    pub fn render(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Fig 12: msnfs1 latency time series summary (first {} I/Os)",
                self.io_count
            ),
            vec![
                "scheduler".into(),
                "mean (ns)".into(),
                "p99 (ns)".into(),
                "max (ns)".into(),
            ],
        );
        for (kind, metrics) in &self.runs {
            table.add_row(vec![
                kind.label().to_string(),
                fmt_f64(metrics.avg_latency_ns),
                metrics.p99_latency_ns.to_string(),
                metrics.max_latency_ns.to_string(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spk3_series_is_faster_than_vas() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let result = run(&scale, 200);
        assert_eq!(result.io_count, 200);
        let vas_series = result.series(SchedulerKind::Vas).unwrap();
        let spk3_series = result.series(SchedulerKind::Spk3).unwrap();
        assert_eq!(vas_series.len(), 200);
        assert_eq!(spk3_series.len(), 200);
        assert!(
            result.mean_latency(SchedulerKind::Spk3) < result.mean_latency(SchedulerKind::Vas),
            "SPK3 must be faster than VAS over the msnfs1 window"
        );
        assert_eq!(result.render().row_count(), 3);
    }
}
