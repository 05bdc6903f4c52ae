//! Fig 12 — latency time-series analysis over the first requests of `msnfs1`,
//! comparing VAS against PAS and against SPK3.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::SsdConfig;
use sprinkler_workloads::workload;

use crate::report::{fmt_f64, Table};
use crate::runner::{run_grid, run_one_detailed, Cell, ExperimentScale};

/// The schedulers plotted in Fig 12.
pub const FIG12_SCHEDULERS: [SchedulerKind; 3] =
    [SchedulerKind::Vas, SchedulerKind::Pas, SchedulerKind::Spk3];

/// The length of the paper's `msnfs1` window, in I/Os.
pub const PAPER_IOS: u64 = 3_000;

/// Runs the time-series experiment over the first `io_count` requests of msnfs1
/// (the paper uses [`PAPER_IOS`]): one `"msnfs1"` cell per scheduler, each
/// carrying its per-I/O latency series.
pub fn run(scale: &ExperimentScale, io_count: u64) -> Vec<Cell<String>> {
    let spec = workload("msnfs1").expect("msnfs1 is part of Table 1");
    let trace = spec
        .generate(io_count.max(1), 0xF12)
        .truncated(io_count as usize);
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    run_grid(
        &[trace],
        &FIG12_SCHEDULERS,
        |trace| trace.name().to_string(),
        |trace, kind| run_one_detailed(&config, kind, trace, true, None),
    )
}

/// Renders a summary table (mean / p99 / max latency per scheduler).
pub fn render(cells: &[Cell<String>]) -> Table {
    let io_count = cells.first().map_or(0, |c| c.metrics.io_count);
    let mut table = Table::new(
        format!("Fig 12: msnfs1 latency time series summary (first {io_count} I/Os)"),
        vec![
            "scheduler".into(),
            "mean (ns)".into(),
            "p99 (ns)".into(),
            "max (ns)".into(),
        ],
    );
    for Cell {
        scheduler, metrics, ..
    } in cells
    {
        table.add_row(vec![
            scheduler.label().to_string(),
            fmt_f64(metrics.avg_latency_ns),
            metrics.p99_latency_ns.to_string(),
            metrics.max_latency_ns.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::find;

    #[test]
    fn spk3_series_is_faster_than_vas() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let cells = run(&scale, 200);
        assert!(cells.iter().all(|c| c.metrics.io_count == 200));
        let vas = find(&cells, "msnfs1", SchedulerKind::Vas).unwrap();
        let spk3 = find(&cells, "msnfs1", SchedulerKind::Spk3).unwrap();
        assert_eq!(vas.latency_series.len(), 200);
        assert_eq!(spk3.latency_series.len(), 200);
        assert!(
            spk3.avg_latency_ns < vas.avg_latency_ns,
            "SPK3 must be faster than VAS over the msnfs1 window"
        );
        assert_eq!(render(&cells).row_count(), 3);
    }
}
