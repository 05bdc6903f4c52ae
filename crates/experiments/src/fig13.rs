//! Fig 13 — execution-time breakdown (bus operation, bus contention, memory
//! operation, system idle) for PAS and SPK3.

use sprinkler_core::SchedulerKind;

use crate::report::{fmt_pct, Table};
use crate::runner::Cell;

/// The schedulers Fig 13 plots.
pub const FIG13_SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Pas, SchedulerKind::Spk3];

/// Renders the execution breakdown of one scheduler across all workloads.
pub fn breakdown_table(cells: &[Cell<String>], kind: SchedulerKind) -> Table {
    let mut table = Table::new(
        format!("Fig 13: execution time breakdown ({})", kind.label()),
        vec![
            "workload".into(),
            "bus op".into(),
            "bus contention".into(),
            "memory op".into(),
            "idle".into(),
        ],
    );
    for cell in cells.iter().filter(|c| c.scheduler == kind) {
        let e = &cell.metrics.execution;
        table.add_row(vec![
            cell.key.clone(),
            fmt_pct(e.bus_operation),
            fmt_pct(e.bus_contention),
            fmt_pct(e.memory_operation),
            fmt_pct(e.idle),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig10;
    use crate::runner::{mean, ExperimentScale};

    #[test]
    fn spk3_spends_less_time_idle_than_pas() {
        // Five workloads rather than three: on very small subsets the mean
        // idle gap between PAS and SPK3 is within workload-to-workload noise.
        let scale = ExperimentScale {
            ios_per_workload: 200,
            blocks_per_plane: 16,
        };
        let cells = fig10::run(&scale, Some(5));
        let mean_idle = |kind| mean(&cells, |c| c.scheduler == kind, |m| m.execution.idle);
        let pas_idle = mean_idle(SchedulerKind::Pas);
        let spk3_idle = mean_idle(SchedulerKind::Spk3);
        assert!(
            spk3_idle < pas_idle,
            "SPK3 idle {spk3_idle:.3} must be below PAS idle {pas_idle:.3}"
        );
        let table = breakdown_table(&cells, SchedulerKind::Spk3);
        assert_eq!(table.row_count(), 5);
        assert!(table.render().contains("memory op"));
    }
}
