//! Fig 6 — resource utilization and improvement potential: chip utilization under
//! VAS (the typical scenario), PAS (resource conflicts addressed), and the relaxed
//! scenario where both parallelism dependency and transactional-locality are solved
//! (realized here by SPK3).

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::SsdConfig;
use sprinkler_workloads::paper_workloads;

use crate::report::{fmt_pct, Table};
use crate::runner::{find, keys, run_matrix, Cell, ExperimentScale};

/// The three scenarios of Fig 6, expressed as schedulers.
pub const SCENARIOS: [SchedulerKind; 3] =
    [SchedulerKind::Vas, SchedulerKind::Pas, SchedulerKind::Spk3];

/// Runs the Fig 6 sweep: one cell per workload (Table 1 order, the first
/// `workload_limit` of them) and scenario scheduler.
pub fn run(scale: &ExperimentScale, workload_limit: Option<usize>) -> Vec<Cell<String>> {
    let limit = workload_limit.unwrap_or(usize::MAX);
    let traces: Vec<_> = paper_workloads()
        .into_iter()
        .take(limit)
        .map(|spec| spec.generate(scale.ios_per_workload, 0xF06))
        .collect();
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    run_matrix(&config, &SCENARIOS, &traces)
}

/// Renders the figure: utilization per workload for the three scenarios plus
/// the improvement potential (relaxed − typical).
pub fn render(cells: &[Cell<String>]) -> Table {
    let mut table = Table::new(
        "Fig 6: chip utilization and improvement potential",
        vec![
            "workload".into(),
            "VAS (typical)".into(),
            "PAS (improved)".into(),
            "relaxed (SPK3)".into(),
            "potential".into(),
        ],
    );
    for workload in keys(cells) {
        let [vas, pas, relaxed] =
            SCENARIOS.map(|kind| find(cells, workload, kind).map_or(0.0, |m| m.chip_utilization));
        table.add_row(vec![
            workload.clone(),
            fmt_pct(vas),
            fmt_pct(pas),
            fmt_pct(relaxed),
            fmt_pct((relaxed - vas).max(0.0)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::mean;

    #[test]
    fn relaxing_both_challenges_raises_utilization() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let cells = run(&scale, Some(3));
        let [vas, pas, relaxed] =
            SCENARIOS.map(|kind| mean(&cells, |c| c.scheduler == kind, |m| m.chip_utilization));
        assert!(pas >= vas, "PAS {pas:.3} must not fall below VAS {vas:.3}");
        assert!(
            relaxed > vas,
            "relaxed {relaxed:.3} must exceed VAS {vas:.3}"
        );
        assert_eq!(render(&cells).row_count(), 3);
    }
}
