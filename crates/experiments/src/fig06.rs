//! Fig 6 — resource utilization and improvement potential: chip utilization under
//! VAS (the typical scenario), PAS (resource conflicts addressed), and the relaxed
//! scenario where both parallelism dependency and transactional-locality are solved
//! (realized here by SPK3).

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::SsdConfig;
use sprinkler_workloads::paper_workloads;

use crate::report::{fmt_pct, Table};
use crate::runner::{find_cell, run_matrix, ExperimentScale, MatrixCell};

/// The Fig 6 measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig06Result {
    /// One cell per workload and scenario scheduler.
    pub cells: Vec<MatrixCell>,
    /// Workload names in Table 1 order.
    pub workloads: Vec<String>,
}

/// The three scenarios of Fig 6, expressed as schedulers.
pub const SCENARIOS: [SchedulerKind; 3] =
    [SchedulerKind::Vas, SchedulerKind::Pas, SchedulerKind::Spk3];

/// Runs the Fig 6 sweep.
pub fn run(scale: &ExperimentScale, workload_limit: Option<usize>) -> Fig06Result {
    let limit = workload_limit.unwrap_or(usize::MAX);
    let traces: Vec<_> = paper_workloads()
        .into_iter()
        .take(limit)
        .map(|spec| spec.generate(scale.ios_per_workload, 0xF06))
        .collect();
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    let cells = run_matrix(&config, &SCENARIOS, &traces);
    Fig06Result {
        workloads: traces.iter().map(|t| t.name().to_string()).collect(),
        cells,
    }
}

impl Fig06Result {
    /// Chip utilization of one workload under one scenario.
    pub fn utilization(&self, workload: &str, scenario: SchedulerKind) -> Option<f64> {
        find_cell(&self.cells, workload, scenario).map(|c| c.metrics.chip_utilization)
    }

    /// Mean chip utilization of a scenario across the workloads.
    pub fn mean_utilization(&self, scenario: SchedulerKind) -> f64 {
        let values: Vec<f64> = self
            .workloads
            .iter()
            .filter_map(|w| self.utilization(w, scenario))
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Renders the figure: utilization per workload for the three scenarios plus
    /// the improvement potential (relaxed − typical).
    pub fn render(&self) -> Table {
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
        for workload in &self.workloads {
            let vas = self
                .utilization(workload, SchedulerKind::Vas)
                .unwrap_or(0.0);
            let pas = self
                .utilization(workload, SchedulerKind::Pas)
                .unwrap_or(0.0);
            let relaxed = self
                .utilization(workload, SchedulerKind::Spk3)
                .unwrap_or(0.0);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxing_both_challenges_raises_utilization() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let result = run(&scale, Some(3));
        let vas = result.mean_utilization(SchedulerKind::Vas);
        let pas = result.mean_utilization(SchedulerKind::Pas);
        let relaxed = result.mean_utilization(SchedulerKind::Spk3);
        assert!(pas >= vas, "PAS {pas:.3} must not fall below VAS {vas:.3}");
        assert!(
            relaxed > vas,
            "relaxed {relaxed:.3} must exceed VAS {vas:.3}"
        );
        assert_eq!(result.render().row_count(), 3);
    }
}
