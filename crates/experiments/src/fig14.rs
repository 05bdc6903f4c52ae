//! Fig 14 — flash-level parallelism breakdown (NON-PAL / PAL1 / PAL2 / PAL3) for
//! PAS, SPK1, SPK2, and SPK3.

use sprinkler_core::SchedulerKind;

use crate::report::{fmt_pct, Table};
use crate::runner::Cell;

/// The schedulers Fig 14 plots.
pub const FIG14_SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Pas,
    SchedulerKind::Spk1,
    SchedulerKind::Spk2,
    SchedulerKind::Spk3,
];

/// Renders the FLP breakdown of one scheduler across all workloads.
pub fn flp_table(cells: &[Cell<String>], kind: SchedulerKind) -> Table {
    let mut table = Table::new(
        format!("Fig 14: FLP breakdown ({})", kind.label()),
        vec![
            "workload".into(),
            "NON-PAL".into(),
            "PAL1".into(),
            "PAL2".into(),
            "PAL3".into(),
        ],
    );
    for cell in cells.iter().filter(|c| c.scheduler == kind) {
        let flp = cell.metrics.flp.as_array().map(fmt_pct);
        table.add_row(std::iter::once(cell.key.clone()).chain(flp).collect());
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig10;
    use crate::runner::{mean, ExperimentScale};

    #[test]
    fn faro_variants_achieve_more_flp_than_pas() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let cells = fig10::run(&scale, Some(3));
        let mean_flp_level = |kind| mean(&cells, |c| c.scheduler == kind, |m| m.flp.mean_level());
        let pas = mean_flp_level(SchedulerKind::Pas);
        let spk1 = mean_flp_level(SchedulerKind::Spk1);
        let spk3 = mean_flp_level(SchedulerKind::Spk3);
        assert!(
            spk1 >= pas,
            "SPK1 FLP {spk1:.3} must be at least PAS {pas:.3}"
        );
        assert!(spk3 > pas, "SPK3 FLP {spk3:.3} must exceed PAS {pas:.3}");
        for kind in FIG14_SCHEDULERS {
            assert_eq!(flp_table(&cells, kind).row_count(), 3);
        }
        let spk3_parallel = mean(
            &cells,
            |c| c.scheduler == SchedulerKind::Spk3,
            |m| 1.0 - m.flp.non_pal,
        );
        assert!(spk3_parallel > 0.0);
    }
}
