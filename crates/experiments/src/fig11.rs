//! Fig 11 — inter-chip and intra-chip idleness under the five schedulers.

use sprinkler_core::SchedulerKind;

use crate::fig10::{pairs, workload_table};
use crate::report::{fmt_pct, Table};
use crate::runner::Cell;

/// Fig 11a: inter-chip idleness (%) per workload and scheduler.
pub fn inter_chip_table(cells: &[Cell<String>]) -> Table {
    workload_table(cells, "Fig 11a: inter-chip idleness", |_, m| {
        fmt_pct(m.inter_chip_idleness)
    })
}

/// Fig 11b: intra-chip idleness (%) per workload and scheduler.
pub fn intra_chip_table(cells: &[Cell<String>]) -> Table {
    workload_table(cells, "Fig 11b: intra-chip idleness", |_, m| {
        fmt_pct(m.intra_chip_idleness)
    })
}

/// Average idleness reduction (in percentage points) of `kind` relative to
/// `baseline` for inter-chip idleness.
pub fn inter_chip_improvement(
    cells: &[Cell<String>],
    kind: SchedulerKind,
    baseline: SchedulerKind,
) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for (a, b) in pairs(cells, kind, baseline) {
        sum += b.inter_chip_idleness - a.inter_chip_idleness;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig10;
    use crate::runner::ExperimentScale;

    #[test]
    fn sprinkler_reduces_inter_chip_idleness() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let cells = fig10::run(&scale, Some(3));
        let improvement = inter_chip_improvement(&cells, SchedulerKind::Spk3, SchedulerKind::Vas);
        assert!(
            improvement > 0.0,
            "SPK3 must reduce inter-chip idleness vs VAS (improvement={improvement})"
        );
        assert_eq!(inter_chip_table(&cells).row_count(), 3);
        assert_eq!(intra_chip_table(&cells).row_count(), 3);
    }
}
