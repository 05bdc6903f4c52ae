//! Fig 10 — the headline comparison: bandwidth, IOPS, average latency, and queue
//! stall time for VAS, PAS, SPK1, SPK2, and SPK3 across the sixteen Table 1
//! workloads.  The same scheduler × workload matrix feeds Figs 11, 13, and 14.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::{RunMetrics, SsdConfig};
use sprinkler_workloads::paper_workloads;

use crate::report::{fmt_f64, grid_table, Table};
use crate::runner::{find, keys, run_matrix, Cell, ExperimentScale};

/// Runs the main comparison over all sixteen workloads (or the first
/// `workload_limit` of them) and all five schedulers: the scheduler ×
/// workload matrix underlying Figs 10, 11, 13, and 14, keyed by workload in
/// Table 1 order.
pub fn run(scale: &ExperimentScale, workload_limit: Option<usize>) -> Vec<Cell<String>> {
    let limit = workload_limit.unwrap_or(usize::MAX);
    let traces: Vec<_> = paper_workloads()
        .into_iter()
        .take(limit)
        .map(|spec| spec.generate(scale.ios_per_workload, 0x000F_1610))
        .collect();
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    run_matrix(&config, &SchedulerKind::ALL, &traces)
}

/// One row per workload and one column per scheduler, each entry
/// `value(workload, metrics)` of that cell, blank where the matrix has none;
/// Fig 11 shares the layout.
pub(crate) fn workload_table(
    cells: &[Cell<String>],
    title: &str,
    value: impl Fn(&str, &RunMetrics) -> String,
) -> Table {
    grid_table(
        title,
        "workload",
        keys(cells).into_iter().map(|w| (w.clone(), w)),
        SchedulerKind::ALL.map(|k| (k.label().to_string(), k)),
        |w, &kind| find(cells, *w, kind).map_or_else(String::new, |m| value(w, m)),
    )
}

/// Fig 10a: I/O bandwidth (KB/s).
pub fn bandwidth_table(cells: &[Cell<String>]) -> Table {
    workload_table(cells, "Fig 10a: I/O bandwidth (KB/s)", |_, m| {
        fmt_f64(m.bandwidth_kb_per_sec)
    })
}

/// Fig 10b: IOPS.
pub fn iops_table(cells: &[Cell<String>]) -> Table {
    workload_table(cells, "Fig 10b: IOPS", |_, m| fmt_f64(m.iops))
}

/// Fig 10c: average device-level latency (ns).
pub fn latency_table(cells: &[Cell<String>]) -> Table {
    workload_table(cells, "Fig 10c: average I/O latency (ns)", |_, m| {
        fmt_f64(m.avg_latency_ns)
    })
}

/// Fig 10d: queue stall time normalized to VAS.
pub fn queue_stall_table(cells: &[Cell<String>]) -> Table {
    workload_table(
        cells,
        "Fig 10d: device queue stall time (normalized to VAS)",
        |w, m| {
            let vas = find(cells, w, SchedulerKind::Vas).map_or(0.0, |v| v.queue_stall_ns as f64);
            fmt_f64(if vas <= 0.0 {
                0.0
            } else {
                m.queue_stall_ns as f64 / vas
            })
        },
    )
}

/// The `(kind, baseline)` metrics of every workload that ran both, in
/// workload order.
pub(crate) fn pairs(
    cells: &[Cell<String>],
    kind: SchedulerKind,
    baseline: SchedulerKind,
) -> impl Iterator<Item = (&RunMetrics, &RunMetrics)> {
    cells
        .iter()
        .filter(move |c| c.scheduler == kind)
        .filter_map(move |c| Some((&c.metrics, find(cells, &c.key, baseline)?)))
}

/// Geometric-mean speedup of `kind` over `baseline` in bandwidth.
pub fn bandwidth_speedup(
    cells: &[Cell<String>],
    kind: SchedulerKind,
    baseline: SchedulerKind,
) -> f64 {
    let mut product = 1.0f64;
    let mut count = 0usize;
    for (a, b) in pairs(cells, kind, baseline) {
        if b.bandwidth_kb_per_sec > 0.0 {
            product *= a.bandwidth_kb_per_sec / b.bandwidth_kb_per_sec;
            count += 1;
        }
    }
    if count == 0 {
        1.0
    } else {
        product.powf(1.0 / count as f64)
    }
}

/// Mean latency reduction of `kind` relative to `baseline` (0.3 = 30% shorter).
pub fn latency_reduction(
    cells: &[Cell<String>],
    kind: SchedulerKind,
    baseline: SchedulerKind,
) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for (a, b) in pairs(cells, kind, baseline) {
        if b.avg_latency_ns > 0.0 {
            sum += 1.0 - a.avg_latency_ns / b.avg_latency_ns;
            count += 1;
        }
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

    #[test]
    fn comparison_reproduces_the_paper_ordering_on_a_subset() {
        let scale = ExperimentScale {
            ios_per_workload: 150,
            blocks_per_plane: 16,
        };
        let cells = run(&scale, Some(3));
        assert_eq!(keys(&cells).len(), 3);
        assert_eq!(cells.len(), 15);

        // SPK3 beats VAS in bandwidth and latency on average.
        assert!(bandwidth_speedup(&cells, SchedulerKind::Spk3, SchedulerKind::Vas) > 1.0);
        assert!(latency_reduction(&cells, SchedulerKind::Spk3, SchedulerKind::Vas) > 0.0);

        // Tables render one row per workload.
        assert_eq!(bandwidth_table(&cells).row_count(), 3);
        assert_eq!(iops_table(&cells).row_count(), 3);
        assert_eq!(latency_table(&cells).row_count(), 3);
        assert_eq!(queue_stall_table(&cells).row_count(), 3);
        assert!(bandwidth_table(&cells).render().contains("SPK3"));
    }
}
