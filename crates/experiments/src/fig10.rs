//! Fig 10 — the headline comparison: bandwidth, IOPS, average latency, and queue
//! stall time for VAS, PAS, SPK1, SPK2, and SPK3 across the sixteen Table 1
//! workloads.  The same scheduler × workload matrix feeds Figs 11, 13, and 14.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::{RunMetrics, SsdConfig};
use sprinkler_workloads::paper_workloads;

use crate::report::{fmt_f64, Table};
use crate::runner::{find_cell, run_matrix, ExperimentScale, MatrixCell};

/// The scheduler × workload matrix underlying Figs 10, 11, 13, and 14.
#[derive(Debug, Clone, PartialEq)]
pub struct MainComparison {
    /// Every (workload, scheduler) run.
    pub cells: Vec<MatrixCell>,
    /// Workload names in Table 1 order.
    pub workloads: Vec<String>,
}

/// Runs the main comparison over all sixteen workloads (or the first
/// `workload_limit` of them) and all five schedulers.
pub fn run(scale: &ExperimentScale, workload_limit: Option<usize>) -> MainComparison {
    let limit = workload_limit.unwrap_or(usize::MAX);
    let traces: Vec<_> = paper_workloads()
        .into_iter()
        .take(limit)
        .map(|spec| spec.generate(scale.ios_per_workload, 0x000F_1610))
        .collect();
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    let cells = run_matrix(&config, &SchedulerKind::ALL, &traces);
    MainComparison {
        workloads: traces.iter().map(|t| t.name().to_string()).collect(),
        cells,
    }
}

impl MainComparison {
    /// Metrics of one workload under one scheduler.
    pub fn metrics(&self, workload: &str, scheduler: SchedulerKind) -> Option<&RunMetrics> {
        find_cell(&self.cells, workload, scheduler).map(|c| &c.metrics)
    }

    fn table_of(&self, title: &str, value: impl Fn(&RunMetrics) -> String) -> Table {
        let mut table = Table::new(
            title,
            std::iter::once("workload".to_string())
                .chain(SchedulerKind::ALL.iter().map(|k| k.label().to_string()))
                .collect(),
        );
        for workload in &self.workloads {
            let mut row = vec![workload.clone()];
            for kind in SchedulerKind::ALL {
                row.push(
                    self.metrics(workload, kind)
                        .map_or_else(String::new, &value),
                );
            }
            table.add_row(row);
        }
        table
    }

    /// Fig 10a: I/O bandwidth (KB/s).
    pub fn bandwidth_table(&self) -> Table {
        self.table_of("Fig 10a: I/O bandwidth (KB/s)", |m| {
            fmt_f64(m.bandwidth_kb_per_sec)
        })
    }

    /// Fig 10b: IOPS.
    pub fn iops_table(&self) -> Table {
        self.table_of("Fig 10b: IOPS", |m| fmt_f64(m.iops))
    }

    /// Fig 10c: average device-level latency (ns).
    pub fn latency_table(&self) -> Table {
        self.table_of("Fig 10c: average I/O latency (ns)", |m| {
            fmt_f64(m.avg_latency_ns)
        })
    }

    /// Fig 10d: queue stall time normalized to VAS.
    pub fn queue_stall_table(&self) -> Table {
        let mut table = Table::new(
            "Fig 10d: device queue stall time (normalized to VAS)",
            std::iter::once("workload".to_string())
                .chain(SchedulerKind::ALL.iter().map(|k| k.label().to_string()))
                .collect(),
        );
        for workload in &self.workloads {
            let vas_stall = self
                .metrics(workload, SchedulerKind::Vas)
                .map(|m| m.queue_stall_ns as f64)
                .unwrap_or(0.0);
            let mut row = vec![workload.clone()];
            for kind in SchedulerKind::ALL {
                let value = self
                    .metrics(workload, kind)
                    .map(|m| {
                        if vas_stall <= 0.0 {
                            0.0
                        } else {
                            m.queue_stall_ns as f64 / vas_stall
                        }
                    })
                    .unwrap_or(0.0);
                row.push(fmt_f64(value));
            }
            table.add_row(row);
        }
        table
    }

    /// Geometric-mean speedup of `kind` over `baseline` in bandwidth.
    pub fn bandwidth_speedup(&self, kind: SchedulerKind, baseline: SchedulerKind) -> f64 {
        let mut product = 1.0f64;
        let mut count = 0usize;
        for workload in &self.workloads {
            let (Some(a), Some(b)) = (
                self.metrics(workload, kind),
                self.metrics(workload, baseline),
            ) else {
                continue;
            };
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
    pub fn latency_reduction(&self, kind: SchedulerKind, baseline: SchedulerKind) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for workload in &self.workloads {
            let (Some(a), Some(b)) = (
                self.metrics(workload, kind),
                self.metrics(workload, baseline),
            ) else {
                continue;
            };
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
        let comparison = run(&scale, Some(3));
        assert_eq!(comparison.workloads.len(), 3);
        assert_eq!(comparison.cells.len(), 15);

        // SPK3 beats VAS in bandwidth and latency on average.
        assert!(comparison.bandwidth_speedup(SchedulerKind::Spk3, SchedulerKind::Vas) > 1.0);
        assert!(comparison.latency_reduction(SchedulerKind::Spk3, SchedulerKind::Vas) > 0.0);

        // Tables render one row per workload.
        assert_eq!(comparison.bandwidth_table().row_count(), 3);
        assert_eq!(comparison.iops_table().row_count(), 3);
        assert_eq!(comparison.latency_table().row_count(), 3);
        assert_eq!(comparison.queue_stall_table().row_count(), 3);
        assert!(comparison.bandwidth_table().render().contains("SPK3"));
    }
}
