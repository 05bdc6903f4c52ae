//! Table 1 — trace characteristics, regenerated from the synthetic workloads.

use sprinkler_workloads::{paper_workloads, TraceStats};

use crate::report::{fmt_f64, Table};
use crate::runner::ExperimentScale;

/// One regenerated row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Entry {
    /// Workload name.
    pub name: String,
    /// Measured statistics of the generated trace.
    pub stats: TraceStats,
    /// The transactional-locality class the workload was generated with.
    pub locality: String,
}

/// The regenerated Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Report {
    /// One entry per workload, in Table 1 order.
    pub entries: Vec<Table1Entry>,
}

/// Generates every paper workload at the given scale and recomputes its
/// characteristics.
pub fn run(scale: &ExperimentScale) -> Table1Report {
    let entries = sprinkler_workloads::table1::TABLE1
        .iter()
        .zip(paper_workloads())
        .map(|(row, spec)| {
            let trace = spec.generate(scale.ios_per_workload, 0x7AB1E1);
            Table1Entry {
                name: row.name.to_string(),
                stats: TraceStats::analyze(&trace),
                locality: row.locality.label().to_string(),
            }
        })
        .collect();
    Table1Report { entries }
}

impl Table1Report {
    /// Renders the table with the same columns the paper reports.
    pub fn render(&self) -> Table {
        let mut table = Table::new(
            "Table 1: trace characteristics (regenerated from synthetic workloads)",
            vec![
                "workload".into(),
                "read MB".into(),
                "write MB".into(),
                "reads".into(),
                "writes".into(),
                "rd rand %".into(),
                "wr rand %".into(),
                "locality".into(),
            ],
        );
        for entry in &self.entries {
            table.add_row(vec![
                entry.name.clone(),
                fmt_f64(entry.stats.read_bytes as f64 / 1024.0 / 1024.0),
                fmt_f64(entry.stats.write_bytes as f64 / 1024.0 / 1024.0),
                entry.stats.read_count.to_string(),
                entry.stats.write_count.to_string(),
                fmt_f64(entry.stats.read_randomness * 100.0),
                fmt_f64(entry.stats.write_randomness * 100.0),
                entry.locality.clone(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regenerates_sixteen_rows_with_expected_mixes() {
        let report = run(&ExperimentScale::quick());
        assert_eq!(report.entries.len(), 16);
        let hm1 = report.entries.iter().find(|e| e.name == "hm1").unwrap();
        assert!(hm1.stats.read_fraction() > 0.85, "hm1 is read-dominated");
        let msnfs0 = report.entries.iter().find(|e| e.name == "msnfs0").unwrap();
        assert!(
            msnfs0.stats.read_fraction() < 0.15,
            "msnfs0 is write-dominated"
        );
        let rendered = report.render().render();
        assert!(rendered.contains("cfs0"));
        assert!(rendered.contains("proj4"));
    }
}
