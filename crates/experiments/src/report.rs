//! Plain-text table rendering for experiment results.

use std::fmt;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use sprinkler_experiments::Table;
///
/// let mut t = Table::new("Demo", vec!["workload".into(), "VAS".into(), "SPK3".into()]);
/// t.add_row(vec!["cfs0".into(), "100.0".into(), "220.0".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("Demo"));
/// assert!(rendered.contains("cfs0"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: Vec<String>) -> Self {
        Table {
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.  Rows shorter than the header are padded with blanks.
    pub fn add_row(&mut self, mut row: Vec<String>) {
        while row.len() < self.header.len() {
            row.push(String::new());
        }
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let format_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(columns) {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&format_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format_row(row));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Lays a grid out as a table: one row per `(label, row)` and one column per
/// `(header, column)`, each entry `entry(row, column)`.  `corner` heads the
/// label column.
pub(crate) fn grid_table<R, C>(
    title: impl Into<String>,
    corner: &str,
    rows: impl IntoIterator<Item = (String, R)>,
    columns: impl IntoIterator<Item = (String, C)>,
    entry: impl Fn(&R, &C) -> String,
) -> Table {
    let (headers, columns): (Vec<String>, Vec<C>) = columns.into_iter().unzip();
    let mut table = Table::new(
        title,
        std::iter::once(corner.to_string()).chain(headers).collect(),
    );
    for (label, row) in rows {
        let entries = columns.iter().map(|column| entry(&row, column));
        table.add_row(std::iter::once(label).chain(entries).collect());
    }
    table
}

/// Formats a float with a sensible number of digits for table cells.
pub fn fmt_f64(value: f64) -> String {
    if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else if value.abs() >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

/// Formats a fraction as a percentage cell.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns_and_counts_rows() {
        let mut t = Table::new("T", vec!["a".into(), "bbbb".into()]);
        t.add_row(vec!["xxxxx".into(), "1".into()]);
        t.add_row(vec!["y".into()]);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.header().len(), 2);
        let s = t.render();
        assert!(s.contains("== T =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, and two data rows after the title.
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("a"));
        assert!(lines[3].starts_with("xxxxx"));
        assert_eq!(format!("{t}"), s);
    }

    #[test]
    fn grid_table_fills_one_entry_per_row_and_column() {
        let t = grid_table(
            "G",
            "row",
            [("a".to_string(), 1), ("b".to_string(), 2)],
            [("x10".to_string(), 10), ("x100".to_string(), 100)],
            |r, c| (r * c).to_string(),
        );
        assert_eq!(t.header(), ["row", "x10", "x100"]);
        assert_eq!(t.row_count(), 2);
        assert!(t.render().contains("b    20   200"));
    }

    #[test]
    fn float_formatting_scales_precision() {
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(42.42), "42.4");
        assert_eq!(fmt_f64(1.2345), "1.234");
        assert_eq!(fmt_pct(0.1234), "12.3%");
    }
}
