//! ASCII tables for experiment output.
//!
//! The bench binaries print paper-style tables; this keeps the formatting
//! in one place so every experiment reads the same way.

use std::fmt;

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new<T, I, S>(title: T, headers: I) -> Table
    where
        T: Into<String>,
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are headers.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            row.len() <= self.headers.len(),
            "row has {} cells, table has {} columns",
            row.len(),
            self.headers.len()
        );
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line_len = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        writeln!(f, "{}", self.title)?;
        writeln!(f, "{}", "=".repeat(line_len.max(self.title.len())))?;
        write!(f, "|")?;
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, " {h:<w$} |")?;
        }
        writeln!(f)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:>w$} |")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Formats a float with engineering-style precision for table cells.
pub fn fmt_f64(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1_000.0 {
        format!("{value:.0}")
    } else if value.abs() >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", ["name", "value"]);
        t.row(["alpha", "1"]).row(["b", "12345"]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("| alpha |"));
        assert!(s.contains("| 12345 |"));
        // All data lines have equal length.
        let lines: Vec<&str> = s.lines().skip(2).collect();
        let lens: std::collections::HashSet<usize> = lines.iter().map(|l| l.len()).collect();
        assert_eq!(lens.len(), 1, "{s}");
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("t", ["a", "b", "c"]);
        t.row(["1"]);
        assert_eq!(t.rows()[0], vec!["1", "", ""]);
    }

    #[test]
    #[should_panic(expected = "row has 3 cells")]
    fn long_rows_panic() {
        let mut t = Table::new("t", ["a"]);
        t.row(["1", "2", "3"]);
    }

    #[test]
    fn fmt_f64_precision_tiers() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1234.5), "1234");
        assert_eq!(fmt_f64(42.25), "42.2");
        assert_eq!(fmt_f64(1.23456), "1.235");
    }

    #[test]
    fn accessors() {
        let mut t = Table::new("t", ["a"]);
        assert!(t.is_empty());
        t.row(["1"]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.title(), "t");
        assert_eq!(t.headers(), &["a".to_string()]);
    }
}
