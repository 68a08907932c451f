//! ASCII table rendering for experiment output.
//!
//! Every experiment module renders its result through [`Table`], so the
//! bench harness prints paper-style rows that are easy to diff against
//! EXPERIMENTS.md.

use std::fmt;

/// A simple right-padded ASCII table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
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
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {:<width$} |", cell, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &sep)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a ratio as a percentage with 4 decimals (Figure 7 style).
pub fn percent(ratio: f64) -> String {
    format!("{:.4}%", ratio * 100.0)
}

/// Formats picojoules as nanojoules with 3 decimals (Table 3 style).
pub fn nanojoules(pj: u64) -> String {
    format!("{:.3} nJ", pj as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["a-much-longer-name".into(), "22".into()]);
        let s = t.to_string();
        assert!(s.starts_with("## Demo"));
        assert!(s.contains("| name               | value |"));
        assert!(s.contains("| a-much-longer-name | 22    |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new("t", &["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(percent(0.0482), "4.8200%");
        assert_eq!(nanojoules(11_490), "11.490 nJ");
    }
}
