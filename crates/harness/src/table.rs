//! Plain-text aligned tables — every experiment prints one of these
//! (DESIGN.md §4 maps each experiment to its claim).

use std::fmt;

/// A titled table with a header row and data rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (experiment id and what it shows).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Convenience: appends a row of displayable cells.
    pub fn push<D: fmt::Display>(&mut self, cells: &[D]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
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
        writeln!(f, "### {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {c:>width$} |", width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with three significant decimals.
#[must_use]
pub fn fmt_ms(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a ratio as `x.xx×`.
#[must_use]
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.push(&["4", "10"]);
        t.push(&["128", "2"]);
        let s = t.to_string();
        assert!(s.contains("### demo"));
        assert!(s.contains("|   n | value |"));
        assert!(s.contains("| 128 |     2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(&["only-one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_ms(1.23456), "1.235");
        assert_eq!(fmt_ratio(2.5), "2.50x");
    }
}
