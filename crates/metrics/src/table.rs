//! Experiment table rendering: aligned markdown (what the DESIGN.md §5
//! binaries print).

use std::fmt::Write as _;

/// A simple rectangular results table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(title: &str, headers: I) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders an aligned GitHub-flavoured markdown table preceded by a
    /// bold title line.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "**{}**\n", self.title);
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (w, cell) in widths.iter().zip(cells) {
                let _ = write!(line, " {cell:<w$} |");
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<1$}|", "", w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

/// Formats a float with 2 decimals ("3.00"); infinities as "∞".
pub fn f2(x: f64) -> String {
    if x.is_infinite() {
        "∞".to_string()
    } else {
        format!("{x:.2}")
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    if x.is_infinite() {
        "∞".to_string()
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_is_aligned() {
        let mut t = Table::new("demo", ["n", "value"]);
        t.push_row(["8", "1.00"]);
        t.push_row(["1024", "3.14"]);
        let md = t.to_markdown();
        assert!(md.starts_with("**demo**"));
        assert!(md.contains("| n    | value |"));
        assert!(md.contains("| 1024 | 3.14  |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", ["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(4.14159), "4.14");
        assert_eq!(f3(2.0), "2.000");
        assert_eq!(f2(f64::INFINITY), "∞");
    }
}
