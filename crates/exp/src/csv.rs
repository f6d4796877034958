//! Minimal CSV emission.
//!
//! `ct fig` prints every figure's series to stdout as an aligned table
//! ([`CsvTable::to_aligned`]) and writes the same rows to
//! `results/<figure>.csv`. Hand-rolled (quoting only what needs
//! quoting) to keep the dependency set at the workspace baseline.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// An in-memory CSV table.
#[derive(Clone, Debug, Default)]
pub struct CsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Quote a field iff it contains a comma, quote or newline.
fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

impl CsvTable {
    /// Create a table with the given column names.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> CsvTable {
        CsvTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn row<S: Into<String>>(&mut self, fields: impl IntoIterator<Item = S>) {
        let row: Vec<String> = fields.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// No data rows?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The header, then every row.
    fn lines(&self) -> impl Iterator<Item = &Vec<String>> {
        std::iter::once(&self.header).chain(&self.rows)
    }

    /// Render to a CSV string (header + rows, `\n`-terminated lines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for fields in self.lines() {
            let line: Vec<String> = fields.iter().map(|f| quote(f)).collect();
            let _ = writeln!(out, "{}", line.join(","));
        }
        out
    }

    /// Render as an aligned text table: every column padded to its
    /// widest cell, columns two spaces apart, a rule under the header.
    pub fn to_aligned(&self) -> String {
        let widths: Vec<usize> = (0..self.header.len())
            .map(|c| self.lines().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (i, fields) in self.lines().enumerate() {
            let line: Vec<String> = fields
                .iter()
                .zip(&widths)
                .map(|(f, w)| format!("{f:<w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
            if i == 0 {
                let rule = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
                let _ = writeln!(out, "{}", "-".repeat(rule));
            }
        }
        out
    }

    /// Write to a file, creating parent directories.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Format a float with enough (but not absurd) precision for a CSV.
pub fn fmt_f64(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 {
        format!("{:.0}", v)
    } else {
        format!("{:.4}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["1", "2"]);
        t.row(["x", "y"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\nx,y\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn aligned_table_pads_the_unquoted_cells() {
        let mut t = CsvTable::new(["series", "p"]);
        t.row(["a,b", "4096"]);
        assert_eq!(t.to_aligned(), "series  p   \n------------\na,b     4096\n");
    }

    #[test]
    fn quotes_only_when_needed() {
        let mut t = CsvTable::new(["v"]);
        t.row(["plain"]);
        t.row(["with,comma"]);
        t.row(["with\"quote"]);
        assert_eq!(t.to_csv(), "v\nplain\n\"with,comma\"\n\"with\"\"quote\"\n");
    }

    #[test]
    #[should_panic(expected = "width")]
    fn row_width_is_enforced() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(1.23456), "1.2346");
        assert_eq!(fmt_f64(0.5), "0.5000");
    }

    #[test]
    fn writes_file() {
        let dir = std::env::temp_dir().join("ct-exp-csv-test");
        let path = dir.join("t.csv");
        let mut t = CsvTable::new(["x"]);
        t.row(["1"]);
        t.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
