//! Plain-text table rendering and CSV output for experiment results.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A simple column-aligned table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[cfg_attr(not(test), allow(dead_code))] // used by the test suite
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows present.
    #[cfg_attr(not(test), allow(dead_code))] // used by the test suite
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}", c, width = widths[i]);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Writes the table as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        f.flush()
    }
}

/// Formats seconds as milliseconds with three decimals.
pub fn ms(t: f64) -> String {
    format!("{:.3}", t * 1e3)
}

/// Formats a ratio with one decimal and an `x` suffix.
pub fn speedup(r: f64) -> String {
    format!("{r:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["stars", "time"]);
        t.row(vec!["32", "1.5"]);
        t.row(vec!["131072", "220.25"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("stars"));
        assert!(lines[3].trim_start().starts_with("131072"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        let dir = std::env::temp_dir().join("starsim_fmt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.csv");
        t.write_csv(&p).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
    }

    #[test]
    fn helpers() {
        assert_eq!(ms(0.0015), "1.500");
        assert_eq!(speedup(97.3), "97.3x");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }
}
