//! Aligned text tables and CSV output, and the one path to standard
//! output.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The first error writing standard output, if any.
static STDOUT_ERROR: OnceLock<std::io::Error> = OnceLock::new();

/// Writes one line to standard output. Every line `repro` prints comes
/// through here (the `say!` macro): a failed write, from a closed pipe
/// or a full disk, is recorded instead of panicking as `println!` does,
/// so it stops neither the run nor its CSVs, and `main` reports it once
/// at exit ([`stdout_error`]).
pub(crate) fn say(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        let _ = STDOUT_ERROR.set(e);
    }
}

/// The first error [`say`] met, if any.
pub(crate) fn stdout_error() -> Option<&'static std::io::Error> {
    STDOUT_ERROR.get()
}

/// Errors from building or writing a [`Table`].
#[derive(Debug)]
pub enum TableError {
    /// A row's cell count does not match the header.
    WidthMismatch {
        /// Columns in the header.
        expected: usize,
        /// Cells in the offending row.
        got: usize,
    },
    /// Writing the CSV file, or creating its directory, failed.
    Io {
        /// The destination path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::WidthMismatch { expected, got } => {
                write!(f, "row width mismatch: table has {expected} columns, row has {got}")
            }
            TableError::Io { path, source } => {
                write!(f, "writing {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::WidthMismatch { .. } => None,
            TableError::Io { source, .. } => Some(source),
        }
    }
}

/// A simple column-aligned table that can also serialize itself as CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Errors
    ///
    /// Returns [`TableError::WidthMismatch`] if the cell count differs
    /// from the header's column count.
    pub fn row(&mut self, cells: &[String]) -> Result<&mut Self, TableError> {
        if cells.len() != self.header.len() {
            return Err(TableError::WidthMismatch {
                expected: self.header.len(),
                got: cells.len(),
            });
        }
        self.rows.push(cells.to_vec());
        Ok(self)
    }

    /// Convenience for string-slice rows.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::WidthMismatch`] if the cell count differs
    /// from the header's column count.
    pub fn row_strs(&mut self, cells: &[&str]) -> Result<&mut Self, TableError> {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:<width$}", cell, width = widths[i]);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        // `saturating_sub` guards the zero-column table, which would
        // otherwise underflow the separator width.
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        say!("{}", self.render());
    }

    /// CSV form (header + rows), quoted per RFC 4180: fields containing
    /// commas, quotes, or line breaks are wrapped in double quotes with
    /// embedded quotes doubled. Cell contents are never altered.
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| -> String {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Writes the CSV form to `path` atomically: the bytes land in a
    /// sibling temp file first and are renamed into place, so a crash
    /// mid-write never leaves a truncated artifact where a complete one
    /// is expected (the kill-and-resume guarantee for `repro all`).
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Io`] if the file cannot be written.
    pub fn write_csv(&self, path: &Path) -> Result<(), TableError> {
        let io_err = |source| TableError::Io { path: path.to_path_buf(), source };
        let tmp = path.with_extension(format!("csv.tmp{}", std::process::id()));
        std::fs::write(&tmp, self.to_csv()).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)?;
        say!("[csv] {}", path.display());
        Ok(())
    }
}

/// Formats a float with `digits` decimal places.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row_strs(&["a", "1"]).unwrap();
        t.row_strs(&["longer", "22"]).unwrap();
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("name    value"));
        assert!(r.contains("longer  22"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn renders_empty_header_without_panicking() {
        let t = Table::new("empty", &[]);
        let r = t.render();
        assert!(r.contains("## empty"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("", &["a", "b"]);
        t.row_strs(&["x,y", "2"]).unwrap();
        // RFC 4180: the comma-bearing cell is quoted, not rewritten.
        assert_eq!(t.to_csv(), "a,b\n\"x,y\",2\n");
    }

    #[test]
    fn csv_escapes_quotes_and_newlines() {
        let mut t = Table::new("", &["a", "b"]);
        t.row_strs(&["say \"hi\"", "line1\nline2"]).unwrap();
        assert_eq!(t.to_csv(), "a,b\n\"say \"\"hi\"\"\",\"line1\nline2\"\n");
    }

    #[test]
    fn row_width_checked() {
        let err = Table::new("", &["a", "b"]).row_strs(&["only-one"]).unwrap_err();
        assert!(matches!(err, TableError::WidthMismatch { expected: 2, got: 1 }));
        assert!(err.to_string().contains("row width mismatch"));
    }

    #[test]
    fn helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn write_csv_roundtrip() {
        let mut t = Table::new("t", &["x"]);
        t.row_strs(&["1"]).unwrap();
        let dir = std::env::temp_dir().join("locality-repro-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.csv");
        t.write_csv(&p).unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "x\n1\n");
    }

    #[test]
    fn write_csv_reports_the_path_on_error() {
        let t = Table::new("t", &["x"]);
        let p = Path::new("/nonexistent-dir/locality-repro/t.csv");
        let err = t.write_csv(p).unwrap_err();
        assert!(err.to_string().contains("/nonexistent-dir"));
    }
}
