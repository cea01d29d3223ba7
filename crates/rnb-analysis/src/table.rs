//! Aligned text tables and CSV output for the figure regenerators.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned table with a title, built row by row.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render as an aligned text block.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let head: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", head.join("  "));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Render as CSV (header + rows; cells containing commas or quotes
    /// are quoted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the CSV rendering to `path`, creating parent directories.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Format a float with 3 decimal places (the precision used across the
/// figure outputs).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["n", "value"]);
        t.row(&["1".into(), "10.5".into()]);
        t.row(&["20".into(), "3".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        assert!(r.starts_with("# Demo\n"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[1], " n  value");
        assert_eq!(lines[3], " 1   10.5");
        assert_eq!(lines[4], "20      3");
    }

    #[test]
    fn csv_output_and_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["plain".into(), "has,comma".into()]);
        t.row(&["has\"quote".into(), "ok".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "plain,\"has,comma\"");
        assert_eq!(lines[2], "\"has\"\"quote\",ok");
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("rnb-table-test");
        let path = dir.join("nested").join("t.csv");
        let t = sample();
        t.write_csv(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, t.to_csv());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_rejected() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
