//! CSV and report output helpers.

use std::fs;
use std::path::Path;

use batsolv_types::Result;

/// Write a CSV file (header + rows) into the output directory.
pub fn write_csv(out_dir: &Path, name: &str, header: &str, rows: &[String]) -> Result<()> {
    fs::create_dir_all(out_dir)?;
    let mut content = String::with_capacity(rows.len() * 64 + header.len() + 1);
    content.push_str(header);
    content.push('\n');
    for row in rows {
        content.push_str(row);
        content.push('\n');
    }
    fs::write(out_dir.join(name), content)?;
    Ok(())
}

/// Append a section to the combined report file.
pub fn append_report(out_dir: &Path, section: &str) -> Result<()> {
    fs::create_dir_all(out_dir)?;
    let path = out_dir.join("report.txt");
    let mut existing = fs::read_to_string(&path).unwrap_or_default();
    existing.push_str(section);
    existing.push('\n');
    fs::write(path, existing)?;
    Ok(())
}

/// Format seconds with an adaptive unit.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.3} us", seconds * 1e6)
    }
}

/// A minimal fixed-width text table builder for report sections.
#[derive(Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
        }
    }

    /// Add one row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "table arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, v)| format!("{:<w$}", v, w = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("batsolv_out_{}", std::process::id()));
        write_csv(&dir, "t.csv", "a,b", &["1,2".into(), "3,4".into()]).unwrap();
        let text = fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(2.5), "2.500 s");
        assert_eq!(fmt_time(0.0025), "2.500 ms");
        assert_eq!(fmt_time(2.5e-6), "2.500 us");
    }

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("name    value"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_wrong_arity() {
        TextTable::new(&["a", "b"]).row(&["only-one".into()]);
    }
}
