//! Experiment output helpers: aligned text tables for stdout and JSON files
//! for `results/`.

use serde::Serialize;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Render an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(widths.iter()) {
        let _ = write!(line, "{:<width$}  ", h, width = w);
    }
    out.push_str(line.trim_end());
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * cols;
    out.push_str(&"-".repeat(total.saturating_sub(2)));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(widths.iter()) {
            let _ = write!(line, "{:<width$}  ", cell, width = w);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Write a serializable result to `results/<name>.json` (creating dirs).
pub fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", name));
    let json = serde_json::to_string_pretty(value).expect("serializable result");
    fs::write(path, json)
}

/// Render rows as CSV with a header (RFC-4180-style quoting for cells that
/// need it) — spreadsheet-friendly twin of [`table`].
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn cell(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| cell(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch");
        out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Write rows to `results/<name>.csv` (creating dirs).
pub fn write_csv(
    dir: &Path,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{}.csv", name)), csv(headers, rows))
}

/// Format a float with fixed precision, trimming noise.
pub fn f1(v: f64) -> String {
    format!("{:.1}", v)
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{:.3}", v)
}

/// Format microseconds as milliseconds.
pub fn ms(us: f64) -> String {
    format!("{:.1}", us / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["a", "long_header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    long_header"));
        assert!(lines[2].starts_with("1"));
        assert!(lines[3].starts_with("333"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let _ = table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn json_written_to_disk() {
        let dir = std::env::temp_dir().join("ffsva_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_json(&dir, "x", &serde_json::json!({"k": 1})).unwrap();
        let s = std::fs::read_to_string(dir.join("x.json")).unwrap();
        assert!(s.contains("\"k\": 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_quotes_when_needed() {
        let s = csv(
            &["a", "b"],
            &[
                vec!["1,5".into(), "plain".into()],
                vec!["say \"hi\"".into(), "x".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "\"1,5\",plain");
        assert_eq!(lines[2], "\"say \"\"hi\"\"\",x");
    }

    #[test]
    fn csv_written_to_disk() {
        let dir = std::env::temp_dir().join("ffsva_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_csv(&dir, "t", &["x"], &[vec!["1".into()]]).unwrap();
        let s = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(s, "x\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(ms(1500.0), "1.5");
    }
}
