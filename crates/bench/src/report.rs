//! Result-table formatting: aligned plain text for the terminal plus CSV
//! files under `results/` so the experiment outputs can be plotted.

#![expect(
    clippy::disallowed_methods,
    reason = "result-table CSV output is harness reporting"
)]

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple column-oriented result table.
#[derive(Clone, Debug)]
pub struct ResultTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row; its length must match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:<width$}", h, width = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering into `<dir>/<file_stem>.csv` and returns the
    /// path written.
    pub fn write_csv(&self, dir: &Path, file_stem: &str) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{file_stem}.csv"));
        let mut file = fs::File::create(&path)?;
        file.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }
}

/// Writes a JSON artifact into `<dir>/<file_stem>.json` and returns the path
/// written.
pub fn write_json(dir: &Path, file_stem: &str, json: &str) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{file_stem}.json"));
    fs::write(&path, json)?;
    Ok(path)
}

/// Writes a bench bin's JSON artifact to `BENCH_<name>.json` in the current
/// directory (the workspace root under CI, where the workflow uploads them),
/// returning the path written. Every bench bin routes its artifact through
/// here so the naming scheme lives in exactly one place.
pub fn write_bench_artifact(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    let mut file = fs::File::create(&path)?;
    file.write_all(json.as_bytes())?;
    Ok(path)
}

/// The default output directory for experiment results (`results/` at the
/// workspace root, overridable with `HYDRA_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("HYDRA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Formats a `Duration` with millisecond precision in seconds.
pub fn fmt_secs(d: std::time::Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Formats a ratio as a percentage with one decimal.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn text_rendering_is_aligned_and_complete() {
        let mut t = ResultTable::new("demo", &["method", "time"]);
        t.push_row(vec!["ADS+".into(), "1.5".into()]);
        t.push_row(vec!["a-very-long-method-name".into(), "2".into()]);
        let text = t.to_text();
        assert!(text.contains("## demo"));
        assert!(text.contains("ADS+"));
        assert!(text.contains("a-very-long-method-name"));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn csv_rendering_escapes_commas() {
        let mut t = ResultTable::new("demo", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"x,y\",plain"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let mut t = ResultTable::new("demo", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_files_are_written() {
        let dir = std::env::temp_dir().join("hydra_bench_report_test");
        let mut t = ResultTable::new("demo", &["a"]);
        t.push_row(vec!["1".into()]);
        let path = t.write_csv(&dir, "demo").unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn bench_artifacts_are_named_uniformly() {
        let path = write_bench_artifact("report_test_demo", "{\"ok\":true}").unwrap();
        assert_eq!(path, PathBuf::from("BENCH_report_test_demo.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.5000");
        assert_eq!(fmt_pct(0.725), "72.5%");
        assert!(results_dir().to_string_lossy().contains("results"));
    }
}
