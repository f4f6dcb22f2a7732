//! Text-table and CSV rendering for the experiment harness.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use lva_trace::Json;

/// A simple right-padded text table that can also serialize to CSV.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(std::string::ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. A column count differing from the header is a caller
    /// bug: debug builds assert; release builds normalize the row (truncate
    /// or pad with empty cells) so an experiment binary never dies mid-sweep
    /// over a cosmetic reporting slip.
    pub fn row(&mut self, mut cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(std::string::String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            for i in 0..ncols {
                let _ = write!(out, "{:<w$}  ", cells[i], w = widths[i]);
            }
            let _ = writeln!(out);
        };
        line(&mut out, &self.headers);
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        line(&mut out, &sep);
        for r in &self.rows {
            line(&mut out, r);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// CSV serialization (quotes cells containing separators).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for r in &self.rows {
            let _ = writeln!(out, "{}", r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Write CSV under `results/<name>.csv` (creating the directory).
    pub fn save_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = Path::new("results");
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// The table as a JSON value: `{title, headers, rows}` with rows as
    /// arrays of strings (the cells are already formatted for humans; the
    /// machine-readable counters live in `RunReport`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("title", self.title.as_str())
            .field(
                "headers",
                Json::Arr(self.headers.iter().map(|h| Json::from(h.as_str())).collect()),
            )
            .field(
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| Json::Arr(r.iter().map(|c| Json::from(c.as_str())).collect()))
                        .collect(),
                ),
            )
    }
}

/// Format a cycle count with thousands separators.
pub fn fmt_cycles(c: u64) -> String {
    let s = c.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(ch);
    }
    out
}

/// Format a ratio like "1.34x".
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long_header"));
        assert!(s.lines().count() == 5);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("t", &["x"]);
        t.row(vec!["a,b".into()]);
        t.row(vec!["q\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "column count"))]
    fn row_arity_normalized_in_release() {
        let mut t = Table::new("t", &["x", "y"]);
        t.row(vec!["1".into()]);
        // Release builds: the short row is padded instead of panicking.
        assert_eq!(t.rows[0], vec!["1".to_string(), String::new()]);
    }

    #[test]
    fn table_to_json_round_trips_cells() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x\"1".into(), "2".into()]);
        let j = t.to_json().to_string_compact();
        assert!(j.contains(r#""title":"demo""#));
        assert!(j.contains(r#"["x\"1","2"]"#));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_cycles(1234567), "1_234_567");
        assert_eq!(fmt_cycles(12), "12");
        assert_eq!(fmt_speedup(1.344), "1.34x");
    }
}
