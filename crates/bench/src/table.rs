//! Minimal aligned-table printing for the `tables` binary.

/// A printable table: a title, column headers, and string rows.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
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

    /// Renders the table as a JSON object `{"title", "headers", "rows"}` —
    /// the machine-readable twin of [`Table::render`], consumed by
    /// `BENCH_tables.json`.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| {
            let mut out = String::from('"');
            bmx_trace::chrome::escape(s, &mut out);
            out.push('"');
            out
        };
        let list = |cells: &[String]| cells.iter().map(|c| esc(c)).collect::<Vec<_>>().join(", ");
        let rows = self
            .rows
            .iter()
            .map(|r| format!("      [{}]", list(r)))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n    \"title\": {},\n    \"headers\": [{}],\n    \"rows\": [\n{}\n    ]\n  }}",
            esc(&self.title),
            list(&self.headers),
            rows
        )
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "20000000".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long_header"));
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn json_escapes_and_nests() {
        let mut t = Table::new("q\"uote", &["a", "b"]);
        t.row(vec!["1".into(), "x\\y".into()]);
        let j = t.to_json();
        assert!(j.contains(r#""title": "q\"uote""#));
        assert!(j.contains(r#""x\\y""#));
        assert!(j.contains(r#""headers": ["a", "b"]"#));
    }
}
