//! Plain-text table rendering for benchmark outputs.
//!
//! Every table/figure binary in `lina-bench` prints its results through
//! this renderer so outputs stay uniform and greppable.

use std::fmt::Write as _;

/// A simple text table builder.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers. The
    /// first column (labels) renders left-aligned, the rest (numbers)
    /// right-aligned.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "Table::row: expected {} cells, got {}",
            self.headers.len(),
            cells.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// The table title.
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

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                let pad = widths[i].saturating_sub(cell.chars().count());
                if i == 0 {
                    line.push_str(cell);
                    line.extend(std::iter::repeat_n(' ', pad));
                } else {
                    line.extend(std::iter::repeat_n(' ', pad));
                    line.push_str(cell);
                }
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", render_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }
}

/// Formats a byte count with binary units.
pub fn format_bytes(bytes: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{:.0}{}", v, UNITS[unit])
    } else {
        format!("{:.2}{}", v, UNITS[unit])
    }
}

/// Formats a duration in seconds with an automatically chosen unit.
pub fn format_secs(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.0}ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2}us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.3}s", secs)
    }
}

/// Formats a ratio as a speedup, e.g. `1.57x`.
pub fn format_speedup(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Formats a fraction as a percentage, e.g. `36.7%`.
pub fn format_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("name"));
        assert!(lines[3].starts_with("alpha"));
        // Right-aligned numbers end at the same column.
        assert!(lines[3].ends_with('1'));
        assert!(lines[4].ends_with("12345"));
    }

    #[test]
    #[should_panic(expected = "expected 2 cells")]
    fn wrong_cell_count_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(format_bytes(512.0), "512B");
        assert_eq!(format_bytes(30.0 * 1024.0 * 1024.0), "30.00MiB");
        assert_eq!(format_secs(0.0000005), "500ns");
        assert_eq!(format_secs(0.00025), "250.00us");
        assert_eq!(format_secs(0.259), "259.00ms");
        assert_eq!(format_secs(1.5), "1.500s");
        assert_eq!(format_speedup(1.566), "1.57x");
        assert_eq!(format_pct(0.367), "36.7%");
    }
}
