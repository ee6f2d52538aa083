//! Plain-text report tables for the experiment binaries.

use mks_trace::Snapshot;

/// A fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align numeric-looking cells, left-align text.
                let numeric = c
                    .chars()
                    .next()
                    .is_some_and(|ch| ch.is_ascii_digit() || ch == '-')
                    && c.chars().all(|ch| {
                        ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == '%' || ch == 'x'
                    });
                if numeric {
                    line.push_str(&format!("{c:>w$}", w = width[i]));
                } else {
                    line.push_str(&format!("{c:<w$}", w = width[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
        }
        out
    }
}

/// Renders the per-layer cycle breakdown of a flight-recorder snapshot:
/// for each layer, completed spans, inclusive cycles, exclusive cycles,
/// and the layer's share of all exclusive time ("where the cycles go").
pub(crate) fn layer_breakdown(snap: &Snapshot) -> Table {
    let total_excl: u64 = snap.layers.iter().map(|l| l.exclusive).sum();
    let mut t = Table::new(&[
        "layer",
        "spans",
        "inclusive (cyc)",
        "exclusive (cyc)",
        "share",
    ]);
    for l in &snap.layers {
        let share = if total_excl == 0 {
            0.0
        } else {
            100.0 * l.exclusive as f64 / total_excl as f64
        };
        t.row(&[
            l.layer.as_str().into(),
            l.spans.to_string(),
            l.inclusive.to_string(),
            l.exclusive.to_string(),
            format!("{share:.1}%"),
        ]);
    }
    t
}

/// Parses a registry JSON snapshot — as emitted by `Snapshot::to_json`
/// or read back through the metering gate — and renders the per-layer
/// breakdown. The JSON form is integers-and-strings only, so nothing is
/// lost between the kernel's recorder and this table.
pub fn layer_breakdown_from_json(json: &str) -> Result<Table, String> {
    Ok(layer_breakdown(&Snapshot::from_json(json)?))
}

/// Writes experiment output under `results/` (created on demand),
/// returning the path written.
pub fn write_result(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Renders a section banner naming the experiment and the paper's claim.
pub(crate) fn banner(experiment: &str, claim: &str) -> String {
    let rule = "=".repeat(72);
    format!("{rule}\n{experiment}\npaper: {claim}\n{rule}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_padded_columns() {
        let mut t = Table::new(&["config", "entries"]);
        t.row(&["legacy".into(), "100".into()]);
        t.row(&["kernel".into(), "53".into()]);
        let s = t.render();
        assert!(s.contains("legacy"));
        assert_eq!(s.lines().count(), 4);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].ends_with("100"));
        assert!(lines[3].ends_with(" 53"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_are_bugs() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn layer_breakdown_renders_from_json_without_loss() {
        use mks_trace::{Clock, Layer, TraceHandle};
        let clock = Clock::new();
        let t = TraceHandle::new(clock.clone());
        let outer = t.span(Layer::Hw, "gate");
        clock.advance(10);
        {
            let _inner = t.span(Layer::Vm, "fault");
            clock.advance(30);
        }
        outer.end();
        let json = t.snapshot().to_json();
        let table = layer_breakdown_from_json(&json).expect("valid snapshot JSON");
        let s = table.render();
        assert!(s.contains("hw"), "hw layer row: {s}");
        assert!(s.contains("vm"));
        // hw exclusive 10, vm exclusive 30 → shares 25% / 75%.
        assert!(s.contains("25.0%"), "{s}");
        assert!(s.contains("75.0%"), "{s}");
    }
}
