//! Plain-text result tables — the "rows the paper would report".

use serde::Serialize;
use swn_topology::distribution::ols_slope;

/// A printable experiment result table.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Experiment id + one-line title.
    pub title: String,
    /// What the paper claims, and what shape to look for in the rows.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (stringified cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, claim: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            claim: claim.into(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        if !self.claim.is_empty() {
            out.push_str(&format!("   claim: {}\n", self.claim));
        }
        let line = |cells: &[String], widths: &[usize]| -> String {
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

    /// Prints the rendered table to stdout.
    #[expect(
        clippy::print_stdout,
        reason = "Table is the experiments' console surface"
    )]
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum of a slice (0 for empty).
pub fn fmax(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Fits `y ≈ c · ln^e(n)` over `(n, y)` pairs and returns the exponent
/// `e` — the scaling diagnostic for the paper's O(ln^(2+ε) n) claims.
/// Polylog data yields a small constant; linear data yields an exponent
/// that grows with the range (clearly > 4 on our sweeps).
pub fn polylog_exponent(points: &[(f64, f64)]) -> Option<f64> {
    let transformed: Vec<(f64, f64)> = points
        .iter()
        .filter(|(n, y)| *n > 1.0 && *y > 0.0)
        .map(|(n, y)| (n.ln().ln(), y.ln()))
        .collect();
    ols_slope(&transformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", "c", &["n", "hops"]);
        t.push_row(vec!["128".into(), "3.14".into()]);
        t.push_row(vec!["4096".into(), "10.00".into()]);
        let r = t.render();
        assert!(r.contains("== T =="));
        assert!(r.contains("claim: c"));
        assert!(r.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("T", "", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(fmax(&[1.0, 5.0, 3.0]), 5.0);
    }

    #[test]
    fn polylog_exponent_of_ln_squared_is_two() {
        let pts: Vec<(f64, f64)> = [64.0, 256.0, 1024.0, 4096.0, 16384.0]
            .iter()
            .map(|&n: &f64| (n, n.ln().powi(2)))
            .collect();
        let e = polylog_exponent(&pts).unwrap();
        assert!((e - 2.0).abs() < 1e-6, "exponent {e}");
    }

    #[test]
    fn polylog_exponent_flags_linear_growth() {
        let pts: Vec<(f64, f64)> = [64.0, 256.0, 1024.0, 4096.0, 16384.0]
            .iter()
            .map(|&n: &f64| (n, n))
            .collect();
        let e = polylog_exponent(&pts).unwrap();
        assert!(e > 4.0, "linear data must show a huge exponent, got {e}");
    }
}
