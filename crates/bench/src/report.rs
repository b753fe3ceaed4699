//! Markdown table rendering: the one table renderer behind the
//! reproduction report and the binaries' stdout.
//!
//! # Examples
//!
//! ```
//! use bench::report::{markdown_table, percent};
//!
//! let t = markdown_table(&["defect", "coverage"], &[vec!["Gate open".to_string(), percent(0.878)]]);
//! assert_eq!(t, "| defect | coverage |\n|---|---|\n| Gate open | 87.8 % |\n");
//! ```

/// Formats a fraction as `"87.8 %"`.
pub fn percent(fraction: f64) -> String {
    format!("{:.1} %", fraction * 100.0)
}

/// Formats a value for a table cell: integers bare, anything else to
/// three decimals.
pub fn number(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders a GitHub-flavoured markdown table: a header row, a `|---|`
/// rule and one line per row, cells unpadded.
///
/// # Panics
///
/// Panics if any row's cell count differs from the header's.
pub fn markdown_table<S: AsRef<str>>(headers: &[&str], rows: &[Vec<S>]) -> String {
    let line = |cells: Vec<&str>| format!("| {} |\n", cells.join(" | "));
    let mut out = line(headers.to_vec());
    out.push_str(&"|---".repeat(headers.len()));
    out.push_str("|\n");
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        out.push_str(&line(row.iter().map(AsRef::as_ref).collect()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(0.504), "50.4 %");
        assert_eq!(percent(1.0), "100.0 %");
        assert_eq!(percent(0.0), "0.0 %");
    }

    #[test]
    fn markdown_table_rows() {
        let t = markdown_table(
            &["entity", "number"],
            &[vec!["Flip-flop", "7"], vec!["Comparators (DC)", "4"]],
        );
        assert_eq!(
            t,
            "| entity | number |\n|---|---|\n| Flip-flop | 7 |\n| Comparators (DC) | 4 |\n"
        );
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn ragged_rows_panic() {
        let _ = markdown_table(&["a", "b"], &[vec!["x"]]);
    }
}
