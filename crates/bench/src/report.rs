//! Experiment results: typed tables, the sample statistics behind every
//! timed cell, and the one writer of `BENCH_<id>.json`.

use std::fmt::{self, Write as _};

/// Durations in seconds, one per repetition, and the order statistics a
/// timed cell reports: median, quartiles and n.
#[derive(Debug, Clone, PartialEq)]
pub struct Series(Vec<f64>);

impl Series {
    /// # Panics
    /// On an empty sample: a cell that measured nothing is a bug.
    pub fn new(mut samples: Vec<f64>) -> Series {
        assert!(!samples.is_empty(), "a series needs at least one sample");
        samples.sort_by(f64::total_cmp);
        Series(samples)
    }

    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// The `p`-quantile, interpolated linearly between the two nearest
    /// samples.
    pub fn quantile(&self, p: f64) -> f64 {
        let pos = p.clamp(0.0, 1.0) * (self.0.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(self.0.len() - 1);
        self.0[lo] + (self.0[hi] - self.0[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn q1(&self) -> f64 {
        self.quantile(0.25)
    }

    pub fn q3(&self) -> f64 {
        self.quantile(0.75)
    }

    /// The highest whole percentile with at least ten samples above it,
    /// when that lies above the upper quartile (n > 40).
    pub fn tail(&self) -> Option<(usize, f64)> {
        let pct = 100usize.checked_sub(1000usize.div_ceil(self.n()))?;
        (pct > 75).then(|| (pct, self.quantile(pct as f64 / 100.0)))
    }
}

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Text(String),
    Count(u64),
    /// Durations, rendered as `median [q1–q3]` (and the tail, when n > 40).
    Series(Series),
    /// Per-round ratios; `None` when the series divided by is below noise.
    Ratio(Option<Series>),
}

impl Cell {
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    pub fn series(samples: Vec<f64>) -> Cell {
        Cell::Series(Series::new(samples))
    }

    /// The per-round ratio `num[i] / den[i]`. It is below noise when the
    /// inter-quartile range of `den` contains 0 (or lies below it: a cost
    /// net of its baseline that is not above 0 is not resolved from 0).
    pub fn ratio(num: &[f64], den: &[f64]) -> Cell {
        if Series::new(den.to_vec()).q1() <= 0.0 {
            return Cell::Ratio(None);
        }
        Cell::Ratio(Some(Series::new(
            num.iter().zip(den).map(|(n, d)| n / d).collect(),
        )))
    }

    fn json(&self, out: &mut String) {
        let series = |s: &Series, unit: &str| {
            format!(
                "{{\"median{unit}\": {}, \"q1{unit}\": {}, \"q3{unit}\": {}, \"n\": {}",
                num(s.median()),
                num(s.q1()),
                num(s.q3()),
                s.n()
            )
        };
        match self {
            Cell::Text(s) => quote(out, s),
            Cell::Count(n) => out.push_str(&n.to_string()),
            Cell::Series(s) => {
                out.push_str(&series(s, "_s"));
                if let Some((pct, x)) = s.tail() {
                    let _ = write!(out, ", \"p{pct}_s\": {}", num(x));
                }
                out.push('}');
            }
            Cell::Ratio(None) => quote(out, "below noise"),
            Cell::Ratio(Some(r)) => {
                let _ = write!(out, "{}, \"unresolved\": {}}}", series(r, ""), straddles(r));
            }
        }
    }
}

/// A ratio whose inter-quartile range straddles 1.0 decides nothing.
fn straddles(r: &Series) -> bool {
    r.q1() < 1.0 && r.q3() > 1.0
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Count(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Count(n as u64)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::text(s)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Count(n) => write!(f, "{n}"),
            Cell::Series(s) => {
                let top = s.median().abs().max(s.q1().abs()).max(s.q3().abs());
                let (scale, unit) = [(1.0, "s"), (1e3, "ms"), (1e6, "µs")]
                    .into_iter()
                    .find(|(k, _)| top * k >= 1.0)
                    .unwrap_or((1e9, "ns"));
                let v = |x: f64| short(x * scale);
                write!(f, "{} {unit} [{}–{}]", v(s.median()), v(s.q1()), v(s.q3()))?;
                match s.tail() {
                    Some((pct, x)) => write!(f, ", p{pct} {} {unit}", v(x)),
                    None => Ok(()),
                }
            }
            Cell::Ratio(None) => f.write_str("below noise"),
            Cell::Ratio(Some(r)) => {
                let body = format!("{:.2} [{:.2}–{:.2}]", r.median(), r.q1(), r.q3());
                if straddles(r) {
                    write!(f, "unresolved ({body})")
                } else {
                    f.write_str(&body)
                }
            }
        }
    }
}

/// Three significant figures, or the integer part when that is longer.
fn short(x: f64) -> String {
    match x.abs() {
        a if a >= 100.0 => format!("{x:.0}"),
        a if a >= 10.0 => format!("{x:.1}"),
        _ => format!("{x:.2}"),
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One experiment's results: a title, column headers, and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<Cell>>,
    /// Free-text notes printed under the table (scale, omissions…).
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    fn text_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|r| r.iter().map(Cell::to_string).collect())
            .collect()
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let rows = self.text_rows();
        let mut w: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        let line = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&w)
                .map(|(c, &width)| format!("{c:>width$}"))
                .collect();
            padded.join("  ")
        };
        let mut out = format!("== {} ==\n{}\n", self.title, line(&self.header));
        out.push_str(&"-".repeat(w.iter().sum::<usize>() + 2 * (w.len() - 1)));
        out.push('\n');
        for row in &rows {
            let _ = writeln!(out, "{}", line(row));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Render as a GitHub-flavoured markdown table (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = format!("### {}\n\n| {} |\n", self.title, self.header.join(" | "));
        let _ = writeln!(out, "|{}|", vec!["---"; self.header.len()].join("|"));
        for row in self.text_rows() {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n*{n}*");
        }
        out
    }

    /// The `BENCH_<id>.json` document: the host stamp, then one object per
    /// row keyed by the headers, then the notes.
    pub fn to_json(&self, id: &str, scale: &str, reps: usize) -> String {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut out = String::from("{\n  \"experiment\": ");
        quote(&mut out, id);
        out.push_str(",\n  \"title\": ");
        quote(&mut out, &self.title);
        let _ = write!(
            out,
            ",\n  \"host\": {{\"cores\": {cores}, \"degraded_host\": {}, \"scale\": ",
            cores == 1
        );
        quote(&mut out, scale);
        let _ = write!(out, ", \"reps\": {reps}, \"git_rev\": ");
        match git_rev() {
            Some(rev) => quote(&mut out, &rev),
            None => out.push_str("null"),
        }
        out.push_str("},\n  \"rows\": [");
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str(if r == 0 { "\n    {" } else { ",\n    {" });
            for (i, (h, c)) in self.header.iter().zip(row).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                quote(&mut out, h);
                out.push_str(": ");
                c.json(&mut out);
            }
            out.push('}');
        }
        out.push_str("\n  ],\n  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            quote(&mut out, n);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write [`Table::to_json`] to `BENCH_<id>.json` in the working
    /// directory and return the file name.
    pub fn write_json(&self, id: &str, scale: &str, reps: usize) -> std::io::Result<String> {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
            eprintln!(
                "WARNING: '{id}' ran on a single-core host; its timings are \
                 unrepresentative and BENCH_{id}.json is stamped \"degraded_host\": true"
            );
        }
        let path = format!("BENCH_{id}.json");
        std::fs::write(&path, self.to_json(id, scale, reps))?;
        Ok(path)
    }
}

/// The checkout's commit, when `git rev-parse` can name it.
fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !rev.trim().is_empty()).then(|| rev.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Table {
        let mut t = Table::new("Fig X", &["param", "C++", "JSM/C++"]);
        t.row(vec![
            Cell::from(0u64),
            Cell::series(vec![0.01, 0.012, 0.011]),
            Cell::ratio(&[0.02, 0.024, 0.022], &[0.01, 0.012, 0.011]),
        ]);
        t.row(vec![
            Cell::from(10_000u64),
            Cell::series(vec![1.5]),
            Cell::text("—"),
        ]);
        t.note("quick scale");
        t
    }

    #[test]
    fn renders_aligned() {
        let s = fig().render();
        assert!(s.contains("== Fig X =="));
        assert!(s.contains("note: quick scale"));
        let widths: Vec<usize> = s
            .lines()
            .skip(1)
            .take(4)
            .map(|l| l.chars().count())
            .collect();
        assert!(widths.iter().all(|&w| w == widths[0]), "{s}");
    }

    #[test]
    fn markdown_shape() {
        let md = fig().render_markdown();
        assert!(md.contains("### Fig X"));
        assert!(md.contains("| param | C++ | JSM/C++ |"));
        assert!(md.contains("|---|---|---|"));
        assert!(
            md.contains("| 0 | 11.0 ms [10.5–11.5] | 2.00 [2.00–2.00] |"),
            "{md}"
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec![Cell::from(1u64)]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(Cell::series(vec![1.5]).to_string(), "1.50 s [1.50–1.50]");
        assert_eq!(
            Cell::series(vec![0.000_16, 0.000_2]).to_string(),
            "180 µs [170–190]"
        );
        assert_eq!(Cell::series(vec![3e-7]).to_string(), "300 ns [300–300]");
        assert_eq!(Cell::from(7usize).to_string(), "7");
        let tailed = Cell::series((1..=200).map(|i| i as f64).collect()).to_string();
        assert!(tailed.ends_with("], p95 190 s"), "{tailed}");
    }

    #[test]
    fn series_median_and_quartiles() {
        let one = Series::new(vec![4.0]);
        assert_eq!(
            (one.q1(), one.median(), one.q3(), one.n()),
            (4.0, 4.0, 4.0, 1)
        );
        // Odd n: the quartiles and the median fall on samples.
        let odd = Series::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((odd.q1(), odd.median(), odd.q3()), (2.0, 3.0, 4.0));
        // Even n: interpolated between neighbours.
        let even = Series::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.q1(), even.median(), even.q3()), (1.75, 2.5, 3.25));
        assert_eq!(even.tail(), None);
    }

    #[test]
    fn noise_rules() {
        // The base's IQR contains 0: no ratio is printed.
        let below = Cell::ratio(&[1.0, 1.0, 1.0, 1.0], &[-0.1, 0.0, 0.1, 0.2]);
        assert_eq!(below, Cell::Ratio(None));
        assert_eq!(below.to_string(), "below noise");
        let negative = Cell::ratio(&[1.0; 3], &[-0.3, -0.2, -0.1]);
        assert_eq!(negative, Cell::Ratio(None));
        // A base that is all above 0 gives a ratio.
        let won = Cell::ratio(&[2.0, 2.2, 1.8, 2.0], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(won.to_string(), "2.00 [1.95–2.05]");
        // A ratio whose IQR straddles 1.0 is unresolved.
        let tie = Cell::ratio(&[0.9, 1.1, 1.0, 0.95, 1.05], &[1.0; 5]);
        assert_eq!(tie.to_string(), "unresolved (1.00 [0.95–1.05])");
        let mut json = String::new();
        tie.json(&mut json);
        assert!(json.contains("\"unresolved\": true"), "{json}");
    }

    /// Braces and brackets outside string literals pair up.
    fn balanced(json: &str) -> bool {
        let (mut stack, mut in_str, mut escaped) = (Vec::new(), false, false);
        for c in json.chars() {
            match (in_str, escaped, c) {
                (true, true, _) => escaped = false,
                (true, false, '\\') => escaped = true,
                (true, false, '"') | (false, _, '"') => in_str = !in_str,
                (false, _, '{' | '[') => stack.push(c),
                (false, _, '}') if stack.pop() != Some('{') => return false,
                (false, _, ']') if stack.pop() != Some('[') => return false,
                _ => {}
            }
        }
        stack.is_empty() && !in_str
    }

    #[test]
    fn json_writer_is_balanced_keyed_and_escaped() {
        let mut t = fig();
        t.header[0] = "param \"p\"".into();
        t.row(vec![
            Cell::text("a \"quoted\" C:\\path {x}\n"),
            Cell::series(vec![0.5; 9]),
            Cell::ratio(&[1.0; 9], &[0.0; 9]),
        ]);
        let json = t.to_json("fig_x", "quick", 9);
        assert!(balanced(&json), "{json}");
        assert!(json.contains("\"experiment\": \"fig_x\""));
        assert!(json.contains("\"reps\": 9"));
        assert_eq!(json.matches("\"param \\\"p\\\"\": ").count(), 3, "{json}");
        for h in ["\"C++\": ", "\"JSM/C++\": "] {
            assert_eq!(json.matches(h).count(), 3, "{h} in {json}");
        }
        assert!(json.contains("\"a \\\"quoted\\\" C:\\\\path {x}\\u000a\""));
        assert!(json.contains("\"JSM/C++\": \"below noise\""));
        assert!(json.contains("\"median_s\": 0.5, \"q1_s\": 0.5, \"q3_s\": 0.5, \"n\": 9}"));
    }
}
