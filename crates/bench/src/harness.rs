//! Table formatting and row collection shared by every experiment.

use serde_json::{json, Value};

/// One experiment's printable + machine-readable output.
#[derive(Debug, Default)]
pub struct Report {
    /// Experiment id (`"f5"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Machine-readable rows.
    pub json_rows: Vec<Value>,
    /// Free-form notes printed under the table (observed shape, caveats).
    pub notes: Vec<String>,
}

impl Report {
    /// Start a report.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Report {
        Report {
            id: id.to_owned(),
            title: title.to_owned(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            ..Report::default()
        }
    }

    /// Append a row (cells must match the column count) along with its
    /// JSON form.
    pub fn row(&mut self, cells: Vec<String>, raw: &Value) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch in {}", self.id);
        self.rows.push(cells);
        self.json_rows.push(raw.clone());
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id.to_uppercase(), self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().enumerate().map(|(i, c)| format!("{:>w$}", c, w = widths[i])).collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// The JSON form of the full report.
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id,
            "title": self.title,
            "columns": self.columns,
            "rows": self.json_rows,
            "notes": self.notes,
        })
    }
}

/// Write `report` to `path` as the pretty-printed JSON baseline
/// (`BENCH_p2_*.json`) and note the outcome under the table. A `--quick`
/// run is flagged `"quick": true`, so a CI smoke run cannot pass for a
/// committed full-run baseline.
pub fn write_bench(report: &mut Report, path: &str, quick: bool) {
    let mut doc = report.to_json();
    if let (true, Value::Object(map)) = (quick, &mut doc) {
        map.insert("quick".to_owned(), Value::Bool(true));
    }
    let text = serde_json::to_string_pretty(&doc).expect("serialize report");
    match std::fs::write(path, text + "\n") {
        Ok(()) => report.note(format!("wrote {path}")),
        Err(e) => report.note(format!("could not write {path}: {e}")),
    }
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Wall-clock milliseconds of running `f`, plus its output.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

/// A seeded Zipf(s) sampler over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1/(k+1)^s`. Deterministic for a given
/// `(n, s, seed)` — the workload generator behind the hot-query
/// experiments (F22), reusable wherever skewed popularity is needed.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative distribution over ranks; `cdf[k]` = P(rank <= k).
    cdf: Vec<f64>,
    /// xorshift64* state.
    state: u64,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s` (`s = 0` is
    /// uniform; larger `s` concentrates mass on the low ranks).
    pub fn new(n: usize, s: f64, seed: u64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf, state: seed | 1 }
    }

    /// Draw the next rank in `0..n`.
    pub fn next_rank(&mut self) -> usize {
        // xorshift64* for a uniform draw in [0, 1).
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        let u = (x.wrapping_mul(0x2545f4914f6cdd1d) >> 11) as f64 / (1u64 << 53) as f64;
        // First rank whose cumulative mass covers the draw.
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).expect("finite cdf")) {
            Ok(k) | Err(k) => k.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut r = Report::new("fx", "demo", &["a", "metric"]);
        r.row(vec!["1".into(), "2.50".into()], &json!({"a": 1}));
        r.row(vec!["100".into(), "3.5".into()], &json!({"a": 100}));
        r.note("shape holds");
        let s = r.render();
        assert!(s.contains("FX"));
        assert!(s.contains("note: shape holds"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len(), "rows align with header");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut r = Report::new("fx", "demo", &["a", "b"]);
        r.row(vec!["only-one".into()], &json!({}));
    }

    #[test]
    fn json_shape() {
        let mut r = Report::new("fy", "demo", &["a"]);
        r.row(vec!["1".into()], &json!({"a": 1}));
        let v = r.to_json();
        assert_eq!(v["id"], "fy");
        assert_eq!(v["rows"][0]["a"], 1);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.257), "1.26");
        assert_eq!(f3(0.12345), "0.123");
    }

    #[test]
    fn zipf_rank_frequencies_follow_the_power_law() {
        let n = 50;
        let s = 1.1;
        let draws = 200_000;
        let mut z = Zipf::new(n, s, 0xF22);
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.next_rank()] += 1;
        }
        // Every rank is reachable and low ranks dominate.
        assert!(counts[0] > counts[10] && counts[10] > counts[40]);
        // freq(rank 0) / freq(rank k) ~ (k+1)^s for the well-sampled head.
        for k in [1usize, 3, 7] {
            let expected = ((k + 1) as f64).powf(s);
            let observed = counts[0] as f64 / counts[k].max(1) as f64;
            assert!(
                (observed / expected - 1.0).abs() < 0.15,
                "rank {k}: observed ratio {observed:.2}, power law predicts {expected:.2}"
            );
        }
        // Deterministic for a given seed; different for another.
        let a: Vec<usize> = {
            let mut z = Zipf::new(8, 1.0, 7);
            (0..32).map(|_| z.next_rank()).collect()
        };
        let b: Vec<usize> = {
            let mut z = Zipf::new(8, 1.0, 7);
            (0..32).map(|_| z.next_rank()).collect()
        };
        let c: Vec<usize> = {
            let mut z = Zipf::new(8, 1.0, 8);
            (0..32).map(|_| z.next_rank()).collect()
        };
        assert_eq!(a, b, "same seed must replay the same workload");
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let mut z = Zipf::new(4, 0.0, 99);
        let mut counts = [0u64; 4];
        for _ in 0..40_000 {
            counts[z.next_rank()] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0, "uniform within 10%: {counts:?}");
        }
    }
}
