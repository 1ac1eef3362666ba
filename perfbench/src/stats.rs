//! Order statistics for latency samples.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A run's timed requests: query and write latencies, in run order.
///
/// Every figure is taken over the whole run: a slow stretch of the host,
/// or of the program, shows in it as the client would see it.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    query_s: Vec<f64>,
    write_s: Vec<f64>,
}

/// End-to-end figures of a [`Timeline`].
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median query latency, ms.
    pub query_p50_ms: f64,
    /// Query tail, ms.
    pub query_tail_ms: Tail,
    /// Queries per second of time spent in timed requests.
    pub queries_per_s: f64,
    /// Median write latency, µs.
    pub publish_p50_us: f64,
    /// Write tail, µs.
    pub publish_tail_us: Tail,
}

impl Timeline {
    /// Record one request.
    pub fn push(&mut self, query: bool, seconds: f64) {
        if query { &mut self.query_s } else { &mut self.write_s }.push(seconds);
    }

    /// Query latencies in run order, ms.
    pub fn query_ms(&self) -> Vec<f64> {
        self.query_s.iter().map(|s| s * 1e3).collect()
    }

    /// Seconds spent in every request.
    pub fn busy_s(&self) -> f64 {
        self.query_s.iter().chain(&self.write_s).sum()
    }

    /// The run's end-to-end figures.
    pub fn summary(&self) -> Summary {
        let query_ms = self.query_ms();
        let write_us: Vec<f64> = self.write_s.iter().map(|s| s * 1e6).collect();
        Summary {
            query_p50_ms: median(&query_ms),
            query_tail_ms: tail(&query_ms),
            queries_per_s: query_ms.len() as f64 / self.busy_s(),
            publish_p50_us: median(&write_us),
            publish_tail_us: tail(&write_us),
        }
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail latency: the highest percentile, capped at p99, that still
/// leaves at least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
}

/// Samples a tail percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// The tail of `values`. With 1,000 or more samples this is the nearest-
/// rank p99; with fewer it is the sample [`MIN_BEYOND`] from the top. A
/// set too small to leave ten beyond its median reports its maximum, with
/// `beyond` telling the reader how little that says.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 0.0, samples: 0, beyond: 0 };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p99_beyond = n - ((0.99 * n as f64).ceil() as usize).max(1);
    let beyond = if n > 2 * MIN_BEYOND { p99_beyond.max(MIN_BEYOND) } else { 0 };
    let index = n - 1 - beyond;
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
        beyond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_covers_every_request() {
        let mut t = Timeline::default();
        for scale in [1.0, 3.0, 2.0] {
            t.push(false, 0.000_010 * scale);
            t.push(true, 0.001 * scale);
        }
        let s = t.summary();
        assert!((s.query_p50_ms - 2.0).abs() < 1e-9);
        assert!((s.publish_p50_us - 20.0).abs() < 1e-9);
        assert!((t.busy_s() - 0.006_06).abs() < 1e-12);
        assert!((s.queries_per_s - 3.0 / 0.006_06).abs() < 1e-6);
        assert_eq!(s.query_tail_ms.samples, 3);
        assert_eq!(t.query_ms().len(), 3);
    }

    #[test]
    fn tail_is_p99_with_a_thousand_samples() {
        let v: Vec<f64> = (1..=2_000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 1_980.0);
        assert_eq!(t.beyond, 20);
        assert_eq!(t.samples, 2_000);
        assert!((t.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_in_small_sets() {
        // 300 samples: p99 would leave only 3 beyond, so the tail drops to
        // the highest percentile that still has ten.
        let v: Vec<f64> = (1..=300).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.beyond, MIN_BEYOND);
        assert_eq!(t.value, 290.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
        assert!((t.percentile - 100.0 * 290.0 / 300.0).abs() < 1e-9);
        // Exactly 1,000: p99 and the ten-beyond rule coincide.
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail(&v).value, 990.0);
        assert_eq!(tail(&v).beyond, 10);
    }

    #[test]
    fn tail_of_a_tiny_set_is_flagged_by_its_count() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.beyond, 0);
        assert_eq!(t.samples, 3);
        // Ten beyond 15 samples would sit below their median.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!((tail(&v).value, tail(&v).beyond), (15.0, 0));
        // From 21 samples on, ten beyond is at or above the median.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!((tail(&v).value, tail(&v).beyond), (11.0, 10));
        assert!(tail(&v).value >= median(&v));
    }
}
