//! Order statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank rule
/// (`NaN` when empty). Sorts a copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The geometric mean of `values` (`NaN` when empty): each value weighs
/// alike, whatever its scale.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n as f64).exp()
}

/// The mean of the middle half of `values`, a quarter left out at each
/// end (`NaN` when empty): a typical value that, unlike the median, rests
/// on more than one or two of them.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The benchmark's last stdout line: `correct`, `attempted`, `failed`
/// and the metrics object. Non-finite values, which JSON cannot carry,
/// print as `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number with all its digits, or `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Durations in log-spaced buckets 0.1% apart, from 1 ns to 100 s, so a
/// run's memory does not grow with the number of calls it times (which
/// would couple `peak_rss_mb` to speed).
pub struct LogHist {
    counts: Vec<u32>,
    n: u64,
}

const BUCKET_LN: f64 = 0.001;
const BUCKETS: usize = 25_400;

impl LogHist {
    pub fn new() -> LogHist {
        LogHist { counts: vec![0; BUCKETS], n: 0 }
    }

    pub fn record(&mut self, secs: f64) {
        let b = ((secs * 1e9).max(1.0).ln() / BUCKET_LN) as usize;
        self.counts[b.min(BUCKETS - 1)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile in seconds by the nearest-rank rule, to within
    /// 0.1% (`NaN` when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return ((b as f64 + 0.5) * BUCKET_LN).exp() / 1e9;
            }
        }
        unreachable!("rank is at most the count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean([1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!(geomean([]).is_nan());
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 7.0]), 4.5);
        assert_eq!(interquartile_mean(&[1.0, 9.0, 5.0]), 5.0);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn log_hist_quantiles_within_a_tenth_of_a_percent() {
        let mut h = LogHist::new();
        for i in 1..=1000 {
            h.record(f64::from(i) * 1e-6);
        }
        for (q, want) in [(0.5, 500e-6), (0.99, 990e-6), (1.0, 1000e-6)] {
            let got = h.quantile(q);
            assert!((got / want - 1.0).abs() < 1e-3, "q{q}: {got} vs {want}");
        }
        let mut m = LogHist::new();
        m.merge(&h);
        assert_eq!(m.count(), 1000);
        assert!(LogHist::new().quantile(0.5).is_nan());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("gflops", 12.5, "GFLOP/s");
        m.push("bad", f64::NAN, "s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"gflops\": {\"value\": 12.5, \"unit\": \"GFLOP/s\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
