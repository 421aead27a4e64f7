//! Order statistics over op timings and the result line every run ends with.

use printed_microprocessors::obs::json;

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples above it:
/// `(percentile, value)`. `None` when there are too few samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Peak resident memory of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    printed_microprocessors::obs::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: how many ops it attempted, how many failed their
/// correctness check, and its metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Whole-run checks that are not per-op (tiling, counters).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// Records one op's correctness verdict.
    pub fn check(&mut self, ok: bool) {
        self.tally(1, u64::from(!ok));
    }

    /// Records `attempted` ops of which `failed` failed their check.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::escape(&m.name),
                    finite(m.value),
                    json::escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Full-precision JSON number; non-finite values become 0 so the line
/// always parses.
fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The end-to-end metrics every workload reports, from per-op times in
/// milliseconds and the work the ops did; the rate is work per second of
/// op time.
pub fn end_to_end(report: &mut Report, setup_s: f64, op_ms: &[f64], work_done: f64) -> String {
    let (pct, tail_ms) = tail(op_ms).unwrap_or((100.0, op_ms.iter().copied().fold(0.0, f64::max)));
    let p50 = median(op_ms);
    report.metric("setup_s", setup_s, "s");
    report.metric("p50_ms", p50, "ms");
    report.metric("tail_ms", tail_ms, "ms");
    report.metric("rate_per_s", work_done / (op_ms.iter().sum::<f64>() / 1e3), "1/s");
    report.metric("ok_frac", report.ok_frac(), "frac");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    format!(
        "tail_ms is p{pct:.1} of {} ops ({} ops beyond it); p50_ms {p50:.3}",
        op_ms.len(),
        op_ms.len().min(TAIL_BEYOND)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, v) = tail(&values).unwrap();
        assert_eq!(v, 30.0);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert!((pct - 75.0).abs() < 1e-9);
        assert!(tail(&values[..10]).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true);
        assert!(r.correct());
        r.check(false);
        assert!(!r.correct());
        assert_eq!(r.ok_frac(), 0.5);
        let line = r.to_json();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("failed").and_then(json::Value::as_f64), Some(1.0));
    }
}
