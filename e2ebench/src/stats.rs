//! Order statistics and the result line.

use std::fmt::Write as _;

/// Percentiles the tail metric may report, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Zero-based index of the nearest-rank `pct`-th percentile among `n`
/// sorted samples.
fn nearest_rank(pct: f64, n: usize) -> usize {
    // The epsilon keeps exact ranks exact: 99.9% of 10 000 is rank 9990,
    // not the 9991 that float rounding of `99.9 / 100 * 10 000` gives.
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `pct`-th percentile of `n`.
pub fn beyond(pct: f64, n: usize) -> usize {
    n - 1 - nearest_rank(pct, n)
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it among `n` samples, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(p, n) >= TAIL_BEYOND)
}

/// The nearest-rank `pct`-th percentile of `values` (unsorted); `NaN` when
/// empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(pct, sorted.len())]
}

/// The median of `values` (mean of the middle pair for even counts); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Which clock a metric was read from. The two time clocks are never mixed
/// in one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock on the host running the benchmark.
    MeasuredHost,
    /// `megis-ssd`'s timing model evaluated on the workload's shape.
    ModeledDevice,
    /// A count or a ratio of counts.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::MeasuredHost => "measured-host",
            Clock::ModeledDevice => "modeled-device",
            Clock::Count => "count",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Clock the value was read from.
    pub clock: Clock,
    /// Free-text detail printed next to the value.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str, clock: Clock) -> Metric {
        Metric {
            name,
            value,
            unit,
            clock,
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Renders the human-readable metric table.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<28} {:>16.6} {:<8} {:<15} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.label(),
            m.note
        );
    }
    out
}

/// Renders the final result line: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot carry) become `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..2_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(p, n) >= TAIL_BEYOND, "n={n} p={p}");
                // The next rung up would leave fewer than ten beyond.
                if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                    assert!(beyond(next, n) < TAIL_BEYOND, "n={n} p={p} next={next}");
                }
            }
        }
    }

    #[test]
    fn beyond_count_grows_with_the_sample_count() {
        for p in TAIL_LADDER {
            for n in 1..500 {
                assert!(beyond(p, n + 1) >= beyond(p, n), "p={p} n={n}");
            }
        }
    }

    #[test]
    fn percentile_and_median_use_sorted_order() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 75.0), 30.0);
        assert_eq!(percentile(&v, 50.0), 20.0);
        assert_eq!(median(&v), 20.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("reads_per_s", 12_345.678, "reads/s", Clock::MeasuredHost),
                Metric::new("x", f64::NAN, "count", Clock::Count),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"reads_per_s\": {\"value\": 12345.678, \"unit\": \"reads/s\"}, \
             \"x\": {\"value\": null, \"unit\": \"count\"}}}"
        );
    }
}
