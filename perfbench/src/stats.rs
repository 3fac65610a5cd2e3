//! Order statistics and the one-line JSON result the benchmark prints.

use std::fmt::Write as _;

/// The `p`-th percentile (0–100) by linear interpolation between the two
/// closest ranks. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The `p`-th percentile (0–100) of `(value, weight)` samples: the least
/// value whose samples, with every lower one, weigh at least `p`% of the
/// total. `None` for an empty sample.
pub fn weighted_percentile(samples: &[(f64, f64)], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = p / 100.0 * sorted.iter().map(|s| s.1).sum::<f64>();
    let mut below = 0.0;
    for &(value, weight) in &sorted {
        below += weight;
        if below >= target {
            return Some(value);
        }
    }
    sorted.last().map(|s| s.0)
}

/// The median (`None` for an empty sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative at the low end for two samples, as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": v, "unit": u}, …}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips,
            // i.e. every digit the measurement has.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    }

    #[test]
    fn weighted_percentile_counts_weights() {
        let data = [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0)];
        assert_eq!(weighted_percentile(&data, 50.0), Some(2.0));
        assert_eq!(weighted_percentile(&data, 51.0), Some(3.0));
        assert_eq!(weighted_percentile(&data, 0.0), Some(1.0));
        assert_eq!(weighted_percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&data, 50.0), Some(2.5));
        assert_eq!(percentile(&data, 100.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
