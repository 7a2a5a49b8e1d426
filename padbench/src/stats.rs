//! Sample sets, quantiles and the named metrics a run reports.

/// Observations of one quantity, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut values = self.0.clone();
        values.sort_by(f64::total_cmp);
        values
    }

    /// Linearly interpolated quantile, `q` in `[0, 1]`; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            f64::NAN
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The values in run order, space-separated.
    pub fn render(&self) -> String {
        let values: Vec<String> = self.0.iter().map(|v| format!("{v:.5}")).collect();
        values.join(" ")
    }

    /// First and third quartiles with Python's
    /// `statistics.quantiles(values, n=4)` (the default "exclusive"
    /// method), so the spread this program reports is the one the
    /// acceptance check computes. Needs at least two values.
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        let data = self.sorted();
        let ld = data.len() as i64;
        if ld < 2 {
            return None;
        }
        let m = ld + 1;
        let at = |i: i64| {
            let j = (i * m / 4).clamp(1, ld - 1);
            let delta = i * m - j * 4;
            (data[(j - 1) as usize] * (4 - delta) as f64 + data[j as usize] * delta as f64) / 4.0
        };
        Some((at(1), at(3)))
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        Samples(values.into_iter().collect())
    }
}

/// One reported number: a metric name from `BENCHMARK.json`, its unit,
/// and how many observations it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Peak resident set size of process `pid` in MB (`VmHWM` from
/// `/proc/<pid>/status`), or of this process for `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> std::io::Result<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path)?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in the process status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        values.iter().copied().collect()
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = samples(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(s.quartiles(), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(
            samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).quartiles(),
            Some((1.5, 4.5))
        );
        assert_eq!(samples(&[1.0]).quartiles(), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(Samples::default().median().is_nan());
    }
}
