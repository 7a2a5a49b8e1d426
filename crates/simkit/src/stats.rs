//! Statistics helpers for the experiment harness.
//!
//! [`OnlineStats`] accumulates mean/variance in one pass (Welford) — used
//! for Figure 5's SOC standard deviation across racks. [`Summary`] computes
//! order statistics over a retained sample. [`Cdf`] builds the empirical
//! cumulative distribution used for Figure 1, and [`Histogram`] buckets
//! values for quick text plots.

use crate::jsonio::{write_f64, Json, ObjFields};

/// One-pass mean/variance accumulator (Welford's algorithm).
///
/// # NaN handling
///
/// NaN observations are **rejected, not absorbed**: [`push`](Self::push)
/// skips them entirely (mean, variance, min and max are untouched) and
/// counts them in [`nan_count`](Self::nan_count). Without this, a single
/// NaN would poison `mean`/`m2` forever, and whether `min`/`max`
/// survived would depend on the order observations arrived — `f64::min`
/// ignores a NaN argument but propagates a NaN accumulator.
///
/// # Example
///
/// ```
/// use simkit::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// s.push(f64::NAN); // ignored, tallied separately
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_std_dev(), 2.0);
/// assert_eq!(s.count(), 8);
/// assert_eq!(s.nan_count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    nans: u64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            nans: 0,
        }
    }

    /// Adds one observation. NaN observations are skipped (see the type
    /// docs) and tallied in [`nan_count`](Self::nan_count).
    pub fn push(&mut self, value: f64) {
        if value.is_nan() {
            self.nans += 1;
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of non-NaN observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of NaN observations that were rejected.
    pub fn nan_count(&self) -> u64 {
        self.nans
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample variance (divides by n−1; 0 when n < 2).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    /// Rejected-NaN tallies are summed.
    pub fn merge(&mut self, other: &OnlineStats) {
        self.nans += other.nans;
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            let nans = self.nans;
            *self = *other;
            self.nans = nans;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Serializes the accumulator's exact internal state as one JSON
    /// object. Welford's `m2` is *order-dependent*, so the fields are
    /// written verbatim (never re-derived); the `±inf` min/max of an
    /// empty accumulator round-trip as tagged strings.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"count\":");
        out.push_str(&self.count.to_string());
        out.push_str(",\"mean\":");
        write_f64(&mut out, self.mean);
        out.push_str(",\"m2\":");
        write_f64(&mut out, self.m2);
        out.push_str(",\"min\":");
        write_f64(&mut out, self.min);
        out.push_str(",\"max\":");
        write_f64(&mut out, self.max);
        out.push_str(",\"nans\":");
        out.push_str(&self.nans.to_string());
        out.push('}');
        out
    }

    /// Rebuilds an accumulator from [`snapshot_json`](Self::snapshot_json)
    /// output (parsed). The restored value is bit-exact with the
    /// snapshotted one.
    pub fn from_snapshot(value: &Json) -> Result<OnlineStats, String> {
        let obj = value.as_object("stats snapshot")?;
        Ok(OnlineStats {
            count: obj.u64_field("count")?,
            mean: obj.f64_field_lossy("mean")?,
            m2: obj.f64_field_lossy("m2")?,
            min: obj.f64_field_lossy("min")?,
            max: obj.f64_field_lossy("max")?,
            nans: obj.u64_field("nans")?,
        })
    }
}

impl Default for OnlineStats {
    /// The empty accumulator of [`new`](Self::new): min and max seeded
    /// at +∞ and −∞, not at zero.
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Retained-sample summary with order statistics.
///
/// [`push`](Self::push) inserts each value into the sorted sample, which
/// costs O(n) per value. Extending by a batch (`Extend`, and
/// `FromIterator`, which extends an empty summary) sorts the batch once
/// and merges it into the sample, O(n + m log m) in all, and builds the
/// same summary bit for bit: equal values sit latest first either way,
/// which shows only between `-0.0` and `0.0`. Where a NaN lands in the
/// sorted sample follows arrival order and is otherwise unspecified, so
/// from the first NaN onward (in the batch or already in the sample)
/// values are pushed one at a time.
///
/// # Example
///
/// ```
/// use simkit::stats::Summary;
///
/// let s: Summary = (1..=100).map(f64::from).collect();
/// assert_eq!(s.percentile(50.0), 50.5);
/// assert_eq!(s.percentile(0.0), 1.0);
/// assert_eq!(s.percentile(100.0), 100.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    stats: OnlineStats,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        let idx = self.sorted.partition_point(|&x| x < value);
        self.sorted.insert(idx, value);
        self.stats.push(value);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if no observations were added.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Mean of observations.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Population standard deviation of observations.
    pub fn std_dev(&self) -> f64 {
        self.stats.population_std_dev()
    }

    /// Linear-interpolated percentile, `p` in `[0, 100]`.
    ///
    /// Returns `NaN` for an empty summary — an honest "no data" marker,
    /// where the old `0.0` was indistinguishable from a real zero
    /// observation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// All observations, ascending.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Serializes the summary's exact state: the retained sorted sample
    /// plus the running accumulator (whose `m2` depends on *push*
    /// order, which the sorted sample no longer records — so both are
    /// written).
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"stats\":");
        out.push_str(&self.stats.snapshot_json());
        out.push_str(",\"sorted\":[");
        for (i, &v) in self.sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_f64(&mut out, v);
        }
        out.push_str("]}");
        out
    }

    /// Rebuilds a summary from [`snapshot_json`](Self::snapshot_json)
    /// output (parsed).
    pub fn from_snapshot(value: &Json) -> Result<Summary, String> {
        let obj = value.as_object("summary snapshot")?;
        let stats = OnlineStats::from_snapshot(obj.field("stats")?)?;
        let mut sorted = Vec::new();
        for (i, item) in obj.arr_field("sorted")?.iter().enumerate() {
            sorted.push(item.as_f64(&format!("sorted[{i}]"))?);
        }
        Ok(Summary { sorted, stats })
    }
}

impl Extend<f64> for Summary {
    /// Adds the values in arrival order: what pushing each in turn
    /// builds, bit for bit (see the type docs).
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        let mut batch: Vec<f64> = iter.into_iter().collect();
        // Where `push` puts a NaN, and every value after one, depends on
        // where the NaN sits, which no merge reproduces.
        let mergeable = if self.stats.nan_count() > 0 {
            0
        } else {
            batch.iter().position(|v| v.is_nan()).unwrap_or(batch.len())
        };
        let pushed = batch.split_off(mergeable);
        for &v in &batch {
            self.stats.push(v);
        }
        // `push` puts each value before the equal ones it already holds;
        // a stable sort of the reversed arrivals does the same within
        // the batch, and the merge below does it against the sample.
        batch.reverse();
        batch.sort_by(|a, b| a.partial_cmp(b).expect("NaN-free batch"));
        if self.sorted.is_empty() {
            self.sorted = batch;
        } else {
            // Merge from the back, in place: an old value goes after
            // every new value it equals.
            let mut old = self.sorted.len();
            self.sorted.resize(old + batch.len(), 0.0);
            let mut slot = self.sorted.len();
            for &v in batch.iter().rev() {
                while old > 0 && self.sorted[old - 1] >= v {
                    old -= 1;
                    slot -= 1;
                    self.sorted[slot] = self.sorted[old];
                }
                slot -= 1;
                self.sorted[slot] = v;
            }
        }
        for v in pushed {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// Execution counters for one scenario of a sweep.
///
/// Stamped by [`crate::sweep::SweepRunner::run_metered`]: `wall_clock` is
/// measured by the runner around the job, `steps` is reported by the job
/// itself (number of simulation steps executed), `queue_wait` is how long
/// the scenario sat in the pull queue before a worker claimed it, and
/// `merge` is the time spent depositing the result into the
/// submission-order slot table. Costs are bookkeeping, not part of any
/// determinism contract — wall-clock time varies run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioCost {
    /// Wall-clock time the scenario took to execute.
    pub wall_clock: std::time::Duration,
    /// Simulation steps executed by the scenario.
    pub steps: u64,
    /// Time between sweep start and a worker claiming this scenario.
    pub queue_wait: std::time::Duration,
    /// Time spent storing the result into the ordered slot table.
    pub merge: std::time::Duration,
}

impl ScenarioCost {
    /// Simulation steps per wall-clock second (0 when no time elapsed).
    pub fn steps_per_second(&self) -> f64 {
        let secs = self.wall_clock.as_secs_f64();
        if secs > 0.0 {
            self.steps as f64 / secs
        } else {
            0.0
        }
    }

    /// Sums another scenario's counters into this one.
    pub fn accumulate(&mut self, other: &ScenarioCost) {
        self.wall_clock += other.wall_clock;
        self.steps += other.steps;
        self.queue_wait += other.queue_wait;
        self.merge += other.merge;
    }
}

/// Empirical cumulative distribution function over a sample.
///
/// # Example
///
/// ```
/// use simkit::stats::Cdf;
///
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.probability_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.probability_at_or_below(0.5), 0.0);
/// assert_eq!(cdf.probability_at_or_below(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (order irrelevant).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in CDF"));
        Cdf { sorted: samples }
    }

    /// Fraction of samples ≤ `x`.
    pub fn probability_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Evaluates the CDF at evenly spaced points across `[lo, hi]`,
    /// returning `(x, F(x))` pairs — the series Figure 1 plots.
    pub fn series(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two points");
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.probability_at_or_below(x))
            })
            .collect()
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if built from no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// Fixed-width histogram over `[lo, hi)`.
///
/// Out-of-range values clamp into the first/last bucket so totals are
/// conserved. Besides the per-bucket counts the histogram keeps the
/// running sum of raw (unclamped) observations, so it can render the
/// full Prometheus `_bucket`/`_sum`/`_count` exposition and answer
/// interpolated [`quantile`](Self::quantile) queries.
///
/// # Example
///
/// ```
/// use simkit::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for v in [0.5, 1.0, 9.9, 3.3, 5.0] {
///     h.push(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 19.7);
/// assert_eq!(h.cumulative().last(), Some(&(10.0, 5)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram with `buckets` equal-width buckets over
    /// `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "invalid histogram range [{lo}, {hi})");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            counts: vec![0; buckets],
            sum: 0.0,
        }
    }

    /// Adds one observation (clamping to the boundary buckets). The
    /// running sum accumulates the *raw* value — Prometheus `_sum`
    /// semantics — except NaN, which would poison it and contributes
    /// nothing (the observation still lands in the first bucket, so
    /// counts stay conserved).
    pub fn push(&mut self, value: f64) {
        let n = self.counts.len();
        let frac = (value - self.lo) / (self.hi - self.lo);
        let idx = ((frac * n as f64).floor() as i64).clamp(0, n as i64 - 1) as usize;
        self.counts[idx] += 1;
        if !value.is_nan() {
            self.sum += value;
        }
    }

    /// Lower bound of the bucketed range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the bucketed range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations across all buckets (Prometheus `_count`).
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all raw observations (Prometheus `_sum`; NaN excluded).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Cumulative `(upper_bound, count_at_or_below)` pairs, one per
    /// bucket — the Prometheus `_bucket{le="..."}` series without the
    /// `+Inf` bucket (whose count is [`count`](Self::count); outliers
    /// clamp into the boundary buckets, so the last finite bound
    /// already carries the total).
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut running = 0;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                running += c;
                (self.lo + width * (i + 1) as f64, running)
            })
            .collect()
    }

    /// Linear-interpolated quantile estimate from the buckets, `q` in
    /// `[0, 1]` — the `histogram_quantile` computation Prometheus runs
    /// server-side. Returns NaN for an empty histogram. Resolution is
    /// the bucket width; values clamp to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let total = self.count();
        if total == 0 {
            return f64::NAN;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let rank = q * total as f64;
        let mut running = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                running += c;
                continue;
            }
            let upto = running + c;
            if (upto as f64) >= rank {
                let within = ((rank - running as f64) / c as f64).clamp(0.0, 1.0);
                return self.lo + width * (i as f64 + within);
            }
            running = upto;
        }
        self.hi
    }

    /// Adds another histogram's counts into this one, bucket by bucket
    /// (sums add too).
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different ranges or bucket counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "histograms have different shapes"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }

    /// Serializes the histogram's value state (`counts` and `sum`; the
    /// shape is restated for validation on restore).
    pub fn snapshot_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"lo\":");
        write_f64(&mut out, self.lo);
        out.push_str(",\"hi\":");
        write_f64(&mut out, self.hi);
        out.push_str(",\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("],\"sum\":");
        write_f64(&mut out, self.sum);
        out.push('}');
        out
    }

    /// Overwrites this histogram's counts and sum from a parsed
    /// [`snapshot_json`](Self::snapshot_json) document, validating that
    /// the snapshot's range and bucket count match this histogram's
    /// construction-time shape.
    pub fn restore_snapshot(&mut self, value: &Json) -> Result<(), String> {
        let obj = value.as_object("histogram snapshot")?;
        let (lo, hi) = (obj.f64_field_lossy("lo")?, obj.f64_field_lossy("hi")?);
        let counts = obj.arr_field("counts")?;
        if lo != self.lo || hi != self.hi || counts.len() != self.counts.len() {
            return Err(format!(
                "histogram shape mismatch: snapshot [{lo}, {hi})×{} vs [{}, {})×{}",
                counts.len(),
                self.lo,
                self.hi,
                self.counts.len()
            ));
        }
        for (i, (slot, item)) in self.counts.iter_mut().zip(counts).enumerate() {
            *slot = item.as_u64(&format!("counts[{i}]"))?;
        }
        self.sum = obj.f64_field_lossy("sum")?;
        Ok(())
    }

    /// `(bucket_midpoint, count)` pairs.
    pub fn midpoints(&self) -> Vec<(f64, u64)> {
        let n = self.counts.len();
        let width = (self.hi - self.lo) / n as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + width * (i as f64 + 0.5), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_known_values() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_is_zeroish() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn online_stats_default_is_the_empty_accumulator() {
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        let mut s = OnlineStats::default();
        s.push(5.0);
        assert_eq!((s.min(), s.max()), (5.0, 5.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: OnlineStats = all.iter().copied().collect();
        let mut a: OnlineStats = all[..37].iter().copied().collect();
        let b: OnlineStats = all[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.population_variance() - seq.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn nan_observations_are_rejected_not_absorbed() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
        s.push(1.0);
        s.push(f64::NAN);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.nan_count(), 2);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert!(!s.population_variance().is_nan());
    }

    #[test]
    fn nan_first_does_not_poison_min_max() {
        // Regression shape: f64::min ignores a NaN *argument* but
        // propagates a NaN *accumulator*, so order used to matter.
        let mut nan_first = OnlineStats::new();
        nan_first.push(f64::NAN);
        nan_first.push(5.0);
        let mut nan_last = OnlineStats::new();
        nan_last.push(5.0);
        nan_last.push(f64::NAN);
        assert_eq!(nan_first.min(), 5.0);
        assert_eq!(nan_first.max(), 5.0);
        assert_eq!(nan_first.min(), nan_last.min());
        assert_eq!(nan_first.max(), nan_last.max());
    }

    #[test]
    fn merge_sums_nan_tallies() {
        let mut a = OnlineStats::new();
        a.push(f64::NAN);
        let mut b = OnlineStats::new();
        b.push(2.0);
        b.push(f64::NAN);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.nan_count(), 2);
        assert_eq!(a.mean(), 2.0);

        // Empty-other still carries its NaN tally.
        let mut c = OnlineStats::new();
        c.push(1.0);
        let mut nan_only = OnlineStats::new();
        nan_only.push(f64::NAN);
        c.merge(&nan_only);
        assert_eq!(c.count(), 1);
        assert_eq!(c.nan_count(), 1);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn summary_percentiles_interpolate() {
        let s: Summary = (1..=4).map(f64::from).collect();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 4.0);
        assert!((s.median() - 2.5).abs() < 1e-12);
        assert!((s.percentile(25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn summary_keeps_values_sorted_under_random_insertion() {
        let mut s = Summary::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.sorted_values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn summary_empty_percentile_is_nan() {
        assert!(Summary::new().percentile(50.0).is_nan());
        assert!(Summary::new().percentile(0.0).is_nan());
        assert!(Summary::new().median().is_nan());
    }

    #[test]
    fn cdf_step_behaviour() {
        let cdf = Cdf::from_samples(vec![10.0, 20.0, 20.0, 40.0]);
        assert_eq!(cdf.probability_at_or_below(9.9), 0.0);
        assert_eq!(cdf.probability_at_or_below(10.0), 0.25);
        assert_eq!(cdf.probability_at_or_below(20.0), 0.75);
        assert_eq!(cdf.probability_at_or_below(40.0), 1.0);
    }

    #[test]
    fn cdf_series_is_monotone() {
        let cdf = Cdf::from_samples((0..50).map(|i| i as f64 * 2.0).collect());
        let series = cdf.series(0.0, 100.0, 21);
        assert_eq!(series.len(), 21);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be non-decreasing");
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn histogram_clamps_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(-5.0);
        h.push(15.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.push(1.0);
        b.push(1.0);
        b.push(9.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 0, 0, 0, 1]);
        assert_eq!(a.lo(), 0.0);
        assert_eq!(a.hi(), 10.0);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn histogram_merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        a.merge(&Histogram::new(0.0, 10.0, 4));
    }

    #[test]
    fn histogram_tracks_count_and_sum() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [1.0, 3.0, 9.0] {
            h.push(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 13.0);
        // Outliers clamp into buckets but the sum stays raw.
        h.push(100.0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 113.0);
        // NaN lands in the first bucket (counts conserved) but cannot
        // poison the sum.
        h.push(f64::NAN);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 113.0);
    }

    #[test]
    fn histogram_cumulative_is_monotone_with_total_at_hi() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.5, 1.0, 3.0, 5.0, 9.9] {
            h.push(v);
        }
        let cum = h.cumulative();
        assert_eq!(cum.len(), 5);
        assert_eq!(cum[0], (2.0, 2));
        assert_eq!(cum.last(), Some(&(10.0, 5)));
        for w in cum.windows(2) {
            assert!(w[1].1 >= w[0].1, "cumulative counts must not decrease");
            assert!(w[1].0 > w[0].0, "upper bounds ascend");
        }
    }

    #[test]
    fn histogram_quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.push(i as f64 / 10.0); // uniform over [0, 10)
        }
        assert!((h.quantile(0.5) - 5.0).abs() <= 1.0, "{}", h.quantile(0.5));
        assert!((h.quantile(0.9) - 9.0).abs() <= 1.0);
        assert_eq!(h.quantile(1.0), 10.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert!(Histogram::new(0.0, 1.0, 2).quantile(0.5).is_nan());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn histogram_quantile_rejects_out_of_range() {
        Histogram::new(0.0, 1.0, 2).quantile(1.5);
    }

    #[test]
    fn histogram_merge_adds_sums() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.push(2.0);
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.sum(), 5.0);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn online_stats_snapshot_round_trips_bit_exactly() {
        let mut s = OnlineStats::new();
        for i in 0..137 {
            s.push((i as f64).sin() * 10.0 + 0.1);
        }
        s.push(f64::NAN);
        let doc = crate::jsonio::JsonParser::parse_document(&s.snapshot_json()).unwrap();
        let restored = OnlineStats::from_snapshot(&doc).unwrap();
        assert_eq!(restored, s);
        assert_eq!(restored.snapshot_json(), s.snapshot_json());
        // Empty accumulator carries non-finite min/max.
        let empty = OnlineStats::new();
        let doc = crate::jsonio::JsonParser::parse_document(&empty.snapshot_json()).unwrap();
        assert_eq!(OnlineStats::from_snapshot(&doc).unwrap(), empty);
    }

    #[test]
    fn summary_snapshot_round_trips() {
        let mut s = Summary::new();
        for v in [5.5, 1.25, 3.0, 2.75, 4.125, 3.0] {
            s.push(v);
        }
        let doc = crate::jsonio::JsonParser::parse_document(&s.snapshot_json()).unwrap();
        let restored = Summary::from_snapshot(&doc).unwrap();
        assert_eq!(restored, s);
        let empty_doc =
            crate::jsonio::JsonParser::parse_document(&Summary::new().snapshot_json()).unwrap();
        assert_eq!(Summary::from_snapshot(&empty_doc).unwrap(), Summary::new());
    }

    #[test]
    fn histogram_snapshot_restores_into_matching_shape_only() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [1.0, 3.5, 9.9, 42.0] {
            h.push(v);
        }
        let doc = crate::jsonio::JsonParser::parse_document(&h.snapshot_json()).unwrap();
        let mut fresh = Histogram::new(0.0, 10.0, 5);
        fresh.restore_snapshot(&doc).unwrap();
        assert_eq!(fresh, h);
        let mut wrong = Histogram::new(0.0, 10.0, 4);
        assert!(wrong.restore_snapshot(&doc).unwrap_err().contains("shape"));
    }

    #[test]
    fn histogram_midpoints() {
        let h = Histogram::new(0.0, 10.0, 5);
        let mids: Vec<f64> = h.midpoints().iter().map(|&(m, _)| m).collect();
        assert_eq!(mids, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
    }
}
