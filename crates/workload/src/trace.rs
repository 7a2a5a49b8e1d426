//! Trace records and rasterization.
//!
//! A [`TraceRecord`] mirrors one line of the paper's Google trace: "start
//! time, end time, machine ID, and CPU rate of the task". Records are
//! rasterized into a [`ClusterTrace`] — per-machine CPU-rate time series
//! at a fixed step (the paper uses 5 minutes) — by time-weighted averaging
//! within each step, exactly the "calculate the total CPU power demand
//! belong to a given machine at the same timestamp" processing of §V.

use std::sync::atomic::{AtomicUsize, Ordering};

use simkit::series::TimeSeries;
use simkit::time::{SimDuration, SimTime};

/// Process-wide count of [`ClusterTrace::parse_csv`] invocations.
static PARSE_COUNT: AtomicUsize = AtomicUsize::new(0);

/// How many times [`ClusterTrace::parse_csv`] has run in this process.
///
/// A probe for sweep tests: sharing a parsed trace behind an `Arc` must
/// mean the CSV is parsed exactly once per sweep, not once per scenario.
pub fn trace_parse_count() -> usize {
    PARSE_COUNT.load(Ordering::Relaxed)
}

/// One task's residence on a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TraceRecord {
    /// Task start time.
    pub start: SimTime,
    /// Task end time (exclusive).
    pub end: SimTime,
    /// Flat machine index.
    pub machine: usize,
    /// CPU rate consumed while running, in `[0, 1]`.
    pub cpu_rate: f64,
}

impl TraceRecord {
    /// Creates a record.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start` or `cpu_rate` is outside `[0, 1]`.
    pub fn new(start: SimTime, end: SimTime, machine: usize, cpu_rate: f64) -> Self {
        assert!(end > start, "record must have positive duration");
        assert!(
            (0.0..=1.0).contains(&cpu_rate),
            "CPU rate must be in [0,1], got {cpu_rate}"
        );
        TraceRecord {
            start,
            end,
            machine,
            cpu_rate,
        }
    }

    /// Parses one CSV line: `start_seconds,end_seconds,machine_id,cpu_rate`
    /// (the schema the paper describes).
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn parse_csv(line: &str) -> Result<Self, String> {
        let fields: Vec<&str> = line.trim().split(',').map(str::trim).collect();
        if fields.len() != 4 {
            return Err(format!("expected 4 fields, got {}: {line:?}", fields.len()));
        }
        let start: f64 = fields[0]
            .parse()
            .map_err(|e| format!("bad start time {:?}: {e}", fields[0]))?;
        let end: f64 = fields[1]
            .parse()
            .map_err(|e| format!("bad end time {:?}: {e}", fields[1]))?;
        let machine: usize = fields[2]
            .parse()
            .map_err(|e| format!("bad machine id {:?}: {e}", fields[2]))?;
        let cpu_rate: f64 = fields[3]
            .parse()
            .map_err(|e| format!("bad cpu rate {:?}: {e}", fields[3]))?;
        if end <= start {
            return Err(format!("end {end} must be after start {start}"));
        }
        if !(0.0..=1.0).contains(&cpu_rate) {
            return Err(format!("cpu rate {cpu_rate} out of [0,1]"));
        }
        Ok(TraceRecord {
            start: SimTime::from_millis((start * 1000.0).round() as u64),
            end: SimTime::from_millis((end * 1000.0).round() as u64),
            machine,
            cpu_rate,
        })
    }

    /// Formats the record back to the CSV schema.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{}",
            self.start.as_secs_f64(),
            self.end.as_secs_f64(),
            self.machine,
            self.cpu_rate
        )
    }
}

/// Per-machine CPU-rate time series for a whole cluster.
///
/// # Example
///
/// ```
/// use workload::trace::{ClusterTrace, TraceRecord};
/// use simkit::time::{SimDuration, SimTime};
///
/// let records = vec![TraceRecord::new(
///     SimTime::ZERO,
///     SimTime::from_mins(10),
///     0,
///     0.5,
/// )];
/// let trace = ClusterTrace::from_records(&records, 2, SimDuration::from_mins(5), SimTime::from_mins(20));
/// assert_eq!(trace.machine_series(0).values(), &[0.5, 0.5, 0.0, 0.0]);
/// assert_eq!(trace.machine_series(1).values(), &[0.0, 0.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTrace {
    step: SimDuration,
    series: Vec<TimeSeries>,
}

impl ClusterTrace {
    /// Rasterizes task records into per-machine utilization series.
    ///
    /// Each step holds the time-weighted average CPU rate of all tasks on
    /// that machine during the step, clamped to 1.0 (a machine cannot run
    /// above capacity).
    ///
    /// # Panics
    ///
    /// Panics if `machines` is zero, `step` is zero, `horizon` is not a
    /// positive multiple of `step`, or a record references a machine out
    /// of range.
    pub fn from_records(
        records: &[TraceRecord],
        machines: usize,
        step: SimDuration,
        horizon: SimTime,
    ) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(!step.is_zero(), "step must be non-zero");
        let steps = (horizon.saturating_since(SimTime::ZERO) / step) as usize;
        assert!(steps > 0, "horizon must cover at least one step");
        let mut grid = vec![vec![0.0f64; steps]; machines];
        let step_secs = step.as_secs_f64();
        for rec in records {
            assert!(
                rec.machine < machines,
                "record references machine {} of {machines}",
                rec.machine
            );
            let first = (rec.start.as_millis() / step.as_millis()) as usize;
            for (idx, cell) in grid[rec.machine]
                .iter_mut()
                .enumerate()
                .take(steps)
                .skip(first)
            {
                let bin_start = SimTime::from_millis(idx as u64 * step.as_millis());
                let bin_end = bin_start + step;
                if bin_start >= rec.end {
                    break;
                }
                let overlap_start = rec.start.max(bin_start);
                let overlap_end = rec.end.min(bin_end);
                let overlap = overlap_end.saturating_since(overlap_start).as_secs_f64();
                if overlap > 0.0 {
                    *cell += rec.cpu_rate * overlap / step_secs;
                }
            }
        }
        let series = grid
            .into_iter()
            .map(|mut vals| {
                for v in &mut vals {
                    *v = v.min(1.0);
                }
                TimeSeries::new(SimTime::ZERO, step, vals)
            })
            .collect();
        ClusterTrace { step, series }
    }

    /// Builds a trace directly from per-machine series (synthetic paths).
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or geometries differ: every machine
    /// must share one start, step and length, so one sample index
    /// addresses the whole cluster (see [`ClusterTrace::sample_index`]).
    pub fn from_series(series: Vec<TimeSeries>) -> Self {
        let first = series.first().expect("trace needs at least one machine");
        let step = first.step();
        for s in &series {
            assert_eq!(s.start(), first.start(), "machine series start mismatch");
            assert_eq!(s.step(), step, "machine series step mismatch");
            assert_eq!(s.len(), first.len(), "machine series length mismatch");
        }
        ClusterTrace { step, series }
    }

    /// Parses a whole CSV document (one record per line; blank lines and
    /// `#` comments skipped) and rasterizes it.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line's error, with its line number.
    pub fn parse_csv(
        text: &str,
        machines: usize,
        step: SimDuration,
        horizon: SimTime,
    ) -> Result<Self, String> {
        PARSE_COUNT.fetch_add(1, Ordering::Relaxed);
        let mut records = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let rec =
                TraceRecord::parse_csv(trimmed).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            records.push(rec);
        }
        Ok(ClusterTrace::from_records(
            &records, machines, step, horizon,
        ))
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.series.len()
    }

    /// The sampling step.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Number of samples per machine.
    pub fn steps(&self) -> usize {
        self.series[0].len()
    }

    /// End of the covered interval.
    pub fn horizon(&self) -> SimTime {
        self.series[0].end()
    }

    /// One machine's utilization series.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn machine_series(&self, machine: usize) -> &TimeSeries {
        &self.series[machine]
    }

    /// A machine's utilization at a point in time.
    pub fn utilization_at(&self, machine: usize, t: SimTime) -> f64 {
        self.series[machine].value_at(t)
    }

    /// The sample index holding time `t`, the same for every machine:
    /// `utilization_at(m, t)` is sample `sample_index(t)` of machine `m`.
    pub fn sample_index(&self, t: SimTime) -> usize {
        self.series[0].index_at(t)
    }

    /// Writes sample `index` of machines `0..row.len()` into `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is longer than the machine count or `index` is out
    /// of range.
    pub fn sample_row(&self, index: usize, row: &mut [f64]) {
        assert!(
            row.len() <= self.series.len(),
            "row of {} machines from a trace of {}",
            row.len(),
            self.series.len()
        );
        for (u, series) in row.iter_mut().zip(&self.series) {
            *u = series.values()[index];
        }
    }

    /// Cluster-wide average utilization series.
    pub fn cluster_mean(&self) -> TimeSeries {
        TimeSeries::sum(self.series.iter()).map(|v| v / self.series.len() as f64)
    }

    /// Writes the trace back out as synthetic task records in the CSV
    /// schema: one record per machine per step with that step's average
    /// CPU rate (zero-rate steps are skipped). Rasterizing the output
    /// reproduces this trace exactly.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("# start_secs,end_secs,machine,cpu_rate\n");
        for (m, series) in self.series.iter().enumerate() {
            for (t, v) in series.iter() {
                if v > 0.0 {
                    out.push_str(&format!(
                        "{},{},{m},{v}\n",
                        t.as_secs_f64(),
                        (t + self.step).as_secs_f64(),
                    ));
                }
            }
        }
        out
    }

    /// Aggregate utilization statistics across every machine-step sample.
    pub fn summary(&self) -> simkit::stats::OnlineStats {
        self.series
            .iter()
            .flat_map(|s| s.values().iter().copied())
            .collect()
    }

    /// Restricts the trace to the first `machines` machines (e.g. to run a
    /// small scenario from a large trace).
    ///
    /// # Panics
    ///
    /// Panics if `machines` is zero or exceeds the trace's machine count.
    pub fn take_machines(&self, machines: usize) -> ClusterTrace {
        assert!(
            machines > 0 && machines <= self.series.len(),
            "cannot take {machines} of {} machines",
            self.series.len()
        );
        ClusterTrace {
            step: self.step,
            series: self.series[..machines].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rasterization_weights_partial_overlap() {
        // Task covers 7.5 of the first 10-minute bin: expect 0.75 × rate.
        let records = vec![TraceRecord::new(
            SimTime::from_mins(2) + SimDuration::from_secs(30),
            SimTime::from_mins(10),
            0,
            0.8,
        )];
        let trace = ClusterTrace::from_records(
            &records,
            1,
            SimDuration::from_mins(10),
            SimTime::from_mins(10),
        );
        let v = trace.machine_series(0).values()[0];
        assert!((v - 0.8 * 0.75).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn concurrent_tasks_sum_and_clamp() {
        let mk = |rate| TraceRecord::new(SimTime::ZERO, SimTime::from_mins(5), 0, rate);
        let trace = ClusterTrace::from_records(
            &[mk(0.7), mk(0.7)],
            1,
            SimDuration::from_mins(5),
            SimTime::from_mins(5),
        );
        assert_eq!(trace.machine_series(0).values(), &[1.0]);
    }

    #[test]
    fn csv_round_trip() {
        let rec = TraceRecord::new(SimTime::from_secs(60), SimTime::from_secs(120), 17, 0.25);
        let parsed = TraceRecord::parse_csv(&rec.to_csv()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn csv_parser_rejects_malformed() {
        assert!(TraceRecord::parse_csv("1,2,3").is_err());
        assert!(TraceRecord::parse_csv("abc,2,3,0.5").is_err());
        assert!(
            TraceRecord::parse_csv("5,2,3,0.5").is_err(),
            "end before start"
        );
        assert!(TraceRecord::parse_csv("1,2,3,1.5").is_err(), "rate > 1");
    }

    #[test]
    fn parse_csv_document_skips_comments() {
        let text = "# google-like trace\n\n0,300,0,0.5\n300,600,1,0.25\n";
        let trace =
            ClusterTrace::parse_csv(text, 2, SimDuration::from_mins(5), SimTime::from_mins(10))
                .unwrap();
        assert_eq!(trace.machine_series(0).values(), &[0.5, 0.0]);
        assert_eq!(trace.machine_series(1).values(), &[0.0, 0.25]);
    }

    #[test]
    fn parse_csv_document_reports_line_numbers() {
        let err = ClusterTrace::parse_csv(
            "0,300,0,0.5\nbogus line\n",
            1,
            SimDuration::from_mins(5),
            SimTime::from_mins(5),
        )
        .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn cluster_mean_averages_machines() {
        let records = vec![
            TraceRecord::new(SimTime::ZERO, SimTime::from_mins(5), 0, 1.0),
            TraceRecord::new(SimTime::ZERO, SimTime::from_mins(5), 1, 0.5),
        ];
        let trace = ClusterTrace::from_records(
            &records,
            2,
            SimDuration::from_mins(5),
            SimTime::from_mins(5),
        );
        assert_eq!(trace.cluster_mean().values(), &[0.75]);
    }

    #[test]
    fn to_csv_round_trips_through_rasterization() {
        let records = vec![
            TraceRecord::new(SimTime::ZERO, SimTime::from_mins(5), 0, 0.5),
            TraceRecord::new(SimTime::from_mins(5), SimTime::from_mins(10), 1, 0.25),
        ];
        let trace = ClusterTrace::from_records(
            &records,
            2,
            SimDuration::from_mins(5),
            SimTime::from_mins(10),
        );
        let csv = trace.to_csv();
        let back =
            ClusterTrace::parse_csv(&csv, 2, SimDuration::from_mins(5), SimTime::from_mins(10))
                .unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn summary_covers_all_samples() {
        let records = vec![TraceRecord::new(
            SimTime::ZERO,
            SimTime::from_mins(5),
            0,
            1.0,
        )];
        let trace = ClusterTrace::from_records(
            &records,
            2,
            SimDuration::from_mins(5),
            SimTime::from_mins(10),
        );
        let stats = trace.summary();
        assert_eq!(stats.count(), 4);
        assert!((stats.mean() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sample_row_matches_per_machine_lookups() {
        let series = (0..3)
            .map(|m| {
                TimeSeries::new(
                    SimTime::ZERO,
                    SimDuration::from_mins(1),
                    vec![0.1 * m as f64, 0.2, 0.3 + 0.1 * m as f64],
                )
            })
            .collect();
        let trace = ClusterTrace::from_series(series);
        let mut row = [0.0; 3];
        for secs in [0, 59, 60, 119, 120, 600] {
            let t = SimTime::from_secs(secs);
            trace.sample_row(trace.sample_index(t), &mut row);
            for (m, &u) in row.iter().enumerate() {
                assert_eq!(u, trace.utilization_at(m, t), "machine {m} at {t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "machine series start mismatch")]
    fn from_series_rejects_staggered_starts() {
        let step = SimDuration::from_mins(1);
        ClusterTrace::from_series(vec![
            TimeSeries::new(SimTime::ZERO, step, vec![0.5, 0.5]),
            TimeSeries::new(SimTime::from_secs(30), step, vec![0.5, 0.5]),
        ]);
    }

    #[test]
    fn take_machines_subsets() {
        let records = vec![TraceRecord::new(
            SimTime::ZERO,
            SimTime::from_mins(5),
            2,
            0.4,
        )];
        let trace = ClusterTrace::from_records(
            &records,
            3,
            SimDuration::from_mins(5),
            SimTime::from_mins(5),
        );
        let sub = trace.take_machines(2);
        assert_eq!(sub.machines(), 2);
        assert_eq!(sub.machine_series(1).values(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "machine 5")]
    fn out_of_range_machine_rejected() {
        let records = vec![TraceRecord::new(
            SimTime::ZERO,
            SimTime::from_mins(5),
            5,
            0.4,
        )];
        ClusterTrace::from_records(
            &records,
            2,
            SimDuration::from_mins(5),
            SimTime::from_mins(5),
        );
    }
}
