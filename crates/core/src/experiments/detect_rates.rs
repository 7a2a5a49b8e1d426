//! Table I extension — streaming detector bank vs interval metering.
//!
//! Table I's conclusion is that interval metering is nearly blind to
//! narrow, sparse spikes ("in many cases, the data center is totally
//! blind to fine-grained power spikes", §III.B). This experiment reruns
//! the same testbed attacks with the [`crate::detect`] streaming bank
//! watching the victim rack alongside the meter bank, and extends the
//! table with a detector row at the same columns — plus the bank's
//! false-positive tick rate on the attack-free baseline and its mean
//! per-spike detection latency.
//!
//! Each run gives the detectors a one-minute benign lead-in before the
//! attack so the EWMA/CUSUM baselines calibrate on legitimate load, the
//! same way the meter thresholds calibrate on an attack-free run.

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle, AttackWindows};
use attack::virus::VirusClass;
use powerinfra::metering::MeterBank;
use powerinfra::topology::RackId;
use simkit::stats::OnlineStats;
use simkit::sweep::SweepRunner;
use simkit::table::Table;
use simkit::time::{SimDuration, SimTime};
use workload::trace::ClusterTrace;

use crate::detect::{confusion, spike_detection_rate, spike_latencies, DetectConfig, TickVerdict};
use crate::experiments::table1::{AttackColumn, INTERVALS};
use crate::experiments::{testbed_config, testbed_trace, Fidelity};
use crate::schemes::Scheme;
use crate::sim::ClusterSim;

/// Benign lead-in before the attack starts, for detector calibration.
pub const LEAD_IN: SimDuration = SimDuration::from_secs(60);

/// Post-spike slack when attributing verdicts to spikes (matches the
/// overload-attribution slack of
/// [`effective_spikes`](crate::experiments::effective_spikes)).
pub const GRACE: SimDuration = SimDuration::from_millis(300);

/// The extension dataset: Table I's meter rates plus a detector row.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectRates {
    /// Attack columns, in presentation order.
    pub columns: Vec<AttackColumn>,
    /// Per-spike detection rates per metering interval (row) per column.
    pub meter_rates: Vec<(SimDuration, Vec<f64>)>,
    /// Per-spike detection rate of the streaming bank, per column.
    pub detector_rates: Vec<f64>,
    /// Mean detection latency of the bank in milliseconds, per column
    /// (`None` when no spike of the column was detected).
    pub detector_latency_ms: Vec<Option<f64>>,
    /// Fused-fired tick fraction on the attack-free baseline run.
    pub benign_fpr: f64,
}

/// The sparse CPU-intensive scenario of one column, skipping Phase I so
/// the spike timeline is exact.
fn column_scenario(column: AttackColumn) -> AttackScenario {
    AttackScenario::new(
        AttackStyle::Sparse,
        VirusClass::CpuIntensive,
        column.servers,
    )
    .with_width(SimDuration::from_secs(column.width_secs))
    .with_frequency(column.per_minute as f64)
    .immediate()
}

/// One run's evidence: aligned meter samples, per-tick fused verdicts,
/// and the ground-truth windows (empty for the baseline run).
struct CaseRun {
    meter_samples: Vec<Vec<(SimTime, f64)>>,
    verdicts: Vec<TickVerdict>,
    windows: AttackWindows,
}

/// Runs one column (or the attack-free baseline) on the Table I testbed
/// with both the meter bank and the detector stack watching the victim.
fn run_case(
    column: Option<AttackColumn>,
    window: SimDuration,
    trace: &Arc<ClusterTrace>,
) -> CaseRun {
    let config = testbed_config(Scheme::Conv);
    let mut sim = ClusterSim::new_shared(config, Arc::clone(trace)).expect("valid config");
    sim.reseed_noise(
        0x0DE7EC7 // distinct base seed from table1: same formula shape, independent noise
            ^ column.map_or(0, |c| {
                (c.servers as u64) << 16 | c.width_secs << 8 | c.per_minute
            }),
    );
    sim.enable_detection(DetectConfig::default());
    let attack_start = SimTime::ZERO + LEAD_IN;
    let horizon = attack_start + window;
    let windows = match column {
        Some(c) => column_scenario(c).ground_truth(attack_start, horizon),
        None => AttackWindows::default(),
    };
    if let Some(c) = column {
        sim.set_attack(column_scenario(c), RackId(0), attack_start);
    }
    let mut meters = MeterBank::new(&INTERVALS);
    let dt = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    let mut verdicts = Vec::new();
    while t < horizon {
        sim.step(dt);
        meters.feed(sim.last_draws()[0], t, dt);
        verdicts.push(TickVerdict {
            time: t,
            fused: sim.detection().expect("detection enabled").fused(),
        });
        t += dt;
    }
    CaseRun {
        // Only complete windows count, as in Table I.
        meter_samples: meters
            .take_samples()
            .into_iter()
            .map(|v| v.into_iter().map(|(time, p)| (time, p.0)).collect())
            .collect(),
        verdicts,
        windows,
    }
}

/// Fraction of ground-truth spikes at least one overlapping meter window
/// read above `threshold`.
fn meter_rate(
    samples: &[(SimTime, f64)],
    interval: SimDuration,
    threshold: f64,
    windows: &AttackWindows,
) -> f64 {
    if windows.spikes.is_empty() {
        return 0.0;
    }
    let detected = windows
        .spikes
        .iter()
        .filter(|&&(s_start, s_end)| {
            samples.iter().any(|&(w_start, avg)| {
                let w_end = w_start + interval;
                w_start < s_end && s_start < w_end && avg > threshold
            })
        })
        .count();
    detected as f64 / windows.spikes.len() as f64
}

/// Runs the extension, fanning the baseline and every column across
/// `jobs` workers over one shared testbed trace. Per-run noise is
/// reseeded from the column parameters, so results are identical for
/// any worker count.
pub fn run(fidelity: Fidelity, jobs: usize) -> DetectRates {
    let window = if fidelity.is_smoke() {
        SimDuration::from_mins(5)
    } else {
        SimDuration::from_mins(15)
    };
    let columns = if fidelity.is_smoke() {
        vec![
            AttackColumn {
                servers: 1,
                width_secs: 1,
                per_minute: 1,
            },
            AttackColumn {
                servers: 4,
                width_secs: 4,
                per_minute: 6,
            },
        ]
    } else {
        AttackColumn::paper_columns()
    };

    let trace = Arc::new(testbed_trace(0x0DE7EC7));
    let mut runs: Vec<Option<AttackColumn>> = vec![None];
    runs.extend(columns.iter().copied().map(Some));
    let mut cases = SweepRunner::new(jobs).run(runs, |_, column| run_case(column, window, &trace));

    // Meter anomaly thresholds and the bank's false-positive rate both
    // come from the attack-free baseline.
    let baseline = cases.remove(0);
    let thresholds: Vec<f64> = baseline
        .meter_samples
        .iter()
        .map(|samples| {
            let stats: OnlineStats = samples.iter().map(|&(_, v)| v).collect();
            stats.mean() + (2.0 * stats.population_std_dev()).max(stats.mean() * 0.02)
        })
        .collect();
    let benign_fpr = confusion(&baseline.verdicts, &baseline.windows, GRACE).fpr();

    let mut meter_rates: Vec<(SimDuration, Vec<f64>)> =
        INTERVALS.iter().map(|&i| (i, Vec::new())).collect();
    let mut detector_rates = Vec::new();
    let mut detector_latency_ms = Vec::new();
    for case in &cases {
        for (idx, &interval) in INTERVALS.iter().enumerate() {
            meter_rates[idx].1.push(meter_rate(
                &case.meter_samples[idx],
                interval,
                thresholds[idx],
                &case.windows,
            ));
        }
        detector_rates.push(spike_detection_rate(&case.verdicts, &case.windows, GRACE));
        let latencies: Vec<f64> = spike_latencies(&case.verdicts, &case.windows, GRACE)
            .into_iter()
            .flatten()
            .map(|d| d.as_millis() as f64)
            .collect();
        detector_latency_ms.push(if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<f64>() / latencies.len() as f64)
        });
    }
    DetectRates {
        columns,
        meter_rates,
        detector_rates,
        detector_latency_ms,
        benign_fpr,
    }
}

impl DetectRates {
    /// Detection rate of one metering interval for one column.
    pub fn meter_rate(&self, interval: SimDuration, column: AttackColumn) -> Option<f64> {
        let col = self.columns.iter().position(|&c| c == column)?;
        self.meter_rates
            .iter()
            .find(|&&(i, _)| i == interval)
            .and_then(|(_, row)| row.get(col).copied())
    }

    /// Detection rate of the streaming bank for one column.
    pub fn detector_rate(&self, column: AttackColumn) -> Option<f64> {
        let col = self.columns.iter().position(|&c| c == column)?;
        self.detector_rates.get(col).copied()
    }

    /// Renders the extended table: Table I's meter rows plus the
    /// detector-bank row, latency row, and the baseline FPR.
    pub fn render(&self) -> String {
        let mut headers = vec!["monitor".to_string()];
        headers.extend(self.columns.iter().map(AttackColumn::label));
        let mut table = Table::new(headers);
        table.title("Table I extension — streaming detectors vs interval metering");
        for (interval, row) in &self.meter_rates {
            let mut cells = vec![format!("meter {interval}")];
            cells.extend(row.iter().map(|r| format!("{:.1}%", r * 100.0)));
            table.row(cells);
        }
        let mut cells = vec!["detector bank".to_string()];
        cells.extend(
            self.detector_rates
                .iter()
                .map(|r| format!("{:.1}%", r * 100.0)),
        );
        table.row(cells);
        let mut cells = vec!["mean latency".to_string()];
        cells.extend(self.detector_latency_ms.iter().map(|l| match l {
            Some(ms) => format!("{ms:.0} ms"),
            None => "-".to_string(),
        }));
        table.row(cells);
        let mut out = table.render();
        out.push_str(&format!(
            "\nbank false-positive tick rate on attack-free baseline: {:.2}%\n",
            self.benign_fpr * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_bank_beats_coarse_metering_on_sparse_spikes() {
        let t = run(Fidelity::Smoke, 1);
        let weak = AttackColumn {
            servers: 1,
            width_secs: 1,
            per_minute: 1,
        };
        // The paper's blind cell: a 5-minute meter dilutes a 1 s spike
        // 300×. The streaming bank watches every tick instead.
        let coarse = t.meter_rate(SimDuration::from_mins(5), weak).unwrap();
        let bank = t.detector_rate(weak).unwrap();
        assert!(
            bank > coarse,
            "bank ({bank:.2}) must strictly beat the 5-min meter ({coarse:.2})"
        );
        assert!(
            bank > 0.5,
            "bank should catch most sparse narrow spikes, got {bank:.2}"
        );
        // Detector alarms must stay rare on the attack-free baseline.
        assert!(
            t.benign_fpr <= 0.05,
            "benign FPR must stay under 5%, got {:.3}",
            t.benign_fpr
        );
        let render = t.render();
        assert!(render.contains("detector bank"));
        assert!(render.contains("false-positive"));
    }
}
