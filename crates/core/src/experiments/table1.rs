//! Table I — spike detection rate under different metering schemes.
//!
//! "We evaluate the detection rate of various power attacking scenarios
//! under different power demand monitoring technologies for 15 minutes …
//! even fine-grained power monitoring cannot detect all the hidden power
//! spikes … In many cases, the data center is totally blind to
//! fine-grained power spikes." (§III.B)
//!
//! A bank of energy-integrating meters at 5 s…15 min intervals watches
//! the victim rack. A spike counts as *detected* when at least one meter
//! window overlapping it reads above an anomaly threshold calibrated from
//! an attack-free run (mean + 2σ of that meter's samples).

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use powerinfra::metering::PowerMeter;
use powerinfra::topology::RackId;
use simkit::stats::OnlineStats;
use simkit::sweep::SweepRunner;
use simkit::table::Table;
use simkit::time::{SimDuration, SimTime};
use workload::trace::ClusterTrace;

use crate::experiments::{testbed_config, testbed_trace, Fidelity};
use crate::schemes::Scheme;
use crate::sim::ClusterSim;

/// The metering intervals of Table I.
pub const INTERVALS: [SimDuration; 7] = [
    SimDuration::from_secs(5),
    SimDuration::from_secs(10),
    SimDuration::from_secs(30),
    SimDuration::from_secs(60),
    SimDuration::from_mins(5),
    SimDuration::from_mins(10),
    SimDuration::from_mins(15),
];

/// One attack column of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttackColumn {
    /// Compromised servers.
    pub servers: usize,
    /// Spike width in seconds.
    pub width_secs: u64,
    /// Spikes per minute.
    pub per_minute: u64,
}

impl AttackColumn {
    /// The paper's eight columns: {1,4} servers × {1,4} s × {1,6}/min.
    pub fn paper_columns() -> Vec<AttackColumn> {
        let mut cols = Vec::new();
        for servers in [1usize, 4] {
            for width_secs in [1u64, 4] {
                for per_minute in [1u64, 6] {
                    cols.push(AttackColumn {
                        servers,
                        width_secs,
                        per_minute,
                    });
                }
            }
        }
        cols
    }

    /// Column header like `1srv w1s 6/min`.
    pub fn label(&self) -> String {
        format!(
            "{}srv w{}s {}/min",
            self.servers, self.width_secs, self.per_minute
        )
    }
}

/// The full Table I dataset: `rates[interval][column]` in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Attack columns, in presentation order.
    pub columns: Vec<AttackColumn>,
    /// Detection rates per metering interval (row) per column.
    pub rates: Vec<(SimDuration, Vec<f64>)>,
}

/// Runs an attack (or baseline) and collects one meter-sample vector per
/// interval from the victim's utility draw.
fn metered_samples(
    column: Option<AttackColumn>,
    window: SimDuration,
    trace: &Arc<ClusterTrace>,
) -> Vec<Vec<(SimTime, f64)>> {
    let config = testbed_config(Scheme::Conv);
    let mut sim = ClusterSim::new_shared(config, Arc::clone(trace)).expect("valid config");
    sim.reseed_noise(
        0x7AB1E
            ^ column.map_or(0, |c| {
                (c.servers as u64) << 16 | c.width_secs << 8 | c.per_minute
            }),
    );
    if let Some(c) = column {
        let scenario =
            AttackScenario::new(AttackStyle::Sparse, VirusClass::CpuIntensive, c.servers)
                .with_width(SimDuration::from_secs(c.width_secs))
                .with_frequency(c.per_minute as f64)
                .immediate();
        sim.set_attack(scenario, RackId(0), SimTime::ZERO);
    }
    let mut meters: Vec<PowerMeter> = INTERVALS.iter().map(|&i| PowerMeter::new(i)).collect();
    let dt = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + window {
        sim.step(dt);
        let draw = sim.last_draws()[0];
        for m in &mut meters {
            m.feed(draw, t, dt);
        }
        t += dt;
    }
    meters
        .into_iter()
        .map(|mut m| {
            // Only complete windows count: a flushed partial window would
            // bias both the calibration and the detection statistics.
            m.take_samples()
                .into_iter()
                .map(|(time, p)| (time, p.0))
                .collect()
        })
        .collect()
}

/// Fraction of the column's spikes that at least one overlapping meter
/// window flagged.
fn detection_rate(
    samples: &[(SimTime, f64)],
    interval: SimDuration,
    threshold: f64,
    column: AttackColumn,
    window: SimDuration,
) -> f64 {
    let train = AttackScenario::new(
        AttackStyle::Sparse,
        VirusClass::CpuIntensive,
        column.servers,
    )
    .with_width(SimDuration::from_secs(column.width_secs))
    .with_frequency(column.per_minute as f64)
    .train();
    let spikes = train.spikes_before(SimTime::ZERO + window);
    if spikes == 0 {
        return 0.0;
    }
    let mut detected = 0;
    for k in 0..spikes {
        let s_start = train.spike_start(k);
        let s_end = s_start + train.width();
        let hit = samples.iter().any(|&(w_start, avg)| {
            let w_end = w_start + interval;
            w_start < s_end && s_start < w_end && avg > threshold
        });
        if hit {
            detected += 1;
        }
    }
    detected as f64 / spikes as f64
}

/// Runs the full table, fanning the calibration run and every attack
/// column across `jobs` workers over one shared testbed trace. Each run
/// reseeds its own noise from its column parameters, so the table is
/// identical for any worker count.
pub fn run(fidelity: Fidelity, jobs: usize) -> Table1 {
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

    // One sweep covers the attack-free calibration (index 0) and every
    // attack column; the trace is synthesized once and shared.
    let trace = Arc::new(testbed_trace(0x7AB1E));
    let mut runs: Vec<Option<AttackColumn>> = vec![None];
    runs.extend(columns.iter().copied().map(Some));
    let mut sampled =
        SweepRunner::new(jobs).run(runs, |_, column| metered_samples(column, window, &trace));

    // Anomaly thresholds from the attack-free calibration run.
    let baseline = sampled.remove(0);
    let thresholds: Vec<f64> = baseline
        .iter()
        .map(|samples| {
            let stats: OnlineStats = samples.iter().map(|&(_, v)| v).collect();
            // Mean + 2σ, floored at a 2% deadband so intervals with too
            // few baseline samples (σ ≈ 0) don't flag normal wander.
            stats.mean() + (2.0 * stats.population_std_dev()).max(stats.mean() * 0.02)
        })
        .collect();

    let mut rates: Vec<(SimDuration, Vec<f64>)> =
        INTERVALS.iter().map(|&i| (i, Vec::new())).collect();
    for (&column, samples) in columns.iter().zip(&sampled) {
        for (idx, &interval) in INTERVALS.iter().enumerate() {
            let rate = detection_rate(&samples[idx], interval, thresholds[idx], column, window);
            rates[idx].1.push(rate);
        }
    }
    Table1 { columns, rates }
}

impl Table1 {
    /// Detection rate for one interval/column pair.
    pub fn rate(&self, interval: SimDuration, column: AttackColumn) -> Option<f64> {
        let col = self.columns.iter().position(|&c| c == column)?;
        self.rates
            .iter()
            .find(|&&(i, _)| i == interval)
            .and_then(|(_, row)| row.get(col).copied())
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut headers = vec!["interval".to_string()];
        headers.extend(self.columns.iter().map(AttackColumn::label));
        let mut table = Table::new(headers);
        table.title("Table I — spike detection rate by metering interval");
        for (interval, row) in &self.rates {
            let mut cells = vec![interval.to_string()];
            cells.extend(row.iter().map(|r| format!("{:.1}%", r * 100.0)));
            table.row(cells);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_detection_shape() {
        let t = run(Fidelity::Smoke, 1);
        let weak = AttackColumn {
            servers: 1,
            width_secs: 1,
            per_minute: 1,
        };
        let strong = AttackColumn {
            servers: 4,
            width_secs: 4,
            per_minute: 6,
        };
        // Fine meters see the weak attack better than coarse meters.
        let fine = t.rate(SimDuration::from_secs(5), weak).unwrap();
        let coarse = t.rate(SimDuration::from_mins(5), weak).unwrap();
        assert!(
            fine >= coarse,
            "5s meter ({fine:.2}) must beat 5min meter ({coarse:.2}) on weak spikes"
        );
        // The heavy attack saturates even coarse meters (the paper's 100%
        // cells): its duty cycle moves the long-window average itself.
        let heavy_coarse = t.rate(SimDuration::from_mins(5), strong).unwrap();
        assert!(
            heavy_coarse > 0.9,
            "4-server 4s 6/min attack should be fully visible, got {heavy_coarse:.2}"
        );
        assert!(t.render().contains("Table I"));
    }
}
