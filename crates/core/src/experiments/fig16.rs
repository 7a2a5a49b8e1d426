//! Figure 16 — data-center throughput during the attack period.
//!
//! "We evaluate the total data center throughput under different power
//! attack rates and peak power widths … PAD shows less than 5% throughput
//! degradation for the evaluated 0.6 s power spike, while the performance
//! degradation of PSPC and Conv are 12% and 17%, respectively." (§VI.C)
//!
//! Throughput loss comes from three places the simulator models
//! end-to-end: breaker-trip outages (racks dark for the operator reset
//! window — Conv's failure mode), DVFS capping (PSPC's overhead), and
//! Level-3 shedding (PAD's small, targeted cost).

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use simkit::stats::OnlineStats;
use simkit::sweep::SweepRunner;
use simkit::time::SimDuration;
use workload::trace::ClusterTrace;

use crate::experiments::{
    survival_attack_time, survival_trace, warmed_survival_sim, warmed_survival_sim_shared, Fidelity,
};
use crate::report::render_multi_series;
use crate::schemes::Scheme;
use crate::sim::SimConfig;

/// The schemes Figure 16 plots.
pub const SCHEMES: [Scheme; 4] = [Scheme::Ps, Scheme::Pspc, Scheme::Conv, Scheme::Pad];

/// One sweep (rate or width): x values and per-scheme throughput columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputSweep {
    /// Sweep axis label.
    pub x_label: &'static str,
    /// X values (attack rate as a fraction, or width in seconds).
    pub xs: Vec<f64>,
    /// Per-scheme normalized throughput, same order as [`SCHEMES`].
    pub columns: Vec<(Scheme, Vec<f64>)>,
}

/// The full Figure 16 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16 {
    /// Panel A: throughput vs attack rate (spike duty cycle).
    pub by_rate: ThroughputSweep,
    /// Panel B: throughput vs spike width.
    pub by_width: ThroughputSweep,
}

/// Measures normalized throughput for one configuration.
pub fn throughput_of(
    scheme: Scheme,
    width: SimDuration,
    per_minute: f64,
    seed: u64,
    fidelity: Fidelity,
) -> f64 {
    let sim = warmed_survival_sim(scheme, seed, fidelity);
    throughput_from(sim, width, per_minute, fidelity)
}

/// [`throughput_of`] over a shared per-seed trace (must be
/// `survival_trace(total_servers, seed, fidelity)`).
pub fn throughput_of_shared(
    scheme: Scheme,
    width: SimDuration,
    per_minute: f64,
    seed: u64,
    fidelity: Fidelity,
    trace: &Arc<ClusterTrace>,
) -> f64 {
    let sim = warmed_survival_sim_shared(scheme, seed, fidelity, trace);
    throughput_from(sim, width, per_minute, fidelity)
}

fn throughput_from(
    mut sim: crate::sim::ClusterSim,
    width: SimDuration,
    per_minute: f64,
    fidelity: Fidelity,
) -> f64 {
    let victim = sim.most_vulnerable_rack();
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
        .with_width(width)
        .with_frequency(per_minute)
        .with_escalation(SimDuration::from_mins(5))
        .with_max_drain(SimDuration::from_mins(5));
    let attack_at = survival_attack_time();
    sim.set_attack(scenario, victim, attack_at);
    let window = if fidelity.is_smoke() {
        SimDuration::from_mins(10)
    } else {
        SimDuration::from_mins(30)
    };
    // Measure the attack period only, and ride it out without an early
    // stop: the cost is capping, shedding and outages, not the overloads
    // themselves.
    sim.reset_work_counters();
    let report = sim.run(attack_at + window, SimDuration::from_millis(100), false);
    report.normalized_throughput()
}

fn sweep(
    fidelity: Fidelity,
    jobs: usize,
    traces: &[Arc<ClusterTrace>],
    x_label: &'static str,
    points: &[(f64, SimDuration, f64)],
) -> ThroughputSweep {
    let schemes: Vec<Scheme> = if fidelity.is_smoke() {
        vec![Scheme::Conv, Scheme::Pad]
    } else {
        SCHEMES.to_vec()
    };
    let xs: Vec<f64> = points.iter().map(|&(x, _, _)| x).collect();

    // Flatten scheme → point → seed, the serial aggregation order.
    let mut specs = Vec::new();
    for &scheme in &schemes {
        for &(_, width, freq) in points {
            for seed in 1..=fidelity.seeds() {
                specs.push((scheme, width, freq, seed));
            }
        }
    }
    let runs = SweepRunner::new(jobs).run(specs, |_, (scheme, width, freq, seed)| {
        let trace = &traces[(seed - 1) as usize];
        throughput_of_shared(scheme, width, freq, seed, fidelity, trace)
    });

    let mut runs = runs.into_iter();
    let mut columns = Vec::new();
    for &scheme in &schemes {
        let mut ys = Vec::new();
        for _point in points {
            let mut stats = OnlineStats::new();
            for _seed in 1..=fidelity.seeds() {
                stats.push(runs.next().expect("one run per spec"));
            }
            ys.push(stats.mean());
        }
        columns.push((scheme, ys));
    }
    ThroughputSweep {
        x_label,
        xs,
        columns,
    }
}

/// Runs both panels, sharing one synthesized trace per seed and fanning
/// every `(scheme, point, seed)` run across `jobs` workers.
pub fn run(fidelity: Fidelity, jobs: usize) -> Fig16 {
    // Panel A: attack rate = spike duty cycle, 2 s spikes. 16%..50% duty
    // maps to 4.8..15 spikes/min.
    let width_a = SimDuration::from_secs(2);
    let rates = [0.16, 0.20, 0.25, 0.33, 0.50];
    let points_a: Vec<(f64, SimDuration, f64)> = rates
        .iter()
        .map(|&d| (d, width_a, d * 60.0 / width_a.as_secs_f64()))
        .collect();
    let points_a = if fidelity.is_smoke() {
        points_a[..2].to_vec()
    } else {
        points_a
    };

    // Panel B: width sweep at a fixed 6/min, 0.2..0.6 s.
    let widths = [0.2, 0.3, 0.4, 0.5, 0.6];
    let points_b: Vec<(f64, SimDuration, f64)> = widths
        .iter()
        .map(|&w| (w, SimDuration::from_secs_f64(w), 6.0))
        .collect();
    let points_b = if fidelity.is_smoke() {
        points_b[..2].to_vec()
    } else {
        points_b
    };

    let machines = SimConfig::paper_default(Scheme::Pad)
        .topology
        .total_servers();
    let traces: Vec<Arc<ClusterTrace>> = (1..=fidelity.seeds())
        .map(|seed| Arc::new(survival_trace(machines, seed, fidelity)))
        .collect();

    Fig16 {
        by_rate: sweep(fidelity, jobs, &traces, "attack_rate", &points_a),
        by_width: sweep(fidelity, jobs, &traces, "spike_width_s", &points_b),
    }
}

impl ThroughputSweep {
    /// Throughput column for one scheme.
    pub fn column(&self, scheme: Scheme) -> Option<&[f64]> {
        self.columns
            .iter()
            .find(|(s, _)| *s == scheme)
            .map(|(_, ys)| ys.as_slice())
    }

    /// Renders the sweep as a multi-column series.
    pub fn render(&self, title: &str) -> String {
        let columns: Vec<(&str, Vec<f64>)> = self
            .columns
            .iter()
            .map(|(s, ys)| (s.label(), ys.clone()))
            .collect();
        render_multi_series(title, self.x_label, &self.xs, &columns)
    }
}

impl Fig16 {
    /// Renders both panels.
    pub fn render(&self) -> String {
        let mut out = self
            .by_rate
            .render("Figure 16-A — normalized throughput vs attack rate");
        out.push('\n');
        out.push_str(
            &self
                .by_width
                .render("Figure 16-B — normalized throughput vs spike width"),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pad_throughput_dominates_conv() {
        let fig = run(Fidelity::Smoke, 1);
        let pad = fig.by_rate.column(Scheme::Pad).unwrap();
        let conv = fig.by_rate.column(Scheme::Conv).unwrap();
        for (p, c) in pad.iter().zip(conv) {
            // At smoke scale the attack barely bites; allow noise-level
            // slack while still catching gross inversions.
            assert!(
                p + 5e-3 >= *c,
                "PAD throughput {p} must not fall below Conv {c}"
            );
            assert!((0.0..=1.0).contains(p));
        }
        assert!(fig.render().contains("Figure 16-A"));
    }
}
