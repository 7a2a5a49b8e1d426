//! Figure 13 — DEB usage maps: conventional vs PAD-optimized.
//!
//! "Figure 13 shows the monitored DEB utilization map of the evaluated
//! server clusters at each timestamp … PAD allows a data center to hide
//! vulnerable server racks by effectively balancing the usage of
//! batteries … the survival time is improved by 1.7X after optimization."
//! (§VI.A)

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use simkit::heatmap::Heatmap;
use simkit::sweep::SweepRunner;
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;
use workload::trace::ClusterTrace;

use crate::experiments::Fidelity;
use crate::metrics::SocHistory;
use crate::schemes::Scheme;
use crate::sim::{ClusterSim, SimConfig};

/// The Figure 13 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13 {
    /// SOC history under conventional peak shaving.
    pub conventional: SocHistory,
    /// SOC history under PAD.
    pub pad: SocHistory,
    /// Survival under a dense CPU attack, conventional management.
    pub conventional_survival: SimDuration,
    /// Survival under the same attack with PAD.
    pub pad_survival: SimDuration,
}

fn trace_horizon(fidelity: Fidelity) -> SimTime {
    if fidelity.is_smoke() {
        SimTime::from_hours(30)
    } else {
        SimTime::from_hours(48)
    }
}

fn usage_trace(machines: usize, fidelity: Fidelity) -> ClusterTrace {
    SynthConfig {
        machines,
        horizon: trace_horizon(fidelity),
        mean_utilization: 0.35,
        ..SynthConfig::google_may2010()
    }
    .generate_direct(0x00F1_6013)
}

fn run_one(
    scheme: Scheme,
    fidelity: Fidelity,
    trace: &Arc<ClusterTrace>,
) -> (SocHistory, SimDuration) {
    let config = SimConfig::paper_default(scheme);
    let mut sim = ClusterSim::new_shared(config, Arc::clone(trace)).expect("valid config");
    sim.record_soc(SimDuration::from_mins(5));
    // One day of normal operation produces the usage map...
    let attack_at = SimTime::from_hours(if fidelity.is_smoke() { 26 } else { 34 });
    sim.run(attack_at, SimDuration::from_mins(1), false);
    let history = sim.soc_history().expect("recording enabled").clone();
    // ...then the reference attack measures how long the landscape holds.
    let victim = sim.most_vulnerable_rack();
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
        .with_escalation(SimDuration::from_mins(5));
    sim.set_attack(scenario, victim, attack_at);
    let cap = if fidelity.is_smoke() {
        SimDuration::from_mins(20)
    } else {
        SimDuration::from_hours(2)
    };
    let report = sim.run(attack_at + cap, SimDuration::from_millis(100), true);
    (history, report.survival_or_horizon())
}

/// Runs both managements, sharing one synthesized trace and fanning the
/// two schemes across workers.
pub fn run(fidelity: Fidelity, jobs: usize) -> Fig13 {
    let machines = SimConfig::paper_default(Scheme::Ps)
        .topology
        .total_servers();
    let trace = Arc::new(usage_trace(machines, fidelity));
    let mut results = SweepRunner::new(jobs).run(vec![Scheme::Ps, Scheme::Pad], |_, scheme| {
        run_one(scheme, fidelity, &trace)
    });
    let (pad, pad_survival) = results.pop().expect("two schemes");
    let (conventional, conventional_survival) = results.pop().expect("two schemes");
    Fig13 {
        conventional,
        pad,
        conventional_survival,
        pad_survival,
    }
}

impl Fig13 {
    /// Survival improvement factor (the paper's 1.7×).
    pub fn improvement(&self) -> f64 {
        let base = self.conventional_survival.as_secs_f64().max(1e-9);
        self.pad_survival.as_secs_f64() / base
    }

    /// Fraction of samples with at least one vulnerable rack (SOC < 25%),
    /// `(conventional, pad)` — the "blue strips" of the paper's map.
    pub fn vulnerability_exposure(&self) -> (f64, f64) {
        (
            self.conventional.vulnerability_exposure(0.25),
            self.pad.vulnerability_exposure(0.25),
        )
    }

    fn heatmap_of(history: &SocHistory, title: &str) -> String {
        let mut map = Heatmap::new();
        map.title(title);
        for rack in 0..history.racks() {
            map.row(
                format!("rack-{rack:02}"),
                history.rack_series(rack).values().to_vec(),
            );
        }
        map.render(96)
    }

    /// Renders both maps and the headline numbers.
    pub fn render(&self) -> String {
        let mut out = Self::heatmap_of(
            &self.conventional,
            "Figure 13 (top) — conventional DEB usage (blank = empty battery)",
        );
        out.push('\n');
        out.push_str(&Self::heatmap_of(
            &self.pad,
            "Figure 13 (bottom) — PAD-optimized DEB usage",
        ));
        let (vc, vp) = self.vulnerability_exposure();
        out.push_str(&format!(
            "\nvulnerable-rack exposure: conventional {:.0}% of samples, PAD {:.0}%\n\
             survival: conventional {:.0}s, PAD {:.0}s — improvement {:.1}x (paper: 1.7x)\n",
            vc * 100.0,
            vp * 100.0,
            self.conventional_survival.as_secs_f64(),
            self.pad_survival.as_secs_f64(),
            self.improvement()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pad_balances_and_survives_longer() {
        let fig = run(Fidelity::Smoke, 1);
        assert!(
            fig.improvement() >= 1.0,
            "PAD must not survive less: {:.2}x",
            fig.improvement()
        );
        let (vc, vp) = fig.vulnerability_exposure();
        assert!(
            vp <= vc + 1e-9,
            "PAD exposure {vp} must not exceed conventional {vc}"
        );
        assert!(fig.render().contains("Figure 13"));
    }
}
