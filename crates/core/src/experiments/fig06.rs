//! Figure 6 — demonstration of the two-phase attack model.
//!
//! The paper's testbed trace: "In Phase-I, the attacker keeps running
//! workload in order to accelerate battery discharge … Once gaining
//! enough information, the PV can be mutated to generate hidden power
//! spikes." Three series over ~280 s: normal workload, malicious load and
//! battery capacity — the battery runs out mid-experiment and the visible
//! peaks give way to hidden spikes.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use battery::model::EnergyStorage;
use powerinfra::topology::RackId;
use simkit::series::TimeSeries;
use simkit::time::{SimDuration, SimTime};

use crate::experiments::{testbed_config, testbed_trace, Fidelity};
use crate::report::render_multi_series;
use crate::schemes::Scheme;
use crate::sim::ClusterSim;

/// The Figure 6 dataset: per-second series over the demo window.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig06 {
    /// Total rack demand as % of nameplate.
    pub workload: TimeSeries,
    /// Mean utilization of the compromised servers, %.
    pub malicious: TimeSeries,
    /// Battery capacity (SOC), %.
    pub battery: TimeSeries,
    /// When the attack switched to hidden spikes, seconds from start.
    pub phase2_at: Option<f64>,
}

/// Number of compromised servers in the demo.
const NODES: usize = 2;

/// Runs the demonstration (fidelity only changes the window length).
pub fn run(fidelity: Fidelity) -> Fig06 {
    let window = if fidelity.is_smoke() { 200 } else { 280 };
    let mut config = testbed_config(Scheme::Ps);
    // The paper's testbed battery is small relative to its load; a 10 s
    // nameplate-autonomy cabinet makes the drain visible in the window.
    config.battery_autonomy = SimDuration::from_secs(10);
    let nameplate = config.rack_nameplate();
    let mut sim = ClusterSim::new(config, testbed_trace(0x00F1_6006)).expect("valid config");
    let victim = RackId(0);
    // The demo battery starts partially discharged (the attacker picked a
    // vulnerable moment), so the drain is visible within the window.
    sim.rack_mut(victim).cabinet_mut().set_soc(0.40);
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, NODES)
        .with_max_drain(SimDuration::from_secs(130));
    sim.set_attack(scenario, victim, SimTime::from_secs(30));

    let mut workload = Vec::with_capacity(window);
    let mut malicious = Vec::with_capacity(window);
    let mut battery = Vec::with_capacity(window);
    for _ in 0..window {
        for _ in 0..10 {
            sim.step(SimDuration::from_millis(100));
        }
        let rack = &sim.racks()[victim.0];
        workload.push(rack.demand() / nameplate * 100.0);
        malicious.push(rack.utilizations()[..NODES].iter().sum::<f64>() / NODES as f64 * 100.0);
        battery.push(rack.cabinet().soc() * 100.0);
    }
    let phase2_at = sim
        .attacker_observed_drain()
        .map(|d| 30.0 + d.as_secs_f64());
    let mk = |v: Vec<f64>| TimeSeries::new(SimTime::ZERO, SimDuration::SECOND, v);
    Fig06 {
        workload: mk(workload),
        malicious: mk(malicious),
        battery: mk(battery),
        phase2_at,
    }
}

impl Fig06 {
    /// Renders the three series side by side.
    pub fn render(&self) -> String {
        let xs: Vec<f64> = (0..self.workload.len()).map(|i| i as f64).collect();
        let mut out = render_multi_series(
            "Figure 6 — two-phase attack demonstration (% of peak)",
            "seconds",
            &xs,
            &[
                ("workload", self.workload.values().to_vec()),
                ("malicious", self.malicious.values().to_vec()),
                ("battery", self.battery.values().to_vec()),
            ],
        );
        if let Some(t) = self.phase2_at {
            out.push_str(&format!("# hidden spikes begin at ~{t:.0}s\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_battery_drains_then_spikes_follow() {
        let fig = run(Fidelity::Smoke);
        let battery = fig.battery.values();
        // Battery declines during Phase I...
        assert!(
            battery[60] < battery[20],
            "battery should drain: {} -> {}",
            battery[20],
            battery[60]
        );
        // ...and ends far below where it started.
        assert!(
            *battery.last().unwrap() < 25.0,
            "battery should be nearly exhausted, got {}",
            battery.last().unwrap()
        );
        // Phase II happened inside the window.
        let t = fig.phase2_at.expect("attack must reach Phase II");
        assert!(t < 200.0, "Phase II too late: {t}");
        // Malicious load shows both the sustained drain and the idle
        // baseline between spikes.
        let m = fig.malicious.values();
        assert!(m.iter().any(|&v| v > 90.0), "drain/spike at full power");
        let after = &m[(t as usize).min(m.len() - 1)..];
        assert!(
            after.iter().any(|&v| v < 40.0),
            "between spikes the malicious load hides at a low baseline"
        );
        assert!(fig.render().contains("Figure 6"));
    }
}
