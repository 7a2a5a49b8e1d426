//! Figure 17 — µDEB capacity vs cost and survival.
//!
//! "The cost of µDEB mainly depends on its capacity, which roughly
//! follows a linear model … increasing the capacity of µDEB from 1% to
//! 15% could extend the data center emergency handling capability (i.e.,
//! survival time) by nearly 40X." (§VI.D)
//!
//! We sweep the installed super-capacitor capacity (as a fraction of the
//! rack cabinet, the paper's "uDEB/vDEB %" right axis), report the
//! purchase-cost ratio (linear in capacity) and the survival time under
//! a pure spike attack, normalized to the smallest bank. The attack
//! isolates the µDEB contribution — the lead-acid cabinet is already
//! drained when the spikes begin (the paper's Phase II regime), so the
//! super-capacitor is the only thing standing between the spikes and the
//! breaker.

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use battery::model::EnergyStorage;
use simkit::sweep::SweepRunner;
use simkit::table::Table;
use simkit::time::SimDuration;
use workload::trace::ClusterTrace;

use crate::experiments::{survival_attack_time, survival_horizon, Fidelity};
use crate::schemes::Scheme;
use crate::sim::{ClusterSim, SimConfig};
use crate::udeb::MicroDeb;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPoint {
    /// Installed µDEB capacity as a fraction of the cabinet.
    pub fraction: f64,
    /// Super-capacitor bank size in farads (the paper's capacity axis).
    pub farads: f64,
    /// µDEB cost over the vDEB (lead-acid cabinet) cost.
    pub cost_ratio: f64,
    /// Survival time under the reference attack.
    pub survival: SimDuration,
}

/// The full Figure 17 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig17 {
    /// Sweep points, ascending capacity.
    pub points: Vec<CapacityPoint>,
}

/// Builds a PAD simulator with the given µDEB sizing and measures
/// survival under the dense CPU reference attack.
fn survival_with_fraction(
    fraction: f64,
    seed: u64,
    fidelity: Fidelity,
    trace: &Arc<ClusterTrace>,
) -> (f64, f64, SimDuration) {
    // Mirror `warmed_survival_sim`, overriding the µDEB sizing. The
    // µDEB-only scheme isolates the super-capacitor's contribution.
    let mut config = SimConfig::paper_default(Scheme::UDebOnly);
    config.udeb_fraction = fraction;
    let mut sim = ClusterSim::new_shared(config, Arc::clone(trace)).expect("valid config");
    sim.reseed_noise(seed.wrapping_mul(0x9E37_79B9) ^ 0x5EED);
    let warm_step = if fidelity.is_smoke() {
        SimDuration::from_mins(2)
    } else {
        SimDuration::from_secs(30)
    };
    sim.run(
        survival_attack_time() - SimDuration::from_mins(5),
        warm_step,
        false,
    );
    sim.run(survival_attack_time(), SimDuration::from_millis(500), false);

    let victim = sim.most_vulnerable_rack();
    // Phase II regime: the attacker has already drained the cabinet in a
    // prior campaign; the spikes start immediately.
    sim.rack_mut(victim).cabinet_mut().set_soc(0.05);
    let (farads, cost_ratio) = {
        let udeb: &MicroDeb = sim.udeb(victim).expect("µDEB racks carry a bank");
        let cabinet = sim.racks()[victim.0].cabinet().capacity();
        (
            udeb.bank().capacitance().0,
            udeb.cost_ratio_vs_cabinet(cabinet),
        )
    };
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
        .with_escalation(SimDuration::from_mins(5))
        .immediate();
    let attack_at = survival_attack_time();
    sim.set_attack(scenario, victim, attack_at);
    let report = sim.run(
        attack_at + survival_horizon(fidelity),
        SimDuration::from_millis(100),
        true,
    );
    (farads, cost_ratio, report.survival_or_horizon())
}

/// Runs the capacity sweep, sharing one synthesized trace (every point
/// uses seed 1) and fanning the fractions across `jobs` workers.
pub fn run(fidelity: Fidelity, jobs: usize) -> Fig17 {
    let fractions: Vec<f64> = if fidelity.is_smoke() {
        vec![0.01, 0.10]
    } else {
        vec![0.01, 0.02, 0.03, 0.05, 0.075, 0.10, 0.125, 0.15]
    };
    let machines = SimConfig::paper_default(Scheme::UDebOnly)
        .topology
        .total_servers();
    let trace = Arc::new(crate::experiments::survival_trace(machines, 1, fidelity));
    let points = SweepRunner::new(jobs).run(fractions, |_, fraction| {
        let (farads, cost_ratio, survival) = survival_with_fraction(fraction, 1, fidelity, &trace);
        CapacityPoint {
            fraction,
            farads,
            cost_ratio,
            survival,
        }
    });
    Fig17 { points }
}

impl Fig17 {
    /// Survival of the largest bank over the smallest (the paper's
    /// "nearly 40X" claim for 1% → 15%).
    pub fn survival_span(&self) -> f64 {
        let first = self.points.first().map(|p| p.survival.as_secs_f64());
        let last = self.points.last().map(|p| p.survival.as_secs_f64());
        match (first, last) {
            (Some(f), Some(l)) if f > 0.0 => l / f,
            _ => 1.0,
        }
    }

    /// Renders the sweep table.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "uDEB/vDEB capacity",
            "bank (F)",
            "cost ratio",
            "survival (s)",
            "normalized",
        ]);
        table.title("Figure 17 — µDEB capacity vs cost and survival");
        let base = self
            .points
            .first()
            .map(|p| p.survival.as_secs_f64())
            .unwrap_or(1.0)
            .max(1e-9);
        for p in &self.points {
            table.row(vec![
                format!("{:.1}%", p.fraction * 100.0),
                format!("{:.1}", p.farads),
                format!("{:.2}", p.cost_ratio),
                format!("{:.0}", p.survival.as_secs_f64()),
                format!("{:.1}x", p.survival.as_secs_f64() / base),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "survival span {:.1}x across the sweep (paper: ~40x from 1% to 15%)\n",
            self.survival_span()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_capacity_helps_monotonically() {
        let fig = run(Fidelity::Smoke, 1);
        assert_eq!(fig.points.len(), 2);
        assert!(
            fig.points[1].survival >= fig.points[0].survival,
            "bigger µDEB must not hurt: {:?}",
            fig.points
        );
        // Cost is linear in capacity: 10× the fraction ⇒ 10× the cost.
        let ratio = fig.points[1].cost_ratio / fig.points[0].cost_ratio;
        assert!((ratio - 10.0).abs() < 0.5, "cost ratio {ratio}");
        assert!(fig.render().contains("Figure 17"));
    }
}
