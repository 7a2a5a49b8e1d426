//! Ablations of PAD's design choices.
//!
//! Not figures from the paper — these sweeps interrogate the design
//! decisions the paper asserts without sensitivity analysis, using the
//! same survival harness as Figure 15:
//!
//! * **`P_ideal`** — Algorithm 1's per-rack discharge cap ("the discharge
//!   algorithm should not cause accelerated aging");
//! * **reserve SOC** — the vDEB floor that excuses vulnerable batteries
//!   from duty;
//! * **grant interval** — the management-loop period; the paper's core
//!   claim is that any software loop is too slow for hidden spikes;
//! * **capping latency** — the 100–300 ms DVFS actuation band the paper
//!   quotes for PSPC;
//! * **battery aging by scheme** — what each management policy costs in
//!   consumed battery life per day (motivates both `P_ideal` and the use
//!   of super-capacitors in µDEB).

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use battery::aging::LifeModel;
use simkit::sweep::SweepRunner;
use simkit::table::Table;
use simkit::time::{SimDuration, SimTime};
use workload::trace::ClusterTrace;

use crate::experiments::{survival_attack_time, survival_horizon, survival_trace, Fidelity};
use crate::schemes::Scheme;
use crate::sim::{ClusterSim, EmergencyAction, SimConfig};

/// The reference background trace every ablation shares (seed 1).
fn reference_trace(fidelity: Fidelity) -> Arc<ClusterTrace> {
    let machines = SimConfig::paper_default(Scheme::Pad)
        .topology
        .total_servers();
    Arc::new(survival_trace(machines, 1, fidelity))
}

/// One ablation sweep: a labeled knob and the survival it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Knob setting, human-readable.
    pub setting: String,
    /// Mean survival under the reference attack.
    pub survival: SimDuration,
}

/// A named ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Which knob was swept.
    pub name: &'static str,
    /// The rows, in sweep order.
    pub rows: Vec<SweepRow>,
}

/// Runs the reference attack against a custom config and returns
/// survival.
fn survival_with(config: SimConfig, fidelity: Fidelity, trace: &Arc<ClusterTrace>) -> SimDuration {
    let mut sim = ClusterSim::new_shared(config, Arc::clone(trace)).expect("valid config");
    sim.reseed_noise(0xAB1A);
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
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
        .with_escalation(SimDuration::from_mins(5))
        .with_max_drain(SimDuration::from_mins(10));
    let attack_at = survival_attack_time();
    sim.set_attack(scenario, victim, attack_at);
    sim.run(
        attack_at + survival_horizon(fidelity),
        SimDuration::from_millis(100),
        true,
    )
    .survival_or_horizon()
}

/// Fans one knob's settings across `jobs` workers over the shared
/// reference trace, preserving sweep order.
fn knob_sweep<T: Send + Copy>(
    name: &'static str,
    fidelity: Fidelity,
    jobs: usize,
    settings: &[T],
    configure: impl Fn(T) -> (String, SimConfig) + Sync,
) -> Ablation {
    let trace = reference_trace(fidelity);
    let rows = SweepRunner::new(jobs).run(settings.to_vec(), |_, s| {
        let (setting, config) = configure(s);
        SweepRow {
            setting,
            survival: survival_with(config, fidelity, &trace),
        }
    });
    Ablation { name, rows }
}

/// Sweeps Algorithm 1's per-rack discharge cap across `jobs` workers.
pub fn p_ideal_sweep(fidelity: Fidelity, jobs: usize) -> Ablation {
    let fractions: &[f64] = if fidelity.is_smoke() {
        &[0.02, 0.10]
    } else {
        &[0.01, 0.02, 0.05, 0.10, 0.20]
    };
    knob_sweep(
        "P_ideal (Algorithm 1 per-rack discharge cap)",
        fidelity,
        jobs,
        fractions,
        |f| {
            let mut config = SimConfig::paper_default(Scheme::Pad);
            config.p_ideal = config.rack_nameplate() * f;
            (format!("P_ideal = {:.0}% of nameplate", f * 100.0), config)
        },
    )
}

/// Sweeps the vDEB protective reserve across `jobs` workers.
pub fn reserve_sweep(fidelity: Fidelity, jobs: usize) -> Ablation {
    let reserves: &[f64] = if fidelity.is_smoke() {
        &[0.0, 0.3]
    } else {
        &[0.0, 0.15, 0.30, 0.45]
    };
    knob_sweep("vDEB protective reserve", fidelity, jobs, reserves, |r| {
        let mut config = SimConfig::paper_default(Scheme::Pad);
        config.vdeb_reserve_soc = r;
        (format!("reserve SOC = {:.0}%", r * 100.0), config)
    })
}

/// Sweeps the management-loop (grant) period for the vDEB-only scheme
/// across `jobs` workers.
pub fn grant_interval_sweep(fidelity: Fidelity, jobs: usize) -> Ablation {
    let intervals: &[u64] = if fidelity.is_smoke() {
        &[1, 60]
    } else {
        &[1, 5, 10, 30, 60]
    };
    knob_sweep(
        "iPDU management-loop period (vDEB-only)",
        fidelity,
        jobs,
        intervals,
        |secs| {
            let mut config = SimConfig::paper_default(Scheme::VDebOnly);
            config.grant_interval = SimDuration::from_secs(secs);
            (format!("grant interval = {secs}s"), config)
        },
    )
}

/// Sweeps the DVFS actuation latency for PSPC across `jobs` workers.
pub fn capping_latency_sweep(fidelity: Fidelity, jobs: usize) -> Ablation {
    let latencies: &[u64] = if fidelity.is_smoke() {
        &[100, 300]
    } else {
        &[50, 100, 200, 300, 500]
    };
    knob_sweep(
        "DVFS actuation latency (PSPC)",
        fidelity,
        jobs,
        latencies,
        |ms| {
            let mut config = SimConfig::paper_default(Scheme::Pspc);
            config.capping_latency = SimDuration::from_millis(ms);
            (format!("capping latency = {ms}ms"), config)
        },
    )
}

/// Compares PAD's two Level-3 actions (shed vs migrate) on survival and
/// throughput under the reference attack, across `jobs` workers.
pub fn emergency_action_comparison(
    fidelity: Fidelity,
    jobs: usize,
) -> Vec<(EmergencyAction, SimDuration, f64)> {
    let trace = reference_trace(fidelity);
    let actions = vec![EmergencyAction::Shed, EmergencyAction::Migrate];
    SweepRunner::new(jobs).run(actions, |_, action| {
        let mut config = SimConfig::paper_default(Scheme::Pad);
        config.emergency_action = action;
        let mut sim = ClusterSim::new_shared(config, Arc::clone(&trace)).expect("valid config");
        sim.reseed_noise(0xAB1A);
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
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
            .with_escalation(SimDuration::from_mins(5))
            .with_max_drain(SimDuration::from_mins(10));
        let attack_at = survival_attack_time();
        sim.set_attack(scenario, victim, attack_at);
        sim.reset_work_counters();
        let report = sim.run(
            attack_at + survival_horizon(fidelity),
            SimDuration::from_millis(100),
            true,
        );
        (
            action,
            report.survival_or_horizon(),
            report.normalized_throughput(),
        )
    })
}

/// Sweeps the attacker's campaign breadth: how survival shrinks as more
/// racks are attacked simultaneously (the "divide and conquer" threat
/// the DEB architecture invites, §I), across `jobs` workers.
pub fn campaign_breadth_sweep(fidelity: Fidelity, jobs: usize) -> Ablation {
    let breadths: &[usize] = if fidelity.is_smoke() {
        &[1, 3]
    } else {
        &[1, 2, 4, 8]
    };
    let trace = reference_trace(fidelity);
    let rows = SweepRunner::new(jobs).run(breadths.to_vec(), |_, racks_attacked| {
        let config = SimConfig::paper_default(Scheme::Pad);
        let mut sim = ClusterSim::new_shared(config, Arc::clone(&trace)).expect("valid config");
        sim.reseed_noise(0xAB1A);
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
        // Attack the N most vulnerable racks simultaneously.
        let mut socs: Vec<(usize, f64)> = sim.rack_socs().into_iter().enumerate().collect();
        socs.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let attack_at = survival_attack_time();
        for (i, &(rack, _)) in socs.iter().take(racks_attacked).enumerate() {
            let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
                .with_escalation(SimDuration::from_mins(5))
                .with_max_drain(SimDuration::from_mins(10));
            if i == 0 {
                sim.set_attack(scenario, powerinfra::topology::RackId(rack), attack_at);
            } else {
                sim.add_attack(scenario, powerinfra::topology::RackId(rack), attack_at);
            }
        }
        let survival = sim
            .run(
                attack_at + survival_horizon(fidelity),
                SimDuration::from_millis(100),
                true,
            )
            .survival_or_horizon();
        SweepRow {
            setting: format!("{racks_attacked} rack(s) attacked"),
            survival,
        }
    });
    Ablation {
        name: "coordinated campaign breadth (PAD)",
        rows,
    }
}

/// Compares the two synthetic-trace paths (the faithful job pipeline vs
/// the fast statistical path) on the reference survival measurement —
/// checking that the reproduction's conclusions do not hinge on the
/// trace generator shortcut — across `jobs` workers. Each cell
/// generates its own trace: comparing the generators is the point, so
/// nothing is shared here.
pub fn trace_path_comparison(
    fidelity: Fidelity,
    jobs: usize,
) -> Vec<(&'static str, Scheme, SimDuration)> {
    let horizon = if fidelity.is_smoke() {
        simkit::time::SimTime::from_hours(40)
    } else {
        simkit::time::SimTime::from_hours(48)
    };
    let schemes: &[Scheme] = if fidelity.is_smoke() {
        &[Scheme::Ps]
    } else {
        &[Scheme::Ps, Scheme::Pad]
    };
    let mut specs: Vec<(Scheme, &'static str)> = Vec::new();
    for &scheme in schemes {
        specs.push((scheme, "job pipeline"));
        specs.push((scheme, "statistical"));
    }
    SweepRunner::new(jobs).run(specs, |_, (scheme, label)| {
        let config = SimConfig::paper_default(scheme);
        let synth = workload::synth::SynthConfig {
            machines: config.topology.total_servers(),
            horizon,
            mean_utilization: 0.31,
            machine_bias_std: 0.04,
            ..workload::synth::SynthConfig::google_may2010()
        };
        let trace = if label == "job pipeline" {
            synth.generate(1)
        } else {
            synth.generate_direct(1)
        };
        let mut sim = ClusterSim::new(config, trace).expect("valid config");
        sim.reseed_noise(0xAB1A);
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
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
            .with_escalation(SimDuration::from_mins(5))
            .with_max_drain(SimDuration::from_mins(10));
        let attack_at = survival_attack_time();
        sim.set_attack(scenario, victim, attack_at);
        let survival = sim
            .run(
                attack_at + survival_horizon(fidelity),
                SimDuration::from_millis(100),
                true,
            )
            .survival_or_horizon();
        (label, scheme, survival)
    })
}

/// Per-scheme battery-life cost of one day of normal (attack-free)
/// operation, via half-cycle counting over every rack's SOC trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingRow {
    /// Scheme.
    pub scheme: Scheme,
    /// Fleet-average battery life consumed over the window (fraction).
    pub life_consumed: f64,
    /// Deep-discharge excursions across the fleet.
    pub deep_discharges: u32,
}

/// Measures daily battery wear per scheme on one shared hot trace,
/// across `jobs` workers.
pub fn aging_by_scheme(fidelity: Fidelity, jobs: usize) -> Vec<AgingRow> {
    let horizon = if fidelity.is_smoke() {
        SimTime::from_hours(12)
    } else {
        SimTime::from_hours(24)
    };
    let model = LifeModel::vrla();
    let machines = SimConfig::paper_default(Scheme::Pad)
        .topology
        .total_servers();
    let trace = Arc::new(
        workload::synth::SynthConfig {
            machines,
            horizon,
            mean_utilization: 0.38,
            ..workload::synth::SynthConfig::google_may2010()
        }
        .generate_direct(0xA61),
    );
    let schemes: Vec<Scheme> = Scheme::ALL
        .iter()
        .copied()
        .filter(|s| s.shaves_peaks())
        .collect();
    SweepRunner::new(jobs).run(schemes, |_, scheme| {
        let config = SimConfig::paper_default(scheme);
        let mut sim = ClusterSim::new_shared(config, Arc::clone(&trace)).expect("valid config");
        sim.record_soc(SimDuration::from_mins(5));
        sim.run(horizon, SimDuration::from_mins(1), false);
        let history = sim.soc_history().expect("recording enabled");
        let racks = history.racks();
        let life: f64 = (0..racks)
            .map(|r| model.life_from_soc(history.rack_series(r).values()))
            .sum::<f64>()
            / racks as f64;
        let deep: u32 = sim
            .racks()
            .iter()
            .map(|r| r.cabinet().battery().deep_discharges())
            .sum();
        AgingRow {
            scheme,
            life_consumed: life,
            deep_discharges: deep,
        }
    })
}

impl Ablation {
    /// Renders the sweep as a table.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec!["setting", "survival (s)"]);
        table.title(format!("Ablation — {}", self.name));
        for row in &self.rows {
            table.row(vec![
                row.setting.clone(),
                format!("{:.0}", row.survival.as_secs_f64()),
            ]);
        }
        table.render()
    }
}

/// Renders the aging comparison.
pub fn render_aging(rows: &[AgingRow]) -> String {
    let mut table = Table::new(vec![
        "scheme",
        "fleet life consumed / window",
        "deep discharges",
    ]);
    table.title("Ablation — battery wear per management scheme (attack-free)");
    for row in rows {
        table.row(vec![
            row.scheme.label().to_string(),
            format!("{:.4}%", row.life_consumed * 100.0),
            row.deep_discharges.to_string(),
        ]);
    }
    table.render()
}

/// Runs every ablation, fanning each sweep across `jobs` workers.
pub fn run_all(fidelity: Fidelity, jobs: usize) -> String {
    let mut out = String::new();
    out.push_str(&p_ideal_sweep(fidelity, jobs).render());
    out.push('\n');
    out.push_str(&reserve_sweep(fidelity, jobs).render());
    out.push('\n');
    out.push_str(&grant_interval_sweep(fidelity, jobs).render());
    out.push('\n');
    out.push_str(&capping_latency_sweep(fidelity, jobs).render());
    out.push('\n');
    out.push_str(&campaign_breadth_sweep(fidelity, jobs).render());
    out.push('\n');
    let traces = trace_path_comparison(fidelity, jobs);
    let mut table = Table::new(vec!["trace path", "scheme", "survival (s)"]);
    table.title("Ablation — job-pipeline vs statistical trace generation");
    for (label, scheme, survival) in &traces {
        table.row(vec![
            label.to_string(),
            scheme.label().to_string(),
            format!("{:.0}", survival.as_secs_f64()),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    let actions = emergency_action_comparison(fidelity, jobs);
    let mut table = Table::new(vec!["Level-3 action", "survival (s)", "throughput"]);
    table.title("Ablation — shed vs migrate at Level 3 (PAD)");
    for (action, survival, throughput) in &actions {
        table.row(vec![
            format!("{action:?}"),
            format!("{:.0}", survival.as_secs_f64()),
            format!("{throughput:.3}"),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&render_aging(&aging_by_scheme(fidelity, jobs)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweeps_produce_rows() {
        let ab = p_ideal_sweep(Fidelity::Smoke, 1);
        assert_eq!(ab.rows.len(), 2);
        assert!(ab.render().contains("P_ideal"));
        let ab = reserve_sweep(Fidelity::Smoke, 1);
        assert_eq!(ab.rows.len(), 2);
    }

    #[test]
    fn smoke_broader_campaigns_never_help_the_defense() {
        let ab = campaign_breadth_sweep(Fidelity::Smoke, 1);
        assert_eq!(ab.rows.len(), 2);
        assert!(
            ab.rows[1].survival <= ab.rows[0].survival,
            "attacking more racks cannot extend survival: {:?}",
            ab.rows
        );
    }

    #[test]
    fn smoke_aging_pad_avoids_deep_discharges() {
        let rows = aging_by_scheme(Fidelity::Smoke, 1);
        let get = |s: Scheme| rows.iter().find(|r| r.scheme == s).unwrap();
        let ps = get(Scheme::Ps);
        let pad = get(Scheme::Pad);
        // PAD spreads duty across the fleet: it may cycle *more* total
        // energy than greedy local shaving, but the damaging deep
        // discharges concentrate under PS, not PAD.
        assert!(
            pad.deep_discharges <= ps.deep_discharges,
            "PAD deep discharges {} vs PS {}",
            pad.deep_discharges,
            ps.deep_discharges
        );
        for row in &rows {
            assert!(
                row.life_consumed.is_finite() && row.life_consumed >= 0.0,
                "nonsense wear for {}",
                row.scheme
            );
        }
    }
}
