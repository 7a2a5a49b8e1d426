//! Bit-exactness pin of the simulator at the paper's scale: 22 racks of
//! 10 servers stepped at 100 ms, each of the six schemes under an
//! escalating dense CPU attack, plus PAD with Level 3 set to migrate.
//!
//! Per run, `tests/data/sim_golden.txt` holds an FNV-1a digest of the
//! bit patterns of every rack's utility draw and battery SOC after every
//! tick, and the `{:?}` of the run's `SurvivalReport`. A drift of one
//! ulp in any rack at any tick changes the digest, so a refactor of the
//! step loop that reorders floating-point work cannot pass unnoticed.
//! Across the runs the pin covers overloads, load shedding and a
//! migration.

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, EmergencyAction, SimConfig};
use powerinfra::topology::RackId;
use simkit::mc::Fnv64;
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;
use workload::trace::ClusterTrace;

const DT: SimDuration = SimDuration::from_millis(100);
const ATTACK_AT: SimTime = SimTime::from_secs(30);
const HORIZON: SimTime = SimTime::from_mins(8);
const SEED: u64 = 1606;
const SOC0: f64 = 0.4;

fn trace() -> Arc<ClusterTrace> {
    Arc::new(
        SynthConfig {
            machines: 220,
            horizon: HORIZON + SimDuration::from_mins(2),
            step: SimDuration::from_mins(1),
            mean_utilization: 0.55,
            machine_bias_std: 0.04,
            ..SynthConfig::google_may2010()
        }
        .generate_direct(SEED),
    )
}

/// One run: its golden line and the rendered forensic log.
fn run(trace: &Arc<ClusterTrace>, label: &str, config: SimConfig) -> (String, String) {
    let mut sim = ClusterSim::new_shared(config, Arc::clone(trace)).unwrap();
    sim.reseed_noise(SEED ^ 0x5EED);
    for r in 0..22 {
        sim.rack_mut(RackId(r))
            .cabinet_mut()
            .set_soc(SOC0 + 0.01 * r as f64);
    }
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
        .with_escalation(SimDuration::from_secs(30));
    let victim = sim.most_vulnerable_rack();
    sim.set_attack(scenario, victim, ATTACK_AT);
    let mut digest = Fnv64::new();
    while sim.now() < HORIZON {
        sim.step(DT);
        for draw in sim.last_draws() {
            digest.write_u64(draw.0.to_bits());
        }
        for soc in sim.rack_socs() {
            digest.write_u64(soc.to_bits());
        }
    }
    // Every tick already ran, so `run` only assembles the report.
    let report = sim.run(HORIZON, DT, false);
    (
        format!("{label} {:016x} {report:?}\n", digest.finish()),
        sim.event_log().render(),
    )
}

fn runs() -> Vec<(&'static str, SimConfig)> {
    let mut runs: Vec<(&'static str, SimConfig)> = Scheme::ALL
        .iter()
        .map(|&scheme| (scheme.label(), SimConfig::paper_default(scheme)))
        .collect();
    runs.push((
        "PAD-migrate",
        SimConfig {
            emergency_action: EmergencyAction::Migrate,
            ..SimConfig::paper_default(Scheme::Pad)
        },
    ));
    runs
}

#[test]
fn paper_scale_runs_match_checked_in_golden() {
    let trace = trace();
    let mut rendered = String::new();
    let mut logs = String::new();
    for (label, config) in runs() {
        let (line, log) = run(&trace, label, config);
        rendered.push_str(&line);
        logs.push_str(&log);
    }
    for site in ["overload: draw", "load shedding", "migrating"] {
        assert!(logs.contains(site), "no run reaches {site:?}");
    }
    assert_eq!(
        rendered,
        include_str!("data/sim_golden.txt"),
        "simulator output drifted from tests/data/sim_golden.txt"
    );
}
