//! Quickstart: simulate a power-virus attack on a PAD-protected cluster.
//!
//! Builds a small battery-backed cluster over a synthetic Google-like
//! trace, launches the paper's two-phase attack against its weakest rack,
//! and reports how long the cluster survives — first with no defense
//! beyond the batteries (PS), then with the full PAD patch.
//!
//! Run with: `cargo run --release --example quickstart`

use pad::prelude::*;
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;

fn survival(scheme: Scheme) -> SurvivalReport {
    // A 4-rack × 4-server cluster with a moderately busy day of load.
    let config = SimConfig::small_test(scheme);
    let trace = SynthConfig {
        machines: config.topology.total_servers(),
        horizon: SimTime::from_hours(4),
        mean_utilization: 0.35,
        ..SynthConfig::small_test()
    }
    .generate_direct(42);
    let mut sim = ClusterSim::new(config, trace).expect("valid configuration");

    // The attacker compromises every server of the most vulnerable rack
    // and runs the two-phase playbook: drain, then hidden spikes.
    let victim = sim.most_vulnerable_rack();
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4);
    sim.set_attack(scenario, victim, SimTime::from_mins(5));

    sim.run(
        SimTime::from_mins(90),
        SimDuration::from_millis(100),
        true, // stop at the first overload
    )
}

fn main() {
    println!("== PAD quickstart: two-phase power attack ==\n");
    for scheme in [Scheme::Ps, Scheme::Pad] {
        let report = survival(scheme);
        match report.survival() {
            Some(t) => println!(
                "{:<4} survived {:>6.0} s before the first overload ({} overload excursions, {} breaker trips)",
                scheme.label(),
                t.as_secs_f64(),
                report.effective_attacks(),
                report.breaker_trips
            ),
            None => println!(
                "{:<4} survived the whole 85-minute attack window unharmed",
                scheme.label()
            ),
        }
    }
    println!("\nPAD = vDEB battery pooling + uDEB super-capacitors + 3-level policy.");
    println!(
        "See `cargo run --release --bin padsim -- reproduce fig15_survival` for the full paper figure."
    );
}
