//! Compare the six power-management schemes of Table III under attack.
//!
//! A reduced-scale version of the paper's Figure 15: survival time from
//! attack start to the first overload, for Conv / PS / PSPC / uDEB /
//! vDEB / PAD. Run the full-scale version with
//! `cargo run --release --bin padsim -- reproduce fig15_survival`.
//!
//! Run with: `cargo run --release --example defense_comparison`

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::experiments::{survival_attack_time, survival_horizon, warmed_survival_sim, Fidelity};
use pad::schemes::Scheme;
use simkit::time::SimDuration;

fn main() {
    let fidelity = Fidelity::Smoke;
    println!("== Survival under a dense CPU-intensive power virus ==");
    println!("(paper-scale cluster, reduced horizon; `padsim reproduce fig15_survival` runs the full figure)\n");
    let mut conv_survival = None;
    for scheme in Scheme::ALL {
        let mut sim = warmed_survival_sim(scheme, 1, fidelity);
        let victim = sim.most_vulnerable_rack();
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
            .with_escalation(SimDuration::from_mins(5))
            .with_max_drain(SimDuration::from_mins(10));
        let attack_at = survival_attack_time();
        sim.set_attack(scenario, victim, attack_at);
        let report = sim.run(
            attack_at + survival_horizon(fidelity),
            SimDuration::from_millis(100),
            true,
        );
        let survival = report.survival_or_horizon();
        if scheme == Scheme::Conv {
            conv_survival = Some(survival.as_secs_f64());
        }
        let factor = conv_survival
            .map(|c| survival.as_secs_f64() / c.max(1.0))
            .unwrap_or(1.0);
        let capped = report.survival().is_none();
        println!(
            "{:>5}: {:>6.0} s{}  ({:.1}x Conv)  victim {}",
            scheme.label(),
            survival.as_secs_f64(),
            if capped { "+" } else { " " },
            factor,
            victim,
        );
    }
    println!("\n'+' = survived the whole experiment window (value is a lower bound).");
}
