//! Platform validation (the reproduction's counterpart of §V's testbed
//! validation).
//!
//! Before trusting the survival numbers, the evaluation environment must
//! itself satisfy the premises every experiment leans on. Each check here
//! is an executable assertion about the *calibrated platform*, not about
//! PAD: if one fails after a change, the Figure 15/16/17 results are not
//! comparable to the paper any more.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use simkit::time::{SimDuration, SimTime};

use crate::experiments::{survival_attack_time, warmed_survival_sim, Fidelity};
use crate::schemes::Scheme;

/// Outcome of one platform check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What premise was checked.
    pub name: &'static str,
    /// Whether the platform satisfies it.
    pub passed: bool,
    /// Measured evidence.
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, passed: bool, detail: String) -> Self {
        Check {
            name,
            passed,
            detail,
        }
    }
}

/// Premise 1: the background trace alone never crosses the overload
/// tolerance — every overload in the experiments is attack-caused.
pub fn background_is_benign(fidelity: Fidelity) -> Check {
    let mut sim = warmed_survival_sim(Scheme::Conv, 1, fidelity);
    let window = if fidelity.is_smoke() {
        SimDuration::from_mins(15)
    } else {
        SimDuration::from_hours(1)
    };
    let report = sim.run(
        survival_attack_time() + window,
        SimDuration::from_millis(100),
        false,
    );
    Check::new(
        "background alone never overloads",
        report.overloads.is_empty(),
        format!(
            "{} overload(s) in an attack-free {window} window",
            report.overloads.len()
        ),
    )
}

/// Premise 2: an undefended rack falls to the reference attack within
/// the experiment horizon — the attack is actually dangerous.
pub fn attack_is_potent(fidelity: Fidelity) -> Check {
    let mut sim = warmed_survival_sim(Scheme::Conv, 1, fidelity);
    let victim = sim.most_vulnerable_rack();
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4)
        .with_max_drain(SimDuration::from_mins(10));
    let attack_at = survival_attack_time();
    sim.set_attack(scenario, victim, attack_at);
    let horizon = if fidelity.is_smoke() {
        SimDuration::from_mins(20)
    } else {
        SimDuration::from_mins(30)
    };
    let report = sim.run(attack_at + horizon, SimDuration::from_millis(100), true);
    Check::new(
        "the reference attack defeats an undefended rack",
        report.survival().is_some(),
        match report.survival() {
            Some(t) => format!("Conv fell after {:.0} s", t.as_secs_f64()),
            None => format!("Conv survived the whole {horizon} probe"),
        },
    )
}

/// Premise 3: the victim's battery genuinely absorbs the attack while it
/// lasts — peak shaving works as specified.
pub fn battery_absorbs_spikes(fidelity: Fidelity) -> Check {
    let mut sim = warmed_survival_sim(Scheme::Ps, 1, fidelity);
    let victim = sim.most_vulnerable_rack();
    sim.rack_mut(victim).cabinet_mut().set_soc(1.0);
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4).immediate();
    let attack_at = survival_attack_time();
    sim.set_attack(scenario, victim, attack_at);
    // Ten minutes of spikes against a full battery: nothing should land.
    let report = sim.run(
        attack_at + SimDuration::from_mins(10),
        SimDuration::from_millis(100),
        true,
    );
    Check::new(
        "a full cabinet absorbs the spike train",
        report.overloads.is_empty(),
        format!(
            "{} overload(s) with a full battery; victim SOC now {:.0}%",
            report.overloads.len(),
            sim.rack_socs()[victim.0] * 100.0
        ),
    )
}

/// Premise 4: coarse metering is blind to sparse single-node spikes
/// (Table I's foundation) while the spikes are electrically real.
pub fn coarse_metering_is_blind(fidelity: Fidelity) -> Check {
    let table = crate::experiments::table1::run(fidelity, 1);
    let weak = crate::experiments::table1::AttackColumn {
        servers: 1,
        width_secs: 1,
        per_minute: 1,
    };
    let coarse = table.rate(SimDuration::from_mins(5), weak).unwrap_or(1.0);
    let fine = table.rate(SimDuration::from_secs(5), weak).unwrap_or(0.0);
    Check::new(
        "coarse meters miss what fine meters see",
        coarse <= 0.1 && fine > 0.2,
        format!(
            "5 min meter: {:.0}%, 5 s meter: {:.0}%",
            coarse * 100.0,
            fine * 100.0
        ),
    )
}

/// Premise 5: DVFS capping cannot catch a sub-second spike (the paper's
/// argument for hardware shaving), demonstrated on the actuator itself.
pub fn capping_misses_subsecond_spikes(_fidelity: Fidelity) -> Check {
    use powerinfra::capping::PowerCapper;
    let mut capper = PowerCapper::typical();
    let spike_start = SimTime::from_secs(100);
    // A spike shorter than the actuation latency: the cap can only land
    // after the damage is done.
    let spike_end = spike_start + SimDuration::from_millis(150);
    capper.request(0.8, spike_start);
    let factor_at_spike_end = capper.factor_at(spike_end);
    Check::new(
        "a 150 ms spike outruns the 200 ms capping actuator",
        factor_at_spike_end > 0.99,
        format!(
            "factor still {factor_at_spike_end:.2} when the spike ends (latency {})",
            capper.latency()
        ),
    )
}

/// Runs every platform check.
pub fn run(fidelity: Fidelity) -> Vec<Check> {
    vec![
        background_is_benign(fidelity),
        attack_is_potent(fidelity),
        battery_absorbs_spikes(fidelity),
        coarse_metering_is_blind(fidelity),
        capping_misses_subsecond_spikes(fidelity),
    ]
}

/// Renders the checks as a pass/fail report.
pub fn render(checks: &[Check]) -> String {
    let mut out = String::from("== Platform validation (reproduction of §V's role) ==\n");
    for c in checks {
        out.push_str(&format!(
            "[{}] {:<48} {}\n",
            if c.passed { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        ));
    }
    let failed = checks.iter().filter(|c| !c.passed).count();
    out.push_str(&format!(
        "{} of {} checks passed\n",
        checks.len() - failed,
        checks.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_platform_premises_hold() {
        let checks = run(Fidelity::Smoke);
        assert_eq!(checks.len(), 5);
        for c in &checks {
            assert!(
                c.passed,
                "platform premise failed: {} — {}",
                c.name, c.detail
            );
        }
        let text = render(&checks);
        assert!(text.contains("PASS"));
        assert!(!text.contains("FAIL"));
    }

    #[test]
    fn capping_check_is_self_contained() {
        let c = capping_misses_subsecond_spikes(Fidelity::Smoke);
        assert!(c.passed, "{}", c.detail);
    }
}
