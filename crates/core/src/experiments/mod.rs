//! One module per table/figure of the paper's evaluation (§VI).
//!
//! Every experiment exposes `run(fidelity) -> <Data>` returning structured
//! results plus a `render()` that prints the same rows/series the paper
//! reports. [`Fidelity::Paper`] reproduces the full-scale experiment;
//! [`Fidelity::Smoke`] is a minutes-scale reduction with the same code
//! path, used by the integration tests.
//!
//! [`EXPERIMENTS`] lists every experiment once: its name (the
//! `results/<name>.txt` stem), what it reproduces, and how it runs.
//! `padsim reproduce <name|all>` runs from it.

pub mod ablation;
pub mod background;
pub mod detect_rates;
pub mod fault_tolerance;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod recon;
pub mod table1;
pub mod validation;

use std::sync::Arc;

use attack::spike::SpikeTrain;
use powerinfra::server::ServerSpec;
use powerinfra::topology::ClusterTopology;
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;
use workload::trace::ClusterTrace;

use crate::schemes::Scheme;
use crate::sim::{ClusterSim, SimConfig};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Full paper-scale parameters (minutes of wall-clock per figure).
    Paper,
    /// Reduced parameters with identical code paths (seconds; used by
    /// the integration tests).
    Smoke,
}

impl Fidelity {
    /// `true` for the reduced scale.
    pub fn is_smoke(self) -> bool {
        self == Fidelity::Smoke
    }

    /// Number of seeds to average over.
    pub fn seeds(self) -> u64 {
        match self {
            Fidelity::Paper => 3,
            Fidelity::Smoke => 1,
        }
    }
}

/// One experiment `padsim reproduce` runs: a table or figure of the
/// paper, or an extension beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The `results/<name>.txt` stem and the banner's first word.
    pub name: &'static str,
    /// What the experiment reproduces, as its banner states it.
    pub reproduces: &'static str,
    /// Runs the experiment with `jobs` sweep workers and renders its
    /// body; `false` when one of the premises it asserts failed.
    run: fn(Fidelity, usize) -> (String, bool),
}

/// What one experiment printed, and whether its premises held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reproduction {
    /// The banner and the body.
    pub text: String,
    /// `false` when a premise the experiment asserts failed; only
    /// `validate_platform` asserts any.
    pub passed: bool,
}

impl Experiment {
    /// Runs the experiment with `jobs` workers. The text is the same for
    /// any `jobs`, and at paper scale it is `results/<name>.txt`.
    pub fn reproduce(&self, fidelity: Fidelity, jobs: usize) -> Reproduction {
        let (body, passed) = (self.run)(fidelity, jobs);
        let scale = match fidelity {
            Fidelity::Paper => "paper scale",
            Fidelity::Smoke => "smoke (reduced)",
        };
        Reproduction {
            text: format!(
                "=== {} — reproduces {} ===\nfidelity: {scale}\n\n{body}",
                self.name, self.reproduces
            ),
            passed,
        }
    }
}

/// Every experiment, in the order `padsim reproduce all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig01_outage_cost",
        reproduces: "Figure 1 (Ponemon cost CDF)",
        run: |_, _| (background::fig01().render(), true),
    },
    Experiment {
        name: "fig02_survey",
        reproduces: "Figure 2 (SANS adoption survey)",
        run: |_, _| (background::fig02_render(), true),
    },
    Experiment {
        name: "fig05_soc_stddev",
        reproduces: "Figure 5 (battery unevenness)",
        run: |f, _| (fig05::run(f).render(), true),
    },
    Experiment {
        name: "fig06_two_phase",
        reproduces: "Figure 6 (two-phase attack demo)",
        run: |f, _| (fig06::run(f).render(), true),
    },
    Experiment {
        name: "fig07_effective_attack",
        reproduces: "Figure 7 (effective attack demo)",
        run: |f, _| (fig07::run(f).render(), true),
    },
    Experiment {
        name: "fig08_attack_stats",
        reproduces: "Figure 8 A/B/C (attack statistics)",
        run: |f, jobs| (fig08::run_with_jobs(f, jobs).render(), true),
    },
    Experiment {
        name: "table1_detection",
        reproduces: "Table I (detection rates)",
        run: |f, jobs| (table1::run_with_jobs(f, jobs).render(), true),
    },
    Experiment {
        name: "detect_rates",
        reproduces: "Table I extension (detector bank)",
        run: |f, jobs| (detect_rates::run_with_jobs(f, jobs).render(), true),
    },
    Experiment {
        name: "fig12_traces",
        reproduces: "Figure 12 (collected traces)",
        run: |f, jobs| (fig12::run_with_jobs(f, jobs).render(), true),
    },
    Experiment {
        name: "fig13_heatmap",
        reproduces: "Figure 13 (DEB usage maps)",
        run: |f, jobs| (fig13::run_with_jobs(f, jobs).render(), true),
    },
    Experiment {
        name: "fig14_shedding",
        reproduces: "Figure 14 (load shedding)",
        run: |f, jobs| (fig14::run_with_jobs(f, jobs).render(), true),
    },
    Experiment {
        name: "fig15_survival",
        reproduces: "Figure 15 (survival time)",
        run: |f, jobs| (fig15::run_with_jobs(f, jobs).render(), true),
    },
    Experiment {
        name: "fig16_throughput",
        reproduces: "Figure 16 A/B (throughput)",
        run: |f, jobs| (fig16::run_with_jobs(f, jobs).render(), true),
    },
    Experiment {
        name: "fig17_cost",
        reproduces: "Figure 17 (cost efficiency)",
        run: |f, jobs| (fig17::run_with_jobs(f, jobs).render(), true),
    },
    Experiment {
        name: "ablations",
        reproduces: "design-choice sensitivity (beyond the paper)",
        run: |f, jobs| (ablation::run_all_with_jobs(f, jobs), true),
    },
    Experiment {
        name: "validate_platform",
        reproduces: "§V platform validation",
        run: |f, _| {
            let checks = validation::run(f);
            (validation::render(&checks), checks.iter().all(|c| c.passed))
        },
    },
    Experiment {
        name: "recon_value",
        reproduces: "§IV.B.1 recon-noise claim",
        run: |f, _| (recon::render(&recon::run(f)), true),
    },
    Experiment {
        name: "fault_tolerance",
        reproduces: "watchdog fallback vs frozen plans (robustness extension)",
        run: |f, jobs| (fault_tolerance::run_with_jobs(f, jobs).render(), true),
    },
];

/// When the survival-family attacks begin: 11:00 on day 2, as the diurnal
/// load is climbing toward the afternoon peak — the attacker "waits for
/// the best time to attack" (§III.A.1).
pub fn survival_attack_time() -> SimTime {
    SimTime::from_hours(35)
}

/// The survival-family background trace: paper-scale cluster, calibrated
/// so the daily peak flirts with the oversubscribed budget (occasional
/// shaving) without crossing the tolerance band on its own.
pub fn survival_trace(machines: usize, seed: u64, fidelity: Fidelity) -> ClusterTrace {
    let horizon = if fidelity.is_smoke() {
        SimTime::from_hours(40)
    } else {
        SimTime::from_hours(48)
    };
    SynthConfig {
        machines,
        horizon,
        mean_utilization: 0.31,
        machine_bias_std: 0.04,
        ..SynthConfig::google_may2010()
    }
    .generate_direct(seed)
}

/// Builds a warmed-up survival simulator: trace loaded, one-and-a-half
/// diurnal cycles of history simulated at coarse steps so the battery
/// landscape is realistic, noise reseeded per `seed`.
pub fn warmed_survival_sim(scheme: Scheme, seed: u64, fidelity: Fidelity) -> ClusterSim {
    let config = SimConfig::paper_default(scheme);
    let trace = Arc::new(survival_trace(
        config.topology.total_servers(),
        seed,
        fidelity,
    ));
    warmed_survival_sim_shared(scheme, seed, fidelity, &trace)
}

/// [`warmed_survival_sim`] over an already-shared trace: sweeps that run
/// many schemes or scenarios against the same seed generate the trace
/// once and share it, instead of regenerating per scenario.
///
/// The trace must be `survival_trace(total_servers, seed, fidelity)` for
/// results to match the unshared path bit-for-bit.
pub fn warmed_survival_sim_shared(
    scheme: Scheme,
    seed: u64,
    fidelity: Fidelity,
    trace: &Arc<ClusterTrace>,
) -> ClusterSim {
    let config = SimConfig::paper_default(scheme);
    let mut sim = ClusterSim::new_shared(config, Arc::clone(trace)).expect("paper config is valid");
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
    // Close the gap to the attack at fine resolution so actuator and
    // meter state are realistic when the attack lands.
    sim.run(survival_attack_time(), SimDuration::from_millis(500), false);
    sim
}

/// Horizon for survival runs (after the attack starts).
pub fn survival_horizon(fidelity: Fidelity) -> SimDuration {
    match fidelity {
        Fidelity::Paper => SimDuration::from_hours(2),
        Fidelity::Smoke => SimDuration::from_mins(20),
    }
}

/// The scaled-down testbed of §V (Figure 11-A): one mini-rack of five
/// servers, 70% budget — used by the Figure 6/7/8 and Table I
/// experiments.
pub fn testbed_config(scheme: Scheme) -> SimConfig {
    let server = ServerSpec::hp_proliant_dl585_g5();
    let nameplate = server.peak * 5.0;
    SimConfig {
        topology: ClusterTopology::new(1, 5),
        budget_fraction: 0.70,
        overshoot_tolerance: 0.08,
        p_ideal: nameplate * 0.05,
        udeb_max_power: nameplate * 0.3,
        udeb_engage_threshold: nameplate * 0.0675,
        demand_jitter: nameplate * 0.01,
        // The testbed experiments characterize the *attack* (effective
        // spikes, detectability); the operator's protective response
        // would mask exactly what they measure.
        protective_response: false,
        ..SimConfig::paper_default(scheme)
    }
}

/// Counts how many of a spike train's firings produced at least one
/// overload event — the paper's "effective attack" unit. Jitter can make
/// a single spike's excursion flicker, so raw event counts over-count;
/// attribution is per spike.
pub fn effective_spikes(
    events: &[crate::metrics::OverloadEvent],
    train: &SpikeTrain,
    window: SimDuration,
) -> usize {
    let spikes = train.spikes_before(SimTime::ZERO + window);
    let slack = SimDuration::from_millis(300);
    (0..spikes)
        .filter(|&k| {
            let start = train.spike_start(k);
            let end = start + train.width() + slack;
            events.iter().any(|e| e.time >= start && e.time < end)
        })
        .count()
}

/// Background trace for the testbed: a busy-but-legal baseline.
pub fn testbed_trace(seed: u64) -> ClusterTrace {
    SynthConfig {
        machines: 5,
        horizon: SimTime::from_hours(2),
        mean_utilization: 0.18,
        diurnal_amplitude: 0.05,
        machine_bias_std: 0.02,
        ..SynthConfig::google_may2010()
    }
    .generate_direct(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_seed_counts() {
        assert_eq!(Fidelity::Paper.seeds(), 3);
        assert_eq!(Fidelity::Smoke.seeds(), 1);
        assert!(Fidelity::Smoke.is_smoke());
        assert!(!Fidelity::Paper.is_smoke());
    }

    #[test]
    fn testbed_config_is_valid() {
        for scheme in Scheme::ALL {
            assert!(testbed_config(scheme).validate().is_ok());
        }
    }

    #[test]
    fn survival_trace_covers_attack_time() {
        let trace = survival_trace(20, 1, Fidelity::Smoke);
        assert!(trace.horizon() > survival_attack_time());
    }
}
