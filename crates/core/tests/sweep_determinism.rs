//! Golden determinism tests for the sweep engine: a parallel sweep must
//! be bit-identical to the serial one — same overload events, same
//! breaker trips, same SOC histories, same rendered figures.

use std::sync::Arc;

use pad::prelude::*;
use pad::sweep::AttackSpec;
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;
use workload::trace::ClusterTrace;

fn shared_trace(config: &SimConfig) -> Arc<ClusterTrace> {
    Arc::new(
        SynthConfig {
            machines: config.topology.total_servers(),
            horizon: SimTime::from_hours(1),
            ..SynthConfig::small_test()
        }
        .generate_direct(0x00DE_7E12),
    )
}

/// One survival scenario per scheme, attacked identically, run serially
/// and on four workers: every field of every report must match exactly.
#[test]
fn survival_sweep_is_bit_identical_across_worker_counts() {
    let config = SimConfig::small_test(Scheme::Pad);
    let trace = shared_trace(&config);
    let cases: Vec<SurvivalCase> = [Scheme::Conv, Scheme::Ps, Scheme::Pspc, Scheme::Pad]
        .into_iter()
        .map(|scheme| {
            SurvivalCase::quiet(
                SimConfig::small_test(scheme),
                SimTime::from_mins(10),
                SimDuration::SECOND,
            )
            .with_attack(AttackSpec {
                scenario: AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4),
                victim: Victim::MostVulnerable,
                start: SimTime::from_secs(30),
            })
            .stop_on_overload()
            .record_soc(SimDuration::from_mins(1))
        })
        .collect();

    let serial = ConfigSweep::new(Arc::clone(&trace), 0x60_1D)
        .run(cases.clone())
        .expect("serial sweep runs");
    let parallel = ConfigSweep::new(trace, 0x60_1D)
        .with_jobs(4)
        .run(cases)
        .expect("parallel sweep runs");

    assert_eq!(serial.len(), parallel.len());
    for (index, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        // The whole report: overload events (times, racks, magnitudes),
        // breaker trips, throughput counters, end time.
        assert_eq!(s.report, p.report, "report diverged at scenario {index}");
        assert_eq!(
            s.report.overloads, p.report.overloads,
            "overload events diverged at scenario {index}"
        );
        assert_eq!(
            s.soc_history, p.soc_history,
            "SOC history diverged at scenario {index}"
        );
        assert_eq!(
            s.final_socs, p.final_socs,
            "final SOCs diverged at scenario {index}"
        );
    }
}

/// The Figure 8 regenerator through the sweep runner on four workers
/// renders byte-for-byte what the serial path renders.
#[test]
fn fig08_parallel_render_is_byte_identical() {
    use pad::experiments::{fig08, Fidelity};
    let serial = fig08::run(Fidelity::Smoke, 1);
    let parallel = fig08::run(Fidelity::Smoke, 4);
    assert_eq!(serial, parallel, "Fig08 datasets diverged");
    assert_eq!(
        serial.render(),
        parallel.render(),
        "Fig08 rendered output diverged"
    );
}
