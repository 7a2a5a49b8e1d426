//! Determinism goldens for the detection engine: the live firing log
//! must be reproducible byte-for-byte by replaying the recorded
//! telemetry through a fresh detector stack (in both wire formats), and
//! detector evidence must escalate the PAD policy while the victim's
//! battery is still healthy — before the attack drains it.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::detect::{DetectConfig, SimDetectors};
use pad::experiments::{testbed_config, testbed_trace};
use pad::schemes::Scheme;
use pad::sim::ClusterSim;
use pad::SecurityLevel;
use powerinfra::topology::RackId;
use simkit::detect::FusedVerdict;
use simkit::telemetry::codec::{parse, Format};
use simkit::time::{SimDuration, SimTime};

const ATTACK_AT: SimTime = SimTime::from_secs(60);
const DT: SimDuration = SimDuration::from_millis(100);

fn sparse_attack() -> AttackScenario {
    AttackScenario::new(AttackStyle::Sparse, VirusClass::CpuIntensive, 1).immediate()
}

/// Builds an attacked §V-testbed sim with detection enabled and runs it
/// tick by tick, returning the sim plus the per-tick fused verdicts.
fn run_live(scheme: Scheme, telemetry: bool) -> (ClusterSim, Vec<FusedVerdict>) {
    let mut sim = ClusterSim::new(testbed_config(scheme), testbed_trace(0xD0_1D)).unwrap();
    sim.reseed_noise(0xD0_1D ^ 0x5EED);
    sim.enable_detection(DetectConfig::default());
    if telemetry {
        sim.enable_telemetry(1 << 20);
    }
    sim.set_attack(sparse_attack(), RackId(0), ATTACK_AT);
    let horizon = ATTACK_AT + SimDuration::from_mins(3);
    let mut t = SimTime::ZERO;
    let mut fused = Vec::new();
    while t < horizon {
        sim.step(DT);
        fused.push(sim.detection().unwrap().fused());
        t += DT;
    }
    (sim, fused)
}

/// The golden determinism claim of the replay path: record a live
/// attacked run, serialize the telemetry, parse it back, and feed it to
/// a fresh stack — the firing log and the whole fused-verdict sequence
/// must match the live run exactly, in both wire formats.
#[test]
fn live_and_replayed_firing_logs_are_byte_identical() {
    let (mut sim, live_fused) = run_live(Scheme::Conv, true);
    let live_firings = sim.detection().unwrap().bank().render_firings();
    assert!(
        !live_firings.is_empty(),
        "the attacked run should produce at least one firing"
    );
    let dump = sim.take_telemetry().unwrap();

    for format in [Format::Jsonl, Format::Csv] {
        let text = dump.serialize(format);
        let records = parse(&text, format).unwrap();
        let mut fresh = SimDetectors::new(1, DetectConfig::default());
        let replayed = fresh.replay(&records);
        assert_eq!(
            fresh.bank().render_firings(),
            live_firings,
            "{format:?} replay firing log diverged from the live run"
        );
        assert_eq!(replayed.len(), live_fused.len(), "{format:?} tick count");
        for (i, (r, l)) in replayed.iter().zip(&live_fused).enumerate() {
            assert_eq!(&r.fused, l, "{format:?} fused verdict diverged at tick {i}");
        }
    }
}

/// Detector-driven escalation: on the PAD testbed a weak sparse attack
/// never violates the vDEB contract, so without detection the policy
/// idles at Level 1 — with detection, fused evidence lifts it to
/// Level 2 while the victim battery is still healthy.
#[test]
fn detection_evidence_escalates_pad_policy_while_battery_healthy() {
    let mut sim = ClusterSim::new(testbed_config(Scheme::Pad), testbed_trace(0xD0_1D)).unwrap();
    sim.reseed_noise(0xD0_1D ^ 0x5EED);
    sim.set_attack(sparse_attack(), RackId(0), ATTACK_AT);
    sim.run(ATTACK_AT + SimDuration::from_mins(3), DT, false);
    assert_eq!(
        sim.level(),
        SecurityLevel::Normal,
        "without detection the weak attack should not escalate the policy"
    );

    let (sim, fused) = run_live(Scheme::Pad, false);
    assert!(
        fused.iter().any(|f| f.fired),
        "the fused verdict should fire at least once during the attack"
    );
    assert!(
        sim.level() >= SecurityLevel::MinorIncident,
        "fused detector evidence should hold the policy at Level 2+, got {:?}",
        sim.level()
    );
    assert!(
        sim.rack_socs()[0] > 0.5,
        "escalation must land while the victim battery is still healthy"
    );
    assert!(
        sim.event_log()
            .render()
            .contains("fused detector verdict fired"),
        "the forensic log should carry the detector firing"
    );
}
