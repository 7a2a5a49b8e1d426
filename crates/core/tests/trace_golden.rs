//! Integration tests for causal span tracing: end-to-end incident
//! reconstruction over a simulated two-phase attack, and the span-schema
//! pin that backs the CI drift check.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::detect::DetectConfig;
use pad::experiments::{testbed_config, testbed_trace};
use pad::schemes::Scheme;
use pad::sim::ClusterSim;
use simkit::telemetry::codec::parse;
use simkit::telemetry::Format;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{parse_spans, IncidentReconstructor};

/// The full forensic loop: simulate a two-phase attack on the §V testbed
/// with tracing, telemetry and detection all live, serialize the
/// streams, parse them back, and reconstruct the incident. Phase II must
/// ride causally on Phase I, and the reported detection timings must
/// agree with both the raw telemetry and the scenario's ground truth.
#[test]
fn incident_reconstruction_recovers_the_two_phase_attack() {
    let mut sim = ClusterSim::new(testbed_config(Scheme::Pad), testbed_trace(0xD0_1D)).unwrap();
    sim.reseed_noise(0xD0_1D ^ 0x5EED);
    sim.enable_telemetry(1 << 20);
    sim.enable_detection(DetectConfig::default());
    sim.enable_tracing(1 << 16);

    // A short Phase I so the drain -> spike transition lands well inside
    // the test horizon.
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 2)
        .with_max_drain(SimDuration::from_mins(1));
    let start = SimTime::from_secs(60);
    let horizon = start + SimDuration::from_mins(4);
    let victim = sim.most_vulnerable_rack();
    sim.set_attack(scenario, victim, start);
    sim.run(horizon, SimDuration::from_millis(100), false);

    let span_dump = sim.take_trace().unwrap();
    let telemetry_dump = sim.take_telemetry().unwrap();
    let spans = parse_spans(&span_dump.to_jsonl(), Format::Jsonl).unwrap();
    let telemetry = telemetry_dump.to_jsonl();
    let records = parse(&telemetry, Format::Jsonl).unwrap();

    // The Phase-II spike span is parented under the Phase-I drain span,
    // even though the drain has closed by the time the spikes begin.
    let drain = spans
        .iter()
        .find(|s| s.name == "attack.drain")
        .expect("drain span recorded");
    let spike = spans
        .iter()
        .find(|s| s.name == "attack.spike")
        .expect("spike span recorded");
    assert_eq!(spike.parent, Some(drain.id), "spike rides on the drain");
    assert!(drain.end_ms <= spike.start_ms);
    assert_eq!(drain.attr("rack"), Some(victim.0 as f64));

    let truth = scenario.ground_truth(start, horizon).to_ground_truth();
    assert_eq!(truth.drain, Some((60_000, 120_000)));
    assert!(!truth.spikes.is_empty());

    let incidents = IncidentReconstructor::new(&spans)
        .with_telemetry(&records)
        .with_ground_truth(&truth)
        .reconstruct();
    assert_eq!(incidents.len(), 1, "one attack, one incident");
    let inc = &incidents[0];
    assert_eq!(inc.root_name, "attack.drain");
    assert_eq!(inc.root_id, drain.id);
    assert!(inc.span_ids.contains(&spike.id));
    assert!(inc.blast_racks.contains(&(victim.0 as u64)));
    assert!(inc.shed_energy_j > 0.0, "the defense spent stored energy");

    // Detection joins: the reported time-to-detect is exactly the first
    // detector_fired event after the incident opened, and the lag vs
    // ground truth is measured from the nominal attack start.
    let first_after = |t0: u64| {
        records
            .iter()
            .find(|r| r.is_event && r.name == "detector_fired" && r.time_ms >= t0)
            .map(|r| r.time_ms)
    };
    assert!(
        inc.detector_firings > 0,
        "a dense CPU virus must trip the detectors"
    );
    assert_eq!(
        inc.time_to_detect_ms,
        first_after(inc.start_ms).map(|t| t - inc.start_ms)
    );
    assert_eq!(
        inc.detect_lag_vs_truth_ms,
        first_after(60_000).map(|t| t - 60_000)
    );
    assert!(
        inc.time_to_escalate_ms.is_some(),
        "detection evidence must escalate the policy during the attack"
    );
}

/// The span vocabulary for the simulator is pinned by
/// `tests/data/trace_schema.txt`; CI re-derives the same list through the
/// real binary (`padsim incident --names`). Renaming a span or changing
/// its attribute set must touch that file.
#[test]
fn span_schema_matches_checked_in_list() {
    assert_eq!(
        pad::trace::trace_schema(),
        include_str!("data/trace_schema.txt"),
        "span schema drifted from tests/data/trace_schema.txt"
    );
}
