//! Goldens for the stream-monitor alert engine: the schema pin (names,
//! kinds, and default rules are a wire contract — CI diffs the CLI's
//! `--alert-schema` output against the same file), and determinism of
//! the alert document for the recorded §V scenario with a mid-stream
//! silence window cut out.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::detect::DetectConfig;
use pad::experiments::{testbed_config, testbed_trace};
use pad::pipeline::{self, PipelineConfig};
use pad::schemes::Scheme;
use pad::sim::ClusterSim;
use powerinfra::topology::RackId;
use simkit::telemetry::codec::{parse, Format, ParsedRecord};
use simkit::time::{SimDuration, SimTime};

/// The pinned schema: regenerate with
/// `padsim inspect --alert-schema > crates/core/tests/data/alert_schema.txt`
/// when the monitor's metrics or default rules deliberately change.
#[test]
fn alert_schema_matches_the_pinned_file() {
    assert_eq!(
        pipeline::alert_schema(),
        include_str!("data/alert_schema.txt"),
        "alert schema drifted from the pin — if intentional, regenerate \
         crates/core/tests/data/alert_schema.txt via `padsim inspect --alert-schema`"
    );
}

/// Records the §V testbed under a sparse attack (the same scenario the
/// daemon goldens stream) and returns the parsed records, owned.
fn recorded_records(seed: u64) -> Vec<ParsedRecord<'static>> {
    let mut sim = ClusterSim::new(testbed_config(Scheme::Pad), testbed_trace(seed)).unwrap();
    sim.reseed_noise(seed ^ 0x5EED);
    sim.enable_detection(DetectConfig::default());
    sim.enable_telemetry(1 << 20);
    let attack = AttackScenario::new(AttackStyle::Sparse, VirusClass::CpuIntensive, 1).immediate();
    let attack_at = SimTime::from_secs(60);
    sim.set_attack(attack, RackId(0), attack_at);
    let horizon = attack_at + SimDuration::from_mins(3);
    let dt = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    while t < horizon {
        sim.step(dt);
        t += dt;
    }
    let telemetry = sim.take_telemetry().unwrap().serialize(Format::Jsonl);
    let records = parse(&telemetry, Format::Jsonl).unwrap();
    records.into_iter().map(ParsedRecord::into_owned).collect()
}

fn alerts_for(records: &[ParsedRecord]) -> String {
    let racks = pipeline::try_infer_racks(records).unwrap_or(1);
    let (_, monitor) = pipeline::monitor_records(
        racks,
        PipelineConfig::default(),
        pipeline::default_alert_rules(),
        records,
    );
    monitor.alerts_json()
}

#[test]
fn recorded_scenario_with_a_silence_cut_alerts_deterministically() {
    let records = recorded_records(0xA1E7);
    // Cut 30 s of records two minutes in: the tenant goes silent for
    // 300× the tick gap the deadman has learned by then.
    let cut: Vec<ParsedRecord> = records
        .iter()
        .filter(|r| r.time_ms < 120_000 || r.time_ms >= 150_000)
        .cloned()
        .collect();
    assert!(cut.len() < records.len(), "the cut must drop records");

    let doc = alerts_for(&cut);
    assert!(
        doc.contains(r#""rule":"tenant-silent","event":"fired""#),
        "the deadman must fire on the silence window:\n{doc}"
    );
    assert!(
        doc.contains(r#""rule":"tenant-silent","event":"resolved""#),
        "the deadman must resolve once the beat returns and the hold expires:\n{doc}"
    );
    // Run-twice determinism: the document is a pure function of the
    // records.
    assert_eq!(doc, alerts_for(&cut), "two identical replays disagreed");
    // The uncut scenario must not fire the deadman at all.
    let quiet = alerts_for(&records);
    assert!(
        !quiet.contains(r#""rule":"tenant-silent""#)
            || !quiet.contains(r#""rule":"tenant-silent","event":"fired""#),
        "no silence window, no deadman:\n{quiet}"
    );
}
