//! Integration tests for the telemetry layer: determinism across worker
//! counts, record → serialize → parse → summarize round-trips, and the
//! wire-schema pin that backs the CI drift check.

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
use pad::sweep::{AttackSpec, ConfigSweep, SurvivalCase, Victim};
use pad::telemetry::SimTelemetry;
use powerinfra::topology::ClusterTopology;
use simkit::telemetry::codec::{parse, Format};
use simkit::telemetry::inspect::TelemetryReport;
use simkit::telemetry::MetricKind;
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
        .generate_direct(7),
    )
}

fn attack_case(scheme: Scheme) -> SurvivalCase {
    SurvivalCase::quiet(
        SimConfig::small_test(scheme),
        SimTime::from_mins(8),
        SimDuration::SECOND,
    )
    .with_attack(AttackSpec {
        scenario: AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4),
        victim: Victim::MostVulnerable,
        start: SimTime::from_secs(30),
    })
    .stop_on_overload()
    .record_telemetry(1 << 20)
}

/// The Figure-8-style golden check: the same attacked sweep run on one
/// worker and on four serializes to byte-identical trace files, in both
/// wire formats.
#[test]
fn golden_sweep_telemetry_is_byte_identical_across_jobs() {
    let trace = shared_trace(&SimConfig::small_test(Scheme::Pad));
    let cases = vec![attack_case(Scheme::Ps), attack_case(Scheme::Pad)];
    let serial = ConfigSweep::new(Arc::clone(&trace), 8)
        .run(cases.clone())
        .unwrap();
    let parallel = ConfigSweep::new(trace, 8).with_jobs(4).run(cases).unwrap();
    for (s, p) in serial.iter().zip(&parallel) {
        let s_dump = s.telemetry.as_ref().unwrap();
        let p_dump = p.telemetry.as_ref().unwrap();
        assert!(!s_dump.records.is_empty());
        assert_eq!(s_dump.to_jsonl(), p_dump.to_jsonl());
        assert_eq!(s_dump.to_csv(), p_dump.to_csv());
    }
}

/// Record → serialize → `padsim inspect`-style parse → summary: the
/// offline statistics must match the in-memory registry's aggregates,
/// because the default f64 Display is shortest-round-trip and the parse
/// order equals the emission order.
#[test]
fn roundtrip_report_matches_in_memory_stats() {
    let config = SimConfig::small_test(Scheme::Pad);
    let trace = shared_trace(&config);
    let mut sim = ClusterSim::new_shared(config, trace).unwrap();
    sim.enable_telemetry(1 << 20);
    sim.run(SimTime::from_mins(3), SimDuration::SECOND, false);
    let dump = sim.take_telemetry().unwrap();

    for format in [Format::Jsonl, Format::Csv] {
        let text = dump.serialize(format);
        let records = parse(&text, format).unwrap();
        let report = TelemetryReport::from_records(&records);
        for id in dump.registry.ids() {
            if dump.registry.kind(id) != MetricKind::Gauge {
                continue;
            }
            let name = dump.registry.name(id);
            let mem = dump.registry.stats(id);
            let offline = report
                .metric(name)
                .unwrap_or_else(|| panic!("metric {name} missing from the {format:?} round-trip"));
            assert_eq!(offline.stats.count(), mem.count(), "{name} count");
            assert_eq!(offline.stats.min(), mem.min(), "{name} min");
            assert_eq!(offline.stats.max(), mem.max(), "{name} max");
            assert!(
                (offline.stats.mean() - mem.mean()).abs() <= 1e-12 * mem.mean().abs().max(1.0),
                "{name} mean drifted: {} vs {}",
                offline.stats.mean(),
                mem.mean()
            );
        }
    }
}

/// The wire schema for a 2-rack cluster is pinned by
/// `tests/data/telemetry_schema.txt`; CI re-derives the same list through
/// the real binary (`padsim --telemetry` + `padsim inspect --names`).
/// Renaming, adding or dropping a per-tick series must touch that file.
#[test]
fn wire_schema_matches_checked_in_list() {
    let expected: Vec<&str> = include_str!("data/telemetry_schema.txt")
        .lines()
        .filter(|l| !l.is_empty())
        .collect();

    let config = SimConfig {
        topology: ClusterTopology::new(2, 2),
        ..SimConfig::small_test(Scheme::Pad)
    };
    let trace = shared_trace(&config);
    let mut sim = ClusterSim::new_shared(config, trace).unwrap();
    sim.enable_telemetry(1 << 16);
    sim.run(SimTime::from_secs(10), SimDuration::SECOND, false);
    let dump = sim.take_telemetry().unwrap();
    let text = dump.to_jsonl();
    let records = parse(&text, Format::Jsonl).unwrap();
    let observed = TelemetryReport::from_records(&records);
    assert_eq!(
        observed.metric_names(),
        expected,
        "per-tick wire schema drifted from tests/data/telemetry_schema.txt"
    );

    // Every wire name is also a registered gauge; the registry adds only
    // its aggregate-side entries (counters and the draw histogram).
    let registry_names = SimTelemetry::schema(2);
    for name in &expected {
        assert!(
            registry_names.iter().any(|n| n == name),
            "wire metric {name} is not in the registry schema"
        );
    }
}
