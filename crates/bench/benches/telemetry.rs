//! Benchmarks of telemetry recording: the same simulation slice run
//! without telemetry (baseline) and with telemetry recording into its
//! ring. Telemetry is either absent or recording, so these two columns
//! are the whole cost picture.
//!
//! The `codec` group times the two ends of a recording's trip through
//! text, over one attacked 22-rack, 400-tick recording with detection
//! on (the shape of a forensic scenario): `parse_lossy` of its JSONL
//! and `to_jsonl` of its records. Each is also printed per record as a
//! grep-able line, from the fastest of 20 rounds.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use criterion::{criterion_group, criterion_main, Criterion};
use pad::detect::DetectConfig;
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
use powerinfra::topology::RackId;
use simkit::telemetry::{parse_lossy, Format, TelemetryDump};
use simkit::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};
use workload::synth::SynthConfig;

fn built_sim() -> ClusterSim {
    let config = SimConfig::small_test(Scheme::Pad);
    let trace = SynthConfig {
        machines: config.topology.total_servers(),
        horizon: SimTime::from_mins(10),
        mean_utilization: 0.6,
        ..SynthConfig::small_test()
    }
    .generate_direct(11);
    ClusterSim::new(config, trace).expect("valid config")
}

fn run_slice(mut sim: ClusterSim) -> ClusterSim {
    for _ in 0..50 {
        sim.step(SimDuration::from_millis(100));
    }
    sim
}

fn bench_telemetry(c: &mut Criterion) {
    let base = built_sim();
    // Metric registration is a one-time setup cost; build each variant
    // outside the timed loop so the iterations measure stepping only.
    let ring_sim = {
        let mut sim = base.clone();
        sim.enable_telemetry(1 << 16);
        sim
    };
    let mut group = c.benchmark_group("sim_50_steps");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("baseline", |b| {
        b.iter(|| black_box(run_slice(base.clone())))
    });
    group.bench_function("ring_sink", |b| {
        b.iter(|| black_box(run_slice(ring_sim.clone())))
    });
    group.finish();
}

/// The paper's 22 × 10 cluster recorded for 400 ticks with detection
/// on, four nodes of rack 0 attacked from the 100th tick.
fn forensic_recording() -> TelemetryDump {
    let config = SimConfig::paper_default(Scheme::Pad);
    let trace = SynthConfig {
        machines: config.topology.total_servers(),
        horizon: SimTime::from_mins(10),
        ..SynthConfig::small_test()
    }
    .generate_direct(11);
    let mut sim = ClusterSim::new(config, trace).expect("valid config");
    sim.enable_telemetry(1 << 20);
    sim.enable_detection(DetectConfig::default());
    let attack = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4);
    sim.set_attack(attack, RackId(0), SimTime::from_secs(10));
    for _ in 0..400 {
        sim.step(SimDuration::from_millis(100));
    }
    sim.take_telemetry().expect("telemetry enabled")
}

/// The fastest of 20 runs of `f`, in nanoseconds per record.
fn ns_per_record<T>(records: usize, mut f: impl FnMut() -> T) -> f64 {
    let best = (0..20)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        })
        .min()
        .expect("20 rounds");
    best.as_nanos() as f64 / records as f64
}

fn bench_codec(c: &mut Criterion) {
    let dump = forensic_recording();
    let text = dump.to_jsonl();
    let records = dump.records.len();
    assert!(
        parse_lossy(&text, Format::Jsonl).errors.is_empty(),
        "the recorder's own output parses"
    );
    let mut group = c.benchmark_group("codec");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("parse_lossy_22_racks_400_ticks", |b| {
        b.iter(|| black_box(parse_lossy(black_box(&text), Format::Jsonl)))
    });
    group.bench_function("to_jsonl_22_racks_400_ticks", |b| {
        b.iter(|| black_box(black_box(&dump).to_jsonl()))
    });
    group.finish();
    let parse = ns_per_record(records, || parse_lossy(black_box(&text), Format::Jsonl));
    let render = ns_per_record(records, || black_box(&dump).to_jsonl());
    println!(
        "codec_parse_ns_per_record: {parse:.1} ({records} records of a 22-rack, 400-tick \
         recording, fastest of 20 rounds)"
    );
    println!(
        "codec_render_ns_per_record: {render:.1} ({records} records of a 22-rack, 400-tick \
         recording, fastest of 20 rounds)"
    );
}

criterion_group!(benches, bench_telemetry, bench_codec);
criterion_main!(benches);
