//! Benchmarks of the detection engine: the simulator hot loop with the
//! detector stack enabled (vs the undetected baseline), raw detector
//! push throughput, and offline replay of a recorded trace through a
//! fresh stack. The acceptance target is that enabling detection costs
//! the stepping loop only a small constant per tick — the detectors are
//! allocation-free on the steady-state path.

use criterion::{criterion_group, criterion_main, Criterion};
use pad::detect::{DetectConfig, SimDetectors};
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
use simkit::detect::{EwmaZScore, StreamDetector};
use simkit::telemetry::codec::{parse, Format, ParsedRecord};
use simkit::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Duration;
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

/// A recorded trace to replay: the same slice with telemetry on.
fn recorded_trace() -> (usize, Vec<ParsedRecord<'static>>) {
    let mut sim = built_sim();
    let racks = sim.rack_socs().len();
    sim.enable_telemetry(1 << 20);
    sim.enable_detection(DetectConfig::default());
    for _ in 0..200 {
        sim.step(SimDuration::from_millis(100));
    }
    let dump = sim.take_telemetry().expect("telemetry enabled");
    let text = dump.to_jsonl();
    let records = parse(&text, Format::Jsonl).expect("own dump parses");
    (
        racks,
        records.into_iter().map(ParsedRecord::into_owned).collect(),
    )
}

fn bench_detect(c: &mut Criterion) {
    let base = built_sim();
    // Stack construction is a one-time setup cost; build the detecting
    // variant outside the timed loop so iterations measure stepping.
    let det_sim = {
        let mut sim = base.clone();
        sim.enable_detection(DetectConfig::default());
        sim
    };
    let mut group = c.benchmark_group("sim_50_steps");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("baseline", |b| {
        b.iter(|| black_box(run_slice(base.clone())))
    });
    group.bench_function("detector_bank", |b| {
        b.iter(|| black_box(run_slice(det_sim.clone())))
    });
    group.finish();

    let mut group = c.benchmark_group("detectors");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("ewma_push_10k", |b| {
        b.iter(|| {
            let mut d = EwmaZScore::new(0.05, 5.0);
            let mut acc = 0.0;
            for i in 0u64..10_000 {
                acc += d.push(SimTime::from_millis(i * 100), (i % 7) as f64).score;
            }
            black_box(acc)
        })
    });
    let (racks, records) = recorded_trace();
    let template = SimDetectors::new(racks, DetectConfig::default());
    group.bench_function("replay_200_ticks", |b| {
        b.iter(|| {
            let mut stack = template.clone();
            black_box(stack.replay(black_box(&records)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_detect);
criterion_main!(benches);
