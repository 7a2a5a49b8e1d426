//! Benchmarks of telemetry recording: the same simulation slice run
//! without telemetry (baseline) and with telemetry recording into its
//! ring. Telemetry is either absent or recording, so these two columns
//! are the whole cost picture.

use criterion::{criterion_group, criterion_main, Criterion};
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
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

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
