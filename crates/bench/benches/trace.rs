//! Benchmarks of span tracing: the same attacked simulation slice run
//! without a tracer (baseline) and with tracing recording into its
//! ring. Tracing is either absent or recording, so these two columns
//! are the whole cost picture.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
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
    let mut sim = ClusterSim::new(config, trace).expect("valid config");
    // Attack the slice so the traced variants actually open and close
    // episode spans — an idle cluster would make the ring sink look free.
    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 2);
    sim.set_attack(scenario, sim.most_vulnerable_rack(), SimTime::ZERO);
    sim
}

fn run_slice(mut sim: ClusterSim) -> ClusterSim {
    for _ in 0..50 {
        sim.step(SimDuration::from_millis(100));
    }
    sim
}

fn bench_trace(c: &mut Criterion) {
    let base = built_sim();
    // Tracer installation is a one-time setup cost; build each variant
    // outside the timed loop so the iterations measure stepping only.
    let ring_sim = {
        let mut sim = base.clone();
        sim.enable_tracing(1 << 16);
        sim
    };
    let mut group = c.benchmark_group("sim_50_steps");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("trace_baseline", |b| {
        b.iter(|| black_box(run_slice(base.clone())))
    });
    group.bench_function("trace_ring_sink", |b| {
        b.iter(|| black_box(run_slice(ring_sim.clone())))
    });
    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
