//! Benchmarks of the self-profiling path: the same simulation slice run
//! with no profiler (baseline, the path every production run takes: the
//! step() phase hooks collapse to one untaken branch each) and with live
//! phase timing enabled. A paired measurement at the end prints the live
//! ratio so the cost of turning the profiler on stays visible.

use criterion::{criterion_group, criterion_main, Criterion};
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
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

/// A clone with live phase timing enabled.
fn with_live_profiler(base: &ClusterSim) -> ClusterSim {
    let mut sim = base.clone();
    sim.enable_profiling();
    sim
}

fn run_slice(mut sim: ClusterSim) -> ClusterSim {
    for _ in 0..50 {
        sim.step(SimDuration::from_millis(100));
    }
    sim
}

fn bench_prof(c: &mut Criterion) {
    let base = built_sim();
    let live_sim = with_live_profiler(&base);
    let mut group = c.benchmark_group("prof_sim_50_steps");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("baseline", |b| {
        b.iter(|| black_box(run_slice(base.clone())))
    });
    group.bench_function("live_profiler", |b| {
        b.iter(|| black_box(run_slice(live_sim.clone())))
    });
    group.finish();
}

/// Paired live-profiler cost: interleave baseline and live rounds and
/// compare the best round of each (min-of-rounds is robust to scheduler
/// noise). The ratio is printed, not gated: timing twelve phases per
/// step has a real (small) cost, and that cost is the profiler's job to
/// measure.
fn report_live_overhead(_c: &mut Criterion) {
    let base = built_sim();
    let live_sim = with_live_profiler(&base);
    // Warm both paths before timing.
    black_box(run_slice(base.clone()));
    black_box(run_slice(live_sim.clone()));
    let mut best_base = Duration::MAX;
    let mut best_live = Duration::MAX;
    for _ in 0..15 {
        let t = Instant::now();
        black_box(run_slice(base.clone()));
        best_base = best_base.min(t.elapsed());
        let t = Instant::now();
        black_box(run_slice(live_sim.clone()));
        best_live = best_live.min(t.elapsed());
    }
    let live_ratio = best_live.as_secs_f64() / best_base.as_secs_f64();
    println!("prof_live_ratio: {live_ratio:.4} (live phase timing vs no profiler, informational)");
}

criterion_group!(benches, bench_prof, report_live_overhead);
criterion_main!(benches);
