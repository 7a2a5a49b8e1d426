//! One benchmark per paper table/figure: each target runs an entry of
//! the experiment registry end-to-end at smoke fidelity, so `cargo bench`
//! exercises every reproduction path and reports its cost.

use criterion::{criterion_group, criterion_main, Criterion};
use pad::experiments::{Fidelity, EXPERIMENTS};
use std::hint::black_box;
use std::time::Duration;

fn experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments_smoke");
    // Each iteration is a whole experiment; keep the statistical budget
    // small so `cargo bench` covers the registry in minutes.
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for experiment in EXPERIMENTS {
        group.bench_function(experiment.name, |b| {
            b.iter(|| black_box(experiment.reproduce(Fidelity::Smoke, 1)))
        });
    }
    group.finish();
}

criterion_group!(benches, experiments);
criterion_main!(benches);
