//! Smoke-runs the experiments end-to-end (the same code
//! `padsim reproduce` runs at Paper fidelity), asserting each produces
//! well-formed output and its headline shape.

use pad::experiments::{
    background, fig05, fig06, fig07, fig08, fig12, fig13, fig14, fig15, fig16, fig17, table1,
    Fidelity,
};
use pad::schemes::Scheme;

#[test]
fn background_figures_render() {
    let fig1 = background::fig01();
    assert!((fig1.share_above_10() - 0.4).abs() < 0.05);
    assert!(fig1.render().lines().count() > 40);
    assert!(background::fig02_render().contains("adoption"));
}

#[test]
fn fig05_soc_variation() {
    let fig = fig05::run(Fidelity::Smoke);
    let (on, off) = fig.mean_stddev();
    assert!(off > on, "offline {off} should exceed online {on}");
    assert!(!fig.render().is_empty());
}

#[test]
fn fig06_two_phase_demo() {
    let fig = fig06::run(Fidelity::Smoke);
    assert!(fig.phase2_at.is_some());
    assert_eq!(fig.workload.len(), fig.battery.len());
}

#[test]
fn fig07_effective_attack_demo() {
    let fig = fig07::run(Fidelity::Smoke);
    assert!(fig.spikes_fired > 0);
    assert!(fig.limit > fig.budget);
}

#[test]
fn fig08_attack_statistics() {
    let fig = fig08::run(Fidelity::Smoke, 1);
    assert!(!fig.height.cells.is_empty());
    assert!(!fig.width.cells.is_empty());
    assert!(!fig.frequency.cells.is_empty());
    assert!(fig.render().contains("Figure 8-C"));
}

#[test]
fn table1_detection_rates_are_probabilities() {
    let t = table1::run(Fidelity::Smoke, 1);
    for (_, row) in &t.rates {
        for &r in row {
            assert!((0.0..=1.0).contains(&r), "rate {r} out of range");
        }
    }
}

#[test]
fn fig12_trace_examples() {
    let fig = fig12::run(Fidelity::Smoke, 1);
    let (dense, sparse) = fig.peak_time_fraction();
    assert!(dense > sparse);
}

#[test]
fn fig13_usage_maps() {
    let fig = fig13::run(Fidelity::Smoke, 1);
    assert!(fig.improvement() >= 1.0);
}

#[test]
fn fig14_shedding_cap() {
    let fig = fig14::run(Fidelity::Smoke, 1);
    assert!(fig.peak_shed_ratio() <= 3.0 + 1e-9);
}

#[test]
fn fig15_survival_table() {
    let fig = fig15::run(Fidelity::Smoke, 1);
    assert!(fig.average_of(Scheme::Pad).unwrap() >= fig.average_of(Scheme::Conv).unwrap());
    assert!(fig.render().contains("Avg"));
}

#[test]
fn fig16_throughput_bounds() {
    let fig = fig16::run(Fidelity::Smoke, 1);
    for (_, ys) in &fig.by_width.columns {
        for &y in ys {
            assert!((0.0..=1.0).contains(&y), "throughput {y} out of range");
        }
    }
}

#[test]
fn fig17_capacity_sweep() {
    let fig = fig17::run(Fidelity::Smoke, 1);
    assert!(fig.survival_span() >= 1.0);
    for w in fig.points.windows(2) {
        assert!(
            w[1].cost_ratio > w[0].cost_ratio,
            "cost must grow with capacity"
        );
    }
}

#[test]
fn experiment_outputs_are_reproducible() {
    // The whole experiment layer is seeded: two runs must render
    // byte-identical output.
    let a = fig12::run(Fidelity::Smoke, 1).render();
    let b = fig12::run(Fidelity::Smoke, 1).render();
    assert_eq!(a, b);
    let a = fig08::run(Fidelity::Smoke, 1).render();
    let b = fig08::run(Fidelity::Smoke, 1).render();
    assert_eq!(a, b);
}

#[test]
fn recon_vdeb_leaks_no_more_than_ps() {
    let outcomes = pad::experiments::recon::run(Fidelity::Smoke);
    assert!(outcomes[1].information_yield() <= outcomes[0].information_yield());
}

#[test]
fn validation_premises_hold_at_smoke_scale() {
    let checks = pad::experiments::validation::run(Fidelity::Smoke);
    for c in &checks {
        assert!(c.passed, "{}: {}", c.name, c.detail);
    }
}

#[test]
fn ablation_suite_renders() {
    let text = pad::experiments::ablation::run_all(Fidelity::Smoke, 1);
    for needle in [
        "P_ideal",
        "protective reserve",
        "management-loop",
        "actuation latency",
        "campaign breadth",
        "shed vs migrate",
        "battery wear",
        "trace generation",
    ] {
        assert!(text.contains(needle), "missing ablation section {needle}");
    }
}
