//! Figure 15 — survival time of the six schemes under the attack matrix.
//!
//! "The sustained operation duration of the evaluated Google cluster
//! under various power attacks" — 2 spike styles × 3 virus classes, six
//! power-management schemes, survival measured from attack start to the
//! first overload. The paper's headline: "PAD improves the sustained time
//! by 10.7X compared to conventional data centers, and 1.6X compared to
//! the state-of-the-art proposals."

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use simkit::stats::OnlineStats;
use simkit::sweep::SweepRunner;
use simkit::table::Table;
use simkit::time::SimDuration;
use workload::trace::ClusterTrace;

use crate::experiments::{
    survival_attack_time, survival_horizon, survival_trace, warmed_survival_sim,
    warmed_survival_sim_shared, Fidelity,
};
use crate::schemes::Scheme;
use crate::sim::SimConfig;

/// One scenario column of Figure 15.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioCell {
    /// Spike style.
    pub style: AttackStyle,
    /// Virus class.
    pub class: VirusClass,
    /// Mean survival time over the seeds.
    pub survival: SimDuration,
    /// Whether any seed rode out the whole horizon (the mean is then a
    /// lower bound, rendered with a `+`).
    pub capped: bool,
}

/// The full Figure 15 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15 {
    /// Per scheme: the six scenario cells plus the average.
    pub rows: Vec<(Scheme, Vec<ScenarioCell>, SimDuration)>,
    /// Horizon used (survivor runs are capped here).
    pub horizon: SimDuration,
}

/// The attack matrix: 2 styles × the virus classes (Smoke keeps only the
/// dense CPU cell).
fn matrix(fidelity: Fidelity) -> Vec<(AttackStyle, VirusClass)> {
    if fidelity.is_smoke() {
        vec![(AttackStyle::Dense, VirusClass::CpuIntensive)]
    } else {
        let mut cells = Vec::new();
        for class in VirusClass::ALL {
            for style in AttackStyle::ALL {
                cells.push((style, class));
            }
        }
        cells
    }
}

/// Runs one survival measurement.
pub fn survival_of(
    scheme: Scheme,
    style: AttackStyle,
    class: VirusClass,
    seed: u64,
    fidelity: Fidelity,
) -> (SimDuration, bool) {
    let sim = warmed_survival_sim(scheme, seed, fidelity);
    survival_from(sim, style, class, fidelity)
}

/// [`survival_of`] over a shared per-seed trace (must be
/// `survival_trace(total_servers, seed, fidelity)`).
pub fn survival_of_shared(
    scheme: Scheme,
    style: AttackStyle,
    class: VirusClass,
    seed: u64,
    fidelity: Fidelity,
    trace: &Arc<ClusterTrace>,
) -> (SimDuration, bool) {
    let sim = warmed_survival_sim_shared(scheme, seed, fidelity, trace);
    survival_from(sim, style, class, fidelity)
}

fn survival_from(
    mut sim: crate::sim::ClusterSim,
    style: AttackStyle,
    class: VirusClass,
    fidelity: Fidelity,
) -> (SimDuration, bool) {
    let victim = sim.most_vulnerable_rack();
    let scenario = AttackScenario::new(style, class, 4)
        .with_escalation(SimDuration::from_mins(5))
        .with_max_drain(SimDuration::from_mins(10));
    let attack_at = survival_attack_time();
    sim.set_attack(scenario, victim, attack_at);
    let report = sim.run(
        attack_at + survival_horizon(fidelity),
        SimDuration::from_millis(100),
        true,
    );
    (report.survival_or_horizon(), report.survival().is_none())
}

/// Runs the whole figure, fanning every `(scheme, scenario, seed)` run
/// across `jobs` workers. The per-seed background trace is synthesized
/// once and shared; every run reseeds its own noise from `seed`, so the
/// table is byte-identical to the serial path for any worker count.
pub fn run(fidelity: Fidelity, jobs: usize) -> Fig15 {
    let cells = matrix(fidelity);
    let schemes: &[Scheme] = if fidelity.is_smoke() {
        &[Scheme::Conv, Scheme::Ps, Scheme::Pad]
    } else {
        &Scheme::ALL
    };

    // One shared trace per seed — identical for every scheme and cell.
    let machines = SimConfig::paper_default(Scheme::Pad)
        .topology
        .total_servers();
    let traces: Vec<Arc<ClusterTrace>> = (1..=fidelity.seeds())
        .map(|seed| Arc::new(survival_trace(machines, seed, fidelity)))
        .collect();

    // Flatten scheme → cell → seed, exactly the serial aggregation order.
    let mut specs = Vec::new();
    for &scheme in schemes {
        for &(style, class) in &cells {
            for seed in 1..=fidelity.seeds() {
                specs.push((scheme, style, class, seed));
            }
        }
    }
    let runs = SweepRunner::new(jobs).run(specs, |_, (scheme, style, class, seed)| {
        let trace = &traces[(seed - 1) as usize];
        survival_of_shared(scheme, style, class, seed, fidelity, trace)
    });

    let mut runs = runs.into_iter();
    let mut rows = Vec::new();
    for &scheme in schemes {
        let mut row = Vec::new();
        let mut all = OnlineStats::new();
        for &(style, class) in &cells {
            let mut stats = OnlineStats::new();
            let mut capped = false;
            for _seed in 1..=fidelity.seeds() {
                let (s, seed_capped) = runs.next().expect("one run per spec");
                stats.push(s.as_secs_f64());
                all.push(s.as_secs_f64());
                capped |= seed_capped;
            }
            row.push(ScenarioCell {
                style,
                class,
                survival: SimDuration::from_secs_f64(stats.mean()),
                capped,
            });
        }
        rows.push((scheme, row, SimDuration::from_secs_f64(all.mean())));
    }
    Fig15 {
        rows,
        horizon: survival_horizon(fidelity),
    }
}

impl Fig15 {
    /// Average survival of one scheme.
    pub fn average_of(&self, scheme: Scheme) -> Option<SimDuration> {
        self.rows
            .iter()
            .find(|(s, _, _)| *s == scheme)
            .map(|&(_, _, avg)| avg)
    }

    /// PAD's improvement factor over `baseline` (the paper's 10.7× /
    /// 1.6× numbers).
    pub fn pad_improvement_over(&self, baseline: Scheme) -> Option<f64> {
        let pad = self.average_of(Scheme::Pad)?.as_secs_f64();
        let base = self.average_of(baseline)?.as_secs_f64();
        (base > 0.0).then(|| pad / base)
    }

    /// Renders the survival table plus the headline factors.
    pub fn render(&self) -> String {
        let mut headers: Vec<String> = vec!["Scheme".into()];
        if let Some((_, cells, _)) = self.rows.first() {
            for c in cells {
                headers.push(format!("{} {}", c.style, c.class));
            }
        }
        headers.push("Avg".into());
        let mut table = Table::new(headers);
        table.title(format!(
            "Figure 15 — survival time in seconds ('+' = some run rode out the {} cap; lower bound)",
            self.horizon
        ));
        for (scheme, cells, avg) in &self.rows {
            let mut row = vec![scheme.label().to_string()];
            for c in cells {
                row.push(format!(
                    "{:.0}{}",
                    c.survival.as_secs_f64(),
                    if c.capped { "+" } else { "" }
                ));
            }
            let any_capped = cells.iter().any(|c| c.capped);
            row.push(format!(
                "{:.0}{}",
                avg.as_secs_f64(),
                if any_capped { "+" } else { "" }
            ));
            table.row(row);
        }
        let mut out = table.render();
        if let (Some(conv), Some(pspc)) = (
            self.pad_improvement_over(Scheme::Conv),
            self.pad_improvement_over(Scheme::Pspc),
        ) {
            out.push_str(&format!(
                "PAD vs Conv: {conv:.1}x (paper: 10.7x)   PAD vs PSPC: {pspc:.1}x (paper: ~1.6-1.9x)\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_orders_schemes() {
        let fig = run(Fidelity::Smoke, 1);
        let conv = fig.average_of(Scheme::Conv).unwrap();
        let pad = fig.average_of(Scheme::Pad).unwrap();
        assert!(
            pad > conv,
            "PAD ({pad}) must outlast Conv ({conv}) even at smoke scale"
        );
        let text = fig.render();
        assert!(text.contains("Figure 15"));
        assert!(text.contains("PAD"));
    }
}
