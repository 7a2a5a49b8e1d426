//! Figure 8 — statistics of effective attacks under various scenarios.
//!
//! Fifteen-minute effective-attack counts on the testbed, sweeping the
//! attacker's three knobs (§III.B):
//!
//! * **A — peak height**: number of compromised nodes (1–4) × virus
//!   class, under overshoot tolerances of 4–16%;
//! * **B — peak width**: spike width 1–4 s × virus class × overshoot;
//! * **C — frequency**: 1–6 spikes/min × virus class, under power budgets
//!   of 55–70% of nameplate.
//!
//! Expected shapes: more nodes / wider / more frequent ⇒ more effective
//! attacks; the IO-intensive virus "may fail to create any effective
//! attack when the power budget is adequate".

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use powerinfra::topology::RackId;
use simkit::sweep::SweepRunner;
use simkit::table::Table;
use simkit::time::{SimDuration, SimTime};
use workload::trace::ClusterTrace;

use crate::experiments::{effective_spikes, testbed_config, testbed_trace, Fidelity};
use crate::schemes::Scheme;
use crate::sim::ClusterSim;

/// One measured cell of a Figure 8 panel.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCell {
    /// Virus class.
    pub class: VirusClass,
    /// Panel-specific x value (nodes, width seconds, or per-minute).
    pub x: f64,
    /// Panel-specific series value (overshoot or budget fraction).
    pub series: f64,
    /// Effective attacks counted in the 15-minute window.
    pub effective: usize,
}

/// One panel (A, B or C).
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    /// Panel title.
    pub title: &'static str,
    /// x-axis label.
    pub x_label: &'static str,
    /// Series label (overshoot or budget).
    pub series_label: &'static str,
    /// All measured cells.
    pub cells: Vec<AttackCell>,
}

/// The full Figure 8 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig08 {
    /// Panel A — peak height (node count).
    pub height: Panel,
    /// Panel B — peak width.
    pub width: Panel,
    /// Panel C — attack frequency.
    pub frequency: Panel,
}

/// One cell's full parameter set (panel assignment + attack knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellSpec {
    panel: usize,
    class: VirusClass,
    x: f64,
    series: f64,
    nodes: usize,
    width: SimDuration,
    per_minute: f64,
    overshoot: f64,
    budget_fraction: f64,
}

/// Counts effective attacks for one configuration over 15 minutes.
pub fn count_effective(
    class: VirusClass,
    nodes: usize,
    width: SimDuration,
    per_minute: f64,
    overshoot: f64,
    budget_fraction: f64,
    fidelity: Fidelity,
) -> usize {
    let trace = Arc::new(testbed_trace(0x00F1_6008));
    count_effective_shared(
        &trace,
        class,
        nodes,
        width,
        per_minute,
        overshoot,
        budget_fraction,
        fidelity,
    )
}

/// [`count_effective`] over a shared testbed trace — a sweep generates
/// the trace once instead of once per cell. Every cell reseeds its own
/// noise stream from its parameters, so results are identical to the
/// unshared path and independent of execution order.
#[allow(clippy::too_many_arguments)]
pub fn count_effective_shared(
    trace: &Arc<ClusterTrace>,
    class: VirusClass,
    nodes: usize,
    width: SimDuration,
    per_minute: f64,
    overshoot: f64,
    budget_fraction: f64,
    fidelity: Fidelity,
) -> usize {
    let mut config = testbed_config(Scheme::Conv);
    config.overshoot_tolerance = overshoot;
    config.budget_fraction = budget_fraction;
    let mut sim = ClusterSim::new_shared(config, Arc::clone(trace)).expect("valid config");
    sim.reseed_noise((nodes as u64) << 32 | (per_minute as u64) << 8 | 0x808);
    let scenario = AttackScenario::new(AttackStyle::Sparse, class, nodes)
        .with_width(width)
        .with_frequency(per_minute)
        .immediate();
    sim.set_attack(scenario, RackId(0), SimTime::ZERO);
    let window = if fidelity.is_smoke() {
        SimDuration::from_mins(5)
    } else {
        SimDuration::from_mins(15)
    };
    let report = sim.run(SimTime::ZERO + window, SimDuration::from_millis(100), false);
    effective_spikes(&report.overloads, &scenario.train(), window)
}

/// Runs all three panels, fanning the grid cells out across `jobs`
/// workers. Every cell derives its noise from its own parameters, so the
/// output is byte-identical for any worker count.
pub fn run(fidelity: Fidelity, jobs: usize) -> Fig08 {
    let classes: &[VirusClass] = if fidelity.is_smoke() {
        &[VirusClass::CpuIntensive, VirusClass::IoIntensive]
    } else {
        &VirusClass::ALL
    };
    let overshoots: &[f64] = if fidelity.is_smoke() {
        &[0.04, 0.16]
    } else {
        &[0.04, 0.08, 0.12, 0.16]
    };

    let mut specs = Vec::new();

    // Panel A: nodes 1..4, width 1 s, 2/min, 70% budget.
    let nodes: &[usize] = if fidelity.is_smoke() {
        &[1, 4]
    } else {
        &[1, 2, 3, 4]
    };
    for &class in classes {
        for &n in nodes {
            for &os in overshoots {
                specs.push(CellSpec {
                    panel: 0,
                    class,
                    x: n as f64,
                    series: os,
                    nodes: n,
                    width: SimDuration::from_secs(1),
                    per_minute: 2.0,
                    overshoot: os,
                    budget_fraction: 0.70,
                });
            }
        }
    }

    // Panel B: width 1..4 s, 2 nodes, 2/min, 70% budget.
    let widths: &[u64] = if fidelity.is_smoke() {
        &[1, 4]
    } else {
        &[1, 2, 3, 4]
    };
    for &class in classes {
        for &w in widths {
            for &os in overshoots {
                specs.push(CellSpec {
                    panel: 1,
                    class,
                    x: w as f64,
                    series: os,
                    nodes: 2,
                    width: SimDuration::from_secs(w),
                    per_minute: 2.0,
                    overshoot: os,
                    budget_fraction: 0.70,
                });
            }
        }
    }

    // Panel C: frequency 1..6/min, 2 nodes, 1 s, budgets 55–70%.
    let freqs: &[f64] = if fidelity.is_smoke() {
        &[1.0, 6.0]
    } else {
        &[1.0, 2.0, 4.0, 6.0]
    };
    let budgets: &[f64] = if fidelity.is_smoke() {
        &[0.55, 0.70]
    } else {
        &[0.55, 0.60, 0.65, 0.70]
    };
    for &class in classes {
        for &f in freqs {
            for &b in budgets {
                specs.push(CellSpec {
                    panel: 2,
                    class,
                    x: f,
                    series: b,
                    nodes: 2,
                    width: SimDuration::from_secs(1),
                    per_minute: f,
                    overshoot: 0.08,
                    budget_fraction: b,
                });
            }
        }
    }

    // One shared testbed trace for the whole grid; every cell's noise is
    // reseeded from its own parameters, so the sweep is deterministic for
    // any worker count.
    let trace = Arc::new(testbed_trace(0x00F1_6008));
    let cells = SweepRunner::new(jobs).run(specs, |_, spec| {
        let effective = count_effective_shared(
            &trace,
            spec.class,
            spec.nodes,
            spec.width,
            spec.per_minute,
            spec.overshoot,
            spec.budget_fraction,
            fidelity,
        );
        (
            spec.panel,
            AttackCell {
                class: spec.class,
                x: spec.x,
                series: spec.series,
                effective,
            },
        )
    });
    // Submission order is preserved, so per-panel partitioning keeps the
    // original nested-loop ordering.
    let mut height = Vec::new();
    let mut width = Vec::new();
    let mut frequency = Vec::new();
    for (panel, cell) in cells {
        match panel {
            0 => height.push(cell),
            1 => width.push(cell),
            _ => frequency.push(cell),
        }
    }

    Fig08 {
        height: Panel {
            title: "Figure 8-A — effective attacks vs node count",
            x_label: "nodes",
            series_label: "overshoot",
            cells: height,
        },
        width: Panel {
            title: "Figure 8-B — effective attacks vs spike width",
            x_label: "width_s",
            series_label: "overshoot",
            cells: width,
        },
        frequency: Panel {
            title: "Figure 8-C — effective attacks vs frequency",
            x_label: "per_minute",
            series_label: "budget",
            cells: frequency,
        },
    }
}

impl Panel {
    /// Effective count for an exact cell, if measured.
    pub fn cell(&self, class: VirusClass, x: f64, series: f64) -> Option<usize> {
        self.cells
            .iter()
            .find(|c| {
                c.class == class && (c.x - x).abs() < 1e-9 && (c.series - series).abs() < 1e-9
            })
            .map(|c| c.effective)
    }

    /// Renders the panel as a table.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "class".to_string(),
            self.x_label.to_string(),
            self.series_label.to_string(),
            "effective".to_string(),
        ]);
        table.title(self.title);
        for c in &self.cells {
            table.row(vec![
                c.class.to_string(),
                format!("{}", c.x),
                format!("{:.0}%", c.series * 100.0),
                c.effective.to_string(),
            ]);
        }
        table.render()
    }
}

impl Fig08 {
    /// Renders all three panels.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}",
            self.height.render(),
            self.width.render(),
            self.frequency.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shapes_match_paper() {
        let fig = run(Fidelity::Smoke, 1);
        // More nodes never hurt the attacker (CPU class, loose 4% OS).
        let one = fig
            .height
            .cell(VirusClass::CpuIntensive, 1.0, 0.04)
            .unwrap();
        let four = fig
            .height
            .cell(VirusClass::CpuIntensive, 4.0, 0.04)
            .unwrap();
        assert!(four >= one, "4 nodes ({four}) must be >= 1 node ({one})");
        // Tighter overshoot tolerance means more effective attacks.
        let loose = fig
            .height
            .cell(VirusClass::CpuIntensive, 4.0, 0.16)
            .unwrap();
        assert!(four >= loose, "4% OS ({four}) must be >= 16% OS ({loose})");
        // The IO virus cannot beat a generous budget (70% nameplate).
        let io = fig
            .frequency
            .cell(VirusClass::IoIntensive, 6.0, 0.70)
            .unwrap();
        assert_eq!(io, 0, "IO-intensive virus should fail at a 70% budget");
        // A starved budget is easy to beat for the CPU virus.
        let cpu_tight = fig
            .frequency
            .cell(VirusClass::CpuIntensive, 6.0, 0.55)
            .unwrap();
        assert!(cpu_tight > 0);
        assert!(fig.render().contains("Figure 8-A"));
    }
}
