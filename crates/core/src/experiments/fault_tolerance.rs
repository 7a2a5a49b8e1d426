//! Fault tolerance — survival degradation under coordinator faults.
//!
//! Not in the paper: PAD's evaluation assumes the vDEB control plane
//! itself is healthy. This experiment measures what the defense is
//! worth when it is not — the coordinator's round messages are dropped
//! with increasing probability while a *cluster-wide* power-virus surge
//! runs (every rack compromised, the Figure 14 regime) — and whether
//! the graceful-degradation control plane (the per-rack staleness
//! watchdog falling back to safe local control, see [`crate::fault`])
//! actually buys survival time compared to letting stale plans stay in
//! force.
//!
//! The surge matters: while clean racks leave slack, the grant economy
//! is generous and a stale grant is indistinguishable from a fresh one.
//! Once every rack bids for headroom the economy saturates — grants are
//! re-assigned competitively each round, and a frozen rack spending a
//! revoked lease draws power its outlet no longer budgets for, while a
//! watchdog rack retreats to its base budget and its local DEB.
//!
//! Both rows run the same PAD configuration, the same warmed cluster,
//! the same attack, and the *same fault stream* per seed (paired
//! comparison): the only difference is whether the watchdog is armed.

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use simkit::fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
use simkit::stats::OnlineStats;
use simkit::sweep::SweepRunner;
use simkit::table::Table;
use simkit::time::SimDuration;
use workload::trace::ClusterTrace;

use crate::experiments::{
    survival_attack_time, survival_horizon, survival_trace, warmed_survival_sim_shared, Fidelity,
};
use crate::fault::DegradedConfig;
use crate::schemes::Scheme;
use crate::sim::SimConfig;

/// Degradation mode of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// PAD with the staleness watchdog armed: a rack that stops hearing
    /// from the coordinator falls back to safe local control.
    Fallback,
    /// PAD with the watchdog disabled: the last delivered plan stays in
    /// force no matter how stale it gets.
    Frozen,
}

impl Mode {
    /// Both rows, fallback first.
    pub const ALL: [Mode; 2] = [Mode::Fallback, Mode::Frozen];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Fallback => "PAD + fallback",
            Mode::Frozen => "PAD frozen-plan",
        }
    }

    fn degraded(self, grant_interval: SimDuration) -> DegradedConfig {
        match self {
            Mode::Fallback => DegradedConfig::for_grant_interval(grant_interval),
            Mode::Frozen => DegradedConfig::for_grant_interval(grant_interval).without_fallback(),
        }
    }
}

/// One severity cell of one row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Coordinator-message loss probability.
    pub loss: f64,
    /// Mean survival time over the seeds.
    pub survival: SimDuration,
    /// Whether any seed rode out the whole horizon.
    pub capped: bool,
}

/// The full experiment dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTolerance {
    /// Per mode: one cell per loss severity.
    pub rows: Vec<(Mode, Vec<Cell>)>,
    /// Horizon used (survivor runs are capped here).
    pub horizon: SimDuration,
}

/// The loss severities swept. Smoke keeps the healthy control and one
/// heavy-loss point; Paper fills in the curve.
fn severities(fidelity: Fidelity) -> Vec<f64> {
    if fidelity.is_smoke() {
        vec![0.0, 0.9]
    } else {
        vec![0.0, 0.1, 0.3, 0.6, 0.9]
    }
}

/// Horizon for this experiment's survival runs (after the attack
/// starts). Longer than the generic smoke horizon: under a saturating
/// cluster-wide surge even the healthy control plane succumbs around
/// the 20-minute mark, and the fault-induced spread sits on both sides
/// of it.
pub fn horizon(fidelity: Fidelity) -> SimDuration {
    match fidelity {
        Fidelity::Paper => survival_horizon(Fidelity::Paper),
        Fidelity::Smoke => SimDuration::from_mins(40),
    }
}

/// The injected plan: coordinator-message loss at probability `loss`
/// from attack start to past the horizon, cluster-wide.
pub fn loss_plan(loss: f64, fidelity: Fidelity) -> FaultPlan {
    let start = survival_attack_time();
    let end = start + horizon(fidelity) + SimDuration::from_hours(1);
    FaultPlan::new(format!("coordinator-loss-{:.0}pct", loss * 100.0)).with(FaultSpec::new(
        FaultKind::MsgLoss { p: loss },
        FaultTarget::All,
        start,
        end,
    ))
}

/// Runs one survival measurement over a shared per-seed trace (must be
/// `survival_trace(total_servers, seed, fidelity)`).
pub fn survival_under(
    mode: Mode,
    loss: f64,
    seed: u64,
    fidelity: Fidelity,
    trace: &Arc<ClusterTrace>,
) -> (SimDuration, bool) {
    let config = SimConfig::paper_default(Scheme::Pad);
    let mut sim = warmed_survival_sim_shared(Scheme::Pad, seed, fidelity, trace);
    if loss > 0.0 {
        sim.enable_faults(
            loss_plan(loss, fidelity),
            mode.degraded(config.grant_interval),
            0xFA11 ^ seed,
        )
        .expect("loss plan is valid");
    }
    // The cluster-wide surge: every rack fully compromised, fast
    // escalation. This saturates the grant economy, the regime where
    // stale grants are actually revoked (see the module docs) — with
    // clean racks to spare, the coordinator re-grants every bid and
    // frozen state is harmless.
    let attack_at = survival_attack_time();
    for victim in config.topology.rack_ids() {
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 10)
            .with_escalation(SimDuration::from_mins(2))
            .with_max_drain(SimDuration::from_mins(5));
        sim.add_attack(scenario, victim, attack_at);
    }
    let report = sim.run(
        attack_at + horizon(fidelity),
        SimDuration::from_millis(100),
        true,
    );
    (report.survival_or_horizon(), report.survival().is_none())
}

/// Runs the whole experiment, fanning every `(mode, loss, seed)` run
/// across `jobs` workers. Traces are shared per seed and the fault
/// stream reseeds from the scenario key alone, so the table is
/// byte-identical to the serial path for any worker count.
pub fn run(fidelity: Fidelity, jobs: usize) -> FaultTolerance {
    let losses = severities(fidelity);

    let machines = SimConfig::paper_default(Scheme::Pad)
        .topology
        .total_servers();
    let traces: Vec<Arc<ClusterTrace>> = (1..=fidelity.seeds())
        .map(|seed| Arc::new(survival_trace(machines, seed, fidelity)))
        .collect();

    // Flatten mode → loss → seed, exactly the serial aggregation order.
    let mut specs = Vec::new();
    for &mode in &Mode::ALL {
        for &loss in &losses {
            for seed in 1..=fidelity.seeds() {
                specs.push((mode, loss, seed));
            }
        }
    }
    let runs = SweepRunner::new(jobs).run(specs, |_, (mode, loss, seed)| {
        let trace = &traces[(seed - 1) as usize];
        survival_under(mode, loss, seed, fidelity, trace)
    });

    let mut runs = runs.into_iter();
    let mut rows = Vec::new();
    for &mode in &Mode::ALL {
        let mut row = Vec::new();
        for &loss in &losses {
            let mut stats = OnlineStats::new();
            let mut capped = false;
            for _seed in 1..=fidelity.seeds() {
                let (s, seed_capped) = runs.next().expect("one run per spec");
                stats.push(s.as_secs_f64());
                capped |= seed_capped;
            }
            row.push(Cell {
                loss,
                survival: SimDuration::from_secs_f64(stats.mean()),
                capped,
            });
        }
        rows.push((mode, row));
    }
    FaultTolerance {
        rows,
        horizon: horizon(fidelity),
    }
}

impl FaultTolerance {
    /// The cell for `mode` at loss severity `loss`.
    pub fn cell(&self, mode: Mode, loss: f64) -> Option<&Cell> {
        self.rows
            .iter()
            .find(|(m, _)| *m == mode)
            .and_then(|(_, cells)| cells.iter().find(|c| c.loss == loss))
    }

    /// The heaviest swept loss severity.
    pub fn max_loss(&self) -> f64 {
        self.rows
            .first()
            .and_then(|(_, cells)| cells.last())
            .map_or(0.0, |c| c.loss)
    }

    /// Fallback's survival improvement factor over the frozen-plan row
    /// at the heaviest loss severity — what the watchdog is worth when
    /// the control plane is at its sickest.
    pub fn fallback_improvement(&self) -> Option<f64> {
        let loss = self.max_loss();
        let fb = self.cell(Mode::Fallback, loss)?.survival.as_secs_f64();
        let fr = self.cell(Mode::Frozen, loss)?.survival.as_secs_f64();
        (fr > 0.0).then(|| fb / fr)
    }

    /// Renders the severity table plus the headline factor.
    pub fn render(&self) -> String {
        let mut headers: Vec<String> = vec!["Mode".into()];
        if let Some((_, cells)) = self.rows.first() {
            for c in cells {
                headers.push(format!("loss {:.0}%", c.loss * 100.0));
            }
        }
        let mut table = Table::new(headers);
        table.title(format!(
            "Fault tolerance — survival in seconds under coordinator-message loss \
             ('+' = some run rode out the {} cap; lower bound)",
            self.horizon
        ));
        for (mode, cells) in &self.rows {
            let mut row = vec![mode.label().to_string()];
            for c in cells {
                row.push(format!(
                    "{:.0}{}",
                    c.survival.as_secs_f64(),
                    if c.capped { "+" } else { "" }
                ));
            }
            table.row(row);
        }
        let mut out = table.render();
        if let Some(factor) = self.fallback_improvement() {
            out.push_str(&format!(
                "watchdog fallback vs frozen plans at loss {:.0}%: {factor:.1}x survival\n",
                self.max_loss() * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_shows_fallback_worth() {
        let ft = run(Fidelity::Smoke, 1);
        let loss = ft.max_loss();
        assert!(loss >= 0.1, "sweep must reach the ≥10% loss regime");
        // Healthy control: both modes are the identical unfaulted run.
        let fb0 = ft.cell(Mode::Fallback, 0.0).unwrap();
        let fr0 = ft.cell(Mode::Frozen, 0.0).unwrap();
        assert_eq!(fb0.survival, fr0.survival, "loss 0 rows must pair up");
        // Sick control plane: the watchdog must strictly buy time.
        let fb = ft.cell(Mode::Fallback, loss).unwrap();
        let fr = ft.cell(Mode::Frozen, loss).unwrap();
        assert!(
            fb.survival > fr.survival,
            "fallback ({}) must outlast frozen plans ({}) at loss {loss}",
            fb.survival,
            fr.survival
        );
        let text = ft.render();
        assert!(text.contains("Fault tolerance"));
        assert!(text.contains("PAD + fallback"));
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run(Fidelity::Smoke, 1);
        let parallel = run(Fidelity::Smoke, 4);
        assert_eq!(serial, parallel);
    }
}
