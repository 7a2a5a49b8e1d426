//! Figure 14 — emergency load shedding under cluster-wide surges.
//!
//! "We investigate a periodic data center-wide load surge that can create
//! massive amounts of vulnerable racks in conventional designs … a load
//! shedding ratio of about 3% of the entire data center servers is able
//! to achieve an impressive balanced battery usage map." (§VI.A)
//!
//! Panel A: the conventional battery map under the surging trace. Panel
//! B: PAD's shedding ratio over time (bounded at 3%). Panel C: the
//! PAD-optimized map.

use std::sync::Arc;

use simkit::heatmap::Heatmap;
use simkit::series::TimeSeries;
use simkit::sweep::SweepRunner;
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;
use workload::trace::ClusterTrace;

use crate::experiments::Fidelity;
use crate::metrics::SocHistory;
use crate::report::render_time_series;
use crate::schemes::Scheme;
use crate::sim::{ClusterSim, SimConfig};

/// The Figure 14 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14 {
    /// Panel A: conventional battery map under the surging trace.
    pub before: SocHistory,
    /// Panel B: PAD's cluster shed ratio over time.
    pub shed_ratio: TimeSeries,
    /// Panel C: PAD battery map under the same trace.
    pub after: SocHistory,
}

fn horizon(fidelity: Fidelity) -> SimTime {
    if fidelity.is_smoke() {
        SimTime::from_hours(12)
    } else {
        SimTime::from_hours(48)
    }
}

/// The surging trace: the survival background plus a cluster-wide load
/// surge for 30 minutes every 4 hours.
pub fn surging_trace(machines: usize, fidelity: Fidelity) -> ClusterTrace {
    let base = SynthConfig {
        machines,
        horizon: horizon(fidelity),
        mean_utilization: 0.33,
        ..SynthConfig::google_may2010()
    }
    .generate_direct(0x00F1_6014);
    let series: Vec<TimeSeries> = (0..base.machines())
        .map(|m| {
            base.machine_series(m).map_time(|t, v| {
                let in_surge = (t.as_millis() / SimDuration::from_hours(4).as_millis())
                    .is_multiple_of(8)
                    && t.as_millis() % SimDuration::from_hours(4).as_millis()
                        < SimDuration::from_mins(30).as_millis();
                if in_surge {
                    (v * 1.6 + 0.15).min(1.0)
                } else {
                    v
                }
            })
        })
        .collect();
    ClusterTrace::from_series(series)
}

fn run_one(
    scheme: Scheme,
    fidelity: Fidelity,
    trace: &Arc<ClusterTrace>,
) -> (SocHistory, TimeSeries) {
    let config = SimConfig::paper_default(scheme);
    let mut sim = ClusterSim::new_shared(config, Arc::clone(trace)).expect("valid config");
    sim.record_soc(SimDuration::from_mins(5));
    let end = horizon(fidelity);
    let step = SimDuration::from_secs(30);
    let mut t = SimTime::ZERO;
    let mut shed = Vec::new();
    while t < end {
        sim.step(step);
        t += step;
        if t.as_millis()
            .is_multiple_of(SimDuration::from_mins(5).as_millis())
        {
            shed.push(sim.asleep_fraction() * 100.0);
        }
    }
    let shed_series = TimeSeries::new(SimTime::ZERO, SimDuration::from_mins(5), shed);
    (
        sim.soc_history().expect("recording enabled").clone(),
        shed_series,
    )
}

/// Runs the experiment, synthesizing the surging trace once and fanning
/// the two schemes across workers.
pub fn run(fidelity: Fidelity, jobs: usize) -> Fig14 {
    let machines = SimConfig::paper_default(Scheme::Ps)
        .topology
        .total_servers();
    let trace = Arc::new(surging_trace(machines, fidelity));
    let mut results = SweepRunner::new(jobs).run(vec![Scheme::Ps, Scheme::Pad], |_, scheme| {
        run_one(scheme, fidelity, &trace)
    });
    let (after, shed_ratio) = results.pop().expect("two schemes");
    let (before, _) = results.pop().expect("two schemes");
    Fig14 {
        before,
        shed_ratio,
        after,
    }
}

impl Fig14 {
    /// Peak shed ratio (%) — the paper's "about 3%".
    pub fn peak_shed_ratio(&self) -> f64 {
        self.shed_ratio.values().iter().copied().fold(0.0, f64::max)
    }

    /// Vulnerable-rack exposure (SOC < 25%) before and after.
    pub fn exposure(&self) -> (f64, f64) {
        (
            self.before.vulnerability_exposure(0.25),
            self.after.vulnerability_exposure(0.25),
        )
    }

    fn heatmap_of(history: &SocHistory, title: &str) -> String {
        let mut map = Heatmap::new();
        map.title(title);
        for rack in 0..history.racks() {
            map.row(
                format!("rack-{rack:02}"),
                history.rack_series(rack).values().to_vec(),
            );
        }
        map.render(96)
    }

    /// Renders all three panels.
    pub fn render(&self) -> String {
        let mut out = Self::heatmap_of(
            &self.before,
            "Figure 14-A — conventional battery map under periodic surges",
        );
        out.push('\n');
        out.push_str(&render_time_series(
            "Figure 14-B — PAD load-shedding ratio",
            "shed_pct",
            &self.shed_ratio,
        ));
        out.push('\n');
        out.push_str(&Self::heatmap_of(
            &self.after,
            "Figure 14-C — PAD battery map (same trace, <=3% shedding)",
        ));
        let (before, after) = self.exposure();
        out.push_str(&format!(
            "\npeak shed ratio {:.1}% (cap 3%)   vulnerable exposure: before {:.0}%, after {:.0}%\n",
            self.peak_shed_ratio(),
            before * 100.0,
            after * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shedding_is_bounded_and_helps() {
        let fig = run(Fidelity::Smoke, 1);
        assert!(
            fig.peak_shed_ratio() <= 3.0 + 1e-9,
            "shed ratio {:.2}% exceeded the 3% cap",
            fig.peak_shed_ratio()
        );
        let (before, after) = fig.exposure();
        assert!(
            after <= before + 1e-9,
            "PAD exposure {after} must not exceed conventional {before}"
        );
        assert!(fig.render().contains("Figure 14-B"));
    }
}
