//! Figure 12 — examples of the collected attacking traces.
//!
//! "Based on the configuration of our system, we consider two types of
//! power attack: a dense and extensive power spikes and a sparse and less
//! aggressive spikes." (§V) The traces are rendered at 1-second
//! resolution as percent of peak power, with the measurement jitter of
//! the paper's precision power analyzer.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use simkit::series::TimeSeries;
use simkit::sweep::{scenario_stream, SweepRunner};
use simkit::time::SimDuration;

use crate::experiments::Fidelity;
use crate::report::render_time_series;

/// The Figure 12 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12 {
    /// Left panel: dense and extensive attack.
    pub dense: TimeSeries,
    /// Right panel: sparse and light-weight attack.
    pub sparse: TimeSeries,
}

/// Renders both collected traces, one sweep scenario per panel. Each
/// panel draws its jitter from the `(seed, scenario_index)` stream, so
/// the figure is identical for any worker count.
pub fn run(fidelity: Fidelity, jobs: usize) -> Fig12 {
    let duration = if fidelity.is_smoke() {
        SimDuration::from_mins(2)
    } else {
        SimDuration::from_mins(4)
    };
    let styles = vec![AttackStyle::Dense, AttackStyle::Sparse];
    let mut panels = SweepRunner::new(jobs).run(styles, |index, style| {
        let mut rng = scenario_stream(0x00F1_6012, index);
        AttackScenario::new(style, VirusClass::CpuIntensive, 1).collected_trace(duration, &mut rng)
    });
    let sparse = panels.pop().expect("two panels");
    let dense = panels.pop().expect("two panels");
    Fig12 { dense, sparse }
}

impl Fig12 {
    /// Fraction of samples above 90% of peak, `(dense, sparse)` — dense
    /// attacks spend several times longer at peak.
    pub fn peak_time_fraction(&self) -> (f64, f64) {
        let frac = |s: &TimeSeries| {
            s.values().iter().filter(|&&v| v > 90.0).count() as f64 / s.len() as f64
        };
        (frac(&self.dense), frac(&self.sparse))
    }

    /// Renders both panels.
    pub fn render(&self) -> String {
        let mut out = render_time_series(
            "Figure 12 (left) — dense attack, % of peak power",
            "pct_peak",
            &self.dense,
        );
        out.push('\n');
        out.push_str(&render_time_series(
            "Figure 12 (right) — sparse attack, % of peak power",
            "pct_peak",
            &self.sparse,
        ));
        let (d, s) = self.peak_time_fraction();
        out.push_str(&format!(
            "\ntime at peak: dense {:.1}%, sparse {:.1}%\n",
            d * 100.0,
            s * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_dense_spends_more_time_at_peak() {
        let fig = run(Fidelity::Smoke, 1);
        let (d, s) = fig.peak_time_fraction();
        assert!(d > s, "dense ({d:.3}) must exceed sparse ({s:.3})");
        assert!(d > 0.1 && d < 0.5, "dense duty out of range: {d:.3}");
        assert!(fig.render().contains("Figure 12"));
    }
}
