//! Utilization-based power metering.
//!
//! Data centers "normally monitor the total energy consumption at
//! coarse-grained intervals (e.g., 10 minutes) to estimate the average
//! power demand" (§III.A). Table I sweeps this metering interval from 5 s
//! to 15 min and reports how many hidden spikes each setting catches.
//!
//! [`PowerMeter`] integrates true power over its window and emits one
//! average sample per window — so a 1-second spike inside a 60-second
//! window is diluted 60×, which is precisely why the attacker's spikes are
//! "possibly invisible to data centers".

use battery::units::{Joules, Watts};
use simkit::time::{SimDuration, SimTime};

/// An energy-integrating average-power meter.
///
/// # Example
///
/// ```
/// use powerinfra::metering::PowerMeter;
/// use powerinfra::units::Watts;
/// use simkit::time::{SimDuration, SimTime};
///
/// let mut m = PowerMeter::new(SimDuration::from_secs(10));
/// // 1 s spike at 1 kW inside an otherwise 100 W window:
/// m.feed(Watts(100.0), SimTime::ZERO, SimDuration::from_secs(9));
/// m.feed(Watts(1000.0), SimTime::from_secs(9), SimDuration::from_secs(1));
/// let samples = m.take_samples();
/// // The meter reports 190 W — the spike is diluted away.
/// assert_eq!(samples, vec![(SimTime::ZERO, Watts(190.0))]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMeter {
    interval: SimDuration,
    window_start: SimTime,
    energy: Joules,
    covered: SimDuration,
    samples: Vec<(SimTime, Watts)>,
}

impl PowerMeter {
    /// Creates a meter with the given sampling interval, starting at time
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "metering interval must be non-zero");
        PowerMeter {
            interval,
            window_start: SimTime::ZERO,
            energy: Joules::ZERO,
            covered: SimDuration::ZERO,
            samples: Vec::new(),
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Feeds a constant-power segment `[start, start + dt)`.
    ///
    /// Segments must be fed in time order and contiguously (gaps are
    /// treated as zero power). Crossing a window boundary closes the
    /// window and records its average-power sample.
    pub fn feed(&mut self, power: Watts, start: SimTime, dt: SimDuration) {
        let mut t = start;
        let mut remaining = dt;
        // Fast-forward over skipped windows (recorded as zero power).
        while t >= self.window_start + self.interval {
            self.close_window();
        }
        while !remaining.is_zero() {
            let window_end = self.window_start + self.interval;
            let seg = remaining.min(window_end.saturating_since(t));
            if seg.is_zero() {
                self.close_window();
                continue;
            }
            self.energy += power * seg;
            self.covered += seg;
            t += seg;
            remaining -= seg;
            if t >= window_end {
                self.close_window();
            }
        }
    }

    fn close_window(&mut self) {
        let avg = self.energy / self.interval;
        self.samples.push((self.window_start, avg));
        self.window_start += self.interval;
        self.energy = Joules::ZERO;
        self.covered = SimDuration::ZERO;
    }

    /// Completed window samples so far, as `(window_start, average_power)`.
    pub fn samples(&self) -> &[(SimTime, Watts)] {
        &self.samples
    }

    /// Drains and returns the completed samples.
    pub fn take_samples(&mut self) -> Vec<(SimTime, Watts)> {
        std::mem::take(&mut self.samples)
    }

    /// Flushes the current (partial) window as a final sample. The partial
    /// window still averages over the *full* interval, matching how real
    /// energy counters are read out.
    pub fn flush(&mut self) {
        if !self.covered.is_zero() {
            self.close_window();
        }
    }

    /// Count of completed samples whose average power exceeds `threshold`.
    pub fn samples_above(&self, threshold: Watts) -> usize {
        self.samples.iter().filter(|&&(_, p)| p > threshold).count()
    }
}

/// A bank of [`PowerMeter`]s at several intervals watching one feed.
///
/// Table I (and its detector-comparison extension) score the same draw
/// signal at many metering granularities; the bank feeds every meter the
/// same segments so the per-interval sample vectors stay aligned.
///
/// # Example
///
/// ```
/// use powerinfra::metering::MeterBank;
/// use powerinfra::units::Watts;
/// use simkit::time::{SimDuration, SimTime};
///
/// let mut bank = MeterBank::new(&[SimDuration::from_secs(5), SimDuration::from_secs(10)]);
/// bank.feed(Watts(100.0), SimTime::ZERO, SimDuration::from_secs(10));
/// assert_eq!(bank.meters()[0].samples().len(), 2);
/// assert_eq!(bank.meters()[1].samples().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeterBank {
    meters: Vec<PowerMeter>,
}

impl MeterBank {
    /// Creates one meter per interval, all starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is empty or any interval is zero.
    pub fn new(intervals: &[SimDuration]) -> Self {
        assert!(!intervals.is_empty(), "a meter bank needs an interval");
        MeterBank {
            meters: intervals.iter().map(|&i| PowerMeter::new(i)).collect(),
        }
    }

    /// Feeds one constant-power segment to every meter.
    pub fn feed(&mut self, power: Watts, start: SimTime, dt: SimDuration) {
        for m in &mut self.meters {
            m.feed(power, start, dt);
        }
    }

    /// The meters, in construction order.
    pub fn meters(&self) -> &[PowerMeter] {
        &self.meters
    }

    /// Drains every meter's completed windows, one `(window_start, avg)`
    /// vector per interval in construction order.
    pub fn take_samples(&mut self) -> Vec<Vec<(SimTime, Watts)>> {
        self.meters
            .iter_mut()
            .map(PowerMeter::take_samples)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_within_window() {
        let mut m = PowerMeter::new(SimDuration::from_secs(4));
        m.feed(Watts(100.0), SimTime::ZERO, SimDuration::from_secs(2));
        m.feed(
            Watts(300.0),
            SimTime::from_secs(2),
            SimDuration::from_secs(2),
        );
        assert_eq!(m.samples(), &[(SimTime::ZERO, Watts(200.0))]);
    }

    #[test]
    fn splits_segments_across_boundaries() {
        let mut m = PowerMeter::new(SimDuration::from_secs(10));
        // One 20 s segment at 500 W covers exactly two windows.
        m.feed(Watts(500.0), SimTime::ZERO, SimDuration::from_secs(20));
        assert_eq!(
            m.samples(),
            &[
                (SimTime::ZERO, Watts(500.0)),
                (SimTime::from_secs(10), Watts(500.0))
            ]
        );
    }

    #[test]
    fn narrow_spike_is_diluted_by_wide_windows() {
        let mut wide = PowerMeter::new(SimDuration::from_mins(1));
        let mut narrow = PowerMeter::new(SimDuration::from_secs(5));
        for m in [&mut wide, &mut narrow] {
            m.feed(Watts(100.0), SimTime::ZERO, SimDuration::from_secs(30));
            m.feed(
                Watts(2000.0),
                SimTime::from_secs(30),
                SimDuration::from_secs(1),
            );
            m.feed(
                Watts(100.0),
                SimTime::from_secs(31),
                SimDuration::from_secs(29),
            );
        }
        // Narrow meter sees a 480 W window; wide meter sees ~132 W.
        assert!(narrow.samples_above(Watts(400.0)) >= 1);
        assert_eq!(wide.samples_above(Watts(400.0)), 0);
    }

    #[test]
    fn gaps_read_as_zero_power() {
        let mut m = PowerMeter::new(SimDuration::from_secs(10));
        m.feed(Watts(100.0), SimTime::ZERO, SimDuration::from_secs(10));
        // Skip two windows entirely.
        m.feed(
            Watts(100.0),
            SimTime::from_secs(30),
            SimDuration::from_secs(10),
        );
        let samples = m.samples();
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[1].1, Watts(0.0));
        assert_eq!(samples[2].1, Watts(0.0));
        assert_eq!(samples[3].1, Watts(100.0));
    }

    #[test]
    fn flush_emits_partial_window() {
        let mut m = PowerMeter::new(SimDuration::from_secs(10));
        m.feed(Watts(1000.0), SimTime::ZERO, SimDuration::from_secs(5));
        assert!(m.samples().is_empty());
        m.flush();
        // Partial 5 s of 1 kW over a 10 s interval = 500 W average.
        assert_eq!(m.samples(), &[(SimTime::ZERO, Watts(500.0))]);
    }

    #[test]
    fn take_samples_drains() {
        let mut m = PowerMeter::new(SimDuration::SECOND);
        m.feed(Watts(50.0), SimTime::ZERO, SimDuration::from_secs(3));
        assert_eq!(m.take_samples().len(), 3);
        assert!(m.samples().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_rejected() {
        PowerMeter::new(SimDuration::ZERO);
    }

    #[test]
    fn bank_keeps_intervals_aligned() {
        let mut bank = MeterBank::new(&[SimDuration::from_secs(2), SimDuration::from_secs(4)]);
        bank.feed(Watts(100.0), SimTime::ZERO, SimDuration::from_secs(4));
        bank.feed(
            Watts(300.0),
            SimTime::from_secs(4),
            SimDuration::from_secs(4),
        );
        let samples = bank.take_samples();
        assert_eq!(samples[0].len(), 4);
        assert_eq!(samples[1].len(), 2);
        assert_eq!(samples[1][0], (SimTime::ZERO, Watts(100.0)));
        assert_eq!(samples[1][1], (SimTime::from_secs(4), Watts(300.0)));
        // Drained: a second take is empty.
        assert!(bank.take_samples().iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "needs an interval")]
    fn empty_bank_rejected() {
        MeterBank::new(&[]);
    }
}
