//! Self-profiling: interned phase IDs, monotonic wall-clock phase
//! timers, and throughput accounting.
//!
//! The profiler follows the same discipline as [`crate::telemetry`] and
//! [`crate::trace`]: an instrument is either absent — the caller holds
//! no profiler, and every hot-loop hook is one untaken branch — or
//! recording, when a [`Profiler`] aggregates per-phase call-count /
//! total / max wall-clock durations against interned [`PhaseId`]s handed
//! out in registration order. Phase timings read the monotonic clock
//! only — they never feed back into simulation state, so enabling
//! profiling cannot perturb a single output byte.
//!
//! Wall-clock numbers are bookkeeping, not part of any determinism
//! contract: call counts and registration order are reproducible, the
//! durations vary run to run.
//!
//! # Example
//!
//! ```
//! use simkit::prof::{LapTimer, Profiler};
//!
//! let mut prof = Profiler::new();
//! let plan = prof.register("step.plan");
//! let apply = prof.register("step.apply");
//!
//! let mut lap = LapTimer::start(true);
//! // ... planning work ...
//! if let Some(d) = lap.lap() {
//!     prof.add(plan, d);
//! }
//! // ... apply work ...
//! if let Some(d) = lap.lap() {
//!     prof.add(apply, d);
//! }
//!
//! let dump = prof.into_dump();
//! assert_eq!(dump.phases[0].name, "step.plan");
//! assert_eq!(dump.phases[0].calls, 1);
//! ```

use std::time::{Duration, Instant};

use crate::intern::Interner;

/// An interned phase handle: a dense index into the profiler's phase
/// table, handed out in registration order (the same discipline as
/// telemetry's `MetricId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseId(pub u16);

/// Aggregate wall-clock statistics for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of recorded laps.
    pub calls: u64,
    /// Total wall-clock time across all laps.
    pub total: Duration,
    /// The single longest lap.
    pub max: Duration,
}

impl PhaseStats {
    /// Folds one lap into the aggregate.
    #[inline]
    pub fn record(&mut self, elapsed: Duration) {
        self.calls += 1;
        self.total += elapsed;
        if elapsed > self.max {
            self.max = elapsed;
        }
    }

    /// Mean lap duration (zero when no laps were recorded).
    pub fn mean(&self) -> Duration {
        if self.calls == 0 {
            Duration::ZERO
        } else {
            self.total / u32::try_from(self.calls).unwrap_or(u32::MAX)
        }
    }

    /// Sums another aggregate into this one (max-of-max).
    pub fn merge(&mut self, other: &PhaseStats) {
        self.calls += other.calls;
        self.total += other.total;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

/// A self-profiler: interned phase names with per-phase aggregates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profiler {
    names: Interner,
    stats: Vec<PhaseStats>,
}

impl Profiler {
    /// A recording profiler with no phases registered.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Interns `name`, returning its dense id. Registering the same name
    /// twice returns the original id.
    ///
    /// # Panics
    ///
    /// Panics if the phase table is full (`u16::MAX` names).
    pub fn register(&mut self, name: &str) -> PhaseId {
        let id = PhaseId(self.names.intern(name));
        self.stats.resize(self.names.len(), PhaseStats::default());
        id
    }

    /// Records one lap against `id`.
    #[inline]
    pub fn add(&mut self, id: PhaseId, elapsed: Duration) {
        self.stats[id.0 as usize].record(elapsed);
    }

    /// The aggregate for `id`.
    pub fn stats(&self, id: PhaseId) -> &PhaseStats {
        &self.stats[id.0 as usize]
    }

    /// Consumes the profiler into a dump, phases in registration order.
    pub fn into_dump(self) -> ProfDump {
        ProfDump {
            phases: self
                .names
                .names()
                .zip(self.stats)
                .map(|(name, stats)| PhaseProfile {
                    name: name.to_string(),
                    calls: stats.calls,
                    total: stats.total,
                    max: stats.max,
                })
                .collect(),
        }
    }
}

/// One phase of a [`ProfDump`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Registered phase name.
    pub name: String,
    /// Number of recorded laps.
    pub calls: u64,
    /// Total wall-clock time across all laps.
    pub total: Duration,
    /// The single longest lap.
    pub max: Duration,
}

impl PhaseProfile {
    /// Mean lap duration (zero when no laps were recorded).
    pub fn mean(&self) -> Duration {
        if self.calls == 0 {
            Duration::ZERO
        } else {
            self.total / u32::try_from(self.calls).unwrap_or(u32::MAX)
        }
    }
}

/// A profiler's serializable output: phases in registration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfDump {
    /// Per-phase aggregates, in registration order.
    pub phases: Vec<PhaseProfile>,
}

impl ProfDump {
    /// Looks a phase up by name.
    pub fn get(&self, name: &str) -> Option<&PhaseProfile> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Folds another dump into this one: phases are matched by name,
    /// unseen phases are appended in the other dump's order.
    pub fn merge(&mut self, other: &ProfDump) {
        for phase in &other.phases {
            match self.phases.iter_mut().find(|p| p.name == phase.name) {
                Some(mine) => {
                    mine.calls += phase.calls;
                    mine.total += phase.total;
                    if phase.max > mine.max {
                        mine.max = phase.max;
                    }
                }
                None => self.phases.push(phase.clone()),
            }
        }
    }
}

/// A lap clock over a contiguous run of instrumented regions.
///
/// Started once at the top of the hot section, it attributes the time
/// since the previous boundary to whatever phase just finished — so the
/// per-phase laps tile the section end to end and their sum tracks the
/// section's total wall-time to within clock-read overhead. Started
/// disabled, every call is a `None` branch.
#[derive(Debug, Clone, Copy)]
pub struct LapTimer {
    started: Option<Instant>,
    last: Option<Instant>,
}

impl LapTimer {
    /// Marks the section start. With `enabled = false` the timer is
    /// inert and never reads the clock.
    #[inline]
    pub fn start(enabled: bool) -> Self {
        if enabled {
            let now = Instant::now();
            LapTimer {
                started: Some(now),
                last: Some(now),
            }
        } else {
            LapTimer {
                started: None,
                last: None,
            }
        }
    }

    /// Ends the current lap, returning its duration and starting the
    /// next one. Inert timers return `None`.
    #[inline]
    pub fn lap(&mut self) -> Option<Duration> {
        let last = self.last?;
        let now = Instant::now();
        self.last = Some(now);
        Some(now - last)
    }

    /// Elapsed time since the section start. Inert timers return `None`.
    #[inline]
    pub fn total(&self) -> Option<Duration> {
        self.started.map(|s| s.elapsed())
    }
}

/// The throughput accountant: how much simulated work one wall-clock
/// second buys. "Units" are whatever the caller scales by — the cluster
/// simulator accounts *rack*-seconds (racks × simulated seconds), the
/// number the CI gate tracks as rack-hours per wall-second.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Throughput {
    /// Simulated unit-seconds accumulated (e.g. rack-seconds).
    pub unit_seconds: f64,
    /// Hot-loop steps executed.
    pub steps: u64,
    /// Wall-clock time spent producing them.
    pub wall: Duration,
}

impl Throughput {
    /// Simulated unit-seconds per wall-clock second (0 when no wall
    /// time was measured).
    pub fn unit_seconds_per_wall_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.unit_seconds / secs
        } else {
            0.0
        }
    }

    /// Simulated unit-hours per wall-clock second.
    pub fn unit_hours_per_wall_second(&self) -> f64 {
        self.unit_seconds_per_wall_second() / 3600.0
    }

    /// Steps per wall-clock second (0 when no wall time was measured).
    pub fn steps_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.steps as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_profiler_aggregates_count_total_max() {
        let mut prof = Profiler::new();
        let id = prof.register("p");
        prof.add(id, Duration::from_millis(2));
        prof.add(id, Duration::from_millis(5));
        prof.add(id, Duration::from_millis(1));
        let s = prof.stats(id);
        assert_eq!(s.calls, 3);
        assert_eq!(s.total, Duration::from_millis(8));
        assert_eq!(s.max, Duration::from_millis(5));
        assert_eq!(s.mean(), Duration::from_millis(8) / 3);
    }

    #[test]
    fn registration_interns_and_preserves_order() {
        let mut prof = Profiler::new();
        let a = prof.register("a");
        let b = prof.register("b");
        assert_eq!(prof.register("a"), a);
        assert_eq!((a.0, b.0), (0, 1));
        let dump = prof.into_dump();
        assert_eq!(dump.phases[0].name, "a");
        assert_eq!(dump.phases[1].name, "b");
    }

    #[test]
    fn inert_lap_timer_never_reads_the_clock() {
        let mut lap = LapTimer::start(false);
        assert_eq!(lap.lap(), None);
        assert_eq!(lap.total(), None);
    }

    #[test]
    fn laps_tile_the_section() {
        let mut prof = Profiler::new();
        let a = prof.register("a");
        let b = prof.register("b");
        let mut lap = LapTimer::start(true);
        std::thread::sleep(Duration::from_millis(2));
        let d = lap.lap().unwrap();
        prof.add(a, d);
        std::thread::sleep(Duration::from_millis(2));
        prof.add(b, lap.lap().unwrap());
        let total = lap.total().unwrap();
        let dump = prof.into_dump();
        let sum: Duration = dump.phases.iter().map(|p| p.total).sum();
        assert!(sum <= total);
        // The laps tile the section: the untimed gap is clock-read noise.
        assert!(total - sum < Duration::from_millis(2), "{total:?} {sum:?}");
    }

    #[test]
    fn dump_merge_matches_by_name_and_appends_unknown() {
        let mut a = ProfDump {
            phases: vec![PhaseProfile {
                name: "x".into(),
                calls: 1,
                total: Duration::from_millis(3),
                max: Duration::from_millis(3),
            }],
        };
        let b = ProfDump {
            phases: vec![
                PhaseProfile {
                    name: "x".into(),
                    calls: 2,
                    total: Duration::from_millis(4),
                    max: Duration::from_millis(4),
                },
                PhaseProfile {
                    name: "y".into(),
                    calls: 1,
                    total: Duration::from_millis(1),
                    max: Duration::from_millis(1),
                },
            ],
        };
        a.merge(&b);
        assert_eq!(a.phases.len(), 2);
        let x = a.get("x").unwrap();
        assert_eq!(x.calls, 3);
        assert_eq!(x.total, Duration::from_millis(7));
        assert_eq!(x.max, Duration::from_millis(4));
        assert_eq!(a.get("y").unwrap().calls, 1);
    }

    #[test]
    fn throughput_accounting() {
        let t = Throughput {
            unit_seconds: 7200.0,
            steps: 100,
            wall: Duration::from_secs(2),
        };
        assert_eq!(t.unit_seconds_per_wall_second(), 3600.0);
        assert_eq!(t.unit_hours_per_wall_second(), 1.0);
        assert_eq!(t.steps_per_second(), 50.0);
        assert_eq!(Throughput::default().unit_seconds_per_wall_second(), 0.0);
    }
}
