//! The records a telemetry trace is made of.
//!
//! Two record shapes make up the per-tick stream: [`Sample`]s (one metric value at one simulation time) and
//! [`EventRecord`]s (one typed occurrence — a breaker trip, an LVD
//! isolation — at one simulation time). Both carry [`SimTime`], never
//! wall-clock, so a recorded trace is a pure function of the simulated
//! scenario and its seed.
//!
//! # Ordering
//!
//! Serialized traces are sorted by the key
//! `(time, samples-before-events, MetricId/EventKind index, source)` —
//! see [`Record::sort_key`]. Because metric ids are handed out in
//! registration order and emission happens in registration order, a
//! single simulation already produces records in this order; the sort is
//! the contract that makes it explicit (and repairs interleavings when
//! several recordings are concatenated).

use crate::telemetry::MetricId;
use crate::time::SimTime;

/// A typed simulation event worth recording.
///
/// These replace free-text `EventLog` strings on the telemetry path:
/// consumers match on the kind instead of parsing prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A battery cabinet's low-voltage disconnect isolated it.
    LvdIsolation,
    /// A rack or PDU circuit breaker tripped.
    BreakerTrip,
    /// Aggregate draw exceeded a protective limit.
    Overload,
    /// The defense policy changed security level.
    LevelChange,
    /// The load shedder put servers to sleep.
    Shed,
    /// The load shedder woke all servers back up.
    Wake,
    /// The migrator moved load off a threatened rack.
    Migration,
    /// The operator applied a protective power cap.
    ProtectiveCap,
    /// The streaming detector bank's fused verdict fired (the value
    /// carries the fused score).
    DetectorFired,
    /// A scheduled fault's window opened (the value carries the fault
    /// spec index within its plan).
    FaultInjected,
    /// A scheduled fault's window closed (the value carries the fault
    /// spec index within its plan).
    FaultCleared,
}

impl EventKind {
    /// Every kind, in serialization (index) order.
    pub const ALL: [EventKind; 11] = [
        EventKind::LvdIsolation,
        EventKind::BreakerTrip,
        EventKind::Overload,
        EventKind::LevelChange,
        EventKind::Shed,
        EventKind::Wake,
        EventKind::Migration,
        EventKind::ProtectiveCap,
        EventKind::DetectorFired,
        EventKind::FaultInjected,
        EventKind::FaultCleared,
    ];

    /// Stable wire name (used in JSONL/CSV output).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::LvdIsolation => "lvd_isolation",
            EventKind::BreakerTrip => "breaker_trip",
            EventKind::Overload => "overload",
            EventKind::LevelChange => "level_change",
            EventKind::Shed => "shed",
            EventKind::Wake => "wake",
            EventKind::Migration => "migration",
            EventKind::ProtectiveCap => "protective_cap",
            EventKind::DetectorFired => "detector_fired",
            EventKind::FaultInjected => "fault_injected",
            EventKind::FaultCleared => "fault_cleared",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_name(s: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Index of this kind within [`EventKind::ALL`] (the tiebreak rank
    /// used by [`Record::sort_key`]).
    pub fn index(self) -> usize {
        EventKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind listed in ALL")
    }
}

/// One metric observation at one simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulation time of the observation.
    pub time: SimTime,
    /// Which metric this observes.
    pub metric: MetricId,
    /// The observed value.
    pub value: f64,
}

/// One typed event at one simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Simulation time of the event.
    pub time: SimTime,
    /// What happened.
    pub kind: EventKind,
    /// Which component it happened to (e.g. `rack-03`, `pdu`).
    pub source: String,
    /// Event magnitude — draw in watts for overloads, target level for
    /// level changes, server count for sheds; 1.0 when there is no
    /// natural magnitude.
    pub value: f64,
}

/// A sample or an event — the unit a trace stores and serializes.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A metric observation.
    Sample(Sample),
    /// A typed event.
    Event(EventRecord),
}

impl Record {
    /// Simulation time of this record.
    pub fn time(&self) -> SimTime {
        match self {
            Record::Sample(s) => s.time,
            Record::Event(e) => e.time,
        }
    }

    /// The deterministic ordering key: time first, then samples before
    /// events, then metric/kind index, then event source.
    pub fn sort_key(&self) -> (u64, u8, usize, &str) {
        match self {
            Record::Sample(s) => (s.time.as_millis(), 0, s.metric.index(), ""),
            Record::Event(e) => (e.time.as_millis(), 1, e.kind.index(), e.source.as_str()),
        }
    }
}

/// Sorts records into the canonical deterministic order.
///
/// The sort is stable, so records that tie on the full key (e.g. two
/// observations of one metric at one tick) keep their emission order.
pub fn sort_records(records: &mut [Record]) {
    records.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MetricRegistry;

    #[test]
    fn event_kind_wire_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_name(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::from_name("nonsense"), None);
    }

    #[test]
    fn sort_orders_time_then_samples_then_events() {
        let mut reg = MetricRegistry::new();
        let a = reg.register_gauge("a");
        let b = reg.register_gauge("b");
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_millis(100);
        let mut records = vec![
            Record::Event(EventRecord {
                time: t0,
                kind: EventKind::Shed,
                source: "rack-00".into(),
                value: 1.0,
            }),
            Record::Sample(Sample {
                time: t1,
                metric: a,
                value: 2.0,
            }),
            Record::Sample(Sample {
                time: t0,
                metric: b,
                value: 3.0,
            }),
            Record::Sample(Sample {
                time: t0,
                metric: a,
                value: 4.0,
            }),
        ];
        sort_records(&mut records);
        let key: Vec<(u64, u8, usize)> = records
            .iter()
            .map(|r| {
                let (t, rank, idx, _) = r.sort_key();
                (t, rank, idx)
            })
            .collect();
        assert_eq!(key, vec![(0, 0, 0), (0, 0, 1), (0, 1, 4), (100, 0, 0)]);
    }
}
