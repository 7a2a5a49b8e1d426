//! Structured simulation event logging.
//!
//! Long simulations need a forensic trail: when did the LVD isolate a
//! battery, when did capping engage, when did the policy escalate?
//! [`EventLog`] is a bounded, allocation-light recorder the simulator
//! writes to and CLIs/experiments read back or print.
//!
//! Retention is **per severity**: each severity level has its own
//! bounded lane, so a flood of Info noise can never evict the Critical
//! incidents a post-mortem actually needs.

use std::fmt;

use crate::ring::BoundedRing;
use crate::time::SimTime;

/// Log severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine state changes (recharge episodes, cap lifts).
    Info,
    /// Degraded conditions (battery isolated, capping engaged).
    Warning,
    /// Incidents (overloads, breaker trips, load shedding).
    Critical,
}

/// Number of severity levels (one retention lane each).
const LANES: usize = 3;

impl Severity {
    /// Every severity, in ascending order.
    pub const ALL: [Severity; LANES] = [Severity::Info, Severity::Warning, Severity::Critical];

    /// Short tag used in rendered output.
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Critical => "CRIT",
        }
    }

    /// Dense index of this severity (its retention lane).
    fn idx(self) -> usize {
        match self {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Critical => 2,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    /// Simulation time of the event.
    pub time: SimTime,
    /// Severity.
    pub severity: Severity,
    /// Originating component (e.g. `"rack-03"`, `"policy"`).
    pub source: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LogEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {:<10} {}",
            self.time, self.severity, self.source, self.message
        )
    }
}

/// A bounded in-memory event log with per-severity retention.
///
/// Each severity keeps its own [`BoundedRing`] lane of at most the log's
/// capacity, and the oldest event *of that severity* is evicted when its
/// lane fills. This fixes the classic bounded-buffer failure where an
/// Info flood silently evicts the rare Critical events: here Info can
/// only evict Info. Eviction counts are kept so consumers know the log
/// is partial, and [`events`](EventLog::events) merges the lanes back
/// into recording order via per-event sequence numbers.
///
/// # Example
///
/// ```
/// use simkit::log::{EventLog, Severity};
/// use simkit::time::SimTime;
///
/// let mut log = EventLog::new(100);
/// log.record(SimTime::from_secs(5), Severity::Warning, "rack-03", "battery isolated (LVD)");
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.events().next().unwrap().severity, Severity::Warning);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog {
    lanes: [BoundedRing<(u64, LogEvent)>; LANES],
    next_seq: u64,
}

impl EventLog {
    /// Creates a log where every severity lane holds at most `capacity`
    /// events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            lanes: std::array::from_fn(|_| BoundedRing::new(capacity)),
            next_seq: 0,
        }
    }

    /// Records one event.
    pub fn record(
        &mut self,
        time: SimTime,
        severity: Severity,
        source: impl Into<String>,
        message: impl Into<String>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lanes[severity.idx()].push((
            seq,
            LogEvent {
                time,
                severity,
                source: source.into(),
                message: message.into(),
            },
        ));
    }

    /// All retained events, oldest first (lanes merged back into
    /// recording order).
    pub fn events(&self) -> impl ExactSizeIterator<Item = &LogEvent> {
        let mut merged: Vec<&(u64, LogEvent)> =
            self.lanes.iter().flat_map(BoundedRing::iter).collect();
        merged.sort_by_key(|(seq, _)| *seq);
        merged.into_iter().map(|(_, e)| e)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(BoundedRing::len).sum()
    }

    /// `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(BoundedRing::is_empty)
    }

    /// How many events were evicted to respect lane capacities.
    pub fn evicted(&self) -> u64 {
        self.lanes.iter().map(BoundedRing::evicted).sum()
    }

    /// Events at or above `severity`, in recording order.
    pub fn at_least(&self, severity: Severity) -> impl Iterator<Item = &LogEvent> {
        self.events().filter(move |e| e.severity >= severity)
    }

    /// Retained event counts per severity lane, in [`Severity::ALL`]
    /// order.
    pub fn severity_counts(&self) -> [usize; LANES] {
        let mut counts = [0; LANES];
        for (i, lane) in self.lanes.iter().enumerate() {
            counts[i] = lane.len();
        }
        counts
    }

    /// Renders the retained events as lines.
    ///
    /// A footer line summarizes retained counts per severity (so a reader
    /// can see at a glance how many warnings/criticals — e.g. injected
    /// faults — the run produced). When the log is partial, a second
    /// footer line reports how many events were evicted by lane capacity,
    /// so readers know what is missing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let evicted = self.evicted();
        if evicted > 0 {
            out.push_str(&format!("... {evicted} earlier events evicted ...\n"));
        }
        for e in self.events() {
            out.push_str(&format!("{e}\n"));
        }
        if !self.is_empty() {
            let counts = self.severity_counts();
            let parts: Vec<String> = Severity::ALL
                .iter()
                .zip(counts)
                .map(|(s, n)| format!("{n} {s}"))
                .collect();
            out.push_str(&format!("-- severity: {} --\n", parts.join(", ")));
        }
        if evicted > 0 {
            out.push_str(&format!("-- partial log: {evicted} evicted --\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut log = EventLog::new(10);
        log.record(SimTime::from_secs(1), Severity::Info, "a", "one");
        log.record(SimTime::from_secs(2), Severity::Critical, "b", "two");
        let events: Vec<_> = log.events().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "one");
        assert_eq!(events[1].severity, Severity::Critical);
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let mut log = EventLog::new(3);
        for i in 0..5u64 {
            log.record(SimTime::from_secs(i), Severity::Info, "s", format!("{i}"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 2);
        let first = log.events().next().unwrap();
        assert_eq!(first.message, "2");
        assert!(log.render().starts_with("... 2 earlier events evicted"));
    }

    #[test]
    fn info_flood_cannot_evict_critical_events() {
        let mut log = EventLog::new(3);
        log.record(SimTime::ZERO, Severity::Critical, "s", "breaker trip");
        for i in 0..100u64 {
            log.record(
                SimTime::from_secs(i),
                Severity::Info,
                "s",
                format!("noise {i}"),
            );
        }
        let criticals: Vec<_> = log.at_least(Severity::Critical).collect();
        assert_eq!(criticals.len(), 1, "the incident survived the flood");
        assert_eq!(criticals[0].message, "breaker trip");
        assert_eq!(log.len(), 4, "3 retained Info + 1 Critical");
        assert_eq!(log.evicted(), 97);
        // And the merge preserves recording order: Critical came first.
        assert_eq!(log.events().next().unwrap().severity, Severity::Critical);
    }

    #[test]
    fn render_footer_reports_evictions() {
        // Complete log: no footer.
        let mut log = EventLog::new(10);
        log.record(SimTime::ZERO, Severity::Info, "s", "ok");
        assert!(!log.render().contains("partial log"));

        // Evictions from every lane add up in the footer.
        let mut log = EventLog::new(2);
        for i in 0..3u64 {
            log.record(SimTime::from_secs(i), Severity::Info, "s", "noise");
            log.record(SimTime::from_secs(i), Severity::Warning, "s", "warn");
        }
        let text = log.render();
        assert!(text.ends_with("-- partial log: 2 evicted --\n"));
    }

    #[test]
    fn render_footer_reports_severity_counts() {
        let mut log = EventLog::new(10);
        assert!(!log.render().contains("severity:"), "empty log: no footer");
        log.record(SimTime::ZERO, Severity::Info, "s", "i");
        log.record(SimTime::ZERO, Severity::Warning, "s", "fault injected");
        log.record(SimTime::ZERO, Severity::Warning, "s", "fault cleared");
        log.record(SimTime::ZERO, Severity::Critical, "s", "trip");
        let text = log.render();
        assert!(text.contains("-- severity: 1 INFO, 2 WARN, 1 CRIT --\n"));
        assert_eq!(log.severity_counts(), [1, 2, 1]);
        // The severity line comes before any partial-log line.
        let mut log = EventLog::new(1);
        log.record(SimTime::ZERO, Severity::Info, "s", "a");
        log.record(SimTime::ZERO, Severity::Info, "s", "b");
        let text = log.render();
        let sev = text.find("-- severity:").unwrap();
        let partial = text.find("-- partial log:").unwrap();
        assert!(sev < partial);
    }

    #[test]
    fn severity_filter() {
        let mut log = EventLog::new(10);
        log.record(SimTime::ZERO, Severity::Info, "s", "i");
        log.record(SimTime::ZERO, Severity::Warning, "s", "w");
        log.record(SimTime::ZERO, Severity::Critical, "s", "c");
        assert_eq!(log.at_least(Severity::Warning).count(), 2);
        assert_eq!(log.at_least(Severity::Critical).count(), 1);
        assert!(Severity::Critical > Severity::Info);
    }

    #[test]
    fn display_format() {
        let e = LogEvent {
            time: SimTime::from_secs(90),
            severity: Severity::Warning,
            source: "rack-03".into(),
            message: "battery isolated".into(),
        };
        let text = e.to_string();
        assert!(text.contains("00:01:30.000"));
        assert!(text.contains("WARN"));
        assert!(text.contains("rack-03"));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        EventLog::new(0);
    }
}
