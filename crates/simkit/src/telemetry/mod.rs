//! Deterministic telemetry: metric registry, trace recording, and
//! offline inspection.
//!
//! The paper's attack thrives on coarse observability — utilization-scale
//! metering cannot see sub-second power spikes. This module is the
//! simulator's answer for its *own* observability: one instrumented
//! signal stream that every experiment, policy, and future detector
//! consumes, instead of ad-hoc stats per figure.
//!
//! Three layers:
//!
//! * [`MetricRegistry`] — interns metric names to dense [`MetricId`]s up
//!   front and owns aggregate instruments (counters, gauges, fixed-bucket
//!   histograms, running [`OnlineStats`](crate::stats::OnlineStats)).
//! * [`Record`] — the per-tick record stream. A recording simulation
//!   keeps the newest records in a
//!   [`BoundedRing`](crate::ring::BoundedRing) and hands them back as a
//!   [`TelemetryDump`]; a simulation that does not record holds no
//!   telemetry state at all.
//! * Offline: [`parse`] reads a serialized trace back,
//!   [`TelemetryReport`] digests and renders it (`padsim inspect`).
//!
//! # Determinism contract
//!
//! Recorded data carries **simulation** time only — never wall-clock —
//! and serialized traces are ordered by `(SimTime, samples-before-events,
//! MetricId)` ([`sort_records`]). Metric ids are assigned in registration
//! order and emission happens in registration order, so a trace is a pure
//! function of (scenario, seed): running a sweep with `--jobs 1` or
//! `--jobs 4` produces byte-identical output. Values serialize via Rust's
//! default `f64` `Display` (shortest round-trip form), which is
//! platform-independent.

pub mod codec;
pub mod inspect;
pub mod record;
pub mod registry;

pub use codec::{
    find_newline, is_csv_header, parse, parse_line, parse_lossy, render_parsed, to_csv, to_jsonl,
    Format, LossyParse, ParseError, ParsedRecord, CSV_HEADER,
};
pub use inspect::{render_prometheus_reports, EventDigest, MetricDigest, TelemetryReport};
pub use record::{sort_records, EventKind, EventRecord, Record, Sample};
pub use registry::{render_prometheus_families, MetricId, MetricKind, MetricRegistry};

/// A finished trace: the registry that names its metrics plus the
/// retained records, ready to serialize or digest.
///
/// This is what a simulation hands back after a recorded run — the
/// registry travels with the records because [`MetricId`]s are only
/// meaningful against the registry that minted them.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDump {
    /// The registry the records' metric ids index into.
    pub registry: MetricRegistry,
    /// The trace, in canonical order.
    pub records: Vec<Record>,
    /// Records evicted from the ring before the dump was taken.
    pub dropped: u64,
}

impl TelemetryDump {
    /// Builds a dump, sorting `records` into canonical order.
    pub fn new(registry: MetricRegistry, mut records: Vec<Record>, dropped: u64) -> Self {
        sort_records(&mut records);
        TelemetryDump {
            registry,
            records,
            dropped,
        }
    }

    /// Serializes the trace to a JSONL string.
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.registry, &self.records)
    }

    /// Serializes the trace to a CSV string (with header).
    pub fn to_csv(&self) -> String {
        to_csv(&self.registry, &self.records)
    }

    /// Serializes the trace in the given format.
    pub fn serialize(&self, format: Format) -> String {
        match format {
            Format::Jsonl => self.to_jsonl(),
            Format::Csv => self.to_csv(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn dump_sorts_and_serializes() {
        let mut reg = MetricRegistry::new();
        let a = reg.register_gauge("a");
        let b = reg.register_gauge("b");
        // Deliberately out of order: later tick first.
        let records = vec![
            Record::Sample(Sample {
                time: SimTime::from_millis(200),
                metric: a,
                value: 2.0,
            }),
            Record::Sample(Sample {
                time: SimTime::from_millis(100),
                metric: b,
                value: 1.0,
            }),
        ];
        let dump = TelemetryDump::new(reg, records, 0);
        assert_eq!(
            dump.to_jsonl(),
            "{\"t\":100,\"m\":\"b\",\"v\":1}\n{\"t\":200,\"m\":\"a\",\"v\":2}\n"
        );
        assert!(dump.to_csv().starts_with(CSV_HEADER));
        assert_eq!(dump.serialize(Format::Jsonl), dump.to_jsonl());
    }
}
