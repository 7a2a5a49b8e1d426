//! Deterministic sim-time spans and forensic incident reconstruction.
//!
//! Where [`telemetry`](crate::telemetry) records *point* samples, this
//! module records *intervals with causality*: a [`Span`] has an interned
//! name, open/close sim-times, a parent span id, and key/value
//! attributes — enough to reconstruct "the Phase-I drain caused this
//! discharge episode, which triggered that cap episode" after a run.
//!
//! Three layers, mirroring the telemetry module:
//!
//! * [`Tracer`] — open/close span bookkeeping; finished spans are kept
//!   in a [`BoundedRing`]. A simulation that does not trace holds no
//!   tracer at all.
//! * [`codec`] — JSONL/CSV span serialization and the strict
//!   [`parse_spans`] reader.
//! * [`incident`] — [`IncidentReconstructor`] joins a parsed span trace
//!   with telemetry and ground truth into [`Incident`] objects, with
//!   JSON and ASCII-timeline renderers (`padsim incident`).
//!
//! # Determinism contract
//!
//! Span ids are dense and assigned in open order; recorded spans carry
//! **simulation** time only; and [`TraceDump`] sorts spans by
//! `(start, id)`. A span trace is therefore a pure function of
//! (scenario, seed) — byte-identical across worker counts, exactly like
//! the telemetry contract.

pub mod codec;
pub mod incident;
pub mod span;

pub use codec::{
    is_span_csv_header, parse_span_line, parse_spans, render_parsed_spans, spans_to_csv,
    spans_to_jsonl, ParsedSpan, SPAN_CSV_HEADER,
};
pub use incident::{
    render_report_json, render_timeline, GroundTruth, Incident, IncidentReconstructor,
};
pub use span::{sort_spans, Span, SpanId, SpanNameId, SpanNames};

use crate::intern::valid_name;
use crate::ring::BoundedRing;
use crate::telemetry::codec::Format;
use crate::time::SimTime;

/// Open/close span bookkeeping over a bounded ring of finished spans.
///
/// Spans enter the ring when they close, evicting the oldest finished
/// span once it is full; spans still open when the trace is dumped are
/// closed at the dump time.
///
/// # Example
///
/// ```
/// use simkit::time::SimTime;
/// use simkit::trace::Tracer;
///
/// let mut tracer = Tracer::new(64);
/// let drain = tracer.intern("attack.drain");
/// let id = tracer.start(SimTime::from_secs(30), drain, None);
/// tracer.set_attr(id, "rack", 1.0);
/// tracer.end(SimTime::from_secs(330), id);
/// let dump = tracer.into_dump(SimTime::from_secs(330));
/// assert_eq!(dump.spans.len(), 1);
/// assert_eq!(dump.spans[0].attr("rack"), Some(1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tracer {
    names: SpanNames,
    finished: BoundedRing<Span>,
    next_id: u32,
    /// Spans currently open, in open order (few at any instant; linear
    /// scans are cheaper than a map).
    open: Vec<Span>,
}

impl Tracer {
    /// Creates a tracer that keeps the newest `capacity` finished spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            names: SpanNames::new(),
            finished: BoundedRing::new(capacity),
            next_id: 0,
            open: Vec::new(),
        }
    }

    /// Interns a span name (see [`SpanNames::intern`]).
    pub fn intern(&mut self, name: &str) -> SpanNameId {
        self.names.intern(name)
    }

    /// The name table.
    pub fn names(&self) -> &SpanNames {
        &self.names
    }

    /// Opens a span at `now`. Ids are assigned in open order.
    pub fn start(&mut self, now: SimTime, name: SpanNameId, parent: Option<SpanId>) -> SpanId {
        let id = SpanId::from_index(self.next_id);
        self.next_id += 1;
        self.open.push(Span {
            id,
            name,
            parent,
            start: now,
            end: now,
            attrs: Vec::new(),
        });
        id
    }

    /// Sets (or overwrites) an attribute on an open span. No-op once the
    /// span has closed.
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty or contains characters outside
    /// `[A-Za-z0-9._-]`.
    pub fn set_attr(&mut self, id: SpanId, key: &str, value: f64) {
        assert!(valid_name(key), "invalid attribute key {key:?}");
        if let Some(span) = self.open.iter_mut().find(|s| s.id == id) {
            match span.attrs.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => span.attrs.push((key.to_string(), value)),
            }
        }
    }

    /// Closes an open span at `now`, moving it to the finished ring.
    /// No-op for unknown (or already-closed) ids.
    pub fn end(&mut self, now: SimTime, id: SpanId) {
        if let Some(pos) = self.open.iter().position(|s| s.id == id) {
            let mut span = self.open.remove(pos);
            span.end = now;
            self.finished.push(span);
        }
    }

    /// Number of spans currently open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Closes every still-open span at `now` and returns the finished
    /// trace in canonical order.
    pub fn into_dump(mut self, now: SimTime) -> TraceDump {
        for mut span in std::mem::take(&mut self.open) {
            span.end = now;
            self.finished.push(span);
        }
        let dropped = self.finished.evicted();
        TraceDump::new(self.names, self.finished.into_vec(), dropped)
    }
}

/// A finished span trace: the name table plus the retained spans in
/// canonical `(start, id)` order, ready to serialize or reconstruct.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDump {
    /// The name table the spans' interned ids index into.
    pub names: SpanNames,
    /// The spans, in canonical order.
    pub spans: Vec<Span>,
    /// Spans evicted from the ring before the dump was taken.
    pub dropped: u64,
}

impl TraceDump {
    /// Builds a dump, sorting `spans` into canonical order.
    pub fn new(names: SpanNames, mut spans: Vec<Span>, dropped: u64) -> Self {
        sort_spans(&mut spans);
        TraceDump {
            names,
            spans,
            dropped,
        }
    }

    /// Serializes the trace to a JSONL string.
    pub fn to_jsonl(&self) -> String {
        spans_to_jsonl(&self.names, &self.spans)
    }

    /// Serializes the trace to a CSV string (with header).
    pub fn to_csv(&self) -> String {
        spans_to_csv(&self.names, &self.spans)
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

    #[test]
    fn tracer_links_parents_and_dumps_sorted() {
        let mut tracer = Tracer::new(16);
        let drain = tracer.intern("attack.drain");
        let spike = tracer.intern("attack.spike");
        let d = tracer.start(SimTime::from_millis(100), drain, None);
        let s = tracer.start(SimTime::from_millis(500), spike, Some(d));
        tracer.set_attr(d, "rack", 2.0);
        tracer.set_attr(d, "rack", 3.0); // overwrite, not duplicate
        tracer.end(SimTime::from_millis(500), d);
        assert_eq!(tracer.open_count(), 1);
        let dump = tracer.into_dump(SimTime::from_millis(900));
        assert_eq!(dump.spans.len(), 2);
        assert_eq!(dump.spans[0].id, d);
        assert_eq!(dump.spans[0].attrs, vec![("rack".to_string(), 3.0)]);
        assert_eq!(dump.spans[1].parent, Some(d));
        assert_eq!(
            dump.spans[1].end,
            SimTime::from_millis(900),
            "closed at dump"
        );
        assert_eq!(dump.dropped, 0);
        let _ = s;
    }

    #[test]
    fn set_attr_after_close_is_a_noop() {
        let mut tracer = Tracer::new(4);
        let n = tracer.intern("x");
        let id = tracer.start(SimTime::ZERO, n, None);
        tracer.end(SimTime::from_millis(1), id);
        tracer.set_attr(id, "late", 1.0);
        let dump = tracer.into_dump(SimTime::from_millis(1));
        assert!(dump.spans[0].attrs.is_empty());
    }

    #[test]
    fn dump_round_trips_through_codec() {
        let mut tracer = Tracer::new(4);
        let n = tracer.intern("batt.discharge");
        let id = tracer.start(SimTime::from_millis(10), n, None);
        tracer.set_attr(id, "rack", 1.0);
        tracer.end(SimTime::from_millis(20), id);
        let dump = tracer.into_dump(SimTime::from_millis(20));
        for format in [Format::Jsonl, Format::Csv] {
            let parsed = parse_spans(&dump.serialize(format), format).unwrap();
            assert_eq!(parsed.len(), 1);
            assert_eq!(parsed[0].name, "batt.discharge");
            assert_eq!(parsed[0].attr("rack"), Some(1.0));
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut tracer = Tracer::new(2);
        let n = tracer.intern("x");
        let ids: Vec<SpanId> = (0..3u64)
            .map(|i| {
                let id = tracer.start(SimTime::from_millis(i), n, None);
                tracer.end(SimTime::from_millis(i), id);
                id
            })
            .collect();
        let dump = tracer.into_dump(SimTime::from_millis(3));
        assert_eq!(dump.dropped, 1);
        assert_eq!(dump.spans.len(), 2);
        assert_eq!(dump.spans[0].id, ids[1], "oldest finished span evicted");
    }
}
