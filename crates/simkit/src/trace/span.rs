//! Span records and span-name interning.
//!
//! A [`Span`] is one sim-time interval with a causal parent link — the
//! trace analogue of the telemetry layer's point samples. Names are
//! interned through [`SpanNames`], the shared [`Interner`] behind a
//! span-typed id.

use crate::intern::{valid_name, Interner};
use crate::time::SimTime;

/// Identifies one span within a trace.
///
/// Ids are dense and assigned in span-open order, so sorting by
/// `(start, id)` is a total, deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(index: u32) -> SpanId {
        SpanId(index)
    }
}

/// Identifies one interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanNameId(u16);

impl SpanNameId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns span names to dense [`SpanNameId`]s.
///
/// Names are restricted to `[A-Za-z0-9._-]` (like metric names), so the
/// wire formats never need escaping.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanNames {
    names: Interner,
}

impl SpanNames {
    /// Creates an empty name table.
    pub fn new() -> Self {
        SpanNames::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, contains characters outside
    /// `[A-Za-z0-9._-]`, or the table is full (`u16::MAX` names).
    pub fn intern(&mut self, name: &str) -> SpanNameId {
        assert!(valid_name(name), "invalid span name {name:?}");
        SpanNameId(self.names.intern(name))
    }

    /// The name behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was minted by a different table.
    pub fn name(&self, id: SpanNameId) -> &str {
        self.names.name(id.0)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned names, in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.names()
    }
}

/// One finished span: a named sim-time interval with a causal parent
/// link and key/value attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id (dense, in open order).
    pub id: SpanId,
    /// Interned name (resolve via [`SpanNames::name`]).
    pub name: SpanNameId,
    /// The span that causally produced this one, if any.
    pub parent: Option<SpanId>,
    /// When the span opened.
    pub start: SimTime,
    /// When the span closed (dump time for spans still open at the end
    /// of a run).
    pub end: SimTime,
    /// Key/value attributes, in insertion order. Keys share the span
    /// name charset (`[A-Za-z0-9._-]`).
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    /// Looks up one attribute by key.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Sorts spans into canonical trace order: `(start, id)`.
///
/// Ids are assigned in open order, so this order is total and identical
/// for any run of the same scenario — the span half of the byte-identical
/// determinism contract.
pub fn sort_spans(spans: &mut [Span]) {
    spans.sort_by_key(|s| (s.start, s.id));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_and_resolves() {
        let mut names = SpanNames::new();
        let a = names.intern("attack.drain");
        let b = names.intern("batt.discharge");
        assert_eq!(names.intern("attack.drain"), a);
        assert_ne!(a, b);
        assert_eq!(names.name(a), "attack.drain");
        assert_eq!(names.len(), 2);
        assert_eq!(
            names.names().collect::<Vec<_>>(),
            vec!["attack.drain", "batt.discharge"]
        );
    }

    #[test]
    #[should_panic(expected = "invalid span name")]
    fn bad_name_rejected() {
        SpanNames::new().intern("has space");
    }

    #[test]
    fn sort_is_by_start_then_id() {
        let mk = |id: u32, start: u64| Span {
            id: SpanId(id),
            name: SpanNameId(0),
            parent: None,
            start: SimTime::from_millis(start),
            end: SimTime::from_millis(start),
            attrs: Vec::new(),
        };
        let mut spans = vec![mk(2, 100), mk(0, 100), mk(1, 50)];
        sort_spans(&mut spans);
        let order: Vec<u32> = spans.iter().map(|s| s.id.0).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }
}
