//! The traced run's span recorder: one span per call into a layer,
//! kept in memory and written once when the run ends.
//!
//! A span names the layer it timed, the span that caused it, and the
//! request it served (a tick, a session or a scenario). A layer's self
//! time is its span time minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use simkit::jsonio::write_f64;

use crate::stats::Samples;

/// Identifies a span within its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// Spans of one thread, timed against a shared epoch so recorders from
/// several threads merge onto one timeline.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose interval was measured by the caller.
    #[cfg(test)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: at(start),
            end_ns: at(end),
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attaches a count or a duration to a span (per-line work folded
    /// into its tick, say).
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id].attrs.push((key, value));
    }

    /// Appends another thread's spans; their ids shift past this
    /// recorder's.
    pub fn merge(&mut self, other: Spans) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Durations of the spans named `name`, in ns, in recording order.
    pub fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
    }

    /// Durations of the spans named `name`, in ms.
    pub fn samples_ms(&self, name: &str) -> Samples {
        self.durations_ns(name).map(|ns| ns as f64 / 1e6).collect()
    }

    /// Time each span's direct children cover.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let layer = out.entry(s.name).or_default();
            layer.count += 1;
            layer.total_ns += total;
            layer.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Share of the root spans' time that named child spans cover: how
    /// much of the traced run the layer spans account for.
    pub fn coverage(&self) -> f64 {
        let child_ns = self.child_ns();
        let mut root_ns = 0u64;
        let mut covered_ns = 0u64;
        for (s, children) in self.spans.iter().zip(child_ns) {
            if s.parent.is_none() {
                root_ns += s.end_ns - s.start_ns;
                covered_ns += children;
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            (covered_ns as f64 / root_ns as f64).min(1.0)
        }
    }

    /// Writes `<dir>/<workload>.spans.jsonl` (one span per line) and
    /// `<dir>/<workload>.layers.json` (per-layer totals plus `metrics`).
    pub fn write(
        &self,
        dir: &Path,
        workload: &str,
        metrics: &[crate::stats::Metric],
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\":{i},\"name\":\"{}\"", s.name);
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            let _ = write!(
                out,
                ",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                s.request, s.start_ns, s.end_ns
            );
            for (k, (key, value)) in s.attrs.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{key}\":");
                write_f64(&mut out, *value);
            }
            out.push_str("}}\n");
        }
        std::fs::write(dir.join(format!("{workload}.spans.jsonl")), out)?;

        let mut doc = format!("{{\"workload\":\"{workload}\",\"coverage\":");
        write_f64(&mut doc, self.coverage());
        doc.push_str(",\"layers\":[");
        for (i, (name, layer)) in self.layers().iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let _ = write!(
                doc,
                "\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                layer.count, layer.total_ns, layer.self_ns
            );
        }
        doc.push_str("\n],\"metrics\":{");
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let _ = write!(doc, "\n\"{}\":{{\"value\":", m.name);
            write_f64(&mut doc, m.value);
            let _ = write!(doc, ",\"unit\":\"{}\",\"samples\":{}}}", m.unit, m.samples);
        }
        doc.push_str("\n}}\n");
        std::fs::write(dir.join(format!("{workload}.layers.json")), doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_them() {
        let epoch = Instant::now();
        let mut spans = Spans::new(epoch);
        let t = |ms: u64| epoch + std::time::Duration::from_millis(ms);
        let root = spans.record("run", None, 0, t(0), t(100));
        let a = spans.record("layer.a", Some(root), 1, t(0), t(60));
        spans.record("layer.b", Some(a), 1, t(10), t(30));
        spans.record("layer.c", Some(root), 2, t(60), t(95));
        let layers = spans.layers();
        assert_eq!(layers["layer.a"].total_ns, 60_000_000);
        assert_eq!(layers["layer.a"].self_ns, 40_000_000);
        assert_eq!(layers["run"].self_ns, 5_000_000);
        assert!((spans.coverage() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn merged_recorders_keep_parent_links() {
        let epoch = Instant::now();
        let mut main = Spans::new(epoch);
        main.time("run", None, 0, || ());
        let mut other = Spans::new(epoch);
        let p = other.begin("scrape", None, 7);
        other.time("http.metrics", Some(p), 7, || ());
        other.end(p);
        main.merge(other);
        let layers = main.layers();
        assert_eq!(layers["scrape"].count, 1);
        assert_eq!(layers["http.metrics"].count, 1);
    }
}
