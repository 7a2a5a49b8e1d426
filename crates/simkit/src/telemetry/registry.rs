//! Metric interning and aggregate instruments.
//!
//! A [`MetricRegistry`] maps stable metric *names* to small integer
//! [`MetricId`]s once, up front, so the hot simulation loop never hashes
//! or compares strings — emitting a sample is an array index. The
//! registry also owns the *aggregate* face of each metric (a counter
//! total, the last gauge value, a fixed-bucket histogram plus running
//! [`OnlineStats`]), which survives even when no per-tick trace is being
//! recorded.
//!
//! The registry is deliberately lock-free in the cheap sense: it is a
//! plain `&mut` structure. Parallel sweeps give each worker its own
//! registry and [`merge`](MetricRegistry::merge) them afterwards — the
//! same pattern the sweep runner uses for results — instead of sharing
//! one registry behind a mutex in the hot loop.

use crate::intern::{valid_name, Interner};
use crate::jsonio::{write_f64, Json, ObjFields};
use crate::stats::{Histogram, OnlineStats};

/// Interned handle for one registered metric.
///
/// Ids are dense indices handed out in registration order, so iterating
/// metrics by id is deterministic and cheap. A registry holds at most
/// 65 536 metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId(u16);

impl MetricId {
    /// The dense index of this metric within its registry.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What kind of instrument a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// Last-value instrument (per-tick series are gauges).
    Gauge,
    /// Fixed-bucket distribution of observations.
    Histogram,
}

impl MetricKind {
    /// Short tag used in rendered output.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Aggregate state of one metric.
#[derive(Debug, Clone, PartialEq)]
struct Instrument {
    kind: MetricKind,
    counter: u64,
    gauge: f64,
    histogram: Option<Histogram>,
    stats: OnlineStats,
}

impl Instrument {
    fn new(kind: MetricKind, histogram: Option<Histogram>) -> Self {
        Instrument {
            kind,
            counter: 0,
            gauge: 0.0,
            histogram,
            stats: OnlineStats::new(),
        }
    }
}

/// Interning metric registry with aggregate instruments.
///
/// Metric names follow the workspace convention
/// `<scope>.<quantity>[_<unit>]` (e.g. `rack-03.draw_w`,
/// `cluster.breaker_trips`); only `[A-Za-z0-9._-]` are allowed so names
/// embed cleanly in JSONL/CSV without escaping.
///
/// # Example
///
/// ```
/// use simkit::telemetry::{MetricKind, MetricRegistry};
///
/// let mut reg = MetricRegistry::new();
/// let trips = reg.register_counter("cluster.breaker_trips");
/// let soc = reg.register_gauge("rack-00.soc");
/// reg.inc(trips, 1);
/// reg.set_gauge(soc, 0.85);
/// assert_eq!(reg.counter(trips), 1);
/// assert_eq!(reg.gauge(soc), 0.85);
/// assert_eq!(reg.kind(soc), MetricKind::Gauge);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricRegistry {
    names: Interner,
    instruments: Vec<Instrument>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    fn register(&mut self, name: &str, kind: MetricKind, histogram: Option<Histogram>) -> MetricId {
        assert!(
            valid_name(name),
            "metric name {name:?} must be non-empty [A-Za-z0-9._-]"
        );
        if let Some(id) = self.id(name) {
            assert_eq!(
                self.instruments[id.index()].kind,
                kind,
                "metric {name:?} re-registered with a different kind"
            );
            return id;
        }
        let id = MetricId(self.names.intern(name));
        self.instruments.push(Instrument::new(kind, histogram));
        id
    }

    /// Registers (or looks up) a counter.
    ///
    /// # Panics
    ///
    /// Panics if the name is invalid or already registered with a
    /// different kind.
    pub fn register_counter(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Counter, None)
    }

    /// Registers (or looks up) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if the name is invalid or already registered with a
    /// different kind.
    pub fn register_gauge(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Gauge, None)
    }

    /// Registers (or looks up) a fixed-bucket histogram over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the name is invalid, already registered with a different
    /// kind, `lo >= hi`, or `buckets == 0`.
    pub fn register_histogram(&mut self, name: &str, lo: f64, hi: f64, buckets: usize) -> MetricId {
        self.register(
            name,
            MetricKind::Histogram,
            Some(Histogram::new(lo, hi, buckets)),
        )
    }

    /// Looks up a metric by name.
    pub fn id(&self, name: &str) -> Option<MetricId> {
        self.names.get(name).map(MetricId)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of a metric.
    pub fn name(&self, id: MetricId) -> &str {
        self.names.name(id.0)
    }

    /// All metric names, in id (registration) order.
    pub fn names(&self) -> impl ExactSizeIterator<Item = &str> {
        self.names.names()
    }

    /// All ids, in registration order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = MetricId> {
        (0..self.names.len() as u16).map(MetricId)
    }

    /// The kind of a metric.
    pub fn kind(&self, id: MetricId) -> MetricKind {
        self.instruments[id.index()].kind
    }

    /// Adds `n` to a counter.
    pub fn inc(&mut self, id: MetricId, n: u64) {
        let inst = &mut self.instruments[id.index()];
        debug_assert_eq!(inst.kind, MetricKind::Counter);
        inst.counter += n;
    }

    /// Sets a gauge's current value (also feeds its running statistics).
    pub fn set_gauge(&mut self, id: MetricId, value: f64) {
        let inst = &mut self.instruments[id.index()];
        debug_assert_eq!(inst.kind, MetricKind::Gauge);
        inst.gauge = value;
        inst.stats.push(value);
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: MetricId, value: f64) {
        let inst = &mut self.instruments[id.index()];
        debug_assert_eq!(inst.kind, MetricKind::Histogram);
        if let Some(h) = &mut inst.histogram {
            h.push(value);
        }
        inst.stats.push(value);
    }

    /// A counter's total.
    pub fn counter(&self, id: MetricId) -> u64 {
        self.instruments[id.index()].counter
    }

    /// A gauge's last value.
    pub fn gauge(&self, id: MetricId) -> f64 {
        self.instruments[id.index()].gauge
    }

    /// A histogram metric's buckets, if `id` is a histogram.
    pub fn histogram(&self, id: MetricId) -> Option<&Histogram> {
        self.instruments[id.index()].histogram.as_ref()
    }

    /// Running statistics of every observation/set on this metric.
    pub fn stats(&self, id: MetricId) -> &OnlineStats {
        &self.instruments[id.index()].stats
    }

    /// Renders this registry alone as Prometheus text exposition — see
    /// [`render_prometheus_families`] for the multi-instance form and
    /// the exposition rules.
    pub fn render_prometheus(&self, prefix: &str, label: &str) -> String {
        render_prometheus_families(prefix, &[(label, self)])
    }

    /// Merges another registry's aggregates into this one (parallel
    /// sweep reduction): counters add, gauges take `other`'s last value,
    /// histogram buckets add, statistics merge.
    ///
    /// # Panics
    ///
    /// Panics if the registries were not built from the same metric set
    /// (names, order and kinds must match).
    pub fn merge(&mut self, other: &MetricRegistry) {
        assert_eq!(
            self.names, other.names,
            "registries have different metric sets"
        );
        for (mine, theirs) in self.instruments.iter_mut().zip(&other.instruments) {
            assert_eq!(mine.kind, theirs.kind, "metric kind mismatch in merge");
            mine.counter += theirs.counter;
            if theirs.stats.count() > 0 {
                mine.gauge = theirs.gauge;
            }
            if let (Some(h), Some(o)) = (&mut mine.histogram, &theirs.histogram) {
                h.merge(o);
            }
            mine.stats.merge(&theirs.stats);
        }
    }

    /// Serializes every instrument's *value* state (counter totals,
    /// gauge last-values, histogram buckets, running statistics) as one
    /// JSON object, in registration order. The metric *set* itself is
    /// structural — rebuilt by re-running the same registration code —
    /// so the snapshot restates names and kinds only to validate that
    /// structure on restore.
    pub fn snapshot_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"metrics\":[");
        for (i, id) in self.ids().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let inst = &self.instruments[id.index()];
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\"",
                self.name(id),
                inst.kind.as_str()
            );
            match inst.kind {
                MetricKind::Counter => {
                    let _ = write!(out, ",\"counter\":{}", inst.counter);
                }
                MetricKind::Gauge => {
                    out.push_str(",\"gauge\":");
                    write_f64(&mut out, inst.gauge);
                    out.push_str(",\"stats\":");
                    out.push_str(&inst.stats.snapshot_json());
                }
                MetricKind::Histogram => {
                    out.push_str(",\"hist\":");
                    out.push_str(&inst.histogram.as_ref().expect("histogram").snapshot_json());
                    out.push_str(",\"stats\":");
                    out.push_str(&inst.stats.snapshot_json());
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Overwrites every instrument's value state from a parsed
    /// [`snapshot_json`](Self::snapshot_json) document. The snapshot
    /// must cover exactly this registry's metric set, in registration
    /// order, with matching kinds (and histogram shapes) — any drift is
    /// an error and the registry is left partially restored only on the
    /// already-validated prefix.
    pub fn restore_snapshot(&mut self, value: &Json) -> Result<(), String> {
        let obj = value.as_object("registry snapshot")?;
        let metrics = obj.arr_field("metrics")?;
        if metrics.len() != self.names.len() {
            return Err(format!(
                "registry snapshot has {} metrics, registry has {}",
                metrics.len(),
                self.names.len()
            ));
        }
        for (id, item) in self.ids().zip(metrics) {
            let entry = item.as_object("metric entry")?;
            let name = entry.str_field("name")?;
            if name != self.name(id) {
                return Err(format!(
                    "metric {} is {:?} in the snapshot but {:?} in the registry",
                    id.index(),
                    name,
                    self.name(id)
                ));
            }
            let inst = &mut self.instruments[id.index()];
            if entry.str_field("kind")? != inst.kind.as_str() {
                return Err(format!("metric {name:?} kind mismatch"));
            }
            match inst.kind {
                MetricKind::Counter => {
                    inst.counter = entry.u64_field("counter")?;
                }
                MetricKind::Gauge => {
                    inst.gauge = entry.f64_field_lossy("gauge")?;
                    inst.stats = OnlineStats::from_snapshot(entry.field("stats")?)?;
                }
                MetricKind::Histogram => {
                    inst.histogram
                        .as_mut()
                        .expect("histogram")
                        .restore_snapshot(entry.field("hist")?)
                        .map_err(|e| format!("metric {name:?}: {e}"))?;
                    inst.stats = OnlineStats::from_snapshot(entry.field("stats")?)?;
                }
            }
        }
        Ok(())
    }
}

/// Registry metric names use the workspace `<scope>.<quantity>` dotted
/// convention; Prometheus names only allow `[a-zA-Z0-9_:]`, so dots and
/// dashes map to underscores.
fn prometheus_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len());
    out.push_str(prefix);
    for c in name.chars() {
        out.push(if matches!(c, '.' | '-') { '_' } else { c });
    }
    out
}

/// Renders identically-shaped registries as one merged Prometheus text
/// exposition: every family gets a single `# HELP`/`# TYPE` block (the
/// original dotted name doubles as the help string) followed by one
/// series per instance, tagged with that instance's label block (e.g.
/// `tenant="acme"`; empty for an unlabeled singleton). Histogram
/// instruments render the full spec-conformant cumulative
/// `_bucket{le="..."}` series — including the `+Inf` bucket — plus
/// `_sum` and `_count`. Counters and gauges render their value
/// directly. `prefix` is prepended to every sanitized family name
/// (e.g. `padsimd_`).
///
/// # Panics
///
/// Panics if the registries do not share the same metric set (names,
/// order, and kinds).
pub fn render_prometheus_families(prefix: &str, instances: &[(&str, &MetricRegistry)]) -> String {
    use std::fmt::Write as _;
    let Some((_, first)) = instances.first() else {
        return String::new();
    };
    for (_, reg) in instances {
        assert_eq!(
            first.names, reg.names,
            "instances have different metric sets"
        );
    }
    let mut out = String::new();
    for id in first.ids() {
        let name = first.name(id);
        let fam = prometheus_name(prefix, name);
        let kind = first.kind(id);
        let _ = writeln!(out, "# HELP {fam} {name}");
        let _ = writeln!(out, "# TYPE {fam} {}", kind.as_str());
        for (label, reg) in instances {
            assert_eq!(reg.kind(id), kind, "metric kind mismatch across instances");
            // `{fam}{...}` with an empty label block must render as a
            // bare series name, so the braces are conditional.
            let solo = |extra: &str| -> String {
                match (label.is_empty(), extra.is_empty()) {
                    (true, true) => String::new(),
                    (true, false) => format!("{{{extra}}}"),
                    (false, true) => format!("{{{label}}}"),
                    (false, false) => format!("{{{label},{extra}}}"),
                }
            };
            match kind {
                MetricKind::Counter => {
                    let _ = writeln!(out, "{fam}{} {}", solo(""), reg.counter(id));
                }
                MetricKind::Gauge => {
                    let _ = writeln!(out, "{fam}{} {}", solo(""), reg.gauge(id));
                }
                MetricKind::Histogram => {
                    let hist = reg.histogram(id).expect("histogram instrument");
                    for (le, cum) in hist.cumulative() {
                        let _ =
                            writeln!(out, "{fam}_bucket{} {cum}", solo(&format!("le=\"{le}\"")));
                    }
                    let _ = writeln!(out, "{fam}_bucket{} {}", solo("le=\"+Inf\""), hist.count());
                    let _ = writeln!(out, "{fam}_sum{} {}", solo(""), hist.sum());
                    let _ = writeln!(out, "{fam}_count{} {}", solo(""), hist.count());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_dense() {
        let mut reg = MetricRegistry::new();
        let a = reg.register_gauge("a.x");
        let b = reg.register_counter("b.y");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(
            reg.register_gauge("a.x"),
            a,
            "re-registering returns the same id"
        );
        assert_eq!(reg.id("b.y"), Some(b));
        assert_eq!(reg.id("missing"), None);
        assert_eq!(reg.names().collect::<Vec<_>>(), ["a.x", "b.y"]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_rejected() {
        let mut reg = MetricRegistry::new();
        reg.register_gauge("a.x");
        reg.register_counter("a.x");
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn bad_name_rejected() {
        MetricRegistry::new().register_gauge("has space");
    }

    #[test]
    fn instruments_accumulate() {
        let mut reg = MetricRegistry::new();
        let c = reg.register_counter("c");
        let g = reg.register_gauge("g");
        let h = reg.register_histogram("h", 0.0, 10.0, 5);
        reg.inc(c, 2);
        reg.inc(c, 3);
        reg.set_gauge(g, 1.0);
        reg.set_gauge(g, 2.0);
        reg.observe(h, 3.0);
        reg.observe(h, 9.0);
        assert_eq!(reg.counter(c), 5);
        assert_eq!(reg.gauge(g), 2.0);
        assert_eq!(reg.histogram(h).unwrap().counts().iter().sum::<u64>(), 2);
        assert_eq!(reg.stats(g).count(), 2);
        assert_eq!(reg.stats(g).mean(), 1.5);
    }

    #[test]
    fn prometheus_exposition_renders_histogram_buckets() {
        let mut reg = MetricRegistry::new();
        let c = reg.register_counter("ingest.records_total");
        let g = reg.register_gauge("policy.level");
        let h = reg.register_histogram("ingest.tick_gap_ms", 0.0, 10.0, 2);
        reg.inc(c, 3);
        reg.set_gauge(g, 2.0);
        reg.observe(h, 1.0);
        reg.observe(h, 7.0);
        reg.observe(h, 99.0); // clamps into the last bucket
        let text = reg.render_prometheus("padsimd_", "tenant=\"acme\"");
        assert!(text.contains("# HELP padsimd_ingest_records_total ingest.records_total\n"));
        assert!(text.contains("# TYPE padsimd_ingest_records_total counter\n"));
        assert!(text.contains("padsimd_ingest_records_total{tenant=\"acme\"} 3\n"));
        assert!(text.contains("padsimd_policy_level{tenant=\"acme\"} 2\n"));
        assert!(text.contains("# TYPE padsimd_ingest_tick_gap_ms histogram\n"));
        assert!(text.contains("padsimd_ingest_tick_gap_ms_bucket{tenant=\"acme\",le=\"5\"} 1\n"));
        assert!(text.contains("padsimd_ingest_tick_gap_ms_bucket{tenant=\"acme\",le=\"10\"} 3\n"));
        assert!(text.contains("padsimd_ingest_tick_gap_ms_bucket{tenant=\"acme\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("padsimd_ingest_tick_gap_ms_sum{tenant=\"acme\"} 107\n"));
        assert!(text.contains("padsimd_ingest_tick_gap_ms_count{tenant=\"acme\"} 3\n"));
    }

    #[test]
    fn prometheus_exposition_merges_instances_under_one_family_block() {
        let build = |v: u64| {
            let mut reg = MetricRegistry::new();
            let c = reg.register_counter("ingest.records_total");
            reg.inc(c, v);
            reg
        };
        let (a, b) = (build(1), build(2));
        let text =
            render_prometheus_families("padsimd_", &[("tenant=\"a\"", &a), ("tenant=\"b\"", &b)]);
        assert_eq!(
            text.matches("# TYPE padsimd_ingest_records_total counter")
                .count(),
            1,
            "one TYPE block per family:\n{text}"
        );
        assert!(text.contains("padsimd_ingest_records_total{tenant=\"a\"} 1\n"));
        assert!(text.contains("padsimd_ingest_records_total{tenant=\"b\"} 2\n"));
    }

    #[test]
    fn prometheus_exposition_unlabeled_series_have_no_braces() {
        let mut reg = MetricRegistry::new();
        let c = reg.register_counter("a.b");
        reg.inc(c, 7);
        let h = reg.register_histogram("lat-ms", 0.0, 1.0, 1);
        reg.observe(h, 0.5);
        let text = reg.render_prometheus("", "");
        assert!(text.contains("a_b 7\n"));
        assert!(text.contains("lat_ms_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_ms_sum 0.5\n"));
    }

    #[test]
    #[should_panic(expected = "different metric sets")]
    fn prometheus_exposition_rejects_mismatched_instances() {
        let mut a = MetricRegistry::new();
        a.register_counter("x");
        let mut b = MetricRegistry::new();
        b.register_counter("y");
        render_prometheus_families("", &[("", &a), ("", &b)]);
    }

    #[test]
    fn snapshot_restores_values_into_structurally_rebuilt_registry() {
        let build = || {
            let mut reg = MetricRegistry::new();
            let c = reg.register_counter("ingest.records_total");
            let g = reg.register_gauge("policy.level");
            let h = reg.register_histogram("ingest.tick_gap_ms", 0.0, 100.0, 4);
            (reg, c, g, h)
        };
        let (mut live, c, g, h) = build();
        live.inc(c, 42);
        live.set_gauge(g, 2.0);
        live.set_gauge(g, 3.0);
        live.observe(h, 7.5);
        live.observe(h, 250.0);
        let doc = crate::jsonio::JsonParser::parse_document(&live.snapshot_json()).unwrap();
        let (mut fresh, ..) = build();
        fresh.restore_snapshot(&doc).unwrap();
        assert_eq!(fresh, live);
        assert_eq!(fresh.snapshot_json(), live.snapshot_json());
    }

    #[test]
    fn snapshot_restore_rejects_structural_drift() {
        let mut a = MetricRegistry::new();
        a.register_counter("x");
        let doc = crate::jsonio::JsonParser::parse_document(&a.snapshot_json()).unwrap();
        let mut renamed = MetricRegistry::new();
        renamed.register_counter("y");
        assert!(renamed.restore_snapshot(&doc).is_err());
        let mut rekinded = MetricRegistry::new();
        rekinded.register_gauge("x");
        assert!(rekinded
            .restore_snapshot(&doc)
            .unwrap_err()
            .contains("kind"));
        let mut bigger = MetricRegistry::new();
        bigger.register_counter("x");
        bigger.register_counter("z");
        assert!(bigger.restore_snapshot(&doc).unwrap_err().contains("has"));
    }

    #[test]
    fn merge_reduces_worker_registries() {
        let build = || {
            let mut reg = MetricRegistry::new();
            let c = reg.register_counter("c");
            let h = reg.register_histogram("h", 0.0, 10.0, 2);
            (reg, c, h)
        };
        let (mut a, c, h) = build();
        let (mut b, _, _) = build();
        a.inc(c, 1);
        a.observe(h, 1.0);
        b.inc(c, 4);
        b.observe(h, 9.0);
        a.merge(&b);
        assert_eq!(a.counter(c), 5);
        assert_eq!(a.histogram(h).unwrap().counts(), &[1, 1]);
        assert_eq!(a.stats(h).count(), 2);
    }
}
