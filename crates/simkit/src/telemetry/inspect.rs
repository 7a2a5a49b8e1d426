//! Offline analysis of a recorded telemetry trace.
//!
//! [`TelemetryReport`] digests a parsed trace (see
//! [`parse`](crate::telemetry::parse)) into per-metric statistics and
//! per-event tallies, and renders them as text tables — the engine
//! behind `padsim inspect`. Digest order is deterministic: metrics and
//! events are keyed through a `BTreeMap`, so two inspections of the same
//! trace render identically.

use std::collections::BTreeMap;

use crate::stats::{OnlineStats, Summary};
use crate::table::{fmt_f64, Table};
use crate::telemetry::codec::ParsedRecord;

/// Per-metric digest of a recorded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDigest {
    /// The metric's name.
    pub name: String,
    /// One-pass statistics over every recorded value.
    pub stats: OnlineStats,
    /// Retained sample, for percentiles.
    pub summary: Summary,
}

/// Per-event-kind digest of a recorded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDigest {
    /// The event kind's wire name.
    pub kind: String,
    /// How many events of this kind were recorded.
    pub count: u64,
    /// Distinct sources that emitted it, in sorted order.
    pub sources: Vec<String>,
    /// Simulation time of the first occurrence, in milliseconds.
    pub first_ms: u64,
    /// Simulation time of the last occurrence, in milliseconds.
    pub last_ms: u64,
}

/// Summary view over a recorded telemetry trace.
///
/// A report grows: [`extend`](Self::extend) digests records on top of
/// what it already holds, and digesting records in any chunking builds
/// the report [`from_records`](Self::from_records) builds over all of
/// them, bit for bit.
///
/// # Example
///
/// ```
/// use simkit::telemetry::{parse, Format, TelemetryReport};
///
/// let trace = "{\"t\":0,\"m\":\"g\",\"v\":1}\n{\"t\":100,\"m\":\"g\",\"v\":3}\n";
/// let records = parse(trace, Format::Jsonl).unwrap();
/// let report = TelemetryReport::from_records(&records);
/// assert_eq!(report.metric_names(), vec!["g"]);
/// assert_eq!(report.metric("g").unwrap().stats.mean(), 2.0);
///
/// let mut grown = TelemetryReport::from_records(&records[..1]);
/// grown.extend(&records[1..]);
/// assert_eq!(grown, report);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    metrics: BTreeMap<String, MetricDigest>,
    events: BTreeMap<String, EventDigest>,
    samples: u64,
    span_ms: u64,
    /// Metric names in first-seen order: where [`extend`](Self::extend)
    /// gathers each metric's new samples, and the order it tries them
    /// in.
    slots: Vec<String>,
    /// Each metric's place in `slots`.
    slot_of: BTreeMap<String, usize>,
}

/// Two reports are equal when they digest the same telemetry. The order
/// metrics were first seen in only steers [`TelemetryReport::extend`],
/// so it is not compared.
impl PartialEq for TelemetryReport {
    fn eq(&self, other: &Self) -> bool {
        self.metrics == other.metrics
            && self.events == other.events
            && self.samples == other.samples
            && self.span_ms == other.span_ms
    }
}

impl TelemetryReport {
    /// Digests parsed records into a report: [`extend`](Self::extend)
    /// of an empty one.
    pub fn from_records(records: &[ParsedRecord]) -> Self {
        let mut report = TelemetryReport::default();
        report.extend(records);
        report
    }

    /// Digests `records` on top of what the report holds, in time linear
    /// in the record count: each metric's new samples are gathered in
    /// arrival order, then sorted once and merged into its summary (see
    /// [`Summary`]). The report is the one that pushing each sample in
    /// turn would build, bit for bit.
    pub fn extend(&mut self, records: &[ParsedRecord]) {
        // Each metric's new samples in arrival order, by slot.
        let mut batches: Vec<Vec<f64>> = vec![Vec::new(); self.slots.len()];
        // The recorder writes its metrics in the same order every tick,
        // so a sample's slot is usually the one after the previous
        // sample's.
        let mut next = 0;
        for r in records {
            self.span_ms = self.span_ms.max(r.time_ms);
            if r.is_event {
                let digest = self
                    .events
                    .entry(r.name.to_string())
                    .or_insert_with(|| EventDigest {
                        kind: r.name.to_string(),
                        count: 0,
                        sources: Vec::new(),
                        first_ms: r.time_ms,
                        last_ms: r.time_ms,
                    });
                digest.count += 1;
                digest.first_ms = digest.first_ms.min(r.time_ms);
                digest.last_ms = digest.last_ms.max(r.time_ms);
                if let Err(idx) = digest
                    .sources
                    .binary_search_by(|s| s.as_str().cmp(&r.source))
                {
                    digest.sources.insert(idx, r.source.to_string());
                }
                continue;
            }
            let slot = if self.slots.get(next).is_some_and(|name| *name == r.name) {
                next
            } else if let Some(&slot) = self.slot_of.get(&*r.name) {
                slot
            } else {
                let digest = MetricDigest {
                    name: r.name.to_string(),
                    stats: OnlineStats::new(),
                    summary: Summary::new(),
                };
                self.metrics.insert(r.name.to_string(), digest);
                self.slot_of.insert(r.name.to_string(), self.slots.len());
                self.slots.push(r.name.to_string());
                batches.push(Vec::new());
                self.slots.len() - 1
            };
            batches[slot].push(r.value);
            next = slot + 1;
            self.samples += 1;
        }
        for (name, batch) in self.slots.iter().zip(batches) {
            if batch.is_empty() {
                continue;
            }
            let digest = self.metrics.get_mut(name).expect("every slot has a digest");
            digest.stats.extend(batch.iter().copied());
            digest.summary.extend(batch);
        }
    }

    /// Metric names present in the trace, sorted.
    pub fn metric_names(&self) -> Vec<&str> {
        self.metrics.keys().map(String::as_str).collect()
    }

    /// The digest for one metric, if it appears in the trace.
    pub fn metric(&self, name: &str) -> Option<&MetricDigest> {
        self.metrics.get(name)
    }

    /// Event digests, sorted by kind name.
    pub fn events(&self) -> impl Iterator<Item = &EventDigest> {
        self.events.values()
    }

    /// Total number of samples in the trace.
    pub fn sample_count(&self) -> u64 {
        self.samples
    }

    /// Latest simulation time in the trace, in milliseconds.
    pub fn span_ms(&self) -> u64 {
        self.span_ms
    }

    /// Renders the full report: a metric table, then an event table when
    /// events are present.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut metrics = Table::new(vec![
            "metric", "n", "mean", "std", "min", "p50", "p95", "max",
        ]);
        metrics.title(format!(
            "{} samples over {} ms across {} metrics",
            self.samples,
            self.span_ms,
            self.metrics.len()
        ));
        for digest in self.metrics.values() {
            metrics.row(vec![
                digest.name.clone(),
                digest.stats.count().to_string(),
                fmt_f64(digest.stats.mean(), 3),
                fmt_f64(digest.stats.population_std_dev(), 3),
                fmt_f64(digest.stats.min(), 3),
                fmt_f64(digest.summary.median(), 3),
                fmt_f64(digest.summary.percentile(95.0), 3),
                fmt_f64(digest.stats.max(), 3),
            ]);
        }
        out.push_str(&metrics.render());
        if !self.events.is_empty() {
            let mut events = Table::new(vec!["event", "count", "sources", "first", "last"]);
            events.title("events");
            for digest in self.events.values() {
                events.row(vec![
                    digest.kind.clone(),
                    digest.count.to_string(),
                    digest.sources.join(" "),
                    format!("{}ms", digest.first_ms),
                    format!("{}ms", digest.last_ms),
                ]);
            }
            out.push('\n');
            out.push_str(&events.render());
        }
        out
    }

    /// Renders the report in Prometheus text exposition format
    /// (`padsim inspect --prom`), so a recorded trace can be pushed
    /// into any Prometheus-compatible toolchain — the unlabeled form of
    /// [`render_prometheus_reports`].
    ///
    /// Each metric's aggregates become gauges labelled by metric name
    /// (`pad_metric_mean{metric="rack-00.draw_w"} 123.45`), each event
    /// kind a `pad_events_total{kind="..."}` counter. Output order is
    /// deterministic (BTreeMap iteration), and values use Rust's `f64`
    /// `Display`, matching the trace codec's determinism contract.
    pub fn render_prometheus(&self) -> String {
        render_prometheus_reports(&[("", self)])
    }
}

/// Renders several reports as one Prometheus text exposition: every
/// family gets a single `# HELP`/`# TYPE` block followed by each
/// report's series in turn, tagged with that report's label pair (e.g.
/// `tenant="acme"`) so reports never collide — the shape a multi-tenant
/// daemon serves from `/metrics`. An empty label renders the unlabeled
/// exposition of [`TelemetryReport::render_prometheus`] byte for byte.
/// The event family appears when any report recorded an event.
pub fn render_prometheus_reports(reports: &[(&str, &TelemetryReport)]) -> String {
    use std::fmt::Write as _;
    type Aggregate = (&'static str, &'static str, fn(&MetricDigest) -> f64);
    // Per report: a prefix for lines that already carry a label, and a
    // label block for lines that otherwise carry none.
    let labeled: Vec<(String, String, &TelemetryReport)> = reports
        .iter()
        .map(|&(label, report)| {
            if label.is_empty() {
                (String::new(), String::new(), report)
            } else {
                (format!("{label},"), format!("{{{label}}}"), report)
            }
        })
        .collect();
    let mut out = String::new();
    let aggregates: [Aggregate; 6] = [
        ("pad_metric_count", "samples recorded", |d| {
            d.stats.count() as f64
        }),
        ("pad_metric_mean", "mean of samples", |d| d.stats.mean()),
        ("pad_metric_min", "minimum sample", |d| d.stats.min()),
        ("pad_metric_max", "maximum sample", |d| d.stats.max()),
        ("pad_metric_p50", "median sample", |d| d.summary.median()),
        ("pad_metric_p95", "95th percentile sample", |d| {
            d.summary.percentile(95.0)
        }),
    ];
    for (name, help, f) in aggregates {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (pre, _, report) in &labeled {
            for digest in report.metrics.values() {
                let _ = writeln!(
                    out,
                    "{name}{{{pre}metric=\"{}\"}} {}",
                    digest.name,
                    f(digest)
                );
            }
        }
    }
    if labeled.iter().any(|(_, _, r)| !r.events.is_empty()) {
        let _ = writeln!(out, "# HELP pad_events_total events recorded, by kind");
        let _ = writeln!(out, "# TYPE pad_events_total counter");
        for (pre, _, report) in &labeled {
            for digest in report.events.values() {
                let _ = writeln!(
                    out,
                    "pad_events_total{{{pre}kind=\"{}\"}} {}",
                    digest.kind, digest.count
                );
            }
        }
    }
    let _ = writeln!(out, "# HELP pad_trace_samples_total samples in the trace");
    let _ = writeln!(out, "# TYPE pad_trace_samples_total counter");
    for (_, solo, report) in &labeled {
        let _ = writeln!(out, "pad_trace_samples_total{solo} {}", report.samples);
    }
    let _ = writeln!(out, "# HELP pad_trace_span_ms latest sim-time in the trace");
    let _ = writeln!(out, "# TYPE pad_trace_span_ms gauge");
    for (_, solo, report) in &labeled {
        let _ = writeln!(out, "pad_trace_span_ms{solo} {}", report.span_ms);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStream;
    use crate::telemetry::codec::{parse, Format};

    /// The report that pushing each sample in turn builds: the
    /// reference the sort-once digest must match bit for bit.
    fn pushed_report(records: &[ParsedRecord]) -> TelemetryReport {
        let mut report = TelemetryReport::from_records(records);
        report.metrics.clear();
        for r in records.iter().filter(|r| !r.is_event) {
            let digest = report
                .metrics
                .entry(r.name.to_string())
                .or_insert_with(|| MetricDigest {
                    name: r.name.to_string(),
                    stats: OnlineStats::new(),
                    summary: Summary::new(),
                });
            digest.stats.push(r.value);
            digest.summary.push(r.value);
        }
        report
    }

    /// Every metric's state as written bits: `PartialEq` on `f64` takes
    /// `-0.0` for `0.0` and NaN for unequal to itself.
    fn digest_bits(report: &TelemetryReport) -> Vec<String> {
        report
            .metrics
            .values()
            .map(|d| {
                let (stats, summary) = (d.stats.snapshot_json(), d.summary.snapshot_json());
                format!("{} {stats} {summary}", d.name)
            })
            .collect()
    }

    /// A recording-shaped JSONL trace: every tick samples each of five
    /// metrics once, in the order `order` gives for that tick, from a
    /// value pool with repeats and signed zeros. Every 50th tick also
    /// carries an event.
    fn tick_trace(mut order: impl FnMut(u64) -> Vec<usize>) -> String {
        let metrics = ["rack-00.draw_w", "rack-00.soc", "a.x", "z.y", "b.q"];
        let pool = ["0", "-0", "1.5", "-2", "1.5", "9.5", "0", "7.25"];
        let mut text = String::new();
        for tick in 0..200u64 {
            let t = tick * 100;
            for m in order(tick) {
                let v = pool[(tick as usize * 7 + m * 3) % pool.len()];
                text.push_str(&format!(
                    "{{\"t\":{t},\"m\":\"{}\",\"v\":{v}}}\n",
                    metrics[m]
                ));
            }
            if tick % 50 == 7 {
                text.push_str(&format!(
                    "{{\"t\":{t},\"e\":\"shed\",\"s\":\"rack-0{}\",\"v\":1}}\n",
                    tick % 3
                ));
            }
        }
        text
    }

    #[test]
    fn permuted_metric_order_digests_the_same() {
        let text = tick_trace(|_| (0..5).collect());
        let in_order = parse(&text, Format::Jsonl).unwrap();
        let mut rng = RngStream::new(15);
        let shuffled = tick_trace(|_| {
            let mut order: Vec<usize> = (0..5).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            order
        });
        let permuted = parse(&shuffled, Format::Jsonl).unwrap();
        assert_ne!(in_order, permuted, "the shuffle moved some metric");

        let expected = TelemetryReport::from_records(&in_order);
        let report = TelemetryReport::from_records(&permuted);
        assert_eq!(report, expected);
        assert_eq!(digest_bits(&report), digest_bits(&pushed_report(&permuted)));
        assert_eq!(report.render(), expected.render());
        assert_eq!(report.render_prometheus(), expected.render_prometheus());
        assert_eq!(report.sample_count(), 1000);
        assert_eq!(report.events().map(|e| e.count).sum::<u64>(), 4);
    }

    #[test]
    fn nan_sample_digests_as_pushing_does() {
        let trace = "{\"t\":0,\"m\":\"g\",\"v\":1}\n\
                     {\"t\":0,\"m\":\"h\",\"v\":3}\n\
                     {\"t\":100,\"m\":\"g\",\"v\":nan}\n\
                     {\"t\":100,\"m\":\"h\",\"v\":-0}\n\
                     {\"t\":200,\"m\":\"g\",\"v\":0}\n\
                     {\"t\":200,\"m\":\"g\",\"v\":-0}\n\
                     {\"t\":300,\"m\":\"g\",\"v\":2}\n\
                     {\"t\":300,\"m\":\"h\",\"v\":0}\n";
        let records = parse(trace, Format::Jsonl).unwrap();
        assert!(records[2].value.is_nan());
        let report = TelemetryReport::from_records(&records);
        let pushed = pushed_report(&records);
        assert_eq!(digest_bits(&report), digest_bits(&pushed));
        assert_eq!(report.render(), pushed.render());
        assert_eq!(report.render_prometheus(), pushed.render_prometheus());
        assert_eq!(report.metric("g").unwrap().stats.nan_count(), 1);
    }

    #[test]
    fn report_digests_metrics_and_events() {
        let trace = "{\"t\":0,\"m\":\"b.y\",\"v\":10}\n\
                     {\"t\":0,\"m\":\"a.x\",\"v\":1}\n\
                     {\"t\":100,\"m\":\"a.x\",\"v\":3}\n\
                     {\"t\":100,\"e\":\"shed\",\"s\":\"rack-01\",\"v\":4}\n\
                     {\"t\":200,\"e\":\"shed\",\"s\":\"rack-00\",\"v\":2}\n";
        let report = TelemetryReport::from_records(&parse(trace, Format::Jsonl).unwrap());
        assert_eq!(report.metric_names(), vec!["a.x", "b.y"], "sorted");
        assert_eq!(report.sample_count(), 3);
        assert_eq!(report.span_ms(), 200);
        let ax = report.metric("a.x").unwrap();
        assert_eq!(ax.stats.count(), 2);
        assert_eq!(ax.stats.mean(), 2.0);
        assert_eq!(ax.summary.median(), 2.0);
        let sheds: Vec<_> = report.events().collect();
        assert_eq!(sheds.len(), 1);
        assert_eq!(sheds[0].count, 2);
        assert_eq!(sheds[0].sources, vec!["rack-00", "rack-01"]);
        assert_eq!(sheds[0].first_ms, 100);
        assert_eq!(sheds[0].last_ms, 200);
    }

    #[test]
    fn prometheus_exposition_is_labelled_and_deterministic() {
        let trace = "{\"t\":0,\"m\":\"a.x\",\"v\":1}\n\
                     {\"t\":100,\"m\":\"a.x\",\"v\":3}\n\
                     {\"t\":100,\"e\":\"shed\",\"s\":\"rack-01\",\"v\":4}\n";
        let records = parse(trace, Format::Jsonl).unwrap();
        let report = TelemetryReport::from_records(&records);
        let prom = report.render_prometheus();
        assert!(prom.contains("# TYPE pad_metric_mean gauge"));
        assert!(prom.contains("pad_metric_mean{metric=\"a.x\"} 2\n"));
        assert!(prom.contains("pad_metric_count{metric=\"a.x\"} 2\n"));
        assert!(prom.contains("pad_events_total{kind=\"shed\"} 1\n"));
        assert!(prom.contains("pad_trace_samples_total 2\n"));
        assert!(prom.contains("pad_trace_span_ms 100\n"));
        assert_eq!(
            prom,
            TelemetryReport::from_records(&records).render_prometheus()
        );
    }

    #[test]
    fn render_is_deterministic() {
        let trace = "{\"t\":0,\"m\":\"g\",\"v\":1.5}\n{\"t\":50,\"e\":\"wake\",\"s\":\"shedder\",\"v\":1}\n";
        let records = parse(trace, Format::Jsonl).unwrap();
        let a = TelemetryReport::from_records(&records).render();
        let b = TelemetryReport::from_records(&records).render();
        assert_eq!(a, b);
        assert!(a.contains("g"));
        assert!(a.contains("wake"));
    }
}
