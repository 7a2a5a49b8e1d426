//! The shared detect-replay pipeline behind `padsim` and `padsimd`.
//!
//! `padsim detect --replay` and the `padsimd` daemon answer the same
//! question — "what would the defense have seen in this telemetry?" —
//! over two transports: a file read at once versus a socket drained one
//! line at a time. This module is the single implementation both use:
//! a [`ReplayPipeline`] that ingests [`ParsedRecord`]s in arrival
//! order, closes a detector tick whenever the timestamp changes
//! (exactly the run-of-equal-timestamps grouping of
//! [`SimDetectors::replay`]), drives the [`SecurityPolicy`] FSM from
//! the graded detector evidence, and folds the result into a
//! [`ReplaySummary`].
//!
//! # Determinism contract
//!
//! Feeding the same records in the same order — all at once via
//! [`replay_records`], or one at a time via [`ReplayPipeline::ingest`]
//! across any chunking — produces the same summary, byte for byte once
//! rendered. This is the daemon's correctness harness: a trace streamed
//! through a socket must match the offline CLI exactly.
//!
//! The policy runs with neutral physical inputs (vDEB and µDEB
//! available, no visible peak), so every escalation in the summary is
//! purely detector-driven — a replay has no battery state to consult.

use simkit::alert::{
    render_alerts_json, render_rules_json, AlertEngine, AlertEvent, AlertKind, AlertRule, Compare,
    Severity,
};
use simkit::telemetry::{MetricId, MetricRegistry, ParsedRecord};
use simkit::time::SimTime;
use simkit::trace::{render_report_json, Incident, IncidentReconstructor, ParsedSpan};

use crate::detect::{DetectConfig, SimDetectors};
use crate::policy::{PolicyInputs, SecurityLevel, SecurityPolicy, Strictness};

/// Everything a replay needs besides the records: detector thresholds
/// and the policy FSM's knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Detector thresholds and hold windows.
    pub detect: DetectConfig,
    /// Policy strictness (Figure 9's two variants).
    pub strictness: Strictness,
    /// Minimum-residency hold-down for policy de-escalations, in ticks.
    pub hold_down: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            detect: DetectConfig::default(),
            strictness: Strictness::Strict,
            hold_down: 0,
        }
    }
}

/// One policy level change observed during a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Escalation {
    /// Tick timestamp at which the FSM moved, in sim milliseconds.
    pub time_ms: u64,
    /// Level before the move.
    pub from: SecurityLevel,
    /// Level after the move.
    pub to: SecurityLevel,
}

/// What a finished replay saw, rendered identically by the offline CLI
/// and the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// Rack count the detector stack was built for.
    pub racks: usize,
    /// Records ingested (samples and events, subscribed or not).
    pub records: u64,
    /// Distinct detector ticks closed.
    pub ticks: u64,
    /// Samples actually fed to a subscribed detector channel.
    pub samples_fed: u64,
    /// Event records seen (skipped by the detectors).
    pub events: u64,
    /// Ticks whose fused verdict fired.
    pub fired_ticks: u64,
    /// Rising-edge firing count across all subscriptions.
    pub firing_count: usize,
    /// The firing log (`time_ms label score` lines), byte-identical to
    /// a live run's.
    pub firings: String,
    /// Policy level changes, in tick order.
    pub escalations: Vec<Escalation>,
    /// Policy level after the final tick.
    pub final_level: SecurityLevel,
}

impl ReplaySummary {
    /// The `replayed N record(s) ...` line `padsim detect --replay`
    /// prints (without the firing log).
    pub fn render_headline(&self) -> String {
        format!(
            "replayed {} record(s) over {} rack(s): {} tick(s), {} fused-fired",
            self.records, self.racks, self.ticks, self.fired_ticks
        )
    }

    /// The firing-log block `padsim detect` prints: a placeholder when
    /// quiet, otherwise a header plus the `time_ms label score` lines.
    pub fn render_firings(&self) -> String {
        if self.firings.is_empty() {
            "detector firings: none\n".to_string()
        } else {
            format!(
                "detector firings ({} rising edges; time_ms label score):\n{}",
                self.firing_count, self.firings
            )
        }
    }

    /// Compact single-object JSON, newline-terminated. Field order is
    /// fixed and values use `f64`/integer `Display`, so two identical
    /// replays serialize byte-identically (the daemon-vs-CLI diff in CI
    /// compares these strings directly).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + self.firings.len());
        let _ = write!(
            out,
            "{{\"racks\":{},\"records\":{},\"ticks\":{},\"samples_fed\":{},\
             \"events\":{},\"fired_ticks\":{},\"firing_count\":{},\"final_level\":{}",
            self.racks,
            self.records,
            self.ticks,
            self.samples_fed,
            self.events,
            self.fired_ticks,
            self.firing_count,
            self.final_level.number()
        );
        out.push_str(",\"escalations\":[");
        for (i, e) in self.escalations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t\":{},\"from\":{},\"to\":{}}}",
                e.time_ms,
                e.from.number(),
                e.to.number()
            );
        }
        out.push_str("],\"firings\":[");
        for (i, line) in self.firings.lines().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Firing lines are `time_ms label score` over an escape-free
            // charset (interned metric names and detector labels), so
            // they embed as JSON strings verbatim.
            let _ = write!(out, "\"{line}\"");
        }
        out.push_str("]}\n");
        out
    }
}

/// Streaming detect-and-policy replay over parsed telemetry records.
///
/// # Example
///
/// ```
/// use pad::pipeline::{PipelineConfig, ReplayPipeline};
/// use simkit::telemetry::{parse, Format};
///
/// let trace = "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
///              {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}\n";
/// let records = parse(trace, Format::Jsonl).unwrap();
/// let mut pipe = ReplayPipeline::new(1, PipelineConfig::default());
/// for r in &records {
///     pipe.ingest(r);
/// }
/// let summary = pipe.finalize();
/// assert_eq!(summary.ticks, 2);
/// assert_eq!(summary.records, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayPipeline {
    stack: SimDetectors,
    policy: SecurityPolicy,
    /// Timestamp of the tick currently accumulating records, if any.
    open_tick: Option<u64>,
    records: u64,
    samples_fed: u64,
    events: u64,
    ticks: u64,
    fired_ticks: u64,
    escalations: Vec<Escalation>,
}

impl ReplayPipeline {
    /// Builds a pipeline watching `racks` racks.
    ///
    /// # Panics
    ///
    /// Panics if `racks` is zero (detector stacks watch at least one).
    pub fn new(racks: usize, config: PipelineConfig) -> Self {
        ReplayPipeline {
            stack: SimDetectors::new(racks, config.detect),
            policy: SecurityPolicy::new(config.strictness).with_hold_down(config.hold_down),
            open_tick: None,
            records: 0,
            samples_fed: 0,
            events: 0,
            ticks: 0,
            fired_ticks: 0,
            escalations: Vec::new(),
        }
    }

    /// The current policy level.
    pub fn level(&self) -> SecurityLevel {
        self.policy.level()
    }

    /// The underlying detector stack (fused verdict, firing log).
    pub fn stack(&self) -> &SimDetectors {
        &self.stack
    }

    /// What a [`StreamMonitor`] reads when it closes a tick: the policy
    /// level, whether the fused verdict fires, and the cumulative
    /// rising-edge firing count.
    pub fn monitor_state(&self) -> (SecurityLevel, bool, usize) {
        (
            self.level(),
            self.stack.fused().fired,
            self.stack.bank().firings().len(),
        )
    }

    /// Records ingested so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Ticks closed so far (the open tick, if any, is not counted).
    pub fn tick_count(&self) -> u64 {
        self.ticks
    }

    /// Feeds one record in arrival order. A timestamp different from
    /// the open tick's closes that tick first — the same grouping by
    /// runs of equal timestamps as [`SimDetectors::replay`], so a
    /// non-monotonic stream produces separate ticks rather than merging.
    pub fn ingest(&mut self, r: &ParsedRecord) {
        if let Some(open) = self.open_tick {
            if open != r.time_ms {
                self.close_tick(open);
            }
        }
        self.open_tick = Some(r.time_ms);
        self.records += 1;
        if r.is_event {
            self.events += 1;
        } else if self.stack.observe_record(r) {
            self.samples_fed += 1;
        }
    }

    /// Closes the tick at `t_ms`: detector hold-windows update, then the
    /// policy consumes the graded evidence under neutral physical inputs
    /// (a replay has no battery state, so escalations are detector-driven
    /// only).
    fn close_tick(&mut self, t_ms: u64) {
        let now = SimTime::from_millis(t_ms);
        self.stack.end_tick(now);
        self.ticks += 1;
        if self.stack.fused().fired {
            self.fired_ticks += 1;
        }
        let from = self.policy.level();
        let to = self.policy.update(PolicyInputs {
            vdeb_available: true,
            udeb_available: true,
            visible_peak: false,
            detection: self.stack.evidence(now),
        });
        if to != from {
            self.escalations.push(Escalation {
                time_ms: t_ms,
                from,
                to,
            });
        }
    }

    /// Closes the final tick and folds everything into a summary.
    pub fn finalize(mut self) -> ReplaySummary {
        if let Some(open) = self.open_tick.take() {
            self.close_tick(open);
        }
        ReplaySummary {
            racks: self.stack.rack_count(),
            records: self.records,
            ticks: self.ticks,
            samples_fed: self.samples_fed,
            events: self.events,
            fired_ticks: self.fired_ticks,
            firing_count: self.stack.bank().firings().len(),
            firings: self.stack.bank().render_firings(),
            escalations: self.escalations,
            final_level: self.policy.level(),
        }
    }
}

/// Replays a whole parsed trace at once — the offline entry point
/// `padsim detect --replay` uses. Equivalent to ingesting every record
/// through a [`ReplayPipeline`] and finalizing.
pub fn replay_records(
    racks: usize,
    config: PipelineConfig,
    records: &[ParsedRecord],
) -> ReplaySummary {
    let mut pipe = ReplayPipeline::new(racks, config);
    for r in records {
        pipe.ingest(r);
    }
    pipe.finalize()
}

/// Rack count implied by a trace's `rack-NN.draw_w` sample names
/// (highest index plus one), or `None` when no rack samples appear.
///
/// Every rack emits its draw gauge every tick, so for a streaming
/// ingester the records of the *first* tick alone already name every
/// rack — inferring at the first tick boundary matches inferring over
/// the whole file.
pub fn try_infer_racks(records: &[ParsedRecord]) -> Option<usize> {
    let mut max: Option<usize> = None;
    for r in records.iter().filter(|r| !r.is_event) {
        if let Some(num) = r
            .name
            .strip_prefix("rack-")
            .and_then(|rest| rest.strip_suffix(".draw_w"))
        {
            if let Ok(n) = num.parse::<usize>() {
                max = Some(max.map_or(n, |m| m.max(n)));
            }
        }
    }
    max.map(|m| m + 1)
}

/// Interned metric ids for a [`StreamMonitor`]'s registry, in
/// registration order (which fixes `/metrics` emission order).
#[derive(Debug, Clone, Copy, PartialEq)]
struct MonitorIds {
    records: MetricId,
    samples: MetricId,
    events: MetricId,
    ticks: MetricId,
    parse_errors: MetricId,
    firings: MetricId,
    level: MetricId,
    fused: MetricId,
    tick_gap_ms: MetricId,
    poll_seconds: MetricId,
    poll_lines: MetricId,
    poll_records: MetricId,
}

impl MonitorIds {
    fn register(reg: &mut MetricRegistry) -> Self {
        MonitorIds {
            records: reg.register_counter("ingest.records_total"),
            samples: reg.register_counter("ingest.samples_total"),
            events: reg.register_counter("ingest.events_total"),
            ticks: reg.register_counter("ingest.ticks_total"),
            parse_errors: reg.register_counter("ingest.parse_errors_total"),
            firings: reg.register_counter("detect.firings_total"),
            level: reg.register_gauge("policy.level"),
            fused: reg.register_gauge("detect.fused_fired"),
            tick_gap_ms: reg.register_histogram("ingest.tick_gap_ms", 0.0, 60_000.0, 60),
            poll_seconds: reg.register_histogram("wire.poll_seconds", 0.0, 0.25, 50),
            poll_lines: reg.register_histogram("wire.poll_lines", 0.0, 50_000.0, 50),
            poll_records: reg.register_histogram("wire.poll_records", 0.0, 50_000.0, 50),
        }
    }
}

/// The alert rules `padsimd` runs when none are supplied: the ISSUE's
/// three operational alarms plus a policy-level page.
///
/// * `tenant-silent` — deadman on the tick beat: a gap over 3× the
///   tenant's own median inter-tick gap (never under 500 ms) pages.
/// * `parse-error-rate` — more than 1 malformed line per second of sim
///   time warns.
/// * `firing-spike` — detector rising edges arriving faster than 2/s
///   warn (a probe or a detector gone noisy).
/// * `policy-emergency` — the FSM at Level 3 pages, with hysteresis so
///   it only clears once the level falls below Level 2.
pub fn default_alert_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "tenant-silent".to_string(),
            severity: Severity::Page,
            for_ms: 0,
            hold_ms: 10_000,
            kind: AlertKind::Deadman {
                metric: "ingest.ticks_total".to_string(),
                factor: 3.0,
                min_gap_ms: 500,
            },
        },
        AlertRule {
            name: "parse-error-rate".to_string(),
            severity: Severity::Warn,
            for_ms: 0,
            hold_ms: 0,
            kind: AlertKind::Rate {
                metric: "ingest.parse_errors_total".to_string(),
                max_per_sec: 1.0,
            },
        },
        AlertRule {
            name: "firing-spike".to_string(),
            severity: Severity::Warn,
            for_ms: 0,
            hold_ms: 0,
            kind: AlertKind::Rate {
                metric: "detect.firings_total".to_string(),
                max_per_sec: 2.0,
            },
        },
        AlertRule {
            name: "policy-emergency".to_string(),
            severity: Severity::Page,
            for_ms: 0,
            hold_ms: 0,
            kind: AlertKind::Threshold {
                metric: "policy.level".to_string(),
                op: Compare::Ge,
                value: 3.0,
                clear: Some(2.0),
            },
        },
    ]
}

/// Self-observability sidecar for a [`ReplayPipeline`] stream: a metric
/// registry describing the stream's ingest health plus an
/// [`AlertEngine`] evaluated at every tick boundary on **simulation**
/// time.
///
/// The daemon attaches one per tenant and the offline CLI
/// ([`monitor_records`], `padsim inspect --alerts`) drives an identical
/// one over a recorded trace, so a live stream's `/alerts` document and
/// the offline replay's are byte-identical. Wall-clock wire timings
/// ([`observe_poll`](Self::observe_poll)) land in histograms that only
/// surface via `/metrics` — no alert rule should reference them, or the
/// determinism contract breaks.
#[derive(Debug, Clone)]
pub struct StreamMonitor {
    reg: MetricRegistry,
    engine: AlertEngine,
    rules: Vec<AlertRule>,
    ids: MonitorIds,
    open_tick: Option<u64>,
    last_firings: usize,
}

impl StreamMonitor {
    /// Builds a monitor evaluating `rules` (see [`default_alert_rules`]).
    ///
    /// # Panics
    ///
    /// Panics if any rule fails [`AlertRule::validate`].
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let mut reg = MetricRegistry::new();
        let ids = MonitorIds::register(&mut reg);
        StreamMonitor {
            reg,
            engine: AlertEngine::new(rules.clone()),
            rules,
            ids,
            open_tick: None,
            last_firings: 0,
        }
    }

    /// Observes one ingested record *after* the pipeline consumed it.
    /// A timestamp change closes the monitor's tick: gap histogram, tick
    /// counter, policy/detector gauges, firing delta, then one alert
    /// evaluation at the new record's sim time.
    ///
    /// `state` yields the pipeline's current level, fused verdict and
    /// cumulative rising-edge firing count (see
    /// [`ReplayPipeline::monitor_state`]). Only a closing tick reads
    /// them, so `state` runs once per tick rather than once per record.
    /// It runs inside this call, so it sees the pipeline after the
    /// pipeline ingested the closing record.
    pub fn observe_record(
        &mut self,
        r: &ParsedRecord,
        state: impl FnOnce() -> (SecurityLevel, bool, usize),
    ) {
        if let Some(open) = self.open_tick {
            if open != r.time_ms {
                let gap = r.time_ms.saturating_sub(open);
                self.reg.observe(self.ids.tick_gap_ms, gap as f64);
                let (level, fused, firings) = state();
                self.close_tick(level, fused, firings, r.time_ms);
            }
        }
        self.open_tick = Some(r.time_ms);
        self.reg.inc(self.ids.records, 1);
        if r.is_event {
            self.reg.inc(self.ids.events, 1);
        } else {
            self.reg.inc(self.ids.samples, 1);
        }
    }

    /// Counts a malformed input line. Rate rules see it at the next
    /// tick-boundary evaluation.
    pub fn observe_parse_error(&mut self) {
        self.reg.inc(self.ids.parse_errors, 1);
    }

    /// Records one wire poll: wall seconds spent, lines read, records
    /// parsed. `/metrics`-only — never feeds the alert engine.
    pub fn observe_poll(&mut self, seconds: f64, lines: u64, records: u64) {
        self.reg.observe(self.ids.poll_seconds, seconds);
        self.reg.observe(self.ids.poll_lines, lines as f64);
        self.reg.observe(self.ids.poll_records, records as f64);
    }

    fn close_tick(&mut self, level: SecurityLevel, fused: bool, firings: usize, now_ms: u64) {
        self.reg.inc(self.ids.ticks, 1);
        self.reg.set_gauge(self.ids.level, level.number() as f64);
        self.reg
            .set_gauge(self.ids.fused, if fused { 1.0 } else { 0.0 });
        let delta = firings.saturating_sub(self.last_firings);
        self.last_firings = firings;
        self.reg.inc(self.ids.firings, delta as u64);
        self.engine.eval(&self.reg, now_ms);
    }

    /// Closes the final open tick (at its own timestamp) with the
    /// finished stream's last state. Idempotent; mirrors
    /// [`ReplayPipeline::finalize`] closing its last tick.
    pub fn finish(&mut self, level: SecurityLevel, fused: bool, firings: usize) {
        if let Some(open) = self.open_tick.take() {
            self.close_tick(level, fused, firings, open);
        }
    }

    /// Resets metrics and alert state for a tenant re-opening, keeping
    /// the rules.
    pub fn reset(&mut self) {
        *self = StreamMonitor::new(std::mem::take(&mut self.rules));
    }

    /// The monitor's metric registry (for `/metrics` rendering).
    pub fn registry(&self) -> &MetricRegistry {
        &self.reg
    }

    /// The alert engine (state snapshots, event history).
    pub fn engine(&self) -> &AlertEngine {
        &self.engine
    }

    /// Drains alert transitions since the last drain — the daemon's
    /// ops-log feed.
    pub fn take_transitions(&mut self) -> Vec<AlertEvent> {
        self.engine.take_transitions()
    }

    /// The newline-terminated `/alerts` JSON document for this stream.
    pub fn alerts_json(&self) -> String {
        render_alerts_json(&self.engine)
    }

    /// Serializes the monitor's mutable state: the ingest-health
    /// registry (value state), the alert engine, the open tick and the
    /// firing watermark. Rules are configuration and are rebuilt by the
    /// caller.
    pub fn snapshot_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"registry\":");
        out.push_str(&self.reg.snapshot_json());
        out.push_str(",\"engine\":");
        out.push_str(&self.engine.snapshot_json());
        if let Some(t) = self.open_tick {
            let _ = write!(out, ",\"open_tick\":{t}");
        }
        let _ = write!(out, ",\"last_firings\":{}}}", self.last_firings);
        out
    }

    /// Restores mutable state from a [`snapshot_json`](Self::snapshot_json)
    /// document into a monitor built over the same rules.
    pub fn restore_snapshot(&mut self, value: &simkit::jsonio::Json) -> Result<(), String> {
        use simkit::jsonio::ObjFields as _;
        let obj = value.as_object("monitor snapshot")?;
        self.reg.restore_snapshot(obj.field("registry")?)?;
        self.engine.restore_snapshot(obj.field("engine")?)?;
        self.open_tick = obj.opt_u64_field("open_tick")?;
        self.last_firings = obj.u64_field("last_firings")? as usize;
        Ok(())
    }
}

/// Replays a trace through a [`ReplayPipeline`] with a [`StreamMonitor`]
/// attached — the offline half of `padsim inspect --alerts`, and the
/// reference a live daemon stream must match byte-for-byte.
pub fn monitor_records(
    racks: usize,
    config: PipelineConfig,
    rules: Vec<AlertRule>,
    records: &[ParsedRecord],
) -> (ReplaySummary, StreamMonitor) {
    let mut pipe = ReplayPipeline::new(racks, config);
    let mut mon = StreamMonitor::new(rules);
    for r in records {
        pipe.ingest(r);
        mon.observe_record(r, || pipe.monitor_state());
    }
    let summary = pipe.finalize();
    mon.finish(summary.final_level, false, summary.firing_count);
    (summary, mon)
}

/// The pinned self-observability schema: every monitor metric with its
/// kind, the default rules document, and the `/alerts` field order.
/// `padsim inspect --alert-schema` prints this and CI diffs it against
/// `tests/data/alert_schema.txt` so drift is a reviewed change.
pub fn alert_schema() -> String {
    let mon = StreamMonitor::new(default_alert_rules());
    let reg = mon.registry();
    let mut out = String::from("pad stream-monitor alert schema v1\n\nmetrics:\n");
    for id in reg.ids() {
        let kind = match reg.kind(id) {
            simkit::telemetry::MetricKind::Counter => "counter",
            simkit::telemetry::MetricKind::Gauge => "gauge",
            simkit::telemetry::MetricKind::Histogram => "histogram",
        };
        out.push_str(&format!("  {kind} {}\n", reg.name(id)));
    }
    out.push_str(
        "\nalerts document fields:\n  \
         rules[name kind metric severity state since_ms value] firing \
         events[t rule event value] events_dropped\n\ndefault rules:\n",
    );
    out.push_str(&render_rules_json(&default_alert_rules()));
    out
}

/// Joins a parsed span trace with its telemetry into incidents — the
/// reconstruction `padsim incident` and the daemon's incident API share.
/// An empty `telemetry` slice reconstructs from spans alone.
pub fn reconstruct(spans: &[ParsedSpan], telemetry: &[ParsedRecord]) -> Vec<Incident> {
    let mut reconstructor = IncidentReconstructor::new(spans);
    if !telemetry.is_empty() {
        reconstructor = reconstructor.with_telemetry(telemetry);
    }
    reconstructor.reconstruct()
}

/// Like [`reconstruct`], rendered as the `{"incidents":[...]}` JSON
/// document `padsim incident --json` emits.
pub fn reconstruct_json(spans: &[ParsedSpan], telemetry: &[ParsedRecord]) -> String {
    render_report_json(&reconstruct(spans, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::telemetry::{parse, Format};

    fn quiet_trace(ticks: u64) -> Vec<ParsedRecord<'static>> {
        let mut text = String::new();
        for i in 0..ticks {
            let t = i * 100;
            text.push_str(&format!(
                "{{\"t\":{t},\"m\":\"rack-00.draw_w\",\"v\":100}}\n"
            ));
            text.push_str(&format!("{{\"t\":{t},\"m\":\"rack-00.soc\",\"v\":0.9}}\n"));
            text.push_str(&format!(
                "{{\"t\":{t},\"m\":\"rack-00.udeb_shave_w\",\"v\":0}}\n"
            ));
            text.push_str(&format!(
                "{{\"t\":{t},\"m\":\"cluster.draw_w\",\"v\":100}}\n"
            ));
        }
        let records = parse(&text, Format::Jsonl).unwrap();
        records.into_iter().map(ParsedRecord::into_owned).collect()
    }

    #[test]
    fn streaming_equals_batch_replay() {
        let records = quiet_trace(20);
        let batch = replay_records(1, PipelineConfig::default(), &records);
        // Any chunking of the same stream must land in the same state.
        for chunk in [1usize, 3, 7, records.len()] {
            let mut pipe = ReplayPipeline::new(1, PipelineConfig::default());
            for piece in records.chunks(chunk) {
                for r in piece {
                    pipe.ingest(r);
                }
            }
            let streamed = pipe.finalize();
            assert_eq!(streamed, batch, "chunk size {chunk}");
            assert_eq!(streamed.to_json(), batch.to_json());
        }
    }

    #[test]
    fn summary_matches_raw_stack_replay() {
        let records = quiet_trace(10);
        let summary = replay_records(1, PipelineConfig::default(), &records);
        let mut stack = SimDetectors::new(1, DetectConfig::default());
        let verdicts = stack.replay(&records);
        assert_eq!(summary.ticks as usize, verdicts.len());
        assert_eq!(
            summary.fired_ticks as usize,
            verdicts.iter().filter(|v| v.fused.fired).count()
        );
        assert_eq!(summary.firings, stack.bank().render_firings());
        assert_eq!(summary.records as usize, records.len());
        assert_eq!(summary.events, 0);
        assert_eq!(summary.samples_fed as usize, records.len());
    }

    #[test]
    fn unsubscribed_and_event_records_are_counted_but_not_fed() {
        let text = "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
                    {\"t\":0,\"m\":\"unknown.metric\",\"v\":5}\n\
                    {\"t\":0,\"e\":\"breaker_trip\",\"s\":\"rack-00\",\"v\":1}\n";
        let records = parse(text, Format::Jsonl).unwrap();
        let summary = replay_records(1, PipelineConfig::default(), &records);
        assert_eq!(summary.records, 3);
        assert_eq!(summary.samples_fed, 1);
        assert_eq!(summary.events, 1);
        assert_eq!(summary.ticks, 1);
    }

    #[test]
    fn escalations_are_detector_driven_and_ordered() {
        // A flat baseline then a violent spike: the z-score and spike
        // detectors fire, evidence reaches the policy, and the FSM
        // leaves Normal. The exact landing level is the detectors'
        // business; the pipeline's contract is that the escalation log
        // is non-empty, ordered, and starts from Normal.
        let mut text = String::new();
        for i in 0..120u64 {
            // Jittered baseline, then a violent square spike: both the
            // rack and cluster EWMA detectors see a huge residual, and
            // the spike train accumulates within its window.
            let v = if i < 80 {
                100.0 + (i % 7) as f64
            } else {
                4000.0
            };
            let t = i * 100;
            text.push_str(&format!(
                "{{\"t\":{t},\"m\":\"rack-00.draw_w\",\"v\":{v}}}\n"
            ));
            text.push_str(&format!(
                "{{\"t\":{t},\"m\":\"cluster.draw_w\",\"v\":{v}}}\n"
            ));
        }
        let records = parse(&text, Format::Jsonl).unwrap();
        let summary = replay_records(1, PipelineConfig::default(), &records);
        assert!(
            !summary.escalations.is_empty(),
            "spike should escalate the policy"
        );
        assert_eq!(summary.escalations[0].from, SecurityLevel::Normal);
        let mut last = 0;
        for e in &summary.escalations {
            assert!(e.time_ms >= last, "escalations in tick order");
            assert_ne!(e.from, e.to);
            last = e.time_ms;
        }
        assert!(summary.fired_ticks > 0);
        assert!(summary.to_json().contains("\"escalations\":[{\"t\":"));
    }

    #[test]
    fn infer_racks_reads_the_highest_rack_index() {
        let text = "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":1}\n\
                    {\"t\":0,\"m\":\"rack-03.draw_w\",\"v\":1}\n\
                    {\"t\":0,\"e\":\"breaker_trip\",\"s\":\"rack-09\",\"v\":1}\n";
        let records = parse(text, Format::Jsonl).unwrap();
        assert_eq!(try_infer_racks(&records), Some(4), "events don't count");
        assert_eq!(try_infer_racks(&records[1..2]), Some(4));
        assert_eq!(try_infer_racks(&records[2..]), None);
    }

    #[test]
    fn first_tick_inference_matches_whole_trace_inference() {
        let records = quiet_trace(5);
        let first_tick: Vec<ParsedRecord> = records
            .iter()
            .filter(|r| r.time_ms == records[0].time_ms)
            .cloned()
            .collect();
        assert_eq!(try_infer_racks(&first_tick), try_infer_racks(&records));
    }

    #[test]
    fn render_headline_matches_cli_wording() {
        let summary = replay_records(1, PipelineConfig::default(), &quiet_trace(3));
        assert_eq!(
            summary.render_headline(),
            "replayed 12 record(s) over 1 rack(s): 3 tick(s), 0 fused-fired"
        );
        assert_eq!(summary.render_firings(), "detector firings: none\n");
    }

    /// The monitor's inputs evaluated after every record: the reference
    /// the once-per-tick evaluation must match.
    fn per_record_state(pipe: &ReplayPipeline) -> (SecurityLevel, bool, usize) {
        (
            pipe.level(),
            pipe.stack().fused().fired,
            pipe.stack().bank().firings().len(),
        )
    }

    fn spiky_trace() -> Vec<ParsedRecord<'static>> {
        let mut text = String::new();
        for i in 0..120u64 {
            let v = if i < 80 {
                100.0 + (i % 7) as f64
            } else {
                4000.0
            };
            let t = i * 100;
            text.push_str(&format!(
                "{{\"t\":{t},\"m\":\"rack-00.draw_w\",\"v\":{v}}}\n"
            ));
            text.push_str(&format!(
                "{{\"t\":{t},\"m\":\"cluster.draw_w\",\"v\":{v}}}\n"
            ));
        }
        let records = parse(&text, Format::Jsonl).unwrap();
        records.into_iter().map(ParsedRecord::into_owned).collect()
    }

    #[test]
    fn monitor_streaming_matches_batch_byte_for_byte() {
        let records = spiky_trace();
        let (batch_summary, batch_mon) = monitor_records(
            1,
            PipelineConfig::default(),
            default_alert_rules(),
            &records,
        );
        for chunk in [1usize, 7, records.len()] {
            let mut pipe = ReplayPipeline::new(1, PipelineConfig::default());
            let mut mon = StreamMonitor::new(default_alert_rules());
            for piece in records.chunks(chunk) {
                for r in piece {
                    pipe.ingest(r);
                    let state = per_record_state(&pipe);
                    mon.observe_record(r, || state);
                }
            }
            let summary = pipe.finalize();
            mon.finish(summary.final_level, false, summary.firing_count);
            assert_eq!(summary, batch_summary, "chunk size {chunk}");
            assert_eq!(
                mon.alerts_json(),
                batch_mon.alerts_json(),
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn fused_verdict_read_once_per_tick_matches_reading_it_per_record() {
        // Each tick opens with the cluster draw, which jumps at tick 80:
        // its z-score and CUSUM fire together, two votes, so tick 80's
        // first record flips the fused verdict. That record is also the
        // one that closes tick 79 in the monitor, so it decides what the
        // monitor reads for tick 79.
        let mut text = String::new();
        for i in 0..160u64 {
            let t = i * 100;
            let rack = 100.0 + (i % 7) as f64;
            let cluster = if i >= 80 { 4000.0 } else { rack };
            text.push_str(&format!(
                "{{\"t\":{t},\"m\":\"cluster.draw_w\",\"v\":{cluster}}}\n\
                 {{\"t\":{t},\"m\":\"rack-00.draw_w\",\"v\":{rack}}}\n"
            ));
        }
        let records = parse(&text, Format::Jsonl).unwrap();
        let mut pipe = ReplayPipeline::new(1, PipelineConfig::default());
        let mut once = StreamMonitor::new(default_alert_rules());
        let mut every = StreamMonitor::new(default_alert_rules());
        let mut flips = 0;
        for (i, r) in records.iter().enumerate() {
            let fused_before = pipe.stack().fused().fired;
            pipe.ingest(r);
            let opens_tick = i > 0 && records[i - 1].time_ms != r.time_ms;
            if opens_tick && pipe.stack().fused().fired != fused_before {
                flips += 1;
            }
            let state = per_record_state(&pipe);
            every.observe_record(r, || state);
            once.observe_record(r, || pipe.monitor_state());
            assert_eq!(once.snapshot_json(), every.snapshot_json(), "record {i}");
        }
        assert!(flips > 0, "a tick's first record must flip the verdict");
        let summary = pipe.finalize();
        for mon in [&mut once, &mut every] {
            mon.finish(summary.final_level, false, summary.firing_count);
        }
        let (batch_summary, batch) = monitor_records(
            1,
            PipelineConfig::default(),
            default_alert_rules(),
            &records,
        );
        assert_eq!(batch_summary, summary);
        let fused_gauge = |mon: &StreamMonitor| {
            let reg = mon.registry();
            reg.gauge(reg.id("detect.fused_fired").unwrap())
        };
        for mon in [&once, &batch] {
            assert_eq!(fused_gauge(mon), fused_gauge(&every));
            assert_eq!(mon.alerts_json(), every.alerts_json());
            assert_eq!(mon.snapshot_json(), every.snapshot_json());
        }
    }

    #[test]
    fn monitor_counts_mirror_the_summary() {
        let records = spiky_trace();
        let (summary, mon) = monitor_records(
            1,
            PipelineConfig::default(),
            default_alert_rules(),
            &records,
        );
        let reg = mon.registry();
        let get = |name: &str| reg.counter(reg.id(name).unwrap());
        assert_eq!(get("ingest.records_total"), summary.records);
        assert_eq!(get("ingest.ticks_total"), summary.ticks);
        assert_eq!(get("ingest.events_total"), summary.events);
        assert_eq!(get("detect.firings_total"), summary.firing_count as u64);
        let level = reg.gauge(reg.id("policy.level").unwrap());
        assert_eq!(level, summary.final_level.number() as f64);
    }

    #[test]
    fn silence_window_fires_the_deadman_deterministically() {
        // Drop a 3s window from a steady 100ms-tick trace: the resume
        // beat lands 30× the median gap late and pages, then the next
        // on-time beats resolve it after the hold.
        let records: Vec<ParsedRecord> = quiet_trace(240)
            .into_iter()
            .filter(|r| !(4_000..7_000).contains(&r.time_ms))
            .collect();
        let run = || {
            let (_, mon) = monitor_records(
                1,
                PipelineConfig::default(),
                default_alert_rules(),
                &records,
            );
            mon.alerts_json()
        };
        let doc = run();
        assert_eq!(doc, run(), "two runs render identical /alerts bytes");
        assert!(
            doc.contains("\"rule\":\"tenant-silent\",\"event\":\"fired\""),
            "deadman fired: {doc}"
        );
        assert!(
            doc.contains("\"value\":3100"),
            "the silent gap is the value"
        );
        assert!(
            doc.contains("\"rule\":\"tenant-silent\",\"event\":\"resolved\""),
            "resolves after the hold once the beat returns"
        );
    }

    #[test]
    fn monitor_reset_clears_state_but_keeps_rules() {
        let records = quiet_trace(10);
        let (_, mut mon) = monitor_records(
            1,
            PipelineConfig::default(),
            default_alert_rules(),
            &records,
        );
        let fresh = StreamMonitor::new(default_alert_rules());
        assert_ne!(
            mon.registry()
                .counter(mon.registry().id("ingest.records_total").unwrap()),
            0
        );
        mon.reset();
        assert_eq!(mon.alerts_json(), fresh.alerts_json());
        assert_eq!(
            mon.registry()
                .counter(mon.registry().id("ingest.records_total").unwrap()),
            0
        );
        assert_eq!(mon.engine().rules().len(), default_alert_rules().len());
    }

    #[test]
    fn pipeline_snapshot_resumes_byte_identically() {
        // The headline recovery property, at the library layer: cut the
        // stream at arbitrary points, rebuild the pipeline by replaying
        // the records before the cut and the monitor from its snapshot,
        // ingest the rest — summary and alerts documents must be
        // byte-identical to an uninterrupted run.
        let records = spiky_trace();
        let (full_summary, full_mon) = monitor_records(
            1,
            PipelineConfig::default(),
            default_alert_rules(),
            &records,
        );
        for cut in [1usize, 57, 120, 199, records.len() - 1] {
            let mut pipe = ReplayPipeline::new(1, PipelineConfig::default());
            let mut mon = StreamMonitor::new(default_alert_rules());
            for r in &records[..cut] {
                pipe.ingest(r);
                let state = per_record_state(&pipe);
                mon.observe_record(r, || state);
            }
            let mon_doc = simkit::jsonio::JsonParser::parse_document(&mon.snapshot_json()).unwrap();
            let mut pipe2 = ReplayPipeline::new(1, PipelineConfig::default());
            for r in &records[..cut] {
                pipe2.ingest(r);
            }
            assert_eq!(pipe2, pipe, "cut {cut}: replay must be bit-exact");
            let mut mon2 = StreamMonitor::new(default_alert_rules());
            mon2.restore_snapshot(&mon_doc).unwrap();
            for r in &records[cut..] {
                pipe2.ingest(r);
                let state = per_record_state(&pipe2);
                mon2.observe_record(r, || state);
            }
            let summary = pipe2.finalize();
            mon2.finish(summary.final_level, false, summary.firing_count);
            assert_eq!(summary.to_json(), full_summary.to_json(), "cut {cut}");
            assert_eq!(mon2.alerts_json(), full_mon.alerts_json(), "cut {cut}");
        }
    }

    #[test]
    fn alert_schema_pins_names_and_rules() {
        let schema = alert_schema();
        assert!(schema.contains("counter ingest.ticks_total"));
        assert!(schema.contains("histogram wire.poll_seconds"));
        assert!(schema.contains("\"name\":\"tenant-silent\""));
        // The default rules document must round-trip through the codec.
        let rules =
            simkit::alert::parse_rules(schema.split("default rules:\n").nth(1).unwrap()).unwrap();
        assert_eq!(rules, default_alert_rules());
    }
}
