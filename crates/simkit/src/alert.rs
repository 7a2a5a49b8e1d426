//! A deterministic alerting rule engine over a [`MetricRegistry`].
//!
//! The daemon's detectors answer "is this telemetry an attack?"; this
//! module answers the operational question one level up — "is the
//! *pipeline itself* healthy, and did anyone notice?" An
//! [`AlertEngine`] holds a list of [`AlertRule`]s (threshold,
//! rate-of-change, and deadman/staleness) and is evaluated explicitly,
//! at caller-chosen instants, against any metric registry. Rules
//! support a `for`-duration hold (a condition must persist before
//! firing), a minimum hold time once fired, and hysteresis (a separate
//! clear threshold) so a value oscillating around the trigger doesn't
//! flap the alert.
//!
//! # Determinism contract
//!
//! The engine has no clock: `now` is an argument to
//! [`eval`](AlertEngine::eval) and every recorded transition carries
//! that caller-supplied timestamp. Feeding the same registry states at
//! the same `now` values produces the same transitions, states, and
//! rendered bytes — which is how the daemon can promise byte-identical
//! `/alerts` documents across runs and arrival interleavings: it
//! evaluates on **simulation** time from the recorded telemetry, never
//! wall-clock.
//!
//! # Deadman semantics
//!
//! A [`Deadman`](AlertKind::Deadman) rule watches a metric's *update
//! beat*, learns the median gap between beats, and fires when a gap
//! exceeds `factor ×` that median (with a floor of `min_gap_ms`).
//! Because the engine only runs when the caller evaluates it, a silent
//! stream is detected **retroactively, at the next evaluation after
//! the silence** — for a tick-driven caller that is the moment the
//! stream resumes. The rule arms only after [`DEADMAN_MIN_GAPS`]
//! observed gaps, so a stream's first wobbly intervals can't fire it.

use crate::intern::valid_name;
use crate::jsonio::{Json, JsonParser, ObjFields};
use crate::stats::Summary;
use crate::telemetry::{MetricKind, MetricRegistry};

/// Gaps a deadman rule must observe before it arms — a median over
/// fewer samples would let the very first interval define "normal".
pub const DEADMAN_MIN_GAPS: usize = 4;

/// Transitions retained in the engine's event log; later transitions
/// are counted in [`AlertEngine::events_dropped`] but not stored.
const EVENT_CAP: usize = 4096;

/// How urgent a firing rule is, mirrored into rendered documents and
/// `ALERTS{severity="..."}` labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational — worth a dashboard, not a human.
    Info,
    /// Degraded — a human should look during working hours.
    Warn,
    /// Critical — wake someone up.
    Page,
}

impl Severity {
    /// Lower-case wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Page => "page",
        }
    }

    /// Parses a wire label.
    pub fn from_label(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "page" => Some(Severity::Page),
            _ => None,
        }
    }
}

/// Comparison operator for threshold rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
}

impl Compare {
    /// Wire spelling (`>`, `>=`, `<`, `<=`).
    pub fn as_str(self) -> &'static str {
        match self {
            Compare::Gt => ">",
            Compare::Ge => ">=",
            Compare::Lt => "<",
            Compare::Le => "<=",
        }
    }

    /// Parses a wire spelling.
    pub fn from_label(s: &str) -> Option<Compare> {
        match s {
            ">" => Some(Compare::Gt),
            ">=" => Some(Compare::Ge),
            "<" => Some(Compare::Lt),
            "<=" => Some(Compare::Le),
            _ => None,
        }
    }

    /// Applies the comparison.
    pub fn compare(self, value: f64, threshold: f64) -> bool {
        match self {
            Compare::Gt => value > threshold,
            Compare::Ge => value >= threshold,
            Compare::Lt => value < threshold,
            Compare::Le => value <= threshold,
        }
    }
}

/// What condition a rule watches.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertKind {
    /// Fires while `metric <op> value` holds. With `clear` set, the
    /// alert only resolves once the value fails `<op>` against `clear`
    /// instead of `value` — hysteresis for values that hover near the
    /// trigger.
    Threshold {
        /// Registry metric name (counter total, gauge value, or
        /// histogram observation count).
        metric: String,
        /// Trigger comparison.
        op: Compare,
        /// Trigger threshold.
        value: f64,
        /// Optional resolve threshold (hysteresis).
        clear: Option<f64>,
    },
    /// Fires when the metric's change per second between consecutive
    /// evaluations exceeds `max_per_sec`.
    Rate {
        /// Registry metric name.
        metric: String,
        /// Maximum tolerated change per second.
        max_per_sec: f64,
    },
    /// Fires when the gap between the metric's updates exceeds
    /// `factor ×` the median observed gap (floored at `min_gap_ms`).
    Deadman {
        /// Registry metric name whose update beat is watched.
        metric: String,
        /// Multiple of the median gap that counts as silence.
        factor: f64,
        /// Absolute floor under which a gap is never silence, in ms.
        min_gap_ms: u64,
    },
}

impl AlertKind {
    /// Wire tag (`threshold`, `rate`, `deadman`).
    pub fn kind_str(&self) -> &'static str {
        match self {
            AlertKind::Threshold { .. } => "threshold",
            AlertKind::Rate { .. } => "rate",
            AlertKind::Deadman { .. } => "deadman",
        }
    }

    /// The watched metric's registry name.
    pub fn metric(&self) -> &str {
        match self {
            AlertKind::Threshold { metric, .. }
            | AlertKind::Rate { metric, .. }
            | AlertKind::Deadman { metric, .. } => metric,
        }
    }
}

/// One alerting rule: a named, severity-tagged condition with firing
/// dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Unique rule name (`[A-Za-z0-9._-]`, embeds in labels unescaped).
    pub name: String,
    /// Urgency when firing.
    pub severity: Severity,
    /// How long the condition must hold before firing, in ms (0 fires
    /// on the first evaluation that sees it). Ignored by deadman rules,
    /// whose observed gap already *is* a duration.
    pub for_ms: u64,
    /// Minimum time a fired alert stays firing before it may resolve,
    /// in ms.
    pub hold_ms: u64,
    /// The watched condition.
    pub kind: AlertKind,
}

impl AlertRule {
    /// Checks the rule's name and metric against the charset both the
    /// registry and the label renderers assume.
    pub fn validate(&self) -> Result<(), String> {
        if !valid_name(&self.name) {
            return Err(format!(
                "rule name {:?} must be non-empty [A-Za-z0-9._-]",
                self.name
            ));
        }
        if !valid_name(self.kind.metric()) {
            return Err(format!(
                "rule {:?} metric {:?} must be non-empty [A-Za-z0-9._-]",
                self.name,
                self.kind.metric()
            ));
        }
        Ok(())
    }
}

/// One rule state transition: fired or resolved, at a caller-supplied
/// evaluation time.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Evaluation time the transition happened at, in ms.
    pub time_ms: u64,
    /// The rule's name.
    pub rule: String,
    /// `true` for fired, `false` for resolved.
    pub fired: bool,
    /// The value that drove the transition (threshold value, rate per
    /// second, or the silent gap in ms).
    pub value: f64,
}

/// A rule's current position in the firing state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RuleState {
    Ok,
    /// Condition active since `since_ms`, waiting out `for_ms`.
    Pending {
        since_ms: u64,
    },
    /// Fired at `since_ms` with `value`.
    Firing {
        since_ms: u64,
        value: f64,
    },
}

/// Per-rule mutable evaluation state.
#[derive(Debug, Clone, Default)]
struct Runtime {
    state: Option<RuleState>,
    /// Rate rules: previous `(now, value)` observation.
    last_sample: Option<(u64, f64)>,
    /// Deadman rules: `(now, marker)` of the last observed update.
    last_beat: Option<(u64, f64)>,
    /// Deadman rules: observed inter-beat gaps, for the median.
    gaps: Summary,
}

impl Runtime {
    fn state(&self) -> RuleState {
        self.state.unwrap_or(RuleState::Ok)
    }
}

/// A point-in-time view of one rule for renderers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleSnapshot<'a> {
    /// The rule definition.
    pub rule: &'a AlertRule,
    /// `"ok"`, `"pending"`, or `"firing"`.
    pub state: &'static str,
    /// When the current pending/firing state began, if not ok.
    pub since_ms: Option<u64>,
    /// The value that drove the fire, while firing.
    pub value: Option<f64>,
}

/// Deterministic rule evaluator with a bounded transition log. See the
/// [module docs](self) for the evaluation and determinism contract.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    runtimes: Vec<Runtime>,
    events: Vec<AlertEvent>,
    events_dropped: u64,
    /// Transitions since the last [`take_transitions`](Self::take_transitions)
    /// drain — the ops-log feed, independent of the retained history.
    fresh: Vec<AlertEvent>,
}

impl AlertEngine {
    /// Builds an engine over `rules`.
    ///
    /// # Panics
    ///
    /// Panics if any rule fails [`AlertRule::validate`].
    pub fn new(rules: Vec<AlertRule>) -> Self {
        for rule in &rules {
            if let Err(e) = rule.validate() {
                panic!("invalid alert rule: {e}");
            }
        }
        let runtimes = vec![Runtime::default(); rules.len()];
        AlertEngine {
            rules,
            runtimes,
            events: Vec::new(),
            events_dropped: 0,
            fresh: Vec::new(),
        }
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Evaluates every rule against `reg` at time `now_ms`. Rules whose
    /// metric is absent from the registry stay in their current state.
    pub fn eval(&mut self, reg: &MetricRegistry, now_ms: u64) {
        for i in 0..self.rules.len() {
            self.eval_rule(i, reg, now_ms);
        }
    }

    fn eval_rule(&mut self, i: usize, reg: &MetricRegistry, now: u64) {
        match &self.rules[i].kind {
            AlertKind::Threshold {
                metric,
                op,
                value,
                clear,
            } => {
                let Some(v) = metric_value(reg, metric) else {
                    return;
                };
                let (op, value, clear) = (*op, *value, *clear);
                let active = op.compare(v, value);
                let cleared = match clear {
                    Some(c) => !op.compare(v, c),
                    None => !active,
                };
                self.step_condition(i, now, active, cleared, v);
            }
            AlertKind::Rate {
                metric,
                max_per_sec,
            } => {
                let Some(v) = metric_value(reg, metric) else {
                    return;
                };
                let max_per_sec = *max_per_sec;
                let prev = self.runtimes[i].last_sample.replace((now, v));
                let Some((t0, v0)) = prev else {
                    return;
                };
                if now <= t0 {
                    return;
                }
                let rate = (v - v0) / ((now - t0) as f64 / 1000.0);
                let active = rate > max_per_sec;
                self.step_condition(i, now, active, !active, rate);
            }
            AlertKind::Deadman {
                metric,
                factor,
                min_gap_ms,
            } => {
                let Some(marker) = metric_marker(reg, metric) else {
                    return;
                };
                let (factor, min_gap_ms) = (*factor, *min_gap_ms);
                let rt = &mut self.runtimes[i];
                let Some((t_last, m_last)) = rt.last_beat else {
                    rt.last_beat = Some((now, marker));
                    return;
                };
                let silence_over = |gaps: &Summary, gap: f64| {
                    gaps.count() >= DEADMAN_MIN_GAPS
                        && gap > (factor * gaps.median()).max(min_gap_ms as f64)
                };
                if marker != m_last {
                    let gap = now.saturating_sub(t_last) as f64;
                    let late = silence_over(&rt.gaps, gap);
                    rt.gaps.push(gap);
                    rt.last_beat = Some((now, marker));
                    if late {
                        self.fire(i, now, gap);
                    } else {
                        self.try_resolve(i, now, gap);
                    }
                } else {
                    // No update since the last evaluation — mid-silence.
                    let silent = now.saturating_sub(t_last) as f64;
                    if silence_over(&rt.gaps, silent) {
                        self.fire(i, now, silent);
                    }
                }
            }
        }
    }

    /// Shared pending/firing machinery for threshold and rate rules.
    fn step_condition(&mut self, i: usize, now: u64, active: bool, cleared: bool, value: f64) {
        let for_ms = self.rules[i].for_ms;
        match self.runtimes[i].state() {
            RuleState::Ok => {
                if active {
                    if for_ms == 0 {
                        self.fire(i, now, value);
                    } else {
                        self.runtimes[i].state = Some(RuleState::Pending { since_ms: now });
                    }
                }
            }
            RuleState::Pending { since_ms } => {
                if !active {
                    self.runtimes[i].state = Some(RuleState::Ok);
                } else if now.saturating_sub(since_ms) >= for_ms {
                    self.fire(i, now, value);
                }
            }
            RuleState::Firing { .. } => {
                if cleared {
                    self.try_resolve(i, now, value);
                }
            }
        }
    }

    /// Moves rule `i` to firing, recording the transition (no-op while
    /// already firing).
    fn fire(&mut self, i: usize, now: u64, value: f64) {
        if matches!(self.runtimes[i].state(), RuleState::Firing { .. }) {
            return;
        }
        self.runtimes[i].state = Some(RuleState::Firing {
            since_ms: now,
            value,
        });
        self.record(i, now, true, value);
    }

    /// Resolves rule `i` if it is firing and its hold time has passed.
    fn try_resolve(&mut self, i: usize, now: u64, value: f64) {
        let RuleState::Firing { since_ms, .. } = self.runtimes[i].state() else {
            return;
        };
        if now.saturating_sub(since_ms) < self.rules[i].hold_ms {
            return;
        }
        self.runtimes[i].state = Some(RuleState::Ok);
        self.record(i, now, false, value);
    }

    fn record(&mut self, i: usize, now: u64, fired: bool, value: f64) {
        let event = AlertEvent {
            time_ms: now,
            rule: self.rules[i].name.clone(),
            fired,
            value,
        };
        if self.events.len() < EVENT_CAP {
            self.events.push(event.clone());
        } else {
            self.events_dropped += 1;
        }
        self.fresh.push(event);
    }

    /// All retained transitions, oldest first.
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Transitions beyond the retained-event cap.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Drains the transitions recorded since the previous drain —
    /// the feed a caller forwards to its ops log. The retained history
    /// in [`events`](Self::events) is unaffected.
    pub fn take_transitions(&mut self) -> Vec<AlertEvent> {
        std::mem::take(&mut self.fresh)
    }

    /// How many rules are currently firing.
    pub fn firing_count(&self) -> usize {
        self.runtimes
            .iter()
            .filter(|rt| matches!(rt.state(), RuleState::Firing { .. }))
            .count()
    }

    /// Serializes the engine's mutable state — per-rule runtime
    /// machinery, the retained transition log, and any not-yet-drained
    /// fresh transitions — keyed by rule name for structural
    /// validation on restore. Rule definitions themselves are
    /// configuration and are rebuilt by the caller.
    pub fn snapshot_json(&self) -> String {
        use crate::jsonio::write_f64;
        use std::fmt::Write as _;
        let write_events = |out: &mut String, events: &[AlertEvent]| {
            out.push('[');
            for (i, ev) in events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"t\":{},\"rule\":\"{}\",\"fired\":{},\"value\":",
                    ev.time_ms,
                    ev.rule,
                    u8::from(ev.fired)
                );
                write_f64(out, ev.value);
                out.push('}');
            }
            out.push(']');
        };
        let mut out = String::from("{\"rules\":[");
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", rule.name);
        }
        out.push_str("],\"runtimes\":[");
        for (i, rt) in self.runtimes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match rt.state() {
                RuleState::Ok => out.push_str("{\"state\":\"ok\""),
                RuleState::Pending { since_ms } => {
                    let _ = write!(out, "{{\"state\":\"pending\",\"since\":{since_ms}");
                }
                RuleState::Firing { since_ms, value } => {
                    let _ = write!(
                        out,
                        "{{\"state\":\"firing\",\"since\":{since_ms},\"value\":"
                    );
                    write_f64(&mut out, value);
                }
            }
            if let Some((t, v)) = rt.last_sample {
                let _ = write!(out, ",\"last_sample\":[{t},");
                write_f64(&mut out, v);
                out.push(']');
            }
            if let Some((t, v)) = rt.last_beat {
                let _ = write!(out, ",\"last_beat\":[{t},");
                write_f64(&mut out, v);
                out.push(']');
            }
            out.push_str(",\"gaps\":");
            out.push_str(&rt.gaps.snapshot_json());
            out.push('}');
        }
        out.push_str("],\"events\":");
        write_events(&mut out, &self.events);
        let _ = write!(
            out,
            ",\"events_dropped\":{},\"fresh\":",
            self.events_dropped
        );
        write_events(&mut out, &self.fresh);
        out.push('}');
        out
    }

    /// Restores mutable state from a [`snapshot_json`](Self::snapshot_json)
    /// document into an engine built over the same rules (names are
    /// validated in order).
    pub fn restore_snapshot(&mut self, value: &Json) -> Result<(), String> {
        let read_events = |items: &[Json], what: &str| -> Result<Vec<AlertEvent>, String> {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let obj = item.as_object(&format!("{what}[{i}]"))?;
                    Ok(AlertEvent {
                        time_ms: obj.u64_field("t")?,
                        rule: obj.str_field("rule")?.to_string(),
                        fired: obj.u64_field("fired")? != 0,
                        value: obj.f64_field_lossy("value")?,
                    })
                })
                .collect()
        };
        let obj = value.as_object("alert engine snapshot")?;
        let names = obj.arr_field("rules")?;
        if names.len() != self.rules.len() {
            return Err(format!(
                "engine has {} rules, snapshot has {}",
                self.rules.len(),
                names.len()
            ));
        }
        for (rule, name) in self.rules.iter().zip(names) {
            let name = match name {
                Json::Str(s) => s.as_str(),
                _ => return Err("rule names must be strings".to_string()),
            };
            if name != rule.name {
                return Err(format!(
                    "rule name mismatch: snapshot has {name:?}, engine has {:?}",
                    rule.name
                ));
            }
        }
        let runtimes = obj.arr_field("runtimes")?;
        if runtimes.len() != self.rules.len() {
            return Err("runtime count must match rule count".to_string());
        }
        let mut restored = Vec::with_capacity(runtimes.len());
        for (i, item) in runtimes.iter().enumerate() {
            let robj = item.as_object(&format!("runtime[{i}]"))?;
            let state = match robj.str_field("state")? {
                "ok" => RuleState::Ok,
                "pending" => RuleState::Pending {
                    since_ms: robj.u64_field("since")?,
                },
                "firing" => RuleState::Firing {
                    since_ms: robj.u64_field("since")?,
                    value: robj.f64_field_lossy("value")?,
                },
                other => return Err(format!("unknown rule state {other:?}")),
            };
            let pair = |key: &str| -> Result<Option<(u64, f64)>, String> {
                match robj.opt_field(key) {
                    None => Ok(None),
                    Some(v) => {
                        let arr = v.as_array(&format!("runtime {key}"))?;
                        if arr.len() != 2 {
                            return Err(format!("runtime {key} must be a [t, value] pair"));
                        }
                        Ok(Some((
                            arr[0].as_u64(&format!("{key} time"))?,
                            arr[1].as_f64(&format!("{key} value"))?,
                        )))
                    }
                }
            };
            restored.push(Runtime {
                state: Some(state),
                last_sample: pair("last_sample")?,
                last_beat: pair("last_beat")?,
                gaps: Summary::from_snapshot(robj.field("gaps")?)?,
            });
        }
        self.runtimes = restored;
        self.events = read_events(obj.arr_field("events")?, "events")?;
        self.events_dropped = obj.u64_field("events_dropped")?;
        self.fresh = read_events(obj.arr_field("fresh")?, "fresh")?;
        Ok(())
    }

    /// Point-in-time state of every rule, in rule order.
    pub fn snapshots(&self) -> Vec<RuleSnapshot<'_>> {
        self.rules
            .iter()
            .zip(&self.runtimes)
            .map(|(rule, rt)| match rt.state() {
                RuleState::Ok => RuleSnapshot {
                    rule,
                    state: "ok",
                    since_ms: None,
                    value: None,
                },
                RuleState::Pending { since_ms } => RuleSnapshot {
                    rule,
                    state: "pending",
                    since_ms: Some(since_ms),
                    value: None,
                },
                RuleState::Firing { since_ms, value } => RuleSnapshot {
                    rule,
                    state: "firing",
                    since_ms: Some(since_ms),
                    value: Some(value),
                },
            })
            .collect()
    }
}

/// The value a threshold/rate rule reads: a counter's total, a gauge's
/// last value, or a histogram's observation count.
fn metric_value(reg: &MetricRegistry, name: &str) -> Option<f64> {
    let id = reg.id(name)?;
    Some(match reg.kind(id) {
        MetricKind::Counter => reg.counter(id) as f64,
        MetricKind::Gauge => reg.gauge(id),
        MetricKind::Histogram => reg.stats(id).count() as f64,
    })
}

/// The update marker a deadman rule watches: any change means the
/// metric was touched since the last evaluation.
fn metric_marker(reg: &MetricRegistry, name: &str) -> Option<f64> {
    let id = reg.id(name)?;
    Some(match reg.kind(id) {
        MetricKind::Counter => reg.counter(id) as f64,
        MetricKind::Gauge | MetricKind::Histogram => reg.stats(id).count() as f64,
    })
}

/// Parses a rules document:
/// `{"rules":[{"name":...,"severity":...,"kind":...,...}]}`. Kind
/// fields: `threshold` takes `metric`, `op`, `value`, optional
/// `clear`; `rate` takes `metric`, `max_per_sec`; `deadman` takes
/// `metric`, `factor`, `min_gap_ms`. Every rule accepts optional
/// `for_ms` and `hold_ms` (default 0).
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, String> {
    let doc = JsonParser::parse_document(text)?;
    let doc = doc.as_object("rules document")?;
    let mut rules = Vec::new();
    for (idx, item) in doc.arr_field("rules")?.iter().enumerate() {
        let obj = item.as_object(&format!("rule #{idx}"))?;
        let name = obj.str_field("name")?.to_string();
        let severity = obj
            .str_field("severity")
            .ok()
            .map_or(Ok(Severity::Warn), |s| {
                Severity::from_label(s)
                    .ok_or_else(|| format!("rule {name:?}: unknown severity {s:?}"))
            })?;
        let metric = obj.str_field("metric")?.to_string();
        let kind = match obj.str_field("kind")? {
            "threshold" => AlertKind::Threshold {
                metric,
                op: {
                    let op = obj.str_field("op")?;
                    Compare::from_label(op)
                        .ok_or_else(|| format!("rule {name:?}: unknown op {op:?}"))?
                },
                value: obj.f64_field("value")?,
                clear: match obj.field("clear") {
                    Ok(Json::Num(n)) => Some(*n),
                    Ok(_) => return Err(format!("rule {name:?}: clear must be a number")),
                    Err(_) => None,
                },
            },
            "rate" => AlertKind::Rate {
                metric,
                max_per_sec: obj.f64_field("max_per_sec")?,
            },
            "deadman" => AlertKind::Deadman {
                metric,
                factor: obj.f64_field("factor")?,
                min_gap_ms: obj.u64_field("min_gap_ms")?,
            },
            other => return Err(format!("rule {name:?}: unknown kind {other:?}")),
        };
        let rule = AlertRule {
            name,
            severity,
            for_ms: obj.u64_field("for_ms").unwrap_or(0),
            hold_ms: obj.u64_field("hold_ms").unwrap_or(0),
            kind,
        };
        rule.validate()?;
        rules.push(rule);
    }
    Ok(rules)
}

/// Renders rules back to the document [`parse_rules`] reads — the
/// scaffold `padsimd serve --alerts` consumes, and a round-trip check.
pub fn render_rules_json(rules: &[AlertRule]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"rules\":[");
    for (i, rule) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"severity\":\"{}\",\"kind\":\"{}\",\"metric\":\"{}\"",
            rule.name,
            rule.severity.as_str(),
            rule.kind.kind_str(),
            rule.kind.metric()
        );
        match &rule.kind {
            AlertKind::Threshold {
                op, value, clear, ..
            } => {
                let _ = write!(out, ",\"op\":\"{}\",\"value\":{}", op.as_str(), value);
                if let Some(clear) = clear {
                    let _ = write!(out, ",\"clear\":{clear}");
                }
            }
            AlertKind::Rate { max_per_sec, .. } => {
                let _ = write!(out, ",\"max_per_sec\":{max_per_sec}");
            }
            AlertKind::Deadman {
                factor, min_gap_ms, ..
            } => {
                let _ = write!(out, ",\"factor\":{factor},\"min_gap_ms\":{min_gap_ms}");
            }
        }
        let _ = write!(
            out,
            ",\"for_ms\":{},\"hold_ms\":{}}}",
            rule.for_ms, rule.hold_ms
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Renders an engine's full state as the newline-terminated `/alerts`
/// JSON document: every rule with its current state, the firing count,
/// and the retained transition log. Field order is fixed and values
/// use `f64`/integer `Display`, so identical evaluations render
/// byte-identically.
pub fn render_alerts_json(engine: &AlertEngine) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"rules\":[");
    for (i, snap) in engine.snapshots().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"kind\":\"{}\",\"metric\":\"{}\",\"severity\":\"{}\",\"state\":\"{}\"",
            snap.rule.name,
            snap.rule.kind.kind_str(),
            snap.rule.kind.metric(),
            snap.rule.severity.as_str(),
            snap.state
        );
        match snap.since_ms {
            Some(since) => {
                let _ = write!(out, ",\"since_ms\":{since}");
            }
            None => out.push_str(",\"since_ms\":null"),
        }
        match snap.value {
            Some(value) => {
                let _ = write!(out, ",\"value\":{value}");
            }
            None => out.push_str(",\"value\":null"),
        }
        out.push('}');
    }
    if !engine.rules().is_empty() {
        out.push('\n');
    }
    let _ = write!(out, "],\"firing\":{},\"events\":[", engine.firing_count());
    for (i, ev) in engine.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"t\":{},\"rule\":\"{}\",\"event\":\"{}\",\"value\":{}}}",
            ev.time_ms,
            ev.rule,
            if ev.fired { "fired" } else { "resolved" },
            ev.value
        );
    }
    if !engine.events().is_empty() {
        out.push('\n');
    }
    let _ = writeln!(out, "],\"events_dropped\":{}}}", engine.events_dropped());
    out
}

/// Renders active (pending or firing) alerts across engines as a
/// Prometheus `ALERTS{...}` gauge family — the convention Prometheus
/// itself uses for alert state. One HELP/TYPE block, then one series
/// per active rule per instance, tagged with that instance's label
/// block (empty for an unlabeled singleton).
pub fn render_alerts_prom(instances: &[(&str, &AlertEngine)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("# HELP ALERTS active alerts by rule\n# TYPE ALERTS gauge\n");
    for (label, engine) in instances {
        for snap in engine.snapshots() {
            if snap.state == "ok" {
                continue;
            }
            let sep = if label.is_empty() { "" } else { "," };
            let _ = writeln!(
                out,
                "ALERTS{{alertname=\"{}\",severity=\"{}\",alertstate=\"{}\"{sep}{label}}} 1",
                snap.rule.name,
                snap.rule.severity.as_str(),
                snap.state
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with_gauge(value: f64) -> (MetricRegistry, crate::telemetry::MetricId) {
        let mut reg = MetricRegistry::new();
        let id = reg.register_gauge("policy.level");
        reg.set_gauge(id, value);
        (reg, id)
    }

    fn threshold_rule(for_ms: u64, hold_ms: u64, clear: Option<f64>) -> AlertRule {
        AlertRule {
            name: "level-high".to_string(),
            severity: Severity::Page,
            for_ms,
            hold_ms,
            kind: AlertKind::Threshold {
                metric: "policy.level".to_string(),
                op: Compare::Ge,
                value: 3.0,
                clear,
            },
        }
    }

    #[test]
    fn threshold_fires_and_resolves() {
        let (mut reg, id) = reg_with_gauge(1.0);
        let mut engine = AlertEngine::new(vec![threshold_rule(0, 0, None)]);
        engine.eval(&reg, 100);
        assert_eq!(engine.firing_count(), 0);
        reg.set_gauge(id, 3.0);
        engine.eval(&reg, 200);
        assert_eq!(engine.firing_count(), 1);
        assert_eq!(engine.snapshots()[0].state, "firing");
        reg.set_gauge(id, 1.0);
        engine.eval(&reg, 300);
        assert_eq!(engine.firing_count(), 0);
        let events = engine.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].fired && !events[1].fired);
        assert_eq!(events[0].time_ms, 200);
        assert_eq!(events[1].time_ms, 300);
    }

    #[test]
    fn for_duration_requires_persistence() {
        let (mut reg, id) = reg_with_gauge(3.0);
        let mut engine = AlertEngine::new(vec![threshold_rule(500, 0, None)]);
        engine.eval(&reg, 0);
        assert_eq!(engine.snapshots()[0].state, "pending");
        // A dip back below the trigger resets the pending clock.
        reg.set_gauge(id, 1.0);
        engine.eval(&reg, 400);
        assert_eq!(engine.snapshots()[0].state, "ok");
        reg.set_gauge(id, 3.0);
        engine.eval(&reg, 500);
        engine.eval(&reg, 900);
        assert_eq!(engine.snapshots()[0].state, "pending", "only 400ms held");
        engine.eval(&reg, 1000);
        assert_eq!(engine.snapshots()[0].state, "firing");
        assert_eq!(engine.events()[0].time_ms, 1000);
    }

    #[test]
    fn hysteresis_resolves_at_clear_not_trigger() {
        let (mut reg, id) = reg_with_gauge(3.0);
        let mut engine = AlertEngine::new(vec![threshold_rule(0, 0, Some(2.0))]);
        engine.eval(&reg, 0);
        assert_eq!(engine.firing_count(), 1);
        // Below the trigger but still at/above clear: stays firing.
        reg.set_gauge(id, 2.5);
        engine.eval(&reg, 100);
        assert_eq!(engine.firing_count(), 1, "hovering must not flap");
        reg.set_gauge(id, 1.0);
        engine.eval(&reg, 200);
        assert_eq!(engine.firing_count(), 0);
    }

    #[test]
    fn hold_keeps_an_alert_firing() {
        let (mut reg, id) = reg_with_gauge(3.0);
        let mut engine = AlertEngine::new(vec![threshold_rule(0, 1000, None)]);
        engine.eval(&reg, 0);
        reg.set_gauge(id, 1.0);
        engine.eval(&reg, 500);
        assert_eq!(engine.firing_count(), 1, "hold_ms not yet served");
        engine.eval(&reg, 1000);
        assert_eq!(engine.firing_count(), 0);
    }

    #[test]
    fn rate_rule_watches_counter_slope() {
        let mut reg = MetricRegistry::new();
        let c = reg.register_counter("ingest.parse_errors_total");
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "errors".to_string(),
            severity: Severity::Warn,
            for_ms: 0,
            hold_ms: 0,
            kind: AlertKind::Rate {
                metric: "ingest.parse_errors_total".to_string(),
                max_per_sec: 1.0,
            },
        }]);
        engine.eval(&reg, 0);
        reg.inc(c, 1); // 1 error over 1s = 1.0/s, at the limit
        engine.eval(&reg, 1000);
        assert_eq!(engine.firing_count(), 0);
        reg.inc(c, 5); // 5 errors over 1s
        engine.eval(&reg, 2000);
        assert_eq!(engine.firing_count(), 1);
        assert_eq!(engine.events()[0].value, 5.0);
        engine.eval(&reg, 3000); // no new errors
        assert_eq!(engine.firing_count(), 0);
    }

    fn deadman_rule(hold_ms: u64) -> AlertRule {
        AlertRule {
            name: "silent".to_string(),
            severity: Severity::Page,
            for_ms: 0,
            hold_ms,
            kind: AlertKind::Deadman {
                metric: "ingest.ticks_total".to_string(),
                factor: 3.0,
                min_gap_ms: 150,
            },
        }
    }

    #[test]
    fn deadman_fires_retroactively_after_a_gap() {
        let mut reg = MetricRegistry::new();
        let c = reg.register_counter("ingest.ticks_total");
        let mut engine = AlertEngine::new(vec![deadman_rule(0)]);
        // A steady 100ms beat arms the median.
        let mut t = 0;
        for _ in 0..6 {
            reg.inc(c, 1);
            engine.eval(&reg, t);
            t += 100;
        }
        assert_eq!(engine.firing_count(), 0);
        // Silence: the next beat lands 2000ms after the previous one.
        reg.inc(c, 1);
        engine.eval(&reg, 2500);
        assert_eq!(engine.firing_count(), 1);
        let fired = &engine.events()[0];
        assert!(fired.fired);
        assert_eq!(fired.time_ms, 2500);
        assert_eq!(fired.value, 2000.0);
        // The next on-time beat resolves it.
        reg.inc(c, 1);
        engine.eval(&reg, 2600);
        assert_eq!(engine.firing_count(), 0);
    }

    #[test]
    fn deadman_needs_enough_gaps_to_arm() {
        let mut reg = MetricRegistry::new();
        let c = reg.register_counter("ingest.ticks_total");
        let mut engine = AlertEngine::new(vec![deadman_rule(0)]);
        reg.inc(c, 1);
        engine.eval(&reg, 0);
        reg.inc(c, 1);
        engine.eval(&reg, 100);
        // A huge gap with only one observed gap: not armed, no fire.
        reg.inc(c, 1);
        engine.eval(&reg, 60_000);
        assert_eq!(engine.firing_count(), 0);
    }

    #[test]
    fn deadman_sees_mid_silence_at_evaluation_time() {
        let mut reg = MetricRegistry::new();
        let c = reg.register_counter("ingest.ticks_total");
        let g = reg.register_gauge("other");
        let mut engine = AlertEngine::new(vec![deadman_rule(0)]);
        let mut t = 0;
        for _ in 0..6 {
            reg.inc(c, 1);
            engine.eval(&reg, t);
            t += 100;
        }
        // The beat stops but something else drives evaluations.
        reg.set_gauge(g, 1.0);
        engine.eval(&reg, 5000);
        assert_eq!(engine.firing_count(), 1, "silence visible without a resume");
    }

    #[test]
    fn missing_metric_leaves_rules_ok() {
        let reg = MetricRegistry::new();
        let mut engine = AlertEngine::new(vec![threshold_rule(0, 0, None), deadman_rule(0)]);
        engine.eval(&reg, 100);
        assert_eq!(engine.firing_count(), 0);
        assert!(engine.events().is_empty());
    }

    #[test]
    fn identical_histories_render_identical_documents() {
        let run = || {
            let (mut reg, id) = reg_with_gauge(1.0);
            let mut engine = AlertEngine::new(vec![threshold_rule(0, 0, Some(2.0))]);
            for (t, v) in [(0, 1.0), (100, 3.5), (200, 2.5), (300, 0.5), (400, 4.0)] {
                reg.set_gauge(id, v);
                engine.eval(&reg, t);
            }
            render_alerts_json(&engine)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "two identical runs must render identically");
        assert!(a.contains("\"event\":\"fired\""));
        assert!(a.contains("\"event\":\"resolved\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn take_transitions_drains_without_touching_history() {
        let (mut reg, id) = reg_with_gauge(3.0);
        let mut engine = AlertEngine::new(vec![threshold_rule(0, 0, None)]);
        engine.eval(&reg, 0);
        let fresh = engine.take_transitions();
        assert_eq!(fresh.len(), 1);
        assert!(engine.take_transitions().is_empty(), "drained");
        assert_eq!(engine.events().len(), 1, "history retained");
        reg.set_gauge(id, 0.0);
        engine.eval(&reg, 100);
        assert_eq!(engine.take_transitions().len(), 1);
        assert_eq!(engine.events().len(), 2);
    }

    #[test]
    fn rules_json_round_trips() {
        let rules = vec![
            threshold_rule(250, 1000, Some(2.0)),
            deadman_rule(500),
            AlertRule {
                name: "err-rate".to_string(),
                severity: Severity::Info,
                for_ms: 0,
                hold_ms: 0,
                kind: AlertKind::Rate {
                    metric: "ingest.parse_errors_total".to_string(),
                    max_per_sec: 2.5,
                },
            },
        ];
        let text = render_rules_json(&rules);
        assert_eq!(parse_rules(&text).unwrap(), rules);
    }

    #[test]
    fn parse_rules_rejects_bad_documents() {
        assert!(parse_rules("{}").is_err(), "missing rules array");
        assert!(
            parse_rules("{\"rules\":[{\"name\":\"x\"}]}").is_err(),
            "missing kind"
        );
        let bad_kind = "{\"rules\":[{\"name\":\"x\",\"kind\":\"magic\",\"metric\":\"m\"}]}";
        assert!(parse_rules(bad_kind).unwrap_err().contains("unknown kind"));
        let bad_name =
            "{\"rules\":[{\"name\":\"has space\",\"kind\":\"rate\",\"metric\":\"m\",\"max_per_sec\":1}]}";
        assert!(parse_rules(bad_name).unwrap_err().contains("A-Za-z0-9"));
        let bad_sev =
            "{\"rules\":[{\"name\":\"x\",\"severity\":\"shrug\",\"kind\":\"rate\",\"metric\":\"m\",\"max_per_sec\":1}]}";
        assert!(parse_rules(bad_sev).unwrap_err().contains("severity"));
    }

    #[test]
    fn engine_snapshot_round_trips_mid_history() {
        let rules = || {
            vec![
                threshold_rule(0, 0, Some(2.0)),
                deadman_rule(0),
                AlertRule {
                    name: "err-rate".to_string(),
                    severity: Severity::Info,
                    for_ms: 0,
                    hold_ms: 0,
                    kind: AlertKind::Rate {
                        metric: "ingest.ticks_total".to_string(),
                        max_per_sec: 50.0,
                    },
                },
            ]
        };
        let mut reg = MetricRegistry::new();
        let level = reg.register_gauge("policy.level");
        let ticks = reg.register_counter("ingest.ticks_total");
        let drive =
            |engine: &mut AlertEngine, reg: &mut MetricRegistry, range: std::ops::Range<u64>| {
                for i in range {
                    reg.set_gauge(level, if i % 7 == 3 { 3.5 } else { 1.0 });
                    reg.inc(ticks, if i % 11 == 5 { 200 } else { 1 });
                    engine.eval(reg, i * 100);
                }
            };

        let mut full = AlertEngine::new(rules());
        let mut full_reg = MetricRegistry::new();
        let fl = full_reg.register_gauge("policy.level");
        let ft = full_reg.register_counter("ingest.ticks_total");
        assert_eq!((fl, ft), (level, ticks));
        drive(&mut full, &mut full_reg, 0..40);

        let mut first = AlertEngine::new(rules());
        drive(&mut first, &mut reg, 0..23);
        let doc = JsonParser::parse_document(&first.snapshot_json()).unwrap();
        let mut resumed = AlertEngine::new(rules());
        resumed.restore_snapshot(&doc).unwrap();
        drive(&mut resumed, &mut reg, 23..40);

        assert!(
            !full.events().is_empty(),
            "the drive must produce transitions"
        );
        assert_eq!(render_alerts_json(&resumed), render_alerts_json(&full));
        assert_eq!(
            resumed.take_transitions().len(),
            full.take_transitions().len()
        );
    }

    #[test]
    fn engine_restore_rejects_rule_drift() {
        let engine = AlertEngine::new(vec![threshold_rule(0, 0, None)]);
        let doc = JsonParser::parse_document(&engine.snapshot_json()).unwrap();
        let mut renamed = AlertEngine::new(vec![deadman_rule(0)]);
        assert!(renamed
            .restore_snapshot(&doc)
            .unwrap_err()
            .contains("mismatch"));
        let mut fewer = AlertEngine::new(vec![]);
        assert!(fewer.restore_snapshot(&doc).unwrap_err().contains("rules"));
    }

    #[test]
    fn alerts_prom_renders_active_series_only() {
        let (reg, _) = reg_with_gauge(3.0);
        let mut engine = AlertEngine::new(vec![threshold_rule(0, 0, None), deadman_rule(0)]);
        engine.eval(&reg, 0);
        let text = render_alerts_prom(&[("tenant=\"acme\"", &engine)]);
        assert!(text.starts_with("# HELP ALERTS"));
        assert!(text.contains(
            "ALERTS{alertname=\"level-high\",severity=\"page\",alertstate=\"firing\",tenant=\"acme\"} 1\n"
        ));
        assert!(
            !text.contains("alertname=\"silent\""),
            "ok rules are omitted"
        );
        let solo = render_alerts_prom(&[("", &engine)]);
        assert!(solo.contains("alertstate=\"firing\"} 1\n"));
    }
}
