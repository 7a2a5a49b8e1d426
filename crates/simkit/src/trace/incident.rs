//! Forensic incident reconstruction from a recorded span trace.
//!
//! [`IncidentReconstructor`] joins three recorded streams back into
//! causal [`Incident`] objects:
//!
//! * the **span trace** (attack phases, storage episodes, cap episodes,
//!   breaker excursions, policy residencies — with parent links),
//! * the **telemetry stream** (detector firings and policy level-change
//!   events), and
//! * optional **ground truth** (the scenario's nominal attack windows),
//!
//! answering the post-mortem questions directly: what was the root
//! cause, which racks were in the blast radius, how long until the
//! detectors fired, how long until the policy escalated, and how much
//! stored energy the defense spent.
//!
//! Reconstruction keys off span-name conventions rather than concrete
//! types so any simulator that follows them gets forensics for free:
//! incident roots are parentless spans named `attack.*`
//! ([`ATTACK_SPAN_PREFIX`]); spans named in [`STORAGE_SPANS`] carry an
//! [`ENERGY_ATTR`] attribute; per-rack spans carry a [`RACK_ATTR`]
//! attribute.

use std::collections::{BTreeMap, BTreeSet};

use crate::telemetry::codec::ParsedRecord;
use crate::time::SimTime;
use crate::trace::codec::ParsedSpan;

/// Span-name prefix marking incident root causes.
pub const ATTACK_SPAN_PREFIX: &str = "attack.";
/// Spans that spend stored energy; they carry an [`ENERGY_ATTR`].
pub const STORAGE_SPANS: [&str; 2] = ["batt.discharge", "udeb.shave"];
/// Per-rack defense/symptom episodes counted into the blast radius.
pub const DEFENSE_SPANS: [&str; 4] = [
    "batt.discharge",
    "udeb.shave",
    "cap.engage",
    "breaker.excursion",
];
/// Attribute key naming the rack a span describes.
pub const RACK_ATTR: &str = "rack";
/// Attribute key carrying an episode's shed energy in joules.
pub const ENERGY_ATTR: &str = "energy_j";
/// Telemetry event kind for fused detector firings.
pub const DETECTOR_FIRED_EVENT: &str = "detector_fired";
/// Telemetry event kind for policy level changes (value = new level).
pub const LEVEL_CHANGE_EVENT: &str = "level_change";

/// Ground-truth attack windows in wire units (milliseconds), decoupled
/// from any attack-model crate. Producers convert their scenario types
/// into this (e.g. `AttackWindows::to_ground_truth` in the attack
/// crate).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroundTruth {
    /// The Phase-I drain window `[start, end)`, if any.
    pub drain: Option<(u64, u64)>,
    /// Phase-II spike windows `[start, end)`, in time order.
    pub spikes: Vec<(u64, u64)>,
}

impl GroundTruth {
    /// When the attack nominally began: the drain start, or the first
    /// spike start for drain-less scenarios.
    pub fn attack_start_ms(&self) -> Option<u64> {
        self.drain
            .map(|(s, _)| s)
            .or_else(|| self.spikes.first().map(|&(s, _)| s))
    }
}

/// One reconstructed incident: a causal span tree rooted at an attack
/// span, joined with the detection/policy record.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Root-cause span id.
    pub root_id: u64,
    /// Root-cause span name (e.g. `attack.drain`).
    pub root_name: String,
    /// Incident window start (earliest member span open), ms.
    pub start_ms: u64,
    /// Incident window end (latest member span close), ms.
    pub end_ms: u64,
    /// Ids of every span in the causal tree, ascending.
    pub span_ids: Vec<u64>,
    /// Racks touched: member spans' racks plus defense episodes
    /// overlapping the window, ascending.
    pub blast_racks: Vec<u64>,
    /// Fused detector firings inside the incident window.
    pub detector_firings: u64,
    /// First detector firing after the incident opened, relative to the
    /// incident start. `None` when nothing fired.
    pub time_to_detect_ms: Option<u64>,
    /// First detector firing after the *ground-truth* attack start,
    /// relative to that start. `None` without ground truth or firings.
    pub detect_lag_vs_truth_ms: Option<u64>,
    /// First policy escalation to L2+ after the incident opened,
    /// relative to the incident start. `None` when the policy never
    /// escalated.
    pub time_to_escalate_ms: Option<u64>,
    /// Stored energy (battery + µDEB) spent by episodes belonging to or
    /// overlapping the incident, in joules.
    pub shed_energy_j: f64,
}

/// Joins a parsed span trace with telemetry and ground truth into
/// [`Incident`]s.
///
/// # Example
///
/// ```
/// use simkit::telemetry::Format;
/// use simkit::trace::{parse_spans, IncidentReconstructor};
///
/// let trace = "{\"id\":0,\"name\":\"attack.drain\",\"parent\":null,\"t0\":0,\"t1\":10,\"attrs\":{\"rack\":1}}\n\
///              {\"id\":1,\"name\":\"attack.spike\",\"parent\":0,\"t0\":10,\"t1\":20,\"attrs\":{\"rack\":1}}\n";
/// let spans = parse_spans(trace, Format::Jsonl).unwrap();
/// let incidents = IncidentReconstructor::new(&spans).reconstruct();
/// assert_eq!(incidents.len(), 1);
/// assert_eq!(incidents[0].span_ids, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct IncidentReconstructor<'a> {
    spans: &'a [ParsedSpan],
    telemetry: &'a [ParsedRecord<'a>],
    truth: Option<&'a GroundTruth>,
}

impl<'a> IncidentReconstructor<'a> {
    /// Starts a reconstruction over a parsed span trace.
    pub fn new(spans: &'a [ParsedSpan]) -> Self {
        IncidentReconstructor {
            spans,
            telemetry: &[],
            truth: None,
        }
    }

    /// Joins the parsed telemetry stream (detector firings, level
    /// changes).
    pub fn with_telemetry(mut self, records: &'a [ParsedRecord<'a>]) -> Self {
        self.telemetry = records;
        self
    }

    /// Joins scenario ground truth for detection-lag scoring.
    pub fn with_ground_truth(mut self, truth: &'a GroundTruth) -> Self {
        self.truth = truth.into();
        self
    }

    /// Builds incidents: one per parentless `attack.*` span, in
    /// `(start, id)` order.
    pub fn reconstruct(&self) -> Vec<Incident> {
        let by_id: BTreeMap<u64, &ParsedSpan> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for span in self.spans {
            // A parent evicted from the ring makes its children roots of
            // their own (partial) trees; only known parents link.
            if let Some(p) = span.parent.filter(|p| by_id.contains_key(p)) {
                children.entry(p).or_default().push(span.id);
            }
        }
        let mut roots: Vec<&ParsedSpan> = self
            .spans
            .iter()
            .filter(|s| {
                s.name.starts_with(ATTACK_SPAN_PREFIX)
                    && s.parent.filter(|p| by_id.contains_key(p)).is_none()
            })
            .collect();
        roots.sort_by_key(|s| (s.start_ms, s.id));
        roots
            .into_iter()
            .map(|root| self.build_incident(root, &by_id, &children))
            .collect()
    }

    fn build_incident(
        &self,
        root: &ParsedSpan,
        by_id: &BTreeMap<u64, &ParsedSpan>,
        children: &BTreeMap<u64, Vec<u64>>,
    ) -> Incident {
        // Collect the causal tree (DFS; children were pushed in span
        // order, which is deterministic).
        let mut members: Vec<u64> = Vec::new();
        let mut stack = vec![root.id];
        while let Some(id) = stack.pop() {
            members.push(id);
            if let Some(kids) = children.get(&id) {
                stack.extend(kids.iter().rev());
            }
        }
        members.sort_unstable();
        let member_set: BTreeSet<u64> = members.iter().copied().collect();
        let mut start_ms = root.start_ms;
        let mut end_ms = root.end_ms;
        for &id in &members {
            let s = by_id[&id];
            start_ms = start_ms.min(s.start_ms);
            end_ms = end_ms.max(s.end_ms);
        }

        let overlaps = |s: &ParsedSpan| -> bool { s.start_ms < end_ms && s.end_ms > start_ms };
        let mut blast_racks: BTreeSet<u64> = BTreeSet::new();
        let mut shed_energy_j = 0.0;
        for span in self.spans {
            let member = member_set.contains(&span.id);
            let defense_overlap = DEFENSE_SPANS.contains(&span.name.as_str()) && overlaps(span);
            if member || defense_overlap {
                if let Some(rack) = span.attr(RACK_ATTR) {
                    blast_racks.insert(rack as u64);
                }
                if STORAGE_SPANS.contains(&span.name.as_str()) {
                    shed_energy_j += span.attr(ENERGY_ATTR).unwrap_or(0.0);
                }
            }
        }
        // Overload/trip telemetry widens the blast radius to racks the
        // span trace may have missed (e.g. a ring-evicted episode).
        for r in self.telemetry {
            if r.is_event
                && (r.name == "overload" || r.name == "breaker_trip")
                && r.time_ms >= start_ms
                && r.time_ms <= end_ms
            {
                if let Some(num) = r.source.strip_prefix("rack-") {
                    if let Ok(rack) = num.parse::<u64>() {
                        blast_racks.insert(rack);
                    }
                }
            }
        }

        let firings: Vec<u64> = self
            .telemetry
            .iter()
            .filter(|r| r.is_event && r.name == DETECTOR_FIRED_EVENT)
            .map(|r| r.time_ms)
            .collect();
        let detector_firings = firings
            .iter()
            .filter(|&&t| t >= start_ms && t <= end_ms)
            .count() as u64;
        let time_to_detect_ms = firings
            .iter()
            .find(|&&t| t >= start_ms)
            .map(|&t| t - start_ms);
        let detect_lag_vs_truth_ms =
            self.truth
                .and_then(GroundTruth::attack_start_ms)
                .and_then(|truth_start| {
                    firings
                        .iter()
                        .find(|&&t| t >= truth_start)
                        .map(|&t| t - truth_start)
                });
        let time_to_escalate_ms = self
            .telemetry
            .iter()
            .find(|r| {
                r.is_event
                    && r.name == LEVEL_CHANGE_EVENT
                    && r.value >= 2.0
                    && r.time_ms >= start_ms
            })
            .map(|r| r.time_ms - start_ms);

        Incident {
            root_id: root.id,
            root_name: root.name.clone(),
            start_ms,
            end_ms,
            span_ids: members,
            blast_racks: blast_racks.into_iter().collect(),
            detector_firings,
            time_to_detect_ms,
            detect_lag_vs_truth_ms,
            time_to_escalate_ms,
            shed_energy_j,
        }
    }
}

fn json_opt(value: Option<u64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

impl Incident {
    /// Renders this incident as one JSON object.
    pub fn to_json(&self) -> String {
        let ids: Vec<String> = self.span_ids.iter().map(u64::to_string).collect();
        let racks: Vec<String> = self.blast_racks.iter().map(u64::to_string).collect();
        format!(
            "{{\"root_id\":{},\"root_name\":\"{}\",\"start_ms\":{},\"end_ms\":{},\
             \"span_ids\":[{}],\"blast_racks\":[{}],\"detector_firings\":{},\
             \"time_to_detect_ms\":{},\"detect_lag_vs_truth_ms\":{},\
             \"time_to_escalate_ms\":{},\"shed_energy_j\":{}}}",
            self.root_id,
            self.root_name,
            self.start_ms,
            self.end_ms,
            ids.join(","),
            racks.join(","),
            self.detector_firings,
            json_opt(self.time_to_detect_ms),
            json_opt(self.detect_lag_vs_truth_ms),
            json_opt(self.time_to_escalate_ms),
            self.shed_energy_j,
        )
    }
}

/// Renders a full incident report as JSON: `{"incidents":[...]}`.
pub fn render_report_json(incidents: &[Incident]) -> String {
    let mut out = String::from("{\"incidents\":[");
    for (i, incident) in incidents.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&incident.to_json());
    }
    if !incidents.is_empty() {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Renders the span trace as an ASCII sim-time timeline (a Gantt-style
/// view), rows in causal order (roots by start time, children indented
/// under their parents), bars scaled into `width` columns.
pub fn render_timeline(spans: &[ParsedSpan], width: usize) -> String {
    let width = width.max(10);
    if spans.is_empty() {
        return "(no spans)\n".to_string();
    }
    let t_min = spans.iter().map(|s| s.start_ms).min().unwrap_or(0);
    let t_max = spans
        .iter()
        .map(|s| s.end_ms)
        .max()
        .unwrap_or(t_min)
        .max(t_min + 1);

    // Row order: DFS over the causal forest.
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children: BTreeMap<u64, Vec<&ParsedSpan>> = BTreeMap::new();
    let mut roots: Vec<&ParsedSpan> = Vec::new();
    for span in spans {
        match span.parent.filter(|p| ids.contains(p)) {
            Some(p) => children.entry(p).or_default().push(span),
            None => roots.push(span),
        }
    }
    let sort = |v: &mut Vec<&ParsedSpan>| v.sort_by_key(|s| (s.start_ms, s.id));
    sort(&mut roots);
    children.values_mut().for_each(sort);
    let mut rows: Vec<(usize, &ParsedSpan)> = Vec::new();
    let mut stack: Vec<(usize, &ParsedSpan)> = roots.into_iter().rev().map(|s| (0, s)).collect();
    while let Some((depth, span)) = stack.pop() {
        rows.push((depth, span));
        if let Some(kids) = children.get(&span.id) {
            stack.extend(kids.iter().rev().map(|&s| (depth + 1, s)));
        }
    }

    let label = |depth: usize, span: &ParsedSpan| -> String {
        let mut text = format!("{}{}", "  ".repeat(depth), span.name);
        if let Some(rack) = span.attr(RACK_ATTR) {
            text.push_str(&format!(" (rack {})", rack as u64));
        }
        text
    };
    let label_w = rows
        .iter()
        .map(|&(d, s)| label(d, s).len())
        .max()
        .unwrap_or(0);

    let span_ms = (t_max - t_min) as f64;
    let col =
        |t: u64| -> usize { (((t - t_min) as f64 / span_ms) * width as f64).round() as usize };
    let mut out = format!(
        "sim-time {} .. {} ({} spans)\n",
        SimTime::from_millis(t_min),
        SimTime::from_millis(t_max),
        spans.len()
    );
    for (depth, span) in rows {
        let c0 = col(span.start_ms).min(width - 1);
        let c1 = col(span.end_ms).clamp(c0 + 1, width);
        let mut bar = String::with_capacity(width);
        for c in 0..width {
            bar.push(if c >= c0 && c < c1 { '=' } else { ' ' });
        }
        out.push_str(&format!(
            "{:<label_w$} |{}| {}..{}\n",
            label(depth, span),
            bar,
            SimTime::from_millis(span.start_ms),
            SimTime::from_millis(span.end_ms),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::codec::{parse, Format};
    use crate::trace::codec::parse_spans;

    fn two_phase_trace() -> Vec<ParsedSpan> {
        let text = "\
{\"id\":0,\"name\":\"attack.drain\",\"parent\":null,\"t0\":30000,\"t1\":330000,\"attrs\":{\"attack\":0,\"rack\":1,\"nodes\":4}}\n\
{\"id\":1,\"name\":\"batt.discharge\",\"parent\":0,\"t0\":31000,\"t1\":320000,\"attrs\":{\"rack\":1,\"energy_j\":5000,\"max_w\":400}}\n\
{\"id\":2,\"name\":\"cap.engage\",\"parent\":1,\"t0\":60000,\"t1\":90000,\"attrs\":{\"rack\":1,\"min_factor\":0.8}}\n\
{\"id\":3,\"name\":\"attack.spike\",\"parent\":0,\"t0\":330000,\"t1\":600000,\"attrs\":{\"attack\":0,\"rack\":1,\"nodes\":4}}\n\
{\"id\":4,\"name\":\"udeb.shave\",\"parent\":3,\"t0\":331000,\"t1\":333000,\"attrs\":{\"rack\":1,\"energy_j\":800,\"max_w\":900}}\n\
{\"id\":5,\"name\":\"batt.discharge\",\"parent\":null,\"t0\":340000,\"t1\":350000,\"attrs\":{\"rack\":2,\"energy_j\":200,\"max_w\":100}}\n";
        parse_spans(text, Format::Jsonl).unwrap()
    }

    #[test]
    fn reconstructs_the_two_phase_tree() {
        let spans = two_phase_trace();
        let incidents = IncidentReconstructor::new(&spans).reconstruct();
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(inc.root_id, 0);
        assert_eq!(inc.root_name, "attack.drain");
        assert_eq!(inc.span_ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(inc.start_ms, 30_000);
        assert_eq!(inc.end_ms, 600_000);
        // Rack 2's pooled discharge overlaps the window, so it is in the
        // blast radius and its energy counts as shed.
        assert_eq!(inc.blast_racks, vec![1, 2]);
        assert_eq!(inc.shed_energy_j, 6000.0);
        assert_eq!(inc.detector_firings, 0);
        assert_eq!(inc.time_to_detect_ms, None);
    }

    #[test]
    fn joins_telemetry_and_ground_truth() {
        let spans = two_phase_trace();
        let telemetry = parse(
            "{\"t\":331500,\"e\":\"detector_fired\",\"s\":\"detect\",\"v\":3}\n\
             {\"t\":332000,\"e\":\"level_change\",\"s\":\"policy\",\"v\":2}\n\
             {\"t\":333000,\"e\":\"overload\",\"s\":\"rack-03\",\"v\":9000}\n",
            Format::Jsonl,
        )
        .unwrap();
        let truth = GroundTruth {
            drain: Some((30_000, 330_000)),
            spikes: vec![(330_000, 332_000)],
        };
        let incidents = IncidentReconstructor::new(&spans)
            .with_telemetry(&telemetry)
            .with_ground_truth(&truth)
            .reconstruct();
        let inc = &incidents[0];
        assert_eq!(inc.time_to_detect_ms, Some(301_500));
        assert_eq!(inc.detect_lag_vs_truth_ms, Some(301_500));
        assert_eq!(inc.time_to_escalate_ms, Some(302_000));
        assert_eq!(inc.detector_firings, 1);
        assert_eq!(
            inc.blast_racks,
            vec![1, 2, 3],
            "overload widened the radius"
        );
    }

    #[test]
    fn truth_attack_start_prefers_drain() {
        let t = GroundTruth {
            drain: Some((5, 10)),
            spikes: vec![(10, 12)],
        };
        assert_eq!(t.attack_start_ms(), Some(5));
        let t = GroundTruth {
            drain: None,
            spikes: vec![(10, 12)],
        };
        assert_eq!(t.attack_start_ms(), Some(10));
        assert_eq!(GroundTruth::default().attack_start_ms(), None);
    }

    #[test]
    fn json_report_is_machine_readable() {
        let spans = two_phase_trace();
        let incidents = IncidentReconstructor::new(&spans).reconstruct();
        let json = render_report_json(&incidents);
        assert!(json.starts_with("{\"incidents\":["));
        assert!(json.contains("\"root_name\":\"attack.drain\""));
        assert!(json.contains("\"time_to_detect_ms\":null"));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(render_report_json(&[]), "{\"incidents\":[]}\n");
    }

    #[test]
    fn timeline_orders_children_under_parents() {
        let spans = two_phase_trace();
        let text = render_timeline(&spans, 40);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("sim-time"));
        assert!(lines[1].starts_with("attack.drain"));
        assert!(lines[2].starts_with("  batt.discharge (rack 1)"));
        assert!(lines[3].starts_with("    cap.engage (rack 1)"));
        assert!(lines[4].starts_with("  attack.spike"));
        // Every row has a bar.
        assert!(lines[1..].iter().all(|l| l.contains('|')));
        assert_eq!(render_timeline(&[], 40), "(no spans)\n");
    }
}
