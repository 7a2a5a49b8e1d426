//! The benchmark's metric vocabulary and the `BENCHMARK.json` checks.
//!
//! The tables here are what a run prints; `BENCHMARK.json` at the
//! repository root declares the same names with their direction and
//! regression bound. The contract test keeps the two in step.

use std::collections::BTreeMap;

use simkit::jsonio::{Json, JsonParser, ObjFields};

use crate::stats::Metric;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("rack_hours_per_s", "rack-h/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`: name,
/// unit, the end-to-end metrics a change to the layer should move, and
/// the workloads that exercise it. A layer a workload never calls
/// reports 0 over 0 samples. Rows that move nothing are validity
/// counts: a change meant only to be faster must leave them identical.
pub const PER_LAYER: [(&str, &str, &[&str], &[&str]); 43] = [
    ("trace.synth_ms", "ms", SETUP, SIMS),
    ("sim.new_ms", "ms", SETUP, SIMS),
    ("sweep.utilization", "ratio", THROUGHPUT, SWEEP),
    ("sweep.queue_wait_s", "s", THROUGHPUT, SWEEP),
    ("step.total_us", "us", THROUGHPUT, SIMS),
    ("step.faults_us", "us", THROUGHPUT, SIMS),
    ("step.attack_us", "us", THROUGHPUT, SWEEP),
    ("step.capping_us", "us", THROUGHPUT, SIMS),
    ("step.demand_us", "us", THROUGHPUT, SWEEP),
    ("step.vdeb_us", "us", THROUGHPUT, SIMS),
    ("step.battery_us", "us", THROUGHPUT, SWEEP),
    ("step.breaker_us", "us", THROUGHPUT, SIMS),
    ("step.policy_us", "us", THROUGHPUT, FORENSICS),
    ("step.telemetry_us", "us", THROUGHPUT, FORENSICS),
    ("step.clock_us", "us", THROUGHPUT, SIMS),
    (
        "codec.render_ns_per_record",
        "ns/record",
        THROUGHPUT,
        FORENSICS,
    ),
    ("codec.parse_ns_per_record", "ns/record", ALL_TIMES, PARSERS),
    (
        "pipeline.ingest_ns_per_record",
        "ns/record",
        ALL_TIMES,
        PARSERS,
    ),
    (
        "monitor.observe_ns_per_record",
        "ns/record",
        ALL_TIMES,
        PARSERS,
    ),
    ("incident.reconstruct_ms", "ms", LATENCY, FORENSICS),
    ("pipeline.samples_fed_ratio", "ratio", NONE, PARSERS),
    ("wire.classify_ns_per_line", "ns/line", ALL_TIMES, DAEMONS),
    (
        "tenant.ingest_ns_per_record",
        "ns/record",
        ALL_TIMES,
        DAEMONS,
    ),
    ("tenant.finalize_ms", "ms", LATENCY, DAEMONS),
    ("tenant.lock_wait_us_p90", "us", LATENCY, PROD),
    ("journal.append_us", "us", LATENCY, PROD),
    ("journal.base_ms", "ms", LATENCY, PROD),
    ("journal.bytes_per_record", "B/record", LATENCY, PROD),
    ("http.metrics_ms", "ms", LATENCY, PROD),
    ("report.from_records_ms", "ms", LATENCY, PROD),
    ("http.alerts_ms", "ms", LATENCY, PROD),
    (
        "transport.residual_ns_per_record",
        "ns/record",
        ALL_TIMES,
        DAEMONS,
    ),
    ("generator.lag_p99_ms", "ms", NONE, DAEMONS),
    ("sim.steps", "count", NONE, SIMS),
    ("sim.rack_seconds", "rack-s", NONE, SIMS),
    ("sim.overloads", "count", NONE, SIMS),
    ("daemon.records", "count", NONE, DAEMONS),
    ("daemon.parse_errors", "count", NONE, DAEMONS),
    ("daemon.lines_shed", "count", NONE, DAEMONS),
    ("daemon.checkpoint_frames", "count", NONE, PROD),
    ("trace.overhead_ratio", "ratio", NONE, EVERY),
    ("trace.coverage_ratio", "ratio", NONE, EVERY),
    ("trace.spans", "count", NONE, EVERY),
];

const NONE: &[&str] = &[];
const SETUP: &[&str] = &["setup_s"];
const THROUGHPUT: &[&str] = &["rack_hours_per_s"];
const LATENCY: &[&str] = &["latency_p50_ms", "latency_p90_ms"];
const ALL_TIMES: &[&str] = &["rack_hours_per_s", "latency_p50_ms", "latency_p90_ms"];
const SIMS: &[&str] = &["sim-sweep", "sim-forensics"];
const SWEEP: &[&str] = &["sim-sweep"];
const FORENSICS: &[&str] = &["sim-forensics"];
const PARSERS: &[&str] = &["sim-forensics", "daemon-ingest", "daemon-prod"];
const DAEMONS: &[&str] = &["daemon-ingest", "daemon-prod"];
const PROD: &[&str] = &["daemon-prod"];
const EVERY: &[&str] = &["sim-sweep", "sim-forensics", "daemon-ingest", "daemon-prod"];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|&(n, unit, _, _)| (n, unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"))
}

/// The end-to-end metric `name` with its declared unit.
pub fn end_to_end(name: &'static str, value: f64, samples: usize) -> Metric {
    Metric::new(name, unit_of(name), value, samples)
}

/// Per-layer values a traced run measured, emitted in table order with
/// every unmeasured layer at 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        unit_of(name);
        if value.is_finite() {
            self.0.insert(name, (value, samples));
        }
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _, _)| {
                let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Metric::new(name, unit, value, samples)
            })
            .collect()
    }
}

/// One metric row of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this program reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn metrics(obj: &[(String, Json)], key: &str, bounded: bool) -> Result<Vec<SpecMetric>, String> {
    let mut out = Vec::new();
    for (i, item) in obj.arr_field(key)?.iter().enumerate() {
        let m = item.as_object(&format!("{key}[{i}]"))?;
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        let expected: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        if keys != expected {
            return Err(format!(
                "{key}[{i}] has keys {keys:?}, expected {expected:?}"
            ));
        }
        let metric = SpecMetric {
            name: m.str_field("name")?.to_string(),
            unit: m.str_field("unit")?.to_string(),
            better: m.str_field("better")?.to_string(),
            bound: if bounded {
                Some(m.f64_field("bound")?)
            } else {
                None
            },
        };
        if !valid_name(&metric.name) || !valid_unit(&metric.unit) {
            return Err(format!("{key}[{i}]: bad name or unit"));
        }
        if metric.better != "lower" && metric.better != "higher" {
            return Err(format!("{key}[{i}]: better must be lower or higher"));
        }
        if metric.bound.is_some_and(|b| !(b > 0.0 && b <= 0.25)) {
            return Err(format!("{key}[{i}]: bound must be in (0, 0.25]"));
        }
        out.push(metric);
    }
    Ok(out)
}

/// Parses and checks `BENCHMARK.json`: its key set, name and unit
/// charsets, metric counts, bounds, and that names are used once.
pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = JsonParser::parse_document(text)?;
    let obj = doc.as_object("BENCHMARK.json")?;
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    let expected = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if keys != expected {
        return Err(format!("top-level keys {keys:?}, expected {expected:?}"));
    }
    if !(1..=60).contains(&obj.u64_field("run_seconds")?) {
        return Err("run_seconds must be 1..=60".to_string());
    }
    let mut workloads = Vec::new();
    for (i, item) in obj.arr_field("workloads")?.iter().enumerate() {
        let w = item.as_object(&format!("workloads[{i}]"))?;
        let keys: Vec<&str> = w.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["name", "why"] {
            return Err(format!("workloads[{i}] has keys {keys:?}"));
        }
        let why = w.str_field("why")?;
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workloads[{i}]: why must be one line of at most 200 characters"
            ));
        }
        workloads.push(w.str_field("name")?.to_string());
    }
    let spec = Spec {
        workloads,
        end_to_end: metrics(obj, "end_to_end", true)?,
        per_layer: metrics(obj, "per_layer", false)?,
    };
    if !(2..=8).contains(&spec.workloads.len())
        || !(1..=16).contains(&spec.end_to_end.len())
        || !(1..=128).contains(&spec.per_layer.len())
    {
        return Err("2-8 workloads, 1-16 end-to-end and 1-128 per-layer metrics".to_string());
    }
    let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    names.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
    names.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        if !valid_name(name) || !seen.insert(name) {
            return Err(format!("name {name:?} is malformed or used twice"));
        }
    }
    match spec.end_to_end.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == "lower" => Ok(spec),
        _ => Err("setup_s (unit s, better lower) is required".to_string()),
    }
}

/// `BENCHMARK.json` from the repository root, found from the working
/// directory (the benchmark runs from the root) or from this package.
pub fn load() -> Result<Spec, String> {
    let candidates = [
        std::path::PathBuf::from("BENCHMARK.json"),
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let path = candidates
        .iter()
        .find(|p| p.is_file())
        .ok_or("BENCHMARK.json not found")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}
