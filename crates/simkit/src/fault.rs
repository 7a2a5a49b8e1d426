//! Deterministic, seed-reproducible fault-injection plans.
//!
//! A [`FaultPlan`] is a named schedule of [`FaultSpec`]s — each one a
//! fault kind, a target unit, and a half-open sim-time window. Plans are
//! pure data: *what* goes wrong and *when*, with no opinion about the
//! system under test. The host simulator queries [`FaultPlan::active_at`]
//! every tick and interprets each kind against its own subsystems
//! (sensors, control links, storage, breakers…).
//!
//! # Determinism contract
//!
//! Stochastic kinds (noise, dropout, message loss…) never carry their own
//! randomness. Instead the host derives one [`RngStream`] per spec (and
//! per unit) from the scenario seed via [`spec_stream`] / [`unit_stream`],
//! exactly like every other consumer of the `(seed, scenario_index)`
//! contract. Forks are stable, so sweeps remain byte-identical across
//! worker counts and a plan replayed from JSON reproduces the same draws.
//!
//! # Wire format
//!
//! Plans round-trip through a compact, versionless JSON document
//! ([`FaultPlan::to_json`] / [`FaultPlan::from_json`]):
//!
//! ```text
//! {"name":"ci-smoke","specs":[
//!   {"kind":"sensor_noise","target":"all","start_ms":0,"end_ms":60000,"std":0.05}
//! ]}
//! ```
//!
//! Numbers use Rust's shortest-round-trip `f64` formatting (the same
//! convention as the telemetry codecs), so serialization is deterministic
//! across platforms.

use crate::jsonio::{Json, JsonParser, ObjFields};
use crate::rng::RngStream;
use crate::time::SimTime;
use std::fmt;

/// What a fault does while its window is active.
///
/// The taxonomy covers three layers: *sensor* faults corrupt readings the
/// control plane sees (never ground truth), *message* faults perturb
/// control-plane delivery, and *component* faults degrade the physical
/// layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Additive Gaussian noise (standard deviation `std`) on a sensor
    /// reading.
    SensorNoise {
        /// Standard deviation of the additive noise.
        std: f64,
    },
    /// Constant additive bias on a sensor reading.
    SensorBias {
        /// Signed offset added to every reading.
        delta: f64,
    },
    /// Sensor reports a frozen constant instead of the true value.
    SensorStuckAt {
        /// The stuck reading.
        value: f64,
    },
    /// Each reading is dropped with probability `p`; the last delivered
    /// value persists at the consumer.
    SensorDropout {
        /// Per-reading drop probability in `[0, 1]`.
        p: f64,
    },
    /// Control messages arrive `rounds` coordinator rounds late.
    MsgDelay {
        /// Delivery delay in whole coordinator rounds (≥ 1).
        rounds: u32,
    },
    /// Each control message is lost with probability `p` per delivery
    /// attempt (the host may retry with backoff).
    MsgLoss {
        /// Per-attempt loss probability in `[0, 1]`.
        p: f64,
    },
    /// Adjacent in-flight control messages swap delivery order with
    /// probability `p`.
    MsgReorder {
        /// Per-pair swap probability in `[0, 1]`.
        p: f64,
    },
    /// The targeted component is offline for the whole window.
    ComponentOutage,
    /// The targeted component's rating is scaled by `factor` in `(0, 1]`.
    ComponentDerate {
        /// Effective-rating multiplier.
        factor: f64,
    },
    /// The targeted store's usable capacity fades to `factor` in `(0, 1]`.
    CapacityFade {
        /// Usable-capacity multiplier.
        factor: f64,
    },
}

impl FaultKind {
    /// Stable wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SensorNoise { .. } => "sensor_noise",
            FaultKind::SensorBias { .. } => "sensor_bias",
            FaultKind::SensorStuckAt { .. } => "sensor_stuck_at",
            FaultKind::SensorDropout { .. } => "sensor_dropout",
            FaultKind::MsgDelay { .. } => "msg_delay",
            FaultKind::MsgLoss { .. } => "msg_loss",
            FaultKind::MsgReorder { .. } => "msg_reorder",
            FaultKind::ComponentOutage => "outage",
            FaultKind::ComponentDerate { .. } => "derate",
            FaultKind::CapacityFade { .. } => "capacity_fade",
        }
    }

    /// Dense index of the kind (stable; used as a span attribute).
    pub fn index(self) -> usize {
        match self {
            FaultKind::SensorNoise { .. } => 0,
            FaultKind::SensorBias { .. } => 1,
            FaultKind::SensorStuckAt { .. } => 2,
            FaultKind::SensorDropout { .. } => 3,
            FaultKind::MsgDelay { .. } => 4,
            FaultKind::MsgLoss { .. } => 5,
            FaultKind::MsgReorder { .. } => 6,
            FaultKind::ComponentOutage => 7,
            FaultKind::ComponentDerate { .. } => 8,
            FaultKind::CapacityFade { .. } => 9,
        }
    }

    /// Checks the kind's parameters for validity.
    pub fn validate(self) -> Result<(), String> {
        match self {
            FaultKind::SensorNoise { std } => {
                if !std.is_finite() || std < 0.0 {
                    return Err(format!(
                        "sensor_noise std must be finite and >= 0, got {std}"
                    ));
                }
            }
            FaultKind::SensorBias { delta } => {
                if !delta.is_finite() {
                    return Err(format!("sensor_bias delta must be finite, got {delta}"));
                }
            }
            FaultKind::SensorStuckAt { value } => {
                if !value.is_finite() {
                    return Err(format!("sensor_stuck_at value must be finite, got {value}"));
                }
            }
            FaultKind::SensorDropout { p }
            | FaultKind::MsgLoss { p }
            | FaultKind::MsgReorder { p } => {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!(
                        "{} probability must be in [0,1], got {p}",
                        self.name()
                    ));
                }
            }
            FaultKind::MsgDelay { rounds } => {
                if rounds == 0 {
                    return Err("msg_delay rounds must be >= 1".to_string());
                }
            }
            FaultKind::ComponentOutage => {}
            FaultKind::ComponentDerate { factor } | FaultKind::CapacityFade { factor } => {
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(format!(
                        "{} factor must be in (0,1], got {factor}",
                        self.name()
                    ));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which unit a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every unit of the relevant subsystem.
    All,
    /// A single unit (e.g. one rack) by index.
    Unit(usize),
}

impl FaultTarget {
    /// `true` if the target covers `unit`.
    pub fn covers(self, unit: usize) -> bool {
        match self {
            FaultTarget::All => true,
            FaultTarget::Unit(u) => u == unit,
        }
    }

    /// Stable wire name (`all` or the decimal unit index).
    pub fn wire(self) -> String {
        match self {
            FaultTarget::All => "all".to_string(),
            FaultTarget::Unit(u) => u.to_string(),
        }
    }

    /// Parses the wire form produced by [`FaultTarget::wire`].
    pub fn from_wire(text: &str) -> Result<FaultTarget, String> {
        if text == "all" {
            return Ok(FaultTarget::All);
        }
        text.parse::<usize>()
            .map(FaultTarget::Unit)
            .map_err(|_| format!("invalid fault target {text:?} (want \"all\" or a unit index)"))
    }
}

/// One scheduled fault: a kind, a target, and a half-open sim-time window
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Which unit it happens to.
    pub target: FaultTarget,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
}

impl FaultSpec {
    /// Creates a spec; the window is `[start, end)`.
    pub fn new(kind: FaultKind, target: FaultTarget, start: SimTime, end: SimTime) -> Self {
        FaultSpec {
            kind,
            target,
            start,
            end,
        }
    }

    /// `true` while `now` is inside the window.
    pub fn active_at(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }

    /// Checks the spec's window and parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.end <= self.start {
            return Err(format!(
                "fault window must be non-empty: start {} ms >= end {} ms",
                self.start.as_millis(),
                self.end.as_millis()
            ));
        }
        self.kind.validate()
    }
}

/// A named, ordered schedule of fault specs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    name: String,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Creates an empty plan with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        FaultPlan {
            name: name.into(),
            specs: Vec::new(),
        }
    }

    /// Builder-style: appends a spec and returns the plan.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Appends a spec.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
    }

    /// The plan's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All scheduled specs, in schedule order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Number of specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when no specs are scheduled.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterates `(index, spec)` pairs whose windows contain `now`.
    pub fn active_at(&self, now: SimTime) -> impl Iterator<Item = (usize, &FaultSpec)> {
        self.specs
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.active_at(now))
    }

    /// Validates every spec, reporting the first error with its index.
    pub fn validate(&self) -> Result<(), String> {
        for (i, spec) in self.specs.iter().enumerate() {
            spec.validate().map_err(|e| format!("spec {i}: {e}"))?;
        }
        Ok(())
    }

    /// Serializes the plan to its canonical single-line JSON form.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"name\":\"{}\",\"specs\":[", self.name);
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":\"{}\",\"target\":\"{}\",\"start_ms\":{},\"end_ms\":{}",
                spec.kind.name(),
                spec.target.wire(),
                spec.start.as_millis(),
                spec.end.as_millis()
            );
            match spec.kind {
                FaultKind::SensorNoise { std } => {
                    let _ = write!(out, ",\"std\":{std}");
                }
                FaultKind::SensorBias { delta } => {
                    let _ = write!(out, ",\"delta\":{delta}");
                }
                FaultKind::SensorStuckAt { value } => {
                    let _ = write!(out, ",\"value\":{value}");
                }
                FaultKind::SensorDropout { p }
                | FaultKind::MsgLoss { p }
                | FaultKind::MsgReorder { p } => {
                    let _ = write!(out, ",\"p\":{p}");
                }
                FaultKind::MsgDelay { rounds } => {
                    let _ = write!(out, ",\"rounds\":{rounds}");
                }
                FaultKind::ComponentOutage => {}
                FaultKind::ComponentDerate { factor } | FaultKind::CapacityFade { factor } => {
                    let _ = write!(out, ",\"factor\":{factor}");
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parses a plan from the JSON form produced by [`FaultPlan::to_json`]
    /// (whitespace-tolerant) and validates it.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let value = JsonParser::parse_document(text)?;
        let obj = value.as_object("plan")?;
        let name = obj.str_field("name")?.to_string();
        let mut plan = FaultPlan::new(name);
        for (i, item) in obj.arr_field("specs")?.iter().enumerate() {
            let spec = parse_spec(item).map_err(|e| format!("spec {i}: {e}"))?;
            plan.push(spec);
        }
        plan.validate()?;
        Ok(plan)
    }
}

/// Canonical per-spec random stream: all randomness of a stochastic fault
/// spec is drawn from `root.fork_indexed("fault", index)`.
pub fn spec_stream(root: &RngStream, index: usize) -> RngStream {
    root.fork_indexed("fault", index)
}

/// Canonical per-spec, per-unit random stream — independent across units
/// so per-rack draws never perturb each other.
pub fn unit_stream(root: &RngStream, index: usize, unit: usize) -> RngStream {
    spec_stream(root, index).fork_indexed("unit", unit)
}

fn parse_spec(value: &Json) -> Result<FaultSpec, String> {
    let obj = value.as_object("spec")?;
    let kind_name = obj.str_field("kind")?;
    let target = FaultTarget::from_wire(obj.str_field("target")?)?;
    let start = SimTime::from_millis(obj.u64_field("start_ms")?);
    let end = SimTime::from_millis(obj.u64_field("end_ms")?);
    let kind = match kind_name {
        "sensor_noise" => FaultKind::SensorNoise {
            std: obj.f64_field("std")?,
        },
        "sensor_bias" => FaultKind::SensorBias {
            delta: obj.f64_field("delta")?,
        },
        "sensor_stuck_at" => FaultKind::SensorStuckAt {
            value: obj.f64_field("value")?,
        },
        "sensor_dropout" => FaultKind::SensorDropout {
            p: obj.f64_field("p")?,
        },
        "msg_delay" => FaultKind::MsgDelay {
            rounds: obj
                .u64_field("rounds")?
                .try_into()
                .map_err(|_| "msg_delay rounds out of range".to_string())?,
        },
        "msg_loss" => FaultKind::MsgLoss {
            p: obj.f64_field("p")?,
        },
        "msg_reorder" => FaultKind::MsgReorder {
            p: obj.f64_field("p")?,
        },
        "outage" => FaultKind::ComponentOutage,
        "derate" => FaultKind::ComponentDerate {
            factor: obj.f64_field("factor")?,
        },
        "capacity_fade" => FaultKind::CapacityFade {
            factor: obj.f64_field("factor")?,
        },
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    Ok(FaultSpec::new(kind, target, start, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::new("sample")
            .with(FaultSpec::new(
                FaultKind::SensorNoise { std: 0.05 },
                FaultTarget::All,
                SimTime::from_secs(10),
                SimTime::from_secs(70),
            ))
            .with(FaultSpec::new(
                FaultKind::MsgLoss { p: 0.25 },
                FaultTarget::Unit(1),
                SimTime::from_secs(30),
                SimTime::from_secs(90),
            ))
            .with(FaultSpec::new(
                FaultKind::ComponentOutage,
                FaultTarget::Unit(0),
                SimTime::from_secs(40),
                SimTime::from_secs(50),
            ))
            .with(FaultSpec::new(
                FaultKind::MsgDelay { rounds: 2 },
                FaultTarget::All,
                SimTime::from_secs(5),
                SimTime::from_secs(15),
            ))
            .with(FaultSpec::new(
                FaultKind::CapacityFade { factor: 0.7 },
                FaultTarget::All,
                SimTime::ZERO,
                SimTime::from_hours(1),
            ))
    }

    #[test]
    fn windows_are_half_open() {
        let spec = FaultSpec::new(
            FaultKind::ComponentOutage,
            FaultTarget::All,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        assert!(!spec.active_at(SimTime::from_millis(9_999)));
        assert!(spec.active_at(SimTime::from_secs(10)));
        assert!(spec.active_at(SimTime::from_millis(19_999)));
        assert!(!spec.active_at(SimTime::from_secs(20)));
    }

    #[test]
    fn active_at_reports_indices() {
        let plan = sample_plan();
        let at_45: Vec<usize> = plan
            .active_at(SimTime::from_secs(45))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(at_45, vec![0, 1, 2, 4]);
        let at_100: Vec<usize> = plan
            .active_at(SimTime::from_secs(100))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(at_100, vec![4]);
    }

    #[test]
    fn json_round_trips_every_kind() {
        let plan = sample_plan()
            .with(FaultSpec::new(
                FaultKind::SensorBias { delta: -0.1 },
                FaultTarget::Unit(2),
                SimTime::ZERO,
                SimTime::from_secs(1),
            ))
            .with(FaultSpec::new(
                FaultKind::SensorStuckAt { value: 0.42 },
                FaultTarget::All,
                SimTime::ZERO,
                SimTime::from_secs(1),
            ))
            .with(FaultSpec::new(
                FaultKind::SensorDropout { p: 0.5 },
                FaultTarget::All,
                SimTime::ZERO,
                SimTime::from_secs(1),
            ))
            .with(FaultSpec::new(
                FaultKind::MsgReorder { p: 0.125 },
                FaultTarget::All,
                SimTime::ZERO,
                SimTime::from_secs(1),
            ))
            .with(FaultSpec::new(
                FaultKind::ComponentDerate { factor: 0.8 },
                FaultTarget::Unit(3),
                SimTime::ZERO,
                SimTime::from_secs(1),
            ));
        let json = plan.to_json();
        let parsed = FaultPlan::from_json(&json).expect("round trip");
        assert_eq!(parsed, plan);
        // Canonical form is a fixed point.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn from_json_tolerates_whitespace() {
        let text = "{\n  \"name\": \"ws\",\n  \"specs\": [\n    {\"kind\": \"outage\", \"target\": \"all\", \"start_ms\": 0, \"end_ms\": 1000}\n  ]\n}";
        let plan = FaultPlan::from_json(text).expect("parse");
        assert_eq!(plan.name(), "ws");
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.specs()[0].kind, FaultKind::ComponentOutage);
    }

    #[test]
    fn from_json_rejects_bad_input() {
        assert!(FaultPlan::from_json("").is_err());
        assert!(FaultPlan::from_json("{\"name\":\"x\"}").is_err());
        assert!(FaultPlan::from_json(
            "{\"name\":\"x\",\"specs\":[{\"kind\":\"nope\",\"target\":\"all\",\"start_ms\":0,\"end_ms\":1}]}"
        )
        .is_err());
        // Empty window fails validation.
        assert!(FaultPlan::from_json(
            "{\"name\":\"x\",\"specs\":[{\"kind\":\"outage\",\"target\":\"all\",\"start_ms\":5,\"end_ms\":5}]}"
        )
        .is_err());
        // Out-of-range probability fails validation.
        assert!(FaultPlan::from_json(
            "{\"name\":\"x\",\"specs\":[{\"kind\":\"msg_loss\",\"p\":1.5,\"target\":\"all\",\"start_ms\":0,\"end_ms\":1}]}"
        )
        .is_err());
        assert!(FaultPlan::from_json("{\"name\":\"x\",\"specs\":[]} trailing").is_err());
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(FaultKind::SensorNoise { std: -1.0 }.validate().is_err());
        assert!(FaultKind::SensorNoise { std: f64::NAN }.validate().is_err());
        assert!(FaultKind::SensorDropout { p: 1.1 }.validate().is_err());
        assert!(FaultKind::MsgDelay { rounds: 0 }.validate().is_err());
        assert!(FaultKind::ComponentDerate { factor: 0.0 }
            .validate()
            .is_err());
        assert!(FaultKind::CapacityFade { factor: 1.2 }.validate().is_err());
        assert!(FaultKind::ComponentOutage.validate().is_ok());
    }

    #[test]
    fn target_covers_and_round_trips() {
        assert!(FaultTarget::All.covers(7));
        assert!(FaultTarget::Unit(3).covers(3));
        assert!(!FaultTarget::Unit(3).covers(4));
        assert_eq!(FaultTarget::from_wire("all"), Ok(FaultTarget::All));
        assert_eq!(FaultTarget::from_wire("12"), Ok(FaultTarget::Unit(12)));
        assert!(FaultTarget::from_wire("rack-1").is_err());
    }

    #[test]
    fn streams_are_deterministic_and_independent() {
        let root = RngStream::new(1234);
        let mut a = spec_stream(&root, 0);
        let mut a2 = spec_stream(&root, 0);
        let mut b = spec_stream(&root, 1);
        assert_eq!(a.next_u64(), a2.next_u64());
        let mut u0 = unit_stream(&root, 0, 0);
        let mut u1 = unit_stream(&root, 0, 1);
        assert_ne!(u0.next_u64(), u1.next_u64());
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn kind_indices_are_dense_and_stable() {
        let kinds = [
            FaultKind::SensorNoise { std: 0.0 },
            FaultKind::SensorBias { delta: 0.0 },
            FaultKind::SensorStuckAt { value: 0.0 },
            FaultKind::SensorDropout { p: 0.0 },
            FaultKind::MsgDelay { rounds: 1 },
            FaultKind::MsgLoss { p: 0.0 },
            FaultKind::MsgReorder { p: 0.0 },
            FaultKind::ComponentOutage,
            FaultKind::ComponentDerate { factor: 1.0 },
            FaultKind::CapacityFade { factor: 1.0 },
        ];
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.index(), i, "{}", k.name());
        }
    }
}
