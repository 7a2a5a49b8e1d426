//! # PAD — Power Attack Defense
//!
//! A full reproduction of *Power Attack Defense: Securing Battery-Backed
//! Data Centers* (Li et al., ISCA 2016): the threat model (two-phase power
//! virus), the defense (vDEB + µDEB + hierarchical policy), the
//! trace-driven evaluation platform, and every table and figure of the
//! paper's evaluation section.
//!
//! ## Quick start
//!
//! ```
//! use pad::prelude::*;
//! use simkit::time::{SimDuration, SimTime};
//! use workload::synth::SynthConfig;
//!
//! // Build a small PAD-protected cluster over a synthetic trace...
//! let config = SimConfig::small_test(Scheme::Pad);
//! let trace = SynthConfig {
//!     machines: config.topology.total_servers(),
//!     horizon: SimTime::from_hours(1),
//!     ..SynthConfig::small_test()
//! }
//! .generate_direct(7);
//! let mut sim = ClusterSim::new(config, trace).unwrap();
//!
//! // ...attack its weakest rack with a dense CPU-intensive power virus...
//! let victim = sim.most_vulnerable_rack();
//! let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 2);
//! sim.set_attack(scenario, victim, SimTime::from_secs(30));
//!
//! // ...and measure how long the cluster survives.
//! let report = sim.run(SimTime::from_mins(5), SimDuration::from_millis(100), true);
//! println!("survived {:?}", report.survival_or_horizon());
//! ```
//!
//! ## Crate map
//!
//! * [`policy`] — the three-level hierarchical security policy (Fig. 9),
//!   escalation-aware via graded detection evidence;
//! * [`detect`] — streaming attack detectors over the telemetry channels,
//!   their fusion into policy evidence, and the labeled-scenario
//!   evaluation harness (ROC, confusion, detection latency);
//! * [`fault`] — deterministic fault injection (sensor, message, and
//!   component faults) and the graceful-degradation control plane
//!   (staleness watchdog, bounded retry, safe local fallback);
//! * [`vdeb`] — Algorithm 1, the SOC-proportional pooled-discharge plan,
//!   and the coordination protocol (grant leases, idempotent delivery,
//!   the pure `ProtocolState::apply` transition);
//! * [`mc`] — exhaustive model checking of that protocol: a scripted
//!   small-world model over `ProtocolState`, four safety invariants, and
//!   counterexample-to-`FaultPlan` replay;
//! * [`udeb`] — the ORing super-capacitor spike shaver and its cost model;
//! * [`shedding`] — Level-3 emergency load shedding (≤3% of servers);
//! * [`migration`] — the Level-3 alternative: move load off vulnerable racks;
//! * [`pipeline`] — the shared detect-and-policy replay pipeline behind
//!   `padsim detect --replay` and the `padsimd` streaming daemon;
//! * [`schemes`] — the six evaluated schemes of Table III;
//! * [`prof`] — optional performance self-profiling of the simulator
//!   hot loop (step-phase timers, rack-seconds throughput accounting,
//!   and the `perf_report.json` the CI regression gate reads);
//! * [`sim`] — the trace-driven cluster simulator (Fig. 11-B);
//! * [`sweep`] — parallel scenario sweeps over one shared trace;
//! * [`telemetry`] — per-tick metric/event recording wired into the sim;
//! * [`trace`] — causal sim-time span tracing (attack phases, defense
//!   episodes, policy residencies) for forensic incident reconstruction;
//! * [`metrics`] — survival time, effective attacks, throughput, SOC maps;
//! * [`experiments`] — one module per paper table/figure;
//! * [`report`] — shared text rendering for experiment output.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod detect;
pub mod experiments;
pub mod fault;
pub mod mc;
pub mod metrics;
pub mod migration;
pub mod pipeline;
pub mod policy;
pub mod prof;
pub mod report;
pub mod schemes;
pub mod shedding;
pub mod sim;
pub mod sweep;
pub mod telemetry;
pub mod trace;
pub mod udeb;
pub mod vdeb;

/// Electrical unit newtypes (re-exported from the `battery` crate).
pub mod units {
    pub use battery::units::{Amps, Farads, Joules, Volts, WattHours, Watts};
}

/// Convenient re-exports for typical PAD usage.
pub mod prelude {
    pub use crate::detect::{DetectConfig, SimDetectors, TickVerdict};
    pub use crate::fault::{DegradedConfig, FaultReport, SimFaults};
    pub use crate::mc::{BrokenMode, ModelConfig, VdebModel};
    pub use crate::metrics::{OverloadEvent, SocHistory, SurvivalReport};
    pub use crate::migration::{LoadMigrator, MigrationPlan};
    pub use crate::pipeline::{PipelineConfig, ReplayPipeline, ReplaySummary};
    pub use crate::policy::{
        DetectionEvidence, PolicyInputs, SecurityLevel, SecurityPolicy, Strictness,
    };
    pub use crate::prof::{PerfReport, SimProfile, SimProfiler, StepPhase};
    pub use crate::schemes::Scheme;
    pub use crate::sim::{ClusterSim, SimConfig};
    pub use crate::sweep::{AttackSpec, ConfigSweep, SurvivalCase, SurvivalOutcome, Victim};
    pub use crate::telemetry::{RackTick, SimTelemetry};
    pub use crate::trace::SimTracer;
    pub use crate::udeb::MicroDeb;
    pub use crate::units::Watts;
    pub use crate::vdeb::{
        plan_discharge, ProtocolAction, ProtocolConfig, ProtocolState, RackHeld, RoundMsg,
        VdebController,
    };
    pub use attack::scenario::{AttackScenario, AttackStyle};
    pub use attack::virus::VirusClass;
    pub use powerinfra::topology::RackId;
    pub use simkit::fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
}

pub use detect::{DetectConfig, SimDetectors, TickVerdict};
pub use fault::{DegradedConfig, FaultReport, SimFaults};
pub use metrics::{OverloadEvent, SocHistory, SurvivalReport};
pub use pipeline::{PipelineConfig, ReplayPipeline, ReplaySummary};
pub use policy::{DetectionEvidence, SecurityLevel, SecurityPolicy, Strictness};
pub use prof::{PerfReport, SimProfile, SimProfiler};
pub use schemes::Scheme;
pub use sim::{ClusterSim, SimConfig};
pub use sweep::{ConfigSweep, SurvivalCase, SurvivalOutcome};
pub use telemetry::{RackTick, SimTelemetry};
pub use trace::SimTracer;
pub use udeb::MicroDeb;
pub use vdeb::{plan_discharge, VdebController};
