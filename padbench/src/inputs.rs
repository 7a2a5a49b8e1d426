//! Everything a workload feeds the program under test, generated from
//! the run's `--seed`: the synthesized cluster trace, the sweep cases,
//! and the recorded attack sessions the daemon workloads stream.
//!
//! The seed only generates inputs. The simulator receives a trace and
//! cases, the daemon receives wire lines; neither sees the seed.

use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::detect::DetectConfig;
use pad::pipeline::{
    default_alert_rules, monitor_records, replay_records, try_infer_racks, PipelineConfig,
};
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
use pad::sweep::{AttackSpec, SurvivalCase, Victim};
use powerinfra::server::ServerSpec;
use powerinfra::topology::ClusterTopology;
use simkit::rng::RngStream;
use simkit::telemetry::{parse_lossy, Format};
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;
use workload::trace::ClusterTrace;

/// Racks in every simulated cluster: the paper's 22-rack PDU.
pub const RACKS: usize = 22;
/// Servers per rack.
pub const SERVERS: usize = 10;
/// Simulator step: the 100 ms tick the defense must answer within.
pub const TICK: SimDuration = SimDuration::from_millis(100);

/// Simulated rack-hours covered by `ticks` steps of the whole cluster.
pub fn rack_hours(ticks: u64) -> f64 {
    ticks as f64 * RACKS as f64 * TICK.as_secs_f64() / 3600.0
}

/// An independent input stream for one purpose, derived from the run
/// seed (`label` names the purpose).
pub fn stream(seed: u64, label: &str) -> RngStream {
    RngStream::new(seed).fork(label)
}

/// The 22 × 10 cluster `padsim` builds by default, under `scheme`.
pub fn cluster_config(scheme: Scheme) -> SimConfig {
    let nameplate = ServerSpec::hp_proliant_dl585_g5().peak * SERVERS as f64;
    SimConfig {
        topology: ClusterTopology::new(RACKS, SERVERS),
        budget_fraction: 0.75,
        p_ideal: nameplate * 0.05,
        udeb_max_power: nameplate * 0.3,
        udeb_engage_threshold: nameplate * 0.0675,
        demand_jitter: nameplate * 0.01,
        ..SimConfig::paper_default(scheme)
    }
}

/// A Google-like utilization trace covering `ticks` steps, resampled on
/// a one-minute clock (the `padsim perf` trace).
pub fn cluster_trace(seed: u64, ticks: u64) -> ClusterTrace {
    SynthConfig {
        machines: RACKS * SERVERS,
        horizon: SimTime::ZERO + TICK * ticks + SimDuration::from_mins(2),
        step: SimDuration::from_mins(1),
        mean_utilization: 0.31,
        machine_bias_std: 0.04,
        ..SynthConfig::google_may2010()
    }
    .generate_direct(stream(seed, "trace").next_u64())
}

/// The paper's two-phase attack: dense CPU virus on four nodes of the
/// most vulnerable rack, starting a quarter of the way into the run.
pub fn attack(ticks: u64) -> AttackSpec {
    AttackSpec {
        scenario: AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4),
        victim: Victim::MostVulnerable,
        start: SimTime::ZERO + TICK * (ticks / 4),
    }
}

/// One attacked scenario per scheme, each `ticks` steps long.
pub fn sweep_cases(ticks: u64) -> Vec<SurvivalCase> {
    Scheme::ALL
        .iter()
        .map(|&scheme| {
            SurvivalCase::quiet(cluster_config(scheme), SimTime::ZERO + TICK * ticks, TICK)
                .with_attack(attack(ticks))
        })
        .collect()
}

/// A simulator for `case`, built the way `ConfigSweep` builds scenario
/// `index` (noise reseeded from the sweep seed), with the attack armed.
pub fn build_sim(
    trace: &Arc<ClusterTrace>,
    case: &SurvivalCase,
    sweep_seed: u64,
    index: usize,
) -> Result<ClusterSim, String> {
    let mut sim = ClusterSim::new_shared(case.config.clone(), Arc::clone(trace))?;
    sim.reseed_noise(pad::sweep::scenario_noise_seed(sweep_seed, index));
    if let Some(spec) = case.attack {
        let victim = match spec.victim {
            Victim::Rack(id) => id,
            Victim::MostVulnerable => sim.most_vulnerable_rack(),
        };
        sim.set_attack(spec.scenario, victim, spec.start);
    }
    Ok(sim)
}

/// A recorded attack session, ready to stream: its telemetry grouped by
/// tick, plus the answers the offline pipeline gives for it.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Wire lines of each tick, newline-terminated, followed by `ping`.
    pub ticks: Vec<Vec<u8>>,
    /// Telemetry records in the session.
    pub records: usize,
    /// `padsim detect --replay --json` over the same records: what the
    /// daemon must answer to `end`.
    pub summary_json: String,
    /// `padsim inspect --alerts default` over the same records: the
    /// tenant's alert document once the session has ended.
    pub alerts_json: String,
}

impl Recording {
    /// Telemetry records per tick, on average.
    pub fn records_per_tick(&self) -> f64 {
        self.records as f64 / self.ticks.len() as f64
    }
}

/// Records one `ticks`-long attacked run of `scheme` with live detection
/// on, as the daemon would receive it from a cluster's telemetry agent.
pub fn record_session(seed: u64, label: &str, scheme: Scheme, ticks: u64) -> Recording {
    let trace = Arc::new(cluster_trace(stream(seed, label).next_u64(), ticks));
    let case = SurvivalCase::quiet(cluster_config(scheme), SimTime::ZERO + TICK * ticks, TICK)
        .with_attack(attack(ticks));
    let noise = stream(seed, label).fork("noise").next_u64();
    let mut sim = build_sim(&trace, &case, noise, 0).expect("the benchmark cluster is valid");
    sim.enable_telemetry(ticks as usize * 256);
    sim.enable_detection(DetectConfig::default());
    sim.run(case.horizon, TICK, false);
    let text = sim
        .take_telemetry()
        .expect("telemetry was enabled")
        .serialize(Format::Jsonl);

    let parsed = parse_lossy(&text, Format::Jsonl);
    assert!(parsed.errors.is_empty(), "the recorder's own output parses");
    let racks = try_infer_racks(&parsed.records).unwrap_or(1);
    let summary_json = replay_records(racks, PipelineConfig::default(), &parsed.records).to_json();
    let (_, monitor) = monitor_records(
        racks,
        PipelineConfig::default(),
        default_alert_rules(),
        &parsed.records,
    );

    let mut grouped: Vec<Vec<u8>> = Vec::new();
    let mut open: Option<&str> = None;
    for line in text.lines() {
        // Every record line starts `{"t":<ms>,`: a new stamp opens a tick.
        let stamp = line.split(',').next().unwrap_or("");
        if open != Some(stamp) {
            if let Some(tick) = grouped.last_mut() {
                tick.extend_from_slice(b"ping\n");
            }
            grouped.push(Vec::new());
            open = Some(stamp);
        }
        let tick = grouped.last_mut().expect("a tick is open");
        tick.extend_from_slice(line.as_bytes());
        tick.push(b'\n');
    }
    if let Some(tick) = grouped.last_mut() {
        tick.extend_from_slice(b"ping\n");
    }
    Recording {
        ticks: grouped,
        records: parsed.records.len(),
        summary_json,
        alerts_json: monitor.alerts_json(),
    }
}
