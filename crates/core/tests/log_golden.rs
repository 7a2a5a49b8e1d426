//! Golden pin of the simulator's forensic event log: a handful of fixed
//! scenarios, each run to a fixed horizon, must render
//! `ClusterSim::event_log()` byte for byte as in
//! `tests/data/log_golden.txt`. Together the scenarios reach every
//! site in `ClusterSim::step` that writes the log: fault-window edges,
//! rack and PDU breaker trips, overloads, the protective cap, policy
//! level changes, migration, shedding, waking, LVD isolation, fused
//! detector firings and watchdog fallback.

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::detect::DetectConfig;
use pad::fault::DegradedConfig;
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, EmergencyAction, SimConfig};
use powerinfra::topology::RackId;
use simkit::fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;

const DT: SimDuration = SimDuration::from_millis(100);

fn sim(config: SimConfig, mean_utilization: f64, seed: u64) -> ClusterSim {
    let trace = SynthConfig {
        machines: config.topology.total_servers(),
        horizon: SimTime::from_hours(2),
        mean_utilization,
        ..SynthConfig::small_test()
    }
    .generate_direct(seed);
    let mut sim = ClusterSim::new(config, trace).unwrap();
    sim.reseed_noise(seed ^ 0x5EED);
    sim
}

fn dense_attack(nodes: usize) -> AttackScenario {
    AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, nodes)
}

/// A hot Conv cluster with rack 1's breaker derated: the derate window
/// opens and closes (fault edges), rack 1 trips, the cluster feed
/// overloads and trips, and the operator's protective cap engages.
fn conv_hot() -> ClusterSim {
    let mut sim = sim(SimConfig::small_test(Scheme::Conv), 0.95, 3);
    let mut plan = FaultPlan::new("derate");
    plan.push(FaultSpec::new(
        FaultKind::ComponentDerate { factor: 0.5 },
        FaultTarget::Unit(1),
        SimTime::from_secs(20),
        SimTime::from_secs(60),
    ));
    sim.enable_faults(plan, DegradedConfig::default(), 3)
        .unwrap();
    sim.run(SimTime::from_secs(65), DT, false);
    sim
}

/// A PS cluster under a dense attack: the victim's battery drains until
/// the low-voltage disconnect isolates it.
fn ps_attack() -> ClusterSim {
    let mut sim = sim(SimConfig::small_test(Scheme::Ps), 0.35, 42);
    sim.set_attack(dense_attack(4), RackId(0), SimTime::from_secs(30));
    sim.run(SimTime::from_mins(30), DT, false);
    sim
}

/// PAD under an attack with a shedding cap large enough to put a whole
/// server to sleep: the cluster shortfall sheds load, and the servers
/// wake once it passes.
fn pad_shed() -> ClusterSim {
    let config = SimConfig {
        shed_ratio: 0.25,
        ..SimConfig::small_test(Scheme::Pad)
    };
    let mut sim = sim(config, 0.6, 11);
    sim.set_attack(dense_attack(4), RackId(0), SimTime::from_secs(30));
    sim.run(SimTime::from_secs(13 * 60 + 15), DT, false);
    sim
}

/// The same attacked PAD cluster with detection on and Level 3 set to
/// migrate load: a fused detector firing escalates the policy, and the
/// emergency migrates load off the vulnerable racks.
fn pad_migrate() -> ClusterSim {
    let config = SimConfig {
        emergency_action: EmergencyAction::Migrate,
        ..SimConfig::small_test(Scheme::Pad)
    };
    let mut sim = sim(config, 0.6, 11);
    sim.enable_detection(DetectConfig::default());
    sim.set_attack(dense_attack(4), RackId(0), SimTime::from_secs(30));
    sim.run(SimTime::from_mins(20), DT, false);
    sim
}

/// PAD under a total control-path partition: every rack's coordinator
/// plan goes stale, the watchdog falls back to local control, and
/// recovers once the partition lifts.
fn pad_partition() -> ClusterSim {
    let config = SimConfig::small_test(Scheme::Pad);
    let interval = config.grant_interval;
    let mut sim = sim(config, 0.6, 7);
    let mut plan = FaultPlan::new("partition");
    plan.push(FaultSpec::new(
        FaultKind::MsgLoss { p: 1.0 },
        FaultTarget::All,
        SimTime::ZERO + interval * 3u64,
        SimTime::ZERO + interval * 9u64,
    ));
    sim.enable_faults(plan, DegradedConfig::for_grant_interval(interval), 7)
        .unwrap();
    sim.run(SimTime::ZERO + interval * 12u64, DT, false);
    sim
}

fn render_all() -> String {
    let scenarios = [
        ("conv-hot", conv_hot()),
        ("ps-attack", ps_attack()),
        ("pad-shed", pad_shed()),
        ("pad-migrate", pad_migrate()),
        ("pad-partition", pad_partition()),
    ];
    let mut out = String::new();
    for (name, sim) in scenarios {
        out.push_str(&format!("== {name} ==\n"));
        out.push_str(&sim.event_log().render());
    }
    out
}

/// One message fragment per log-writing site in `ClusterSim::step`.
const SITES: [&str; 14] = [
    "fault injected",
    "fault cleared",
    "feed breaker tripped - rack dark",
    "cluster feed breaker tripped",
    "overload: draw",
    "protective cluster-wide 20% cap engaged",
    "Level 1 - Normal -> Level 2",
    "migrating",
    "load shedding",
    "all servers woken",
    "low-voltage disconnect",
    "fused detector verdict fired",
    "falling back to local control",
    "fallback cleared",
];

#[test]
fn forensic_log_matches_checked_in_golden() {
    let rendered = render_all();
    for site in SITES {
        assert!(rendered.contains(site), "no scenario reaches {site:?}");
    }
    assert_eq!(
        rendered,
        include_str!("data/log_golden.txt"),
        "forensic log drifted from tests/data/log_golden.txt"
    );
}
