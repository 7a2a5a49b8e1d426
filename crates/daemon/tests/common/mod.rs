//! Shared harness for the daemon integration suites: record a real
//! attacked testbed run, start an in-process daemon on loopback, and
//! compute the offline-pipeline expectations the daemon must match.
//
// Each suite uses a different slice of this harness; what one binary
// leaves unused another depends on.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::detect::DetectConfig;
use pad::experiments::{testbed_config, testbed_trace};
use pad::pipeline::{self, PipelineConfig};
use pad::schemes::Scheme;
use pad::sim::ClusterSim;
use paddaemon::server::{serve, ServeOptions};
use powerinfra::topology::RackId;
use simkit::telemetry::{parse, render_parsed, Format};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::parse_spans;

/// A recorded attacked run: serialized telemetry and span traces plus
/// the offline-pipeline expectations for them.
pub struct RecordedRun {
    pub telemetry: String,
    pub spans: String,
    pub summary_json: String,
    pub firings: String,
    pub incidents_json: String,
}

/// Runs the §V testbed under a sparse attack for three minutes with
/// telemetry, tracing, and detection on, and returns the recorded
/// traces together with what the offline pipeline says about them.
pub fn recorded_run(seed: u64) -> RecordedRun {
    let mut sim = ClusterSim::new(testbed_config(Scheme::Pad), testbed_trace(seed)).unwrap();
    sim.reseed_noise(seed ^ 0x5EED);
    sim.enable_detection(DetectConfig::default());
    sim.enable_telemetry(1 << 20);
    sim.enable_tracing(1 << 16);
    let attack = AttackScenario::new(AttackStyle::Sparse, VirusClass::CpuIntensive, 1).immediate();
    let attack_at = SimTime::from_secs(60);
    sim.set_attack(attack, RackId(0), attack_at);
    let horizon = attack_at + SimDuration::from_mins(3);
    let dt = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    while t < horizon {
        sim.step(dt);
        t += dt;
    }
    let telemetry = sim.take_telemetry().unwrap().serialize(Format::Jsonl);
    let spans = sim.take_trace().unwrap().serialize(Format::Jsonl);

    let records = parse(&telemetry, Format::Jsonl).unwrap();
    let parsed_spans = parse_spans(&spans, Format::Jsonl).unwrap();
    let racks = pipeline::try_infer_racks(&records).unwrap();
    let summary = pipeline::replay_records(racks, PipelineConfig::default(), &records);
    let incidents_json = pipeline::reconstruct_json(&parsed_spans, &records);
    RecordedRun {
        telemetry,
        spans,
        summary_json: summary.to_json(),
        firings: summary.render_firings(),
        incidents_json,
    }
}

/// Drops every telemetry record with sim-time in `[t0_ms, t1_ms)` and
/// re-serializes — a mid-stream tenant silence window, the scenario the
/// `tenant-silent` deadman rule exists to catch.
pub fn silence_window(telemetry: &str, t0_ms: u64, t1_ms: u64) -> String {
    let records = parse(telemetry, Format::Jsonl).unwrap();
    let kept: Vec<_> = records
        .into_iter()
        .filter(|r| r.time_ms < t0_ms || r.time_ms >= t1_ms)
        .collect();
    render_parsed(&kept, Format::Jsonl)
}

/// What the offline stream monitor says about a trace under the default
/// rules — the byte-exact document the daemon must serve for the same
/// records at `/tenants/<id>/alerts`.
pub fn offline_alerts(telemetry: &str) -> String {
    let records = parse(telemetry, Format::Jsonl).unwrap();
    let racks = pipeline::try_infer_racks(&records).unwrap_or(1);
    let (_, monitor) = pipeline::monitor_records(
        racks,
        PipelineConfig::default(),
        pipeline::default_alert_rules(),
        &records,
    );
    monitor.alerts_json()
}

/// An in-process daemon bound to loopback, plus its discovered ports.
pub struct TestDaemon {
    pub data_addr: String,
    pub http_addr: String,
    pub out_dir: PathBuf,
    handle: JoinHandle<std::io::Result<()>>,
}

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory for one test.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("padsimd-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

impl TestDaemon {
    /// Starts a daemon on loopback (port 0) with an HTTP endpoint and
    /// an `--out` flush directory, waiting until both ports are bound.
    pub fn start(tag: &str) -> TestDaemon {
        let out_dir = scratch_dir(tag);
        let ports_file = out_dir.join("ports.txt");
        let opts = ServeOptions {
            listen: Some("127.0.0.1:0".to_string()),
            http: Some("127.0.0.1:0".to_string()),
            out: Some(out_dir.clone()),
            ports_file: Some(ports_file.clone()),
            ..ServeOptions::default()
        };
        let handle = std::thread::spawn(move || serve(opts));
        let deadline = Instant::now() + Duration::from_secs(10);
        let (mut data_addr, mut http_addr) = (None, None);
        while Instant::now() < deadline {
            if let Ok(text) = std::fs::read_to_string(&ports_file) {
                for line in text.lines() {
                    match line.split_once(' ') {
                        Some(("data", addr)) => data_addr = Some(addr.to_string()),
                        Some(("http", addr)) => http_addr = Some(addr.to_string()),
                        _ => {}
                    }
                }
                if data_addr.is_some() && http_addr.is_some() {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        TestDaemon {
            data_addr: data_addr.expect("daemon wrote the data address in time"),
            http_addr: http_addr.expect("daemon wrote the http address in time"),
            out_dir,
            handle,
        }
    }

    /// Sends the shutdown control line and waits for the daemon's
    /// drain-and-flush to finish, asserting it exited cleanly.
    pub fn shutdown(self) {
        let replies = paddaemon::client::send(
            &self.data_addr,
            &paddaemon::client::SendJob {
                shutdown: true,
                ..paddaemon::client::SendJob::default()
            },
        )
        .expect("shutdown control line");
        assert_eq!(replies, vec!["ok shutdown".to_string()]);
        self.handle
            .join()
            .expect("serve thread")
            .expect("serve exits cleanly");
    }
}
