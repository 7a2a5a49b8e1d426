//! Wire-level chaos harness: kill-and-restart and fault-proxy
//! scenarios with a byte-identical recovery oracle.
//!
//! Each scenario runs the same deterministic trace twice through real
//! `padsimd` subprocesses: once uninterrupted (the baseline) and once
//! under a [`ChaosPlan`] — connection cuts, stalls, pathological
//! chunking via [`FaultProxy`], and/or a hard daemon kill (`SIGKILL`)
//! mid-stream followed by a restart on the same port and a
//! checkpoint-restore. The resuming client is [`send_resumable`]. The
//! oracle then diffs every flushed output file (`<t>.detect.json`,
//! `<t>.firings.txt`, `<t>.incidents.json`, `<t>.alerts.json`,
//! `<t>.telemetry.*`, `alerts.json`) between the two runs: for a
//! lossless plan they must be **byte-identical** — a crash at any
//! checkpoint boundary costs neither a replayed nor a dropped line.
//! (`daemon_report.json` is excluded: session counts legitimately
//! differ across a reconnect.)
//!
//! `padsimd chaos --ci-smoke` runs the four lossless scenarios the CI
//! gate pins; the full set adds a CSV-format cut and a deliberately
//! lossy garble plan (reported, never failed on).

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use simkit::chaos::{ChaosPlan, FaultProxy, WireFault};
use simkit::rng::RngStream;
use simkit::telemetry::{parse, render_parsed, Format, CSV_HEADER};
use simkit::trace::SPAN_CSV_HEADER;

use crate::client::{open_resume, send, send_resumable, Conn, RetryOpts, SendJob};

/// What the chaos runner should do.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Path to the `padsimd` binary to spawn daemons from.
    pub daemon_bin: PathBuf,
    /// Scratch and report directory; each scenario gets a subdirectory
    /// and the aggregate lands in `chaos_report.json`.
    pub out: PathBuf,
    /// Seed for the generated trace and the fault plans.
    pub seed: u64,
    /// Run only the lossless CI scenario set.
    pub ci_smoke: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            daemon_bin: PathBuf::new(),
            out: PathBuf::from("chaos-out"),
            seed: 42,
            ci_smoke: false,
        }
    }
}

/// One scenario's verdict.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario (and plan) name.
    pub name: String,
    /// Whether the plan was lossless (identical outputs required).
    pub lossless: bool,
    /// Whether the daemon was killed and restarted mid-stream.
    pub killed: bool,
    /// Whether every compared output file matched byte-for-byte.
    pub identical: bool,
    /// The output files that differed (empty when `identical`).
    pub mismatches: Vec<String>,
}

/// The aggregate chaos verdict, written to `chaos_report.json`.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Per-scenario verdicts, in run order.
    pub scenarios: Vec<ScenarioResult>,
}

impl ChaosReport {
    /// `true` when every lossless scenario recovered byte-identically
    /// — the CI gate.
    pub fn all_lossless_identical(&self) -> bool {
        self.scenarios.iter().all(|s| !s.lossless || s.identical)
    }

    /// One human-readable line per scenario plus a verdict line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            let _ = writeln!(
                out,
                "chaos {}: lossless={} killed={} identical={}{}",
                s.name,
                s.lossless,
                s.killed,
                s.identical,
                if s.mismatches.is_empty() {
                    String::new()
                } else {
                    format!(" mismatches={}", s.mismatches.join(","))
                }
            );
        }
        let passing = self
            .scenarios
            .iter()
            .filter(|s| !s.lossless || s.identical)
            .count();
        let _ = writeln!(
            out,
            "chaos: {}/{} scenarios pass the lossless-identical gate",
            passing,
            self.scenarios.len()
        );
        out
    }

    /// The `chaos_report.json` document (flags as 0/1, repo JSON
    /// convention).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"scenarios\":[");
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"lossless\":{},\"killed\":{},\"identical\":{},\
                 \"mismatches\":[{}]}}",
                s.name,
                u8::from(s.lossless),
                u8::from(s.killed),
                u8::from(s.identical),
                s.mismatches
                    .iter()
                    .map(|m| format!("\"{m}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        if !self.scenarios.is_empty() {
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// Generates the deterministic chaos trace: `ticks` detector ticks of
/// 100 ms across `racks` racks, with seeded noise and periodic spikes
/// so the detector stack, policy FSM, and alert engine all change
/// state mid-stream.
pub fn chaos_trace(seed: u64, ticks: u64, racks: u64) -> String {
    let mut rng = RngStream::new(seed).fork("chaos-trace");
    let mut out = String::new();
    for t in 0..ticks {
        for rack in 0..racks {
            let noise = rng.uniform(-2.0, 2.0);
            let spike = if t % 19 == 3 { 45.0 } else { 0.0 };
            let v = 100.0 + rack as f64 * 5.0 + (t % 7) as f64 + noise + spike;
            let _ = writeln!(
                out,
                "{{\"t\":{},\"m\":\"rack-{rack:02}.draw_w\",\"v\":{v}}}",
                t * 100
            );
        }
    }
    out
}

/// The span trace streamed alongside the telemetry (drives the
/// incident reconstruction outputs).
fn chaos_spans(ticks: u64) -> String {
    let end = ticks.saturating_sub(1) * 100;
    let mid = end / 2;
    format!(
        "{{\"id\":0,\"name\":\"attack.drain\",\"parent\":null,\"t0\":300,\"t1\":{mid},\"attrs\":{{\"rack\":1}}}}\n\
         {{\"id\":1,\"name\":\"attack.spike\",\"parent\":0,\"t0\":400,\"t1\":800,\"attrs\":{{}}}}\n"
    )
}

/// A spawned `padsimd serve` subprocess plus its bound data address.
struct DaemonProc {
    child: Child,
    data_addr: SocketAddr,
}

impl DaemonProc {
    /// `SIGKILL` — the crash under test, not a graceful drain.
    fn kill(&mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }

    /// Asks the daemon to drain and flush, then reaps it.
    fn shutdown(mut self) -> io::Result<()> {
        let job = SendJob {
            shutdown: true,
            ..SendJob::default()
        };
        send(&self.data_addr.to_string(), &job)?;
        self.child.wait()?;
        Ok(())
    }
}

/// Spawns `padsimd serve --listen <listen> --state-dir … --out …` and
/// waits for its ports file to name the bound data address.
fn start_daemon(
    bin: &Path,
    listen: &str,
    state_dir: &Path,
    out_dir: &Path,
    ports_file: &Path,
) -> io::Result<DaemonProc> {
    let _ = std::fs::remove_file(ports_file);
    let child = Command::new(bin)
        .arg("serve")
        .arg("--listen")
        .arg(listen)
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--out")
        .arg(out_dir)
        .arg("--ports-file")
        .arg(ports_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let started = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(ports_file) {
            if let Some(addr) = text
                .lines()
                .find_map(|line| line.strip_prefix("data "))
                .and_then(|addr| addr.parse::<SocketAddr>().ok())
            {
                return Ok(DaemonProc {
                    child,
                    data_addr: addr,
                });
            }
        }
        if started.elapsed() > Duration::from_secs(10) {
            let mut child = child;
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "daemon did not write its ports file within 10s",
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Streams the first `prefix_lines` telemetry data lines of `job` over
/// a resume session and returns the open connection, so the caller can
/// kill the daemon while the stream is mid-send.
fn stream_prefix(target: &str, job: &SendJob, prefix_lines: usize) -> io::Result<Conn> {
    let csv = job.format == "csv";
    let lines: Vec<&str> = job
        .telemetry
        .lines()
        .filter(|l| !(l.trim().is_empty() || csv && l.trim_end() == CSV_HEADER.trim_end()))
        .collect();
    let (mut conn, seq) = open_resume(target, &job.tenant, job.format, lines.len() as u64)?;
    if csv {
        conn.write_all(CSV_HEADER.as_bytes())?;
    }
    for line in lines
        .iter()
        .skip(seq as usize)
        .take(prefix_lines.saturating_sub(seq as usize))
    {
        writeln!(conn, "{line}")?;
    }
    conn.flush()?;
    Ok(conn)
}

/// One scenario: a plan, a wire format, and whether to run it in the
/// `--ci-smoke` set.
struct Scenario {
    plan: ChaosPlan,
    format: Format,
    smoke: bool,
}

/// Builds the scenario set for a trace of `bytes` bytes / `lines` data
/// lines.
fn scenarios(bytes: u64, lines: u64) -> Vec<Scenario> {
    vec![
        Scenario {
            plan: ChaosPlan::new("kill_restart").with_kill_at_line(lines / 2),
            format: Format::Jsonl,
            smoke: true,
        },
        Scenario {
            plan: ChaosPlan::new("cut_mid_stream").with(WireFault::CutAt {
                offset: bytes * 2 / 5,
            }),
            format: Format::Jsonl,
            smoke: true,
        },
        Scenario {
            plan: ChaosPlan::new("stall_chunk")
                .with(WireFault::StallAt {
                    offset: bytes / 3,
                    ms: 20,
                })
                .with(WireFault::Chunk { max_bytes: 7 }),
            format: Format::Jsonl,
            smoke: true,
        },
        Scenario {
            plan: ChaosPlan::new("tiny_chunks").with(WireFault::Chunk { max_bytes: 5 }),
            format: Format::Jsonl,
            smoke: true,
        },
        Scenario {
            plan: ChaosPlan::new("csv_cut").with(WireFault::CutAt { offset: bytes / 2 }),
            format: Format::Csv,
            smoke: false,
        },
        Scenario {
            plan: ChaosPlan::new("lossy_garble").with(WireFault::GarbleLine {
                index: 1 + lines / 3,
            }),
            format: Format::Jsonl,
            smoke: false,
        },
    ]
}

/// The output files the oracle compares (with `<t>` = the tenant).
const COMPARED: [&str; 6] = [
    "chaos.detect.json",
    "chaos.firings.txt",
    "chaos.incidents.json",
    "chaos.alerts.json",
    "chaos.telemetry.{ext}",
    "alerts.json",
];

/// Byte-diffs the baseline and chaos output directories.
fn compare_outputs(base: &Path, chaos: &Path, ext: &str) -> io::Result<Vec<String>> {
    let mut mismatches = Vec::new();
    for name in COMPARED {
        let name = name.replace("{ext}", ext);
        let a = std::fs::read(base.join(&name));
        let b = std::fs::read(chaos.join(&name));
        match (a, b) {
            (Ok(a), Ok(b)) if a == b => {}
            _ => mismatches.push(name),
        }
    }
    Ok(mismatches)
}

/// Runs one scenario end to end and returns its verdict.
fn run_scenario(opts: &ChaosOptions, scenario: &Scenario) -> io::Result<ScenarioResult> {
    let plan = &scenario.plan;
    let dir = opts.out.join(plan.name());
    let _ = std::fs::remove_dir_all(&dir);
    for sub in ["base-out", "chaos-out", "base-state", "chaos-state"] {
        std::fs::create_dir_all(dir.join(sub))?;
    }

    // The deterministic workload, rendered for the scenario's format.
    let ticks = 240;
    let jsonl = chaos_trace(opts.seed, ticks, 2);
    let records = parse(&jsonl, Format::Jsonl)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let (telemetry, format_name, ext) = match scenario.format {
        Format::Jsonl => (jsonl.clone(), "jsonl", "jsonl"),
        Format::Csv => (render_parsed(&records, Format::Csv), "csv", "csv"),
    };
    let data_lines = records.len() as u64;
    let job = SendJob {
        tenant: "chaos".to_string(),
        format: format_name,
        telemetry,
        spans: Some(match scenario.format {
            Format::Jsonl => chaos_spans(ticks),
            Format::Csv => {
                // Same spans, CSV-framed.
                let mut out = String::from(SPAN_CSV_HEADER);
                let half = (ticks - 1) * 100 / 2;
                let _ = writeln!(out, "0,attack.drain,,300,{half},rack=1");
                let _ = writeln!(out, "1,attack.spike,0,400,800,");
                out
            }
        }),
        end: true,
        shutdown: false,
    };
    let retries = RetryOpts::default();

    // Baseline: uninterrupted run.
    let base = start_daemon(
        &opts.daemon_bin,
        "127.0.0.1:0",
        &dir.join("base-state"),
        &dir.join("base-out"),
        &dir.join("base-ports.txt"),
    )?;
    send_resumable(&base.data_addr.to_string(), &job, &retries)?;
    base.shutdown()?;

    // Chaos run.
    let mut daemon = start_daemon(
        &opts.daemon_bin,
        "127.0.0.1:0",
        &dir.join("chaos-state"),
        &dir.join("chaos-out"),
        &dir.join("chaos-ports.txt"),
    )?;
    let daemon_addr = daemon.data_addr;
    let proxy = if plan.faults().is_empty() {
        None
    } else {
        Some(FaultProxy::start(daemon_addr, plan)?)
    };
    let target = proxy
        .as_ref()
        .map(|p| p.addr().to_string())
        .unwrap_or_else(|| daemon_addr.to_string());

    let mut killed = false;
    if let Some(kill_at) = plan.kill_at_line() {
        // Stream the prefix, hard-kill mid-stream, restart on the SAME
        // port (so the target address stays valid), then let the
        // resumable client recover from the restored checkpoint.
        let conn = stream_prefix(&target, &job, kill_at.min(data_lines) as usize)?;
        std::thread::sleep(Duration::from_millis(150));
        daemon.kill()?;
        killed = true;
        drop(conn);
        daemon = start_daemon(
            &opts.daemon_bin,
            &daemon_addr.to_string(),
            &dir.join("chaos-state"),
            &dir.join("chaos-out"),
            &dir.join("chaos-ports.txt"),
        )?;
    }
    send_resumable(&target, &job, &retries)?;
    if let Some(proxy) = proxy {
        proxy.stop();
    }
    daemon.shutdown()?;

    let mismatches = compare_outputs(&dir.join("base-out"), &dir.join("chaos-out"), ext)?;
    Ok(ScenarioResult {
        name: plan.name().to_string(),
        lossless: plan.is_lossless(),
        killed,
        identical: mismatches.is_empty(),
        mismatches,
    })
}

/// Runs the scenario set and writes `chaos_report.json` under
/// `opts.out`.
pub fn run_chaos(opts: &ChaosOptions) -> io::Result<ChaosReport> {
    if opts.daemon_bin.as_os_str().is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "ChaosOptions.daemon_bin must point at a padsimd binary",
        ));
    }
    std::fs::create_dir_all(&opts.out)?;
    // Size the plans off the JSONL rendering; offsets are approximate
    // by design (faults only need to land mid-stream).
    let jsonl = chaos_trace(opts.seed, 240, 2);
    let lines = jsonl.lines().count() as u64;
    let mut report = ChaosReport::default();
    for scenario in scenarios(jsonl.len() as u64, lines) {
        if opts.ci_smoke && !scenario.smoke {
            continue;
        }
        report.scenarios.push(run_scenario(opts, &scenario)?);
    }
    std::fs::write(opts.out.join("chaos_report.json"), report.to_json())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_trace_is_deterministic_and_parseable() {
        let a = chaos_trace(7, 50, 2);
        let b = chaos_trace(7, 50, 2);
        assert_eq!(a, b);
        assert_ne!(a, chaos_trace(8, 50, 2));
        let records = parse(&a, Format::Jsonl).unwrap();
        assert_eq!(records.len(), 100);
        // The CSV rendering round-trips through the shared codec too.
        let csv = render_parsed(&records, Format::Csv);
        assert_eq!(parse(&csv, Format::Csv).unwrap(), records);
    }

    #[test]
    fn report_renders_json_and_gates_on_lossless_scenarios_only() {
        let report = ChaosReport {
            scenarios: vec![
                ScenarioResult {
                    name: "kill_restart".to_string(),
                    lossless: true,
                    killed: true,
                    identical: true,
                    mismatches: Vec::new(),
                },
                ScenarioResult {
                    name: "lossy_garble".to_string(),
                    lossless: false,
                    killed: false,
                    identical: false,
                    mismatches: vec!["chaos.detect.json".to_string()],
                },
            ],
        };
        assert!(report.all_lossless_identical(), "lossy may differ");
        let json = report.to_json();
        assert!(json.contains("\"name\":\"kill_restart\",\"lossless\":1,\"killed\":1"));
        assert!(json.contains("\"mismatches\":[\"chaos.detect.json\"]"));
        let text = report.render_text();
        assert!(text.contains("chaos kill_restart: lossless=true killed=true identical=true"));
        assert!(text.contains("2/2 scenarios pass"));

        let mut failing = report.clone();
        failing.scenarios[0].identical = false;
        failing.scenarios[0].mismatches = vec!["alerts.json".to_string()];
        assert!(!failing.all_lossless_identical());
    }

    #[test]
    fn scenario_set_covers_kill_faults_and_formats() {
        let all = scenarios(20_000, 400);
        assert_eq!(all.len(), 6);
        let smoke: Vec<&str> = all
            .iter()
            .filter(|s| s.smoke)
            .map(|s| s.plan.name())
            .collect();
        assert_eq!(
            smoke,
            [
                "kill_restart",
                "cut_mid_stream",
                "stall_chunk",
                "tiny_chunks"
            ]
        );
        assert!(all.iter().filter(|s| s.smoke).all(|s| s.plan.is_lossless()));
        assert!(all.iter().any(|s| s.format == Format::Csv));
        assert!(all.iter().any(|s| !s.plan.is_lossless()));
        assert!(all[0].plan.kill_at_line().is_some());
    }
}
