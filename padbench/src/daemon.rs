//! The daemon workloads: a real `padsimd serve` child, driven over
//! loopback TCP and HTTP by a load generator in this process.
//!
//! * `daemon-ingest` — no state directory, no scrapes: framing, parse,
//!   pipeline and monitor at full rate while the journal and HTTP idle.
//! * `daemon-prod` — the journal on (`--state-dir`) and a scraper that
//!   fetches `GET /metrics` and then `GET /tenants/<id>/alerts` five
//!   times a session, as a dashboard polling the daemon would.
//!
//! Both stream recorded 22-rack attack sessions (a `ping` after every
//! tick, `end` after the last) over two tenant names on one connection,
//! taking these phases in turn in four blocks (see `Split` for the
//! shares):
//!
//! 1. open loop — each tick is sent at its scheduled instant, 250k
//!    events/s in all (about 140 real-time 22-rack clusters), whether or
//!    not the daemon keeps up. A tick's latency runs from the instant it
//!    was due to the arrival of its `pong`, so a stall also charges the
//!    ticks queued behind it. The scrapes run on the same schedule.
//! 2. closed loop — whole sessions, each written as fast as the daemon
//!    reads it: the throughput.
//! 3. round trips (`daemon-ingest` only) — whole sessions, each tick
//!    written when the previous tick's `pong` has come back: a verdict's
//!    latency with nothing queued ahead of it.
//!
//! The generator uses two threads (a writer and a reply reader), plus
//! the scraper's on `daemon-prod`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use pad::pipeline::{
    default_alert_rules, monitor_records, replay_records, try_infer_racks, PipelineConfig,
};
use pad::prof::extract_json_number;
use pad::schemes::Scheme;
use paddaemon::client::http_get;
use paddaemon::http::handle_http;
use paddaemon::proto::{classify, Control, Line};
use paddaemon::state::{DaemonState, Tenant};
use simkit::rng::RngStream;
use simkit::telemetry::{parse_line, parse_lossy, Format, TelemetryReport};

use crate::inputs::{rack_hours, record_session, stream, Recording};
use crate::spans::{SpanId, Spans};
use crate::spec::{end_to_end, Layers};
use crate::speed::{loopback_probe, probe};
use crate::stats::{peak_rss_mb, Samples};
use crate::{Outcome, RunArgs, Workload};

/// Aggregate open-loop rate: about 140 real-time 22-rack clusters
/// (1,780 events/s each) folded into one connection.
const OPEN_LOOP_EVENTS_PER_S: f64 = 250_000.0;
/// Blocks a run takes its phases in.
const BLOCKS: u32 = 4;
/// Ticks per recorded session: 100 simulated seconds, attack at 25 s.
const SESSION_TICKS: u64 = 1_000;
const SMOKE_SESSION_TICKS: u64 = 60;
/// The two recordings the sessions rotate over.
const SCHEMES: [Scheme; 2] = [Scheme::Pad, Scheme::Pspc];
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Daemon start-ups per run; `setup_s` is their median.
const SPAWNS: usize = 5;
/// `daemon-prod` scrapes this many times a session in the open loop
/// (every 142 ms at full scale), at the same points of every session, so
/// each scrape renders the same retained records in every run.
const SCRAPES_PER_SESSION: usize = 5;
/// Scrape period of the in-process scraper of a traced run.
const IN_PROCESS_SCRAPE_PERIOD: Duration = Duration::from_millis(89);
/// Longest wait for any single reply before the run gives up.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// A generator that falls further behind its schedule than one
/// simulated tick would measure itself, not the daemon.
const MAX_LAG_MS: f64 = 100.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

/// `padsimd`, built into the same target directory as this program.
pub fn padsimd_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate padbench: {e}"))?;
    let dir = exe.parent().ok_or("padbench has no parent directory")?;
    // Test binaries live one level down, in `deps/`.
    [dir.join("padsimd"), dir.join("../padsimd")]
        .into_iter()
        .find(|p| p.is_file())
        .ok_or_else(|| {
            format!(
                "padsimd not found in {} — build it into the same target directory with \
                 `cargo build --release -p pad-daemon --bin padsimd`",
                dir.display()
            )
        })
}

/// A running `padsimd serve` child. Dropping it kills the child.
struct Daemon {
    child: Child,
    data: String,
    http: String,
}

impl Daemon {
    /// Starts the daemon in `dir` and waits until `/readyz` answers 200;
    /// returns it with the time that took. The state directory, when
    /// `journal` is on, starts empty every time.
    fn spawn(bin: &Path, dir: &Path, journal: bool) -> Result<(Daemon, Duration), String> {
        let err = |e: io::Error| format!("{}: {e}", dir.display());
        std::fs::create_dir_all(dir).map_err(err)?;
        let ports = dir.join("ports.txt");
        let state = dir.join("state");
        let _ = std::fs::remove_file(&ports);
        let _ = std::fs::remove_dir_all(&state);
        let stderr = std::fs::File::create(dir.join("padsimd.stderr")).map_err(err)?;
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .arg("--ports-file")
            .arg(&ports)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        if journal {
            cmd.arg("--state-dir").arg(&state);
        }
        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            data: String::new(),
            http: String::new(),
        };
        while t0.elapsed() < IO_TIMEOUT {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("padsimd exited during start-up ({status})"));
            }
            if daemon.http.is_empty() {
                let text = std::fs::read_to_string(&ports).unwrap_or_default();
                let addr = |name: &str| {
                    text.lines()
                        .find_map(|l| l.strip_prefix(name))
                        .map(str::to_string)
                };
                if let (Some(data), Some(http)) = (addr("data "), addr("http ")) {
                    (daemon.data, daemon.http) = (data, http);
                }
            }
            if !daemon.http.is_empty() {
                if let Ok((status, _)) = http_get(&daemon.http, "/readyz") {
                    if status.contains(" 200 ") {
                        return Ok((daemon, t0.elapsed()));
                    }
                }
            }
            thread::sleep(Duration::from_micros(200));
        }
        Err("padsimd did not become ready".to_string())
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(Some(self.child.id())).unwrap_or(f64::NAN)
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = connect(&self.data).map_err(|e| format!("shutdown: {e}"))?;
        conn.write_all(b"shutdown\n")
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut reply = String::new();
        let _ = BufReader::new(conn).read_line(&mut reply);
        let t0 = Instant::now();
        while t0.elapsed() < IO_TIMEOUT {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("padsimd exited with {status}")),
                Ok(None) => thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("waiting for padsimd: {e}")),
            }
        }
        Err("padsimd did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // The generator's own writes go out at once; what is measured is
    // the daemon's side of the socket.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// The generator's data connection: the write half and buffered
/// replies. Both phases share it, so one daemon session thread does all
/// the ingest and the daemon's memory does not depend on which thread
/// allocated what.
struct Wire {
    conn: TcpStream,
    replies: BufReader<TcpStream>,
}

impl Wire {
    fn open(daemon: &Daemon) -> Result<Wire, String> {
        let conn = connect(&daemon.data).map_err(|e| format!("data connection: {e}"))?;
        let replies = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        Ok(Wire { conn, replies })
    }
}

/// What the generator tells the scraper: the session each tenant has
/// open (ids start at 1) and the session that finished last, so an
/// alerts document is only compared while its session is still the
/// tenant's newest.
#[derive(Debug, Default)]
struct Board {
    next_id: AtomicU64,
    open: [AtomicU64; 2],
    finished: Mutex<Option<(usize, u64, usize)>>,
}

impl Board {
    /// Reserves `n` consecutive session ids.
    fn reserve(&self, n: usize) -> u64 {
        self.next_id.fetch_add(n as u64, Ordering::SeqCst) + 1
    }

    fn open(&self, tenant: usize, id: u64) {
        self.open[tenant].store(id, Ordering::SeqCst);
    }

    fn finish(&self, tenant: usize, id: u64, recording: usize) {
        *self.finished.lock().expect("board lock") = Some((tenant, id, recording));
    }

    fn is_open(&self, tenant: usize, id: u64) -> bool {
        self.open[tenant].load(Ordering::SeqCst) == id
    }
}

/// Reads one session's replies — the hello ack, a `pong` per tick in
/// order, the `end` summary — calling `on_pong` with each tick's index
/// as its pong arrives. The summary must equal the offline replay's.
fn read_session(
    reader: &mut impl BufRead,
    tenant: &str,
    rec: &Recording,
    mut on_pong: impl FnMut(usize),
) -> Result<(), String> {
    let mut line = String::new();
    let mut next = |line: &mut String| -> Result<(), String> {
        line.clear();
        match reader.read_line(line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(e.to_string()),
        }
    };
    next(&mut line)?;
    if line.trim_end() != format!("ok hello {tenant}") {
        return Err(format!("hello answered {:?}", line.trim_end()));
    }
    for i in 0..rec.ticks.len() {
        next(&mut line)?;
        if line != "pong\n" {
            return Err(format!("ping {i} answered {:?}", line.trim_end()));
        }
        on_pong(i);
    }
    next(&mut line)?;
    if line != rec.summary_json {
        return Err("the end summary differs from the offline replay".to_string());
    }
    Ok(())
}

#[derive(Debug, Default)]
struct OpenLoop {
    latency_ms: Samples,
    lag_ms: Samples,
    /// Per phase, how much further behind its schedule the writer was in
    /// the phase's last second than in its first (medians over the
    /// ticks). A stall of the host, or the daemon's backpressure, delays
    /// some ticks and is caught up; a writer that cannot keep the
    /// schedule falls further behind as the phase goes on.
    drift_ms: Samples,
}

/// The open-loop phase: sessions back to back, alternating tenants,
/// each tick due on a fixed schedule. A reader thread takes the replies
/// while this one writes; with `scrape_http`, a third scrapes on the
/// same schedule.
fn open_loop(
    wire: &mut Wire,
    recs: &[Recording],
    picks: &mut RngStream,
    board: &Board,
    budget: Duration,
    scrape_http: Option<&str>,
    out: &mut Outcome,
) -> Result<(OpenLoop, Option<Scrapes>), String> {
    let per_tick = recs.iter().map(Recording::records_per_tick).sum::<f64>() / recs.len() as f64;
    let gap_s = per_tick / OPEN_LOOP_EVENTS_PER_S;
    let session_s = gap_s * recs[0].ticks.len() as f64;
    let sessions = ((budget.as_secs_f64() / session_s).round() as usize).max(1);
    let order: Vec<usize> = (0..sessions).map(|_| picks.below(recs.len())).collect();
    let first_id = board.reserve(sessions);
    // A short lead so the reader is listening before the first tick.
    let start = Instant::now() + Duration::from_millis(20);
    let due = |slot: usize| start + Duration::from_secs_f64(gap_s * slot as f64);

    let slots: usize = order.iter().map(|&r| recs[r].ticks.len()).sum();
    let Wire { conn, replies } = wire;
    let mut lag_ms = Vec::with_capacity(slots);
    let (read, write_error, scrapes) = thread::scope(|s| {
        let scraper = scrape_http.map(|http| {
            s.spawn(move || {
                let mut scrapes = Scrapes::default();
                let every = (recs[0].ticks.len() / SCRAPES_PER_SESSION).max(1);
                for slot in (every..slots).step_by(every) {
                    sleep_until(due(slot));
                    scrapes.speed.push(probe(1));
                    // Sessions are a whole number of scrape periods long,
                    // so this is the scrape's point in its session.
                    let point = (slot / every) % SCRAPES_PER_SESSION;
                    scrape(http, recs, board, point, &mut scrapes);
                }
                scrapes
            })
        });
        let reader = s.spawn(|| {
            let mut latency = Samples::default();
            let mut slot = 0;
            for (k, &r) in order.iter().enumerate() {
                let tenant = k % TENANTS.len();
                let rec = &recs[r];
                let read = read_session(replies, TENANTS[tenant], rec, |i| {
                    latency.push(ms(Instant::now().saturating_duration_since(due(slot + i))));
                });
                if let Err(e) = read {
                    return (latency, Some((k, e)));
                }
                slot += rec.ticks.len();
                board.finish(tenant, first_id + k as u64, r);
            }
            (latency, None)
        });
        let mut slot = 0;
        let mut write = || -> io::Result<()> {
            for (k, &r) in order.iter().enumerate() {
                let tenant = k % TENANTS.len();
                let rec = &recs[r];
                for (i, tick) in rec.ticks.iter().enumerate() {
                    let at = due(slot);
                    sleep_until(at);
                    lag_ms.push(ms(Instant::now().saturating_duration_since(at)));
                    if i == 0 {
                        board.open(tenant, first_id + k as u64);
                        conn.write_all(format!("hello {} jsonl\n", TENANTS[tenant]).as_bytes())?;
                    }
                    conn.write_all(tick)?;
                    if i + 1 == rec.ticks.len() {
                        conn.write_all(b"end\n")?;
                    }
                    slot += 1;
                }
            }
            Ok(())
        };
        let write_error = write().err();
        if write_error.is_some() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        (
            reader.join().expect("open-loop reader"),
            write_error,
            scraper.map(|h| h.join().expect("scraper thread")),
        )
    });
    let (latency_ms, read_error) = read;
    let per_session = 1 + recs[0].ticks.len() as u64;
    let done = read_error.as_ref().map_or(sessions, |(k, _)| *k);
    out.attempted += done as u64 * per_session;
    if let Some((k, e)) = read_error {
        out.lost(
            (sessions - k) as u64 * per_session,
            &format!("open-loop session {k}: {e} (write side: {write_error:?})"),
        );
        return Err(format!("open-loop session {k} failed"));
    }
    let second = ((1.0 / gap_s).ceil() as usize).min(lag_ms.len());
    let median = |lags: &[f64]| lags.iter().copied().collect::<Samples>().median();
    let drift = median(&lag_ms[lag_ms.len() - second..]) - median(&lag_ms[..second]);
    let open = OpenLoop {
        latency_ms,
        lag_ms: lag_ms.into_iter().collect(),
        drift_ms: [drift].into_iter().collect(),
    };
    Ok((open, scrapes))
}

/// The closed-loop phase: whole sessions back to back, each written as
/// fast as the daemon reads it, then its replies read, each after a
/// host-speed probe. Returns each session's rack-hours per second,
/// scaled by the host's speed, and its raw nanoseconds per record.
fn closed_loop(
    wire: &mut Wire,
    recs: &[Recording],
    picks: &mut RngStream,
    board: &Board,
    budget: Duration,
    out: &mut Outcome,
) -> Result<(Samples, Samples), String> {
    let (mut rates, mut ns_per_record) = (Samples::default(), Samples::default());
    let end = Instant::now() + budget;
    for k in 0.. {
        let tenant = k % TENANTS.len();
        let r = picks.below(recs.len());
        let rec = &recs[r];
        let id = board.reserve(1);
        board.open(tenant, id);
        // The writer and the daemon's session thread keep both vCPUs busy.
        let speed = probe(2);
        let t0 = Instant::now();
        let mut send = || -> io::Result<()> {
            wire.conn
                .write_all(format!("hello {} jsonl\n", TENANTS[tenant]).as_bytes())?;
            for tick in &rec.ticks {
                wire.conn.write_all(tick)?;
            }
            wire.conn.write_all(b"end\n")
        };
        let result = send()
            .map_err(|e| e.to_string())
            .and_then(|()| read_session(&mut wire.replies, TENANTS[tenant], rec, |_| {}));
        let wall = t0.elapsed();
        out.check(result.is_ok(), || {
            format!("closed-loop session {k}: {result:?}")
        });
        out.attempted += rec.ticks.len() as u64;
        if result.is_err() {
            return Err(format!("closed-loop session {k} failed"));
        }
        board.finish(tenant, id, r);
        rates.push(rack_hours(rec.ticks.len() as u64) / (wall.as_secs_f64() * speed));
        ns_per_record.push(wall.as_nanos() as f64 / rec.records as f64);
        if Instant::now() >= end {
            break;
        }
    }
    Ok((rates, ns_per_record))
}

/// The round-trip phase: whole sessions, each tick written only when the
/// previous tick's `pong` has arrived, so no tick waits behind another.
/// Returns the median and the 90th percentile of each session's round
/// trips, from a tick's first byte written to the arrival of its `pong`,
/// scaled by the host's loopback speed, probed before the session.
fn round_trips(
    wire: &mut Wire,
    recs: &[Recording],
    picks: &mut RngStream,
    board: &Board,
    budget: Duration,
    out: &mut Outcome,
) -> Result<(Samples, Samples), String> {
    let (mut p50, mut p90) = (Samples::default(), Samples::default());
    let Wire { conn, replies } = wire;
    let end = Instant::now() + budget;
    for k in 0.. {
        let tenant = k % TENANTS.len();
        let r = picks.below(recs.len());
        let rec = &recs[r];
        let id = board.reserve(1);
        board.open(tenant, id);
        let speed = loopback_probe().map_err(|e| format!("loopback probe: {e}"))?;
        let mut rtt = Samples::default();
        let mut write_error = None;
        let mut send = |bytes: &[u8]| {
            if let Err(e) = conn.write_all(bytes) {
                write_error.get_or_insert(e.to_string());
            }
        };
        // The hello's reply comes before the first pong, so the first
        // tick's round trip is not timed.
        send(format!("hello {} jsonl\n", TENANTS[tenant]).as_bytes());
        send(&rec.ticks[0]);
        let mut sent = Instant::now();
        let result = read_session(replies, TENANTS[tenant], rec, |i| {
            if i > 0 {
                rtt.push(ms(sent.elapsed()));
            }
            sent = Instant::now();
            send(rec.ticks.get(i + 1).map_or(&b"end\n"[..], |t| &t[..]));
        });
        out.check(result.is_ok(), || {
            format!("round-trip session {k}: {result:?} (write side: {write_error:?})")
        });
        out.attempted += rec.ticks.len() as u64;
        if result.is_err() {
            return Err(format!("round-trip session {k} failed"));
        }
        board.finish(tenant, id, r);
        p50.push(rtt.quantile(0.5) * speed);
        p90.push(rtt.quantile(0.9) * speed);
        if Instant::now() >= end {
            break;
        }
    }
    Ok((p50, p90))
}

#[derive(Debug, Default)]
struct Scrapes {
    /// `/metrics` latencies by the scrape's point in its session: each
    /// point renders the same retained records in every session.
    metrics_ms: [Samples; SCRAPES_PER_SESSION],
    alerts_ms: Samples,
    /// The host's speed before each scrape. The probe shares the vCPUs
    /// with the daemon's ingest, so a single reading is noisy; the
    /// latencies are scaled by the run's median.
    speed: Samples,
    attempted: u64,
    failed: u64,
}

/// One round of `daemon-prod`'s scraper: the whole-daemon `/metrics`
/// exposition, then the alerts document of the tenant whose session
/// finished last, which must equal the offline monitor's.
fn scrape(http: &str, recs: &[Recording], board: &Board, point: usize, s: &mut Scrapes) {
    let t0 = Instant::now();
    let reply = http_get(http, "/metrics");
    s.metrics_ms[point].push(ms(t0.elapsed()));
    s.attempted += 1;
    if !matches!(&reply, Ok((status, body)) if status.contains(" 200 ") && body.contains("padsimd_records_total"))
    {
        s.failed += 1;
        eprintln!("padbench: check failed: /metrics answered {reply:?}");
    }

    let Some((tenant, id, r)) = *board.finished.lock().expect("board lock") else {
        return;
    };
    if !board.is_open(tenant, id) {
        return;
    }
    let t0 = Instant::now();
    let reply = http_get(http, &format!("/tenants/{}/alerts", TENANTS[tenant]));
    s.alerts_ms.push(ms(t0.elapsed()));
    // A newer session may have reset the tenant while the request was
    // in flight; only a document of the finished one is checked.
    if board.is_open(tenant, id) {
        s.attempted += 1;
        if !matches!(&reply, Ok((status, body)) if status.contains(" 200 ") && *body == recs[r].alerts_json)
        {
            s.failed += 1;
            eprintln!(
                "padbench: check failed: the alerts document of {} differs from the offline monitor's",
                TENANTS[tenant]
            );
        }
    }
}

/// What the three phases measured, over every block of a run.
#[derive(Debug, Default)]
struct Phases {
    open: OpenLoop,
    scrapes: Scrapes,
    rates: Samples,
    ns_per_record: Samples,
    round_trip_p50_ms: Samples,
    round_trip_p90_ms: Samples,
}

/// How each block of a run is shared between the phases.
#[derive(Debug, Clone, Copy)]
struct Split {
    open: f64,
    closed: f64,
    round_trips: f64,
}

/// `daemon-ingest`: the open loop checks the generator and prints the
/// tick latencies under load; the closed loop and the round trips give
/// the gated throughput and latency.
const INGEST_SPLIT: Split = Split {
    open: 0.5,
    closed: 0.25,
    round_trips: 0.25,
};
/// `daemon-prod`: the scrapes, whose latency is gated, run in the open
/// loop, so it takes most of the run.
const PROD_SPLIT: Split = Split {
    open: 0.75,
    closed: 0.25,
    round_trips: 0.0,
};
/// The live half of a traced run: the generator's lag and the transport
/// residual.
const TRACED_SPLIT: Split = Split {
    open: 0.5,
    closed: 0.5,
    round_trips: 0.0,
};

/// Runs the phases in turn over four blocks, so each phase's sessions
/// sample the whole run, not one stretch of it. Sessions pick their
/// recording from the seeded `picks` stream.
#[allow(clippy::too_many_arguments)]
fn phases(
    wire: &mut Wire,
    recs: &[Recording],
    seed: u64,
    board: &Board,
    budget: Duration,
    split: Split,
    scrape_http: Option<&str>,
    out: &mut Outcome,
) -> Result<Phases, String> {
    let mut picks = stream(seed, "rotation");
    let mut p = Phases::default();
    let block = budget / BLOCKS;
    for _ in 0..BLOCKS {
        let (open, scrapes) = open_loop(
            wire,
            recs,
            &mut picks,
            board,
            block.mul_f64(split.open),
            scrape_http,
            out,
        )?;
        p.open.latency_ms.extend(&open.latency_ms);
        p.open.lag_ms.extend(&open.lag_ms);
        p.open.drift_ms.extend(&open.drift_ms);
        if let Some(s) = scrapes {
            for (all, block) in p.scrapes.metrics_ms.iter_mut().zip(&s.metrics_ms) {
                all.extend(block);
            }
            p.scrapes.alerts_ms.extend(&s.alerts_ms);
            p.scrapes.speed.extend(&s.speed);
            out.attempted += s.attempted;
            out.failed += s.failed;
        }
        let closed = block.mul_f64(split.closed);
        let (rates, ns) = closed_loop(wire, recs, &mut picks, board, closed, out)?;
        p.rates.extend(&rates);
        p.ns_per_record.extend(&ns);
        if split.round_trips > 0.0 {
            let budget = block.mul_f64(split.round_trips);
            let (p50, p90) = round_trips(wire, recs, &mut picks, board, budget, out)?;
            p.round_trip_p50_ms.extend(&p50);
            p.round_trip_p90_ms.extend(&p90);
        }
    }
    Ok(p)
}

/// Checks the daemon's own tallies after the phases: nothing shed,
/// nothing unparseable. Returns `(parse_errors, lines_shed,
/// checkpoint_frames)`.
fn check_statusz(daemon: &Daemon, journal: bool, out: &mut Outcome) -> (f64, f64, f64) {
    let body = match http_get(&daemon.http, "/statusz") {
        Ok((status, body)) if status.contains(" 200 ") => body,
        other => {
            out.lost(1, &format!("/statusz answered {other:?}"));
            return (f64::NAN, f64::NAN, f64::NAN);
        }
    };
    let field = |key: &str| extract_json_number(&body, key).unwrap_or(f64::NAN);
    let (errors, shed, frames) = (
        field("parse_errors"),
        field("lines_shed"),
        field("checkpoint_frames"),
    );
    out.check(errors == 0.0 && shed == 0.0, || {
        format!("daemon counted {errors} parse errors and shed {shed} lines")
    });
    if journal {
        out.check(frames > 0.0, || "the journal wrote no frames".to_string());
    }
    (errors, shed, frames)
}

fn recordings(args: &RunArgs) -> Vec<Recording> {
    let ticks = if args.smoke {
        SMOKE_SESSION_TICKS
    } else {
        SESSION_TICKS
    };
    SCHEMES
        .iter()
        .enumerate()
        .map(|(i, &scheme)| record_session(args.seed, &format!("session-{i}"), scheme, ticks))
        .collect()
}

/// Runs `daemon-ingest` or `daemon-prod`.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let bin = padsimd_path()?;
    let recs = recordings(args);
    if args.trace {
        return traced(args, &bin, &recs);
    }
    let journal = args.workload == Workload::DaemonProd;
    let dir = args.out.join(args.workload.name());
    let budget = Duration::from_secs_f64(args.seconds);
    let mut out = Outcome::default();

    let mut setup = Samples::default();
    let mut daemon = None;
    for _ in 0..if args.smoke { 2 } else { SPAWNS } {
        let (d, took) = Daemon::spawn(&bin, &dir, journal)?;
        setup.push(took.as_secs_f64());
        if let Some(previous) = daemon.replace(d) {
            previous.shutdown()?;
        }
    }
    let daemon = daemon.expect("at least one daemon started");

    let mut wire = Wire::open(&daemon)?;
    let board = Board::default();
    let scrape_http = journal.then_some(daemon.http.as_str());
    let split = if journal { PROD_SPLIT } else { INGEST_SPLIT };
    let Phases {
        open,
        scrapes,
        rates,
        round_trip_p50_ms,
        round_trip_p90_ms,
        ..
    } = phases(
        &mut wire,
        &recs,
        args.seed,
        &board,
        budget,
        split,
        scrape_http,
        &mut out,
    )?;
    let rss = daemon.peak_rss_mb();
    check_statusz(&daemon, journal, &mut out);
    drop(wire);
    daemon.shutdown()?;

    let drift = open.drift_ms.quantile(1.0);
    println!(
        "generator.lag_p99_ms {:.4} ms n={} (open-loop schedule, diagnostic)",
        open.lag_ms.quantile(0.99),
        open.lag_ms.len()
    );
    println!(
        "generator.drift_ms {drift:.4} ms n={} (worst open-loop phase, diagnostic)",
        open.drift_ms.len()
    );
    println!(
        "tick_latency_ms p50 {:.4} p90 {:.4} p99 {:.4} n={} (open-loop ticks, diagnostic)",
        open.latency_ms.quantile(0.5),
        open.latency_ms.quantile(0.9),
        open.latency_ms.quantile(0.99),
        open.latency_ms.len(),
    );
    let scrape_speed = scrapes.speed.median();
    if journal {
        println!(
            "query_alerts_p50_ms {:.4} ms n={} (diagnostic)",
            scrapes.alerts_ms.median() * scrape_speed,
            scrapes.alerts_ms.len()
        );
    }
    println!("peak_rss_mb {rss:.3} MB (padsimd VmHWM, diagnostic)");
    if drift > MAX_LAG_MS {
        return Err(format!(
            "invalid run: the generator fell {drift:.1} ms further behind its schedule in an \
             open-loop phase, more than one simulated tick; its latencies would measure the \
             generator"
        ));
    }
    // The latencies are what each workload's user waits for, scaled by
    // the host's speed. On daemon-prod, a scrape of `/metrics`: across
    // the scrape points of a session, of each point's median, as the
    // simulator workloads take them across schemes. On daemon-ingest, a
    // tick's verdict with nothing queued ahead of it, in the median
    // round-trip session: the host stalls for a second at a time, and the
    // median session leaves such stalls out. The open-loop tick latency
    // above is not gated: a stall there also delays every tick queued
    // behind it, which measures the host.
    let (p50, p90, n) = if journal {
        let points = &scrapes.metrics_ms;
        let per_point: Samples = points
            .iter()
            .filter(|s| s.len() > 0)
            .map(|s| s.median() * scrape_speed)
            .collect();
        (
            per_point.quantile(0.5),
            per_point.quantile(0.9),
            points.iter().map(Samples::len).sum(),
        )
    } else {
        (
            round_trip_p50_ms.median(),
            round_trip_p90_ms.median(),
            round_trip_p50_ms.len() * (recs[0].ticks.len() - 1),
        )
    };
    out.metrics = vec![
        end_to_end("setup_s", setup.median(), setup.len()),
        end_to_end("rack_hours_per_s", rates.median(), rates.len()),
        end_to_end("latency_p50_ms", p50, n),
        end_to_end("latency_p90_ms", p90, n),
    ];
    Ok(out)
}

/// An in-memory HTTP exchange for `handle_http`.
struct MemStream {
    input: io::Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn get_in_process(state: &DaemonState, path: &str) -> bool {
    let mut stream = MemStream {
        input: io::Cursor::new(format!("GET {path} HTTP/1.0\r\n\r\n").into_bytes()),
        output: Vec::new(),
    };
    handle_http(&mut stream, state).is_ok() && stream.output.starts_with(b"HTTP/1.0 200")
}

/// Per-tick sums of the per-line calls, folded into the tick's span.
#[derive(Debug, Default, Clone, Copy)]
struct TickWork {
    lines: u64,
    records: u64,
    classify_ns: u64,
    parse_ns: u64,
    lock_ns: u64,
    ingest_ns: u64,
}

/// What one in-process replay pass did.
#[derive(Debug, Default)]
struct InProcess {
    wall: Duration,
    records: u64,
    ticks: Vec<TickWork>,
    /// Journal bytes per record of each finished session.
    journal_bytes_per_record: Samples,
    /// Checkpoint frames of the first session.
    frames_per_session: u64,
}

/// Feeds sessions through the calls a daemon session makes for each
/// line — `classify` → `parse_line` → `Tenant::ingest_record_wire` →
/// the checkpoint write at tick boundaries → `finalize` at `end` — with
/// no socket in between. With `spans`, every call is timed.
fn replay_in_process(
    state: &DaemonState,
    recs: &[Recording],
    order: &[usize],
    budget: Duration,
    mut spans: Option<(&mut Spans, SpanId)>,
    out: &mut Outcome,
) -> InProcess {
    let mut pass = InProcess::default();
    let t0 = Instant::now();
    let frames_before = paddaemon::state::Counters::get(&state.counters.checkpoint_frames);
    let mut tick_no = 0u64;
    for (k, &r) in order.iter().cycle().enumerate() {
        if k > 0 && t0.elapsed() >= budget {
            break;
        }
        let rec = &recs[r];
        let name = TENANTS[k % TENANTS.len()];
        let session = spans
            .as_mut()
            .map(|(s, root)| s.begin("session", Some(*root), k as u64));
        let (tenant, _) = match (&mut spans, session) {
            (Some((s, _)), Some(id)) => s.time("tenant.open", Some(id), k as u64, || {
                state.open_tenant(name, Format::Jsonl)
            }),
            _ => state.open_tenant(name, Format::Jsonl),
        };
        let mut line_no = 1;
        for bytes in &rec.ticks {
            let text = std::str::from_utf8(bytes).expect("recorded lines are UTF-8");
            let tick_span = match (&mut spans, session) {
                (Some((s, _)), Some(id)) => Some(s.begin("daemon.tick", Some(id), tick_no)),
                _ => None,
            };
            let mut work = TickWork::default();
            for line in text.lines() {
                line_no += 1;
                work.lines += 1;
                let timed = tick_span.is_some();
                let c0 = timed.then(Instant::now);
                let class = classify(line);
                let c1 = timed.then(Instant::now);
                match class {
                    Line::Data => {
                        let parsed = parse_line(line, line_no, Format::Jsonl);
                        let c2 = timed.then(Instant::now);
                        let Ok(record) = parsed else {
                            out.lost(1, &format!("{name}: unparseable line {line_no}"));
                            continue;
                        };
                        let mut guard = tenant.lock().expect("tenant lock");
                        let c3 = timed.then(Instant::now);
                        let ticked = guard.ingest_record_wire(line, record);
                        let c4 = timed.then(Instant::now);
                        if ticked {
                            checkpoint(
                                state,
                                &mut guard,
                                spans.as_mut().map(|(s, _)| &mut **s).zip(tick_span),
                                tick_no,
                                out,
                            );
                        }
                        drop(guard);
                        work.records += 1;
                        if let (Some(c0), Some(c1), Some(c2), Some(c3), Some(c4)) =
                            (c0, c1, c2, c3, c4)
                        {
                            work.classify_ns += (c1 - c0).as_nanos() as u64;
                            work.parse_ns += (c2 - c1).as_nanos() as u64;
                            work.lock_ns += (c3 - c2).as_nanos() as u64;
                            work.ingest_ns += (c4 - c3).as_nanos() as u64;
                        }
                    }
                    Line::Control(Control::Ping) => {
                        if let (Some(c0), Some(c1)) = (c0, c1) {
                            work.classify_ns += (c1 - c0).as_nanos() as u64;
                        }
                    }
                    other => out.lost(1, &format!("{name}: unexpected line {other:?}")),
                }
            }
            if let (Some((s, _)), Some(id)) = (&mut spans, tick_span) {
                s.attr(id, "lines", work.lines as f64);
                s.attr(id, "records", work.records as f64);
                s.attr(id, "classify_ns", work.classify_ns as f64);
                s.attr(id, "parse_ns", work.parse_ns as f64);
                s.attr(id, "lock_wait_ns", work.lock_ns as f64);
                s.attr(id, "ingest_ns", work.ingest_ns as f64);
                s.end(id);
                pass.ticks.push(work);
            }
            pass.records += work.records;
            tick_no += 1;
        }
        let mut guard = tenant.lock().expect("tenant lock");
        let summary = match (&mut spans, session) {
            (Some((s, _)), Some(id)) => s.time("tenant.finalize", Some(id), k as u64, || {
                guard.finalize().to_json()
            }),
            _ => guard.finalize().to_json(),
        };
        checkpoint(
            state,
            &mut guard,
            spans.as_mut().map(|(s, _)| &mut **s).zip(session),
            k as u64,
            out,
        );
        drop(guard);
        out.check(summary == rec.summary_json, || {
            format!("in-process session {k}: the end summary differs from the offline replay")
        });
        if let (Some(path), Some(journal)) = (state.checkpoint_path(name), state.journal_path(name))
        {
            let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
            pass.journal_bytes_per_record
                .push((size(&path) + size(&journal)) as f64 / rec.records as f64);
        }
        if k == 0 {
            pass.frames_per_session =
                paddaemon::state::Counters::get(&state.counters.checkpoint_frames) - frames_before;
        }
        if let (Some((s, _)), Some(id)) = (&mut spans, session) {
            s.end(id);
        }
    }
    pass.wall = t0.elapsed();
    pass
}

/// The durable write a session makes at a tick boundary (or at `end`):
/// the base document first, journal frames after. A no-op without a
/// state directory.
fn checkpoint(
    state: &DaemonState,
    tenant: &mut Tenant,
    spans: Option<(&mut Spans, SpanId)>,
    request: u64,
    out: &mut Outcome,
) {
    if state.state_dir.is_none() {
        return;
    }
    let base = tenant.checkpoint_due();
    let result = match spans {
        Some((s, parent)) => {
            let name = if base {
                "journal.base"
            } else {
                "journal.append"
            };
            s.time(name, Some(parent), request, || {
                if base {
                    state.write_checkpoint(tenant)
                } else {
                    state.append_checkpoint_frame(tenant)
                }
            })
        }
        None if base => state.write_checkpoint(tenant),
        None => state.append_checkpoint_frame(tenant),
    };
    if let Err(e) = result {
        out.lost(1, &format!("checkpoint of {}: {e}", tenant.name));
    }
}

/// The in-process scraper of a traced `daemon-prod` run: the same two
/// requests as the live scraper, through `handle_http` on an in-memory
/// stream, at about the same rate.
fn scrape_in_process(state: &DaemonState, stop: &AtomicBool, spans: &mut Spans) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    let mut next = Instant::now();
    let mut k = 0u64;
    while !stop.load(Ordering::SeqCst) {
        next += IN_PROCESS_SCRAPE_PERIOD;
        sleep_until(next);
        k += 1;
        let tenant = TENANTS[k as usize % TENANTS.len()];
        if state.tenant(tenant).is_none() {
            continue;
        }
        let root = spans.begin("scrape", None, k);
        for (name, path) in [
            ("http.metrics", "/metrics".to_string()),
            ("http.alerts", format!("/tenants/{tenant}/alerts")),
        ] {
            attempted += 1;
            if !spans.time(name, Some(root), k, || get_in_process(state, &path)) {
                failed += 1;
                eprintln!("padbench: check failed: in-process GET {path} did not answer 200");
            }
        }
        spans.end(root);
    }
    (attempted, failed)
}

/// The traced run of a daemon workload. A quarter of the time replays
/// sessions in process untimed (the overhead baseline), a quarter
/// replays them with every call timed, and half drives a real daemon —
/// open loop for the generator's lag, one closed-loop connection for
/// the end-to-end cost per record that the in-process calls leave
/// unexplained (the transport residual).
///
/// On `daemon-prod` only the timed pass scrapes. A scrape holds a
/// tenant's lock for tens of milliseconds, and the live closed loop the
/// residual compares with runs without scrapes.
fn traced(args: &RunArgs, bin: &Path, recs: &[Recording]) -> Result<Outcome, String> {
    let journal = args.workload == Workload::DaemonProd;
    let dir = args.out.join(args.workload.name());
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let mut picks = stream(args.seed, "in-process");
    let order: Vec<usize> = (0..64).map(|_| picks.below(recs.len())).collect();
    let mut out = Outcome::default();

    let make_state = |label: &str| -> Result<DaemonState, String> {
        let mut state = DaemonState::new(PipelineConfig::default());
        if journal {
            let path = dir.join(label);
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            state.state_dir = Some(path);
        }
        Ok(state)
    };
    let epoch = Instant::now();
    let pass = |traced: bool, out: &mut Outcome| -> Result<(InProcess, Spans), String> {
        let state = make_state(if traced {
            "traced-state"
        } else {
            "baseline-state"
        })?;
        let stop = AtomicBool::new(false);
        let mut spans = Spans::new(epoch);
        let mut scrape_spans = Spans::new(epoch);
        let (result, scraped) = thread::scope(|s| {
            let scraper = (journal && traced)
                .then(|| s.spawn(|| scrape_in_process(&state, &stop, &mut scrape_spans)));
            let root = spans.begin("padbench.run", None, 0);
            let result = replay_in_process(
                &state,
                recs,
                &order,
                quarter,
                traced.then_some((&mut spans, root)),
                out,
            );
            spans.end(root);
            stop.store(true, Ordering::SeqCst);
            (
                result,
                scraper.map(|h| h.join().expect("in-process scraper")),
            )
        });
        if let Some((attempted, failed)) = scraped {
            out.attempted += attempted;
            out.failed += failed;
        }
        spans.merge(scrape_spans);
        Ok((result, spans))
    };
    let (baseline, _) = pass(false, &mut out)?;
    let (traced_pass, mut spans) = pass(true, &mut out)?;

    // The offline halves of a tenant's ingest, once per recording:
    // replay_records is the pipeline alone, monitor_records the pipeline
    // plus the alert monitor.
    let offline = spans.begin("offline", None, 0);
    let (mut offline_records, mut samples_fed) = (0u64, 0u64);
    for (i, rec) in recs.iter().enumerate() {
        let text: String = rec
            .ticks
            .iter()
            .map(|t| String::from_utf8_lossy(t).replace("ping\n", ""))
            .collect();
        let records = spans.time("codec.parse", Some(offline), i as u64, || {
            parse_lossy(&text, Format::Jsonl).records
        });
        let racks = try_infer_racks(&records).unwrap_or(1);
        let summary = spans.time("pipeline.replay", Some(offline), i as u64, || {
            replay_records(racks, PipelineConfig::default(), &records)
        });
        samples_fed += summary.samples_fed;
        spans.time("monitor.replay", Some(offline), i as u64, || {
            monitor_records(
                racks,
                PipelineConfig::default(),
                default_alert_rules(),
                &records,
            )
        });
        offline_records += records.len() as u64;
        if journal {
            spans.time("report.from_records", Some(offline), i as u64, || {
                TelemetryReport::from_records(&records)
            });
        }
    }
    spans.end(offline);

    // A real daemon for what only a socket shows.
    let (daemon, _) = Daemon::spawn(bin, &dir, journal)?;
    let board = Board::default();
    let mut wire = Wire::open(&daemon)?;
    let live = phases(
        &mut wire,
        recs,
        args.seed,
        &board,
        quarter * 2,
        TRACED_SPLIT,
        None,
        &mut out,
    )?;
    let (parse_errors, shed, _) = check_statusz(&daemon, journal, &mut out);
    drop(wire);
    daemon.shutdown()?;

    let mut layers = Layers::default();
    let sum = |f: fn(&TickWork) -> u64| traced_pass.ticks.iter().map(f).sum::<u64>() as f64;
    let records = traced_pass.records.max(1) as f64;
    let lines = sum(|w| w.lines).max(1.0);
    let n = traced_pass.records as usize;
    layers.set(
        "wire.classify_ns_per_line",
        sum(|w| w.classify_ns) / lines,
        lines as usize,
    );
    layers.set(
        "codec.parse_ns_per_record",
        sum(|w| w.parse_ns) / records,
        n,
    );
    layers.set(
        "tenant.ingest_ns_per_record",
        sum(|w| w.ingest_ns) / records,
        n,
    );
    let lock_wait: Samples = traced_pass
        .ticks
        .iter()
        .map(|w| w.lock_ns as f64 / 1e3)
        .collect();
    layers.set(
        "tenant.lock_wait_us_p90",
        lock_wait.quantile(0.9),
        lock_wait.len(),
    );
    let finalize = spans.samples_ms("tenant.finalize");
    layers.set("tenant.finalize_ms", finalize.median(), finalize.len());
    // monitor_records runs the pipeline and the monitor; what it costs
    // beyond the plain replay is the monitor's share.
    let span_layers = spans.layers();
    let total_ns = |name: &str| span_layers.get(name).map_or(0, |l| l.total_ns) as f64;
    let per_offline_record = offline_records.max(1) as f64;
    layers.set(
        "pipeline.ingest_ns_per_record",
        total_ns("pipeline.replay") / per_offline_record,
        offline_records as usize,
    );
    layers.set(
        "pipeline.samples_fed_ratio",
        samples_fed as f64 / per_offline_record,
        offline_records as usize,
    );
    layers.set(
        "monitor.observe_ns_per_record",
        (total_ns("monitor.replay") - total_ns("pipeline.replay")) / per_offline_record,
        offline_records as usize,
    );
    if journal {
        let append = spans.samples_ms("journal.append");
        layers.set("journal.append_us", append.mean() * 1e3, append.len());
        let base = spans.samples_ms("journal.base");
        layers.set("journal.base_ms", base.mean(), base.len());
        let bytes = &traced_pass.journal_bytes_per_record;
        layers.set("journal.bytes_per_record", bytes.median(), bytes.len());
        let metrics = spans.samples_ms("http.metrics");
        layers.set("http.metrics_ms", metrics.median(), metrics.len());
        let alerts = spans.samples_ms("http.alerts");
        layers.set("http.alerts_ms", alerts.median(), alerts.len());
        let report = spans.samples_ms("report.from_records");
        layers.set("report.from_records_ms", report.median(), report.len());
        layers.set(
            "daemon.checkpoint_frames",
            traced_pass.frames_per_session as f64,
            1,
        );
    }
    let untraced_ns = baseline.wall.as_nanos() as f64 / baseline.records.max(1) as f64;
    layers.set(
        "transport.residual_ns_per_record",
        live.ns_per_record.median() - untraced_ns,
        live.ns_per_record.len(),
    );
    layers.set(
        "generator.lag_p99_ms",
        live.open.lag_ms.quantile(0.99),
        live.open.lag_ms.len(),
    );
    layers.set(
        "daemon.records",
        recs.iter().map(|r| r.records).sum::<usize>() as f64,
        1,
    );
    layers.set("daemon.parse_errors", parse_errors, 1);
    layers.set("daemon.lines_shed", shed, 1);
    // The untimed pass had no scraper to wait for, so the timed pass's
    // waits for the tenant lock are left out of its time.
    let traced_ns = (traced_pass.wall.as_nanos() as f64 - sum(|w| w.lock_ns)) / records;
    layers.set("trace.overhead_ratio", traced_ns / untraced_ns, 1);
    layers.set("trace.coverage_ratio", spans.coverage(), 1);
    layers.set(
        "trace.spans",
        span_layers.values().map(|l| l.count).sum::<u64>() as f64,
        1,
    );
    out.metrics = layers.into_metrics();
    spans
        .write(&args.out, args.workload.name(), &out.metrics)
        .map_err(|e| format!("writing the span files to {}: {e}", args.out.display()))?;
    Ok(out)
}
