//! The daemon's acceptors, graceful drain, and output flush.
//!
//! Std-only concurrency: every bound listener gets one thread blocked
//! in `accept()`, and every accepted connection gets its own thread
//! with a short read timeout so it can observe the shutdown flag
//! between reads. A `shutdown` control line (no signal handling — the
//! control path works identically over TCP and Unix sockets) wakes
//! `serve`, which wakes each acceptor by connecting to its listener,
//! drains every open session, flushes per-tenant outputs plus
//! `daemon_report.json` to `--out`, and returns cleanly.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use pad::pipeline::PipelineConfig;
use simkit::alert::AlertRule;
use simkit::telemetry::render_parsed;

use crate::http::{handle_http, render_alerts_doc};
use crate::session::run_session;
use crate::state::{Counters, DaemonState};

/// How long a session read blocks before re-checking the shutdown
/// flag. Short enough that a drain completes promptly, long enough to
/// keep the idle poll cost negligible.
pub const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// How long the drain waits to connect to a listener to wake its
/// acceptor; past it, the drain goes on without that acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Pause after a failed `accept()`. Errors such as running out of file
/// descriptors repeat until a connection closes, and the acceptor must
/// not spin on them.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(5);

/// What to bind and where to flush.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// TCP address for the telemetry stream listener (`host:port`;
    /// port 0 picks a free one). Defaults to `127.0.0.1:0` when no
    /// Unix socket is requested either.
    pub listen: Option<String>,
    /// Unix socket path for the telemetry stream listener.
    pub uds: Option<PathBuf>,
    /// TCP address for the HTTP endpoint (`/metrics`, incident API).
    pub http: Option<String>,
    /// Directory for the shutdown flush (per-tenant outputs plus
    /// `daemon_report.json`).
    pub out: Option<PathBuf>,
    /// File to write the bound addresses to, one `name addr` pair per
    /// line — how scripts discover port-0 allocations.
    pub ports_file: Option<PathBuf>,
    /// Pipeline knobs applied to every tenant.
    pub config: PipelineConfig,
    /// Alert rules for every tenant monitor; `None` runs
    /// [`pad::pipeline::default_alert_rules`].
    pub alert_rules: Option<Vec<AlertRule>>,
    /// Directory for per-tenant crash-recovery checkpoints. When set,
    /// the daemon restores every `<tenant>.ckpt` found at startup and
    /// rewrites checkpoints at detector-tick boundaries.
    pub state_dir: Option<PathBuf>,
    /// Per-tenant buffered-line watermark before overload shedding;
    /// `None` uses [`crate::state::MAX_BUFFERED_LINES_DEFAULT`].
    pub max_buffered_lines: Option<usize>,
    /// Close sessions that stay silent this long; `None` never reaps.
    pub idle_timeout: Option<Duration>,
}

/// Runs the daemon until a `shutdown` control line arrives; returns
/// after the drain and flush complete.
pub fn serve(opts: ServeOptions) -> io::Result<()> {
    let mut state = match opts.alert_rules.clone() {
        Some(rules) => DaemonState::with_rules(opts.config, rules, true),
        None => DaemonState::new(opts.config),
    };
    state.state_dir = opts.state_dir.clone();
    if let Some(max) = opts.max_buffered_lines {
        state.max_buffered_lines = max;
    }
    state.idle_timeout = opts.idle_timeout;
    if let Some(dir) = &state.state_dir {
        std::fs::create_dir_all(dir)?;
        let restored = state.load_checkpoints()?;
        if restored > 0 {
            println!("padsimd: restored {restored} tenant checkpoint(s)");
        }
    }
    let state = Arc::new(state);
    let data_listener = match (&opts.listen, &opts.uds) {
        (Some(addr), _) => Some(TcpListener::bind(addr)?),
        (None, None) => Some(TcpListener::bind("127.0.0.1:0")?),
        (None, Some(_)) => None,
    };
    let uds_listener = match &opts.uds {
        Some(path) => Some(bind_uds(path)?),
        None => None,
    };
    let http_listener = match &opts.http {
        Some(addr) => Some(TcpListener::bind(addr)?),
        None => None,
    };

    let mut ports = String::new();
    if let Some(listener) = &data_listener {
        ports.push_str(&format!("data {}\n", listener.local_addr()?));
    }
    if let Some(path) = &opts.uds {
        ports.push_str(&format!("uds {}\n", path.display()));
    }
    if let Some(listener) = &http_listener {
        ports.push_str(&format!("http {}\n", listener.local_addr()?));
    }
    if let Some(path) = &opts.ports_file {
        std::fs::write(path, &ports)?;
    }

    // One acceptor per listener, each paired with how to wake it.
    let mut acceptors: Vec<(Wake, Acceptor)> = Vec::new();
    if let Some(listener) = data_listener {
        let wake = Wake::tcp(&listener)?;
        acceptors.push((
            wake,
            spawn_acceptor(&state, tcp_accept(listener), serve_session),
        ));
    }
    #[cfg(unix)]
    if let (Some(listener), Some(path)) = (uds_listener, &opts.uds) {
        let accept = move || {
            let (stream, _) = listener.accept()?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            Ok(stream)
        };
        let wake = Wake::Uds(path.clone());
        acceptors.push((wake, spawn_acceptor(&state, accept, serve_session)));
    }
    #[cfg(not(unix))]
    let _ = uds_listener;
    if let Some(listener) = http_listener {
        let wake = Wake::tcp(&listener)?;
        acceptors.push((
            wake,
            spawn_acceptor(&state, tcp_accept(listener), serve_http),
        ));
    }
    print!("padsimd: serving\n{ports}");
    io::stdout().flush()?;
    state.set_ready(true);
    state.log_event("ready", "", "listeners bound");

    state.wait_for_shutdown();

    // Drain: each acceptor wakes, drops its listener (no new
    // connections) and hands back its connection threads; every session
    // thread observes the flag within one read timeout and finalizes
    // its tenant stream.
    state.set_ready(false);
    state.log_event("drain", "", "shutdown requested");
    let mut workers = Vec::new();
    for (wake, acceptor) in acceptors {
        if let Err(e) = wake.connect() {
            // Left blocked in `accept()`, that acceptor serves nothing
            // more: it checks the flag before handing a connection on.
            eprintln!("padsimd: cannot wake an acceptor: {e}");
            continue;
        }
        match acceptor.join() {
            Ok(handles) => workers.extend(handles),
            Err(_) => eprintln!("padsimd: an acceptor panicked"),
        }
    }
    for handle in workers {
        let _ = handle.join();
    }
    if let Some(path) = &opts.uds {
        let _ = std::fs::remove_file(path);
    }
    if let Some(dir) = &opts.out {
        flush_outputs(&state, dir)?;
    }
    println!("padsimd: drained and flushed, exiting");
    Ok(())
}

/// An acceptor thread; joining it yields the connection threads it has
/// not reaped.
type Acceptor = JoinHandle<Vec<JoinHandle<()>>>;

/// Spawns the thread that blocks in `accept` and runs `serve_conn` on
/// each connection in a thread of its own. It returns once a connection
/// arrives after a shutdown request — the one `serve` makes to wake it.
fn spawn_acceptor<S: Send + 'static>(
    state: &Arc<DaemonState>,
    mut accept: impl FnMut() -> io::Result<S> + Send + 'static,
    serve_conn: fn(S, &DaemonState),
) -> Acceptor {
    let state = Arc::clone(state);
    thread::spawn(move || {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted = accept();
            if state.shutting_down() {
                return workers;
            }
            // Reap finished connections so a long-lived daemon's handle
            // list stays bounded by its *concurrent* connection count.
            workers.retain(|handle| !handle.is_finished());
            match accepted {
                Ok(stream) => {
                    let state = Arc::clone(&state);
                    workers.push(thread::spawn(move || serve_conn(stream, &state)));
                }
                Err(e) => {
                    eprintln!("padsimd: accept error: {e}");
                    thread::sleep(ACCEPT_ERROR_PAUSE);
                }
            }
        }
    })
}

/// Blocking accepts on a TCP listener, each stream set up with the
/// session read timeout.
fn tcp_accept(listener: TcpListener) -> impl FnMut() -> io::Result<TcpStream> + Send {
    move || {
        let (stream, _) = listener.accept()?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(stream)
    }
}

fn serve_session<S: Read + Write>(stream: S, state: &DaemonState) {
    if let Err(e) = run_session(stream, state) {
        eprintln!("padsimd: session error: {e}");
    }
}

fn serve_http<S: Read + Write>(stream: S, state: &DaemonState) {
    if let Err(e) = handle_http(stream, state) {
        eprintln!("padsimd: http error: {e}");
    }
}

/// Where the drain connects to wake an acceptor blocked on its
/// listener.
enum Wake {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Uds(PathBuf),
}

impl Wake {
    /// The listener's own address; one bound to every interface
    /// (`0.0.0.0`, `::`) is reached through loopback.
    fn tcp(listener: &TcpListener) -> io::Result<Wake> {
        let mut addr = listener.local_addr()?;
        match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        Ok(Wake::Tcp(addr))
    }

    fn connect(&self) -> io::Result<()> {
        match self {
            Wake::Tcp(addr) => TcpStream::connect_timeout(addr, WAKE_TIMEOUT).map(drop),
            #[cfg(unix)]
            Wake::Uds(path) => std::os::unix::net::UnixStream::connect(path).map(drop),
        }
    }
}

#[cfg(unix)]
type UdsListener = std::os::unix::net::UnixListener;
#[cfg(not(unix))]
type UdsListener = std::convert::Infallible;

#[cfg(unix)]
fn bind_uds(path: &PathBuf) -> io::Result<UdsListener> {
    // A stale socket file from a crashed run would fail the bind.
    let _ = std::fs::remove_file(path);
    std::os::unix::net::UnixListener::bind(path)
}

#[cfg(not(unix))]
fn bind_uds(_path: &PathBuf) -> io::Result<UdsListener> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "unix sockets are not available on this platform",
    ))
}

/// Writes the shutdown flush: per tenant, the replay summary, firing
/// log, incident report, alert document, and re-serialized telemetry
/// (each byte-identical to the offline pipeline's output for the same
/// records), plus the aggregate `alerts.json` and a
/// `daemon_report.json` of the self-metrics, alert state, and ops log.
pub fn flush_outputs(state: &DaemonState, dir: &PathBuf) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Close every stream first so alert state is final (the monitor's
    // last tick evaluated) before anything renders, and forward any
    // transitions that fire at finalization into the ops log.
    for (name, tenant) in state.tenants() {
        let mut guard = tenant.lock().expect("tenant lock");
        guard.finalize();
        let transitions = guard.take_transitions();
        drop(guard);
        for ev in transitions {
            state.log_event(
                if ev.fired {
                    "alert_fired"
                } else {
                    "alert_resolved"
                },
                &name,
                &format!("{} t={} value={}", ev.rule, ev.time_ms, ev.value),
            );
        }
    }
    let alerts_doc = render_alerts_doc(state);
    std::fs::write(dir.join("alerts.json"), &alerts_doc)?;

    let mut report = String::from("{");
    let c = &state.counters;
    report.push_str(&format!(
        "\"sessions_opened\":{},\"sessions_closed\":{},\"records\":{},\
         \"spans\":{},\"parse_errors\":{},\"http_requests\":{}",
        Counters::get(&c.sessions_opened),
        Counters::get(&c.sessions_closed),
        Counters::get(&c.records),
        Counters::get(&c.spans),
        Counters::get(&c.parse_errors),
        Counters::get(&c.http_requests),
    ));
    report.push_str(",\"tenants\":[");
    let mut alerts_firing = 0;
    for (i, (name, tenant)) in state.tenants().into_iter().enumerate() {
        let mut guard = tenant.lock().expect("tenant lock");
        let summary = guard.finalize().clone();
        std::fs::write(dir.join(format!("{name}.detect.json")), summary.to_json())?;
        std::fs::write(
            dir.join(format!("{name}.firings.txt")),
            summary.render_firings(),
        )?;
        std::fs::write(
            dir.join(format!("{name}.incidents.json")),
            guard.incidents_json(),
        )?;
        let ext = guard.format.extension();
        std::fs::write(
            dir.join(format!("{name}.telemetry.{ext}")),
            render_parsed(guard.records(), guard.format),
        )?;
        let mut alert_events = 0;
        if let Some(doc) = guard.alerts_json() {
            std::fs::write(dir.join(format!("{name}.alerts.json")), doc)?;
        }
        if let Some(mon) = guard.monitor() {
            alert_events = mon.engine().events().len();
            alerts_firing += mon.engine().firing_count();
        }
        if i > 0 {
            report.push(',');
        }
        report.push_str(&format!(
            "\n{{\"tenant\":\"{name}\",\"records\":{},\"spans\":{},\"parse_errors\":{},\
             \"sessions\":{},\"level\":{},\"alert_events\":{alert_events}}}",
            guard.records().len(),
            guard.spans.len(),
            guard.parse_errors,
            guard.sessions,
            guard.level().number(),
        ));
    }
    report.push_str(&format!(
        "],\"alerts_firing\":{alerts_firing},\"ops_log_dropped\":{},\"ops_log\":{}}}\n",
        state.with_ops_log(|log| log.dropped()),
        state.with_ops_log(|log| log.render_json_array()),
    ));
    std::fs::write(dir.join("daemon_report.json"), report)
}
