//! Client helpers for the `padsimd send` / `padsimd get` subcommands
//! (and the test suites): stream a recorded trace into a daemon and
//! fetch HTTP API documents, with no external tooling.
//!
//! Two send paths: [`send`] is the classic one-shot streamer (write
//! everything, half-close, read every reply), and [`send_resumable`]
//! is the crash-tolerant path — it opens with
//! `hello <tenant> <format> resume <seq>`, rewinds its send buffer to
//! the daemon's acked durable sequence number, and reconnects with
//! bounded deterministic exponential backoff on any wire failure, so a
//! daemon kill-and-restart mid-stream costs neither a replayed nor a
//! dropped line.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use simkit::telemetry::{is_csv_header, CSV_HEADER};
use simkit::trace::{is_span_csv_header, SPAN_CSV_HEADER};

use crate::proto::{classify, Line};
use crate::session::rejects_a_data_line;

/// A connected stream socket — TCP, or a Unix socket when the target
/// is `unix:<path>`.
#[derive(Debug)]
pub enum Conn {
    /// TCP connection (`host:port` target).
    Tcp(TcpStream),
    /// Unix-socket connection (`unix:<path>` target).
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    /// Connects to `host:port`, or `unix:<path>` for a Unix socket.
    pub fn connect(target: &str) -> io::Result<Conn> {
        if let Some(path) = target.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                return Ok(Conn::Unix(std::os::unix::net::UnixStream::connect(path)?));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ));
            }
        }
        Ok(Conn::Tcp(TcpStream::connect(target)?))
    }

    /// Half-closes the write side so the daemon sees EOF and drains the
    /// session, while replies stay readable.
    pub fn finish_writes(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(stream) => stream.shutdown(Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.shutdown(Shutdown::Write),
        }
    }

    /// Sets the read timeout, so reply reads cannot hang forever on a
    /// wedged daemon.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(stream) => stream.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(stream) => stream.read(buf),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(stream) => stream.write(buf),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(stream) => stream.flush(),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.flush(),
        }
    }
}

/// One trace to stream as a session.
#[derive(Debug, Clone, Default)]
pub struct SendJob {
    /// Tenant name for the `hello` line.
    pub tenant: String,
    /// Format token for the `hello` line (`jsonl`/`csv`).
    pub format: &'static str,
    /// Telemetry trace text (full file, trailing newline included).
    pub telemetry: String,
    /// Optional span trace text, streamed after the telemetry.
    pub spans: Option<String>,
    /// Send `end` (expect the summary reply) after the data.
    pub end: bool,
    /// Send `shutdown` as the final line.
    pub shutdown: bool,
}

/// Streams `job` over `target` and returns every reply line the daemon
/// sent (hello ack, summary JSON, error lines, shutdown ack).
pub fn send(target: &str, job: &SendJob) -> io::Result<Vec<String>> {
    let mut conn = Conn::connect(target)?;
    if !job.tenant.is_empty() {
        writeln!(conn, "hello {} {}", job.tenant, job.format)?;
        conn.write_all(job.telemetry.as_bytes())?;
        if let Some(spans) = &job.spans {
            conn.write_all(spans.as_bytes())?;
        }
        if job.end {
            writeln!(conn, "end")?;
        }
    }
    if job.shutdown {
        writeln!(conn, "shutdown")?;
    }
    conn.flush()?;
    conn.finish_writes()?;
    let mut replies = String::new();
    conn.read_to_string(&mut replies)?;
    Ok(replies.lines().map(str::to_string).collect())
}

/// Reconnect policy for [`send_resumable`]: attempt `k` (0-based)
/// sleeps `min(base_delay_ms << k, 2000)` milliseconds first — bounded
/// and deterministic, no jitter, so test runs and chaos reports are
/// reproducible.
#[derive(Debug, Clone)]
pub struct RetryOpts {
    /// Total connection attempts before giving up.
    pub max_attempts: u32,
    /// Backoff base, in milliseconds.
    pub base_delay_ms: u64,
}

impl Default for RetryOpts {
    fn default() -> Self {
        RetryOpts {
            max_attempts: 8,
            base_delay_ms: 50,
        }
    }
}

impl RetryOpts {
    /// The deterministic backoff before attempt `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let ms = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(2000);
        Duration::from_millis(ms)
    }
}

/// How long a reply read may block before the attempt counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Reads one newline-terminated reply line (without the newline).
fn read_reply_line(conn: &mut Conn) -> io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match conn.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a reply line",
                    ));
                }
                break;
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > 64 * 1024 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "reply line exceeds 64 KiB",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(String::from_utf8_lossy(&line)
        .trim_end_matches('\r')
        .to_string())
}

/// Reads replies up to the one that answers `end`. The `err` replies to
/// data lines the daemon's framing rejected come first, in order, and go
/// to `replies`: the daemon ingested the stream around those lines.
fn read_end_reply(conn: &mut Conn, replies: &mut Vec<String>) -> io::Result<String> {
    loop {
        let reply = read_reply_line(conn)?;
        if !rejects_a_data_line(&reply) {
            return Ok(reply);
        }
        replies.push(reply);
    }
}

/// Connects and re-attaches to `tenant`'s stream via
/// `hello <tenant> <format> resume <client_seq>`, returning the
/// connection and the daemon's acked durable sequence number.
///
/// Error kinds are meaningful to the retry loop: `InvalidData` carries
/// a daemon `err …` rejection (fatal — retrying cannot help), and
/// `WouldBlock` carries a `busy retry-after` refusal (retryable).
pub fn open_resume(
    target: &str,
    tenant: &str,
    format: &str,
    client_seq: u64,
) -> io::Result<(Conn, u64)> {
    let mut conn = Conn::connect(target)?;
    conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
    writeln!(conn, "hello {tenant} {format} resume {client_seq}")?;
    conn.flush()?;
    let reply = read_reply_line(&mut conn)?;
    if let Some(rest) = reply.strip_prefix(&format!("ok hello {tenant} seq ")) {
        let seq = rest.trim().parse::<u64>().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed resume ack {reply:?}"),
            )
        })?;
        return Ok((conn, seq));
    }
    if reply.starts_with("busy retry-after ") {
        return Err(io::Error::new(io::ErrorKind::WouldBlock, reply));
    }
    let message = reply.strip_prefix("err ").unwrap_or(&reply).to_string();
    Err(io::Error::new(io::ErrorKind::InvalidData, message))
}

/// A [`SendJob`]'s payload normalized into resumable units: the data
/// lines the daemon's sequence number counts, with CSV headers (which
/// buffer nothing and advance nothing) held separately for re-emission
/// after a rewind.
struct WireData {
    csv: bool,
    telemetry: Vec<String>,
    spans: Vec<String>,
}

impl WireData {
    /// Splits the job's texts into data lines.
    ///
    /// # Errors
    ///
    /// `InvalidInput` naming the first line the daemon would take for a
    /// control line (`ping`, `end`, `hello …`, `shutdown`, or a malformed
    /// one): the daemon would answer it in place of the summary and not
    /// count it, which would throw the resume index off.
    fn from_job(job: &SendJob) -> io::Result<WireData> {
        let csv = job.format == "csv";
        let data_lines = |text: &str, what: &str| {
            let mut lines = Vec::new();
            for (n, line) in text.lines().enumerate() {
                if line.trim().is_empty()
                    || csv && (is_csv_header(line) || is_span_csv_header(line))
                {
                    continue;
                }
                if let Line::Control(_) | Line::BadControl(_) = classify(line) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "{what} line {} is a control line, not data: {line:?}",
                            n + 1
                        ),
                    ));
                }
                lines.push(line.to_string());
            }
            Ok(lines)
        };
        Ok(WireData {
            csv,
            telemetry: data_lines(&job.telemetry, "telemetry")?,
            spans: match &job.spans {
                Some(text) => data_lines(text, "span")?,
                None => Vec::new(),
            },
        })
    }

    fn total(&self) -> u64 {
        (self.telemetry.len() + self.spans.len()) as u64
    }

    /// Streams every data line from sequence `seq` on, re-emitting the
    /// CSV block headers the rewound tail needs.
    fn write_from<W: Write>(&self, w: &mut W, seq: u64) -> io::Result<()> {
        let seq = seq as usize;
        if seq < self.telemetry.len() {
            if self.csv {
                w.write_all(CSV_HEADER.as_bytes())?;
            }
            for line in &self.telemetry[seq..] {
                writeln!(w, "{line}")?;
            }
        }
        let span_start = seq.saturating_sub(self.telemetry.len());
        if span_start < self.spans.len() {
            if self.csv {
                w.write_all(SPAN_CSV_HEADER.as_bytes())?;
            }
            for line in &self.spans[span_start..] {
                writeln!(w, "{line}")?;
            }
        }
        w.flush()
    }
}

/// Streams `job` with crash tolerance: every wire failure (connect,
/// write, or reply read) reconnects with `hello … resume`, rewinds to
/// the daemon's acked sequence number, and re-sends only what the
/// daemon has not durably consumed. A daemon `err` rejection of the
/// hello or of `end` is fatal and returned as `InvalidData` carrying the
/// daemon's message. An `err` reply to a data line the daemon's framing
/// rejected (too long, or not UTF-8) is not: it lands in the returned
/// replies, in order, ahead of the summary. A line of the job that the
/// daemon would take for a control line fails the call with
/// `InvalidInput` before it connects.
pub fn send_resumable(target: &str, job: &SendJob, opts: &RetryOpts) -> io::Result<Vec<String>> {
    let data = WireData::from_job(job)?;
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..opts.max_attempts {
        if attempt > 0 {
            std::thread::sleep(opts.delay(attempt - 1));
        }
        let mut replies = Vec::new();
        let (mut conn, seq) = match open_resume(target, &job.tenant, job.format, data.total()) {
            Ok(ok) => ok,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        replies.push(format!("ok hello {} seq {seq}", job.tenant));
        if let Err(e) = data.write_from(&mut conn, seq) {
            last_err = Some(e);
            continue;
        }
        if job.end {
            let summary = writeln!(conn, "end")
                .and_then(|()| conn.flush())
                .and_then(|()| read_end_reply(&mut conn, &mut replies));
            match summary {
                Ok(reply) if reply.starts_with("err ") => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, reply))
                }
                Ok(reply) => replies.push(reply),
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            }
        }
        if job.shutdown {
            writeln!(conn, "shutdown")?;
            conn.flush()?;
            if let Ok(ack) = read_reply_line(&mut conn) {
                replies.push(ack);
            }
        }
        return Ok(replies);
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("send failed before the first attempt")))
}

/// Fetches `path` from the daemon's HTTP endpoint at `addr` and
/// returns `(status_line, body)`.
pub fn http_get(addr: &str, path: &str) -> io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.0\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response.lines().next().unwrap_or("").to_string();
    let body = match response.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => String::new(),
    };
    Ok((status, body))
}
