//! One connection's read loop: control dispatch, codec framing, and
//! per-line error containment.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use simkit::telemetry::{find_newline, is_csv_header, parse_line, Format, ParsedRecord};
use simkit::trace::{is_span_csv_header, parse_span_line, ParsedSpan};

use crate::proto::{classify, Control, Line};
use crate::state::{Counters, DaemonState, Tenant};

/// Hard cap on one wire line, including its newline. Longer lines are
/// discarded (never buffered) and answered with an `err` reply, so a
/// client that forgets its newlines cannot balloon daemon memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Retry hint, in milliseconds, sent with a `busy` admission refusal.
pub const RETRY_AFTER_MS: u64 = 1000;

/// The message of the `err` reply to a line longer than
/// [`MAX_LINE_BYTES`].
fn oversized_line() -> String {
    format!("line exceeds {MAX_LINE_BYTES} bytes")
}

/// The message of the `err` reply to a line that is not UTF-8.
const BAD_UTF8_LINE: &str = "line is not valid UTF-8";

/// `true` when `reply` (without its newline) is the `err` a session
/// sends for a line its framing rejected: longer than [`MAX_LINE_BYTES`],
/// or not UTF-8. The session counts such a line as a malformed data line
/// and reads on, so the reply answers a data line, never a control line.
pub(crate) fn rejects_a_data_line(reply: &str) -> bool {
    reply
        .strip_prefix("err ")
        .is_some_and(|message| message == BAD_UTF8_LINE || message == oversized_line())
}

/// Which block a CSV session's header most recently opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CsvBlock {
    Telemetry,
    Spans,
}

/// Outcome of a finished session, for the caller's logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Telemetry records accepted.
    pub records: u64,
    /// Span lines accepted.
    pub spans: u64,
    /// Lines skipped as malformed (wire or protocol).
    pub errors: u64,
    /// `true` when the session asked the daemon to shut down.
    pub shutdown: bool,
}

/// Runs one session over `stream` until EOF, `shutdown`, or a daemon
/// drain. The stream should carry a read timeout so the loop can poll
/// the shutdown flag; on timeout, partially-read bytes stay buffered
/// (never dropped) and the read resumes where it left off.
///
/// Every malformed line is contained to that line: it increments the
/// session, tenant, and daemon error counters and the loop moves on —
/// a wire hiccup can cost a record, never a session.
pub fn run_session<S: Read + Write>(stream: S, state: &DaemonState) -> io::Result<SessionStats> {
    Counters::bump(&state.counters.active_sessions);
    let result = run_session_inner(stream, state);
    Counters::drop_one(&state.counters.active_sessions);
    result
}

/// One wire poll's wall-clock accounting: started lazily at the first
/// line after a blocking wait, flushed into the ops histograms (and the
/// open tenant's monitor) whenever the loop blocks again.
struct Poll {
    started: Instant,
    lines: u64,
    records_before: u64,
}

/// One wire line, as framed by [`LineReader`].
#[derive(Debug, PartialEq, Eq)]
enum WireLine<'a> {
    /// Clean end of stream.
    Eof,
    /// A complete UTF-8 line, its newline included.
    Text(&'a str),
    /// A line longer than [`MAX_LINE_BYTES`]; its bytes were discarded.
    Oversized,
    /// A newline-terminated line that was not valid UTF-8.
    BadUtf8,
}

/// Bounded, restartable line framing over a non-blocking stream.
///
/// Unlike `BufRead::read_line`, this (a) caps how many bytes one line
/// may buffer, discarding the rest of an oversized line instead of
/// growing without bound, (b) turns invalid UTF-8 into a per-line
/// verdict instead of a session-fatal `InvalidData` error, and (c)
/// copies nothing it does not have to: a line is handed out as a `&str`
/// into the read buffer, validated in place, and only a line that
/// straddles a refill of that buffer is copied, into `spill`. Partial
/// lines survive `WouldBlock`: their bytes stay in `spill` and the next
/// call resumes where the read left off.
struct LineReader<S: Read> {
    /// The read buffer, [`MAX_LINE_BYTES`] long, so any line short
    /// enough to accept fits it whole.
    inner: BufReader<S>,
    /// The head of a line that straddles a refill, then the whole line
    /// once its newline arrives. A head never holds a newline, so a
    /// trailing one marks a line already handed out.
    spill: Vec<u8>,
    /// Bytes at the front of `inner`'s buffer that the line handed out
    /// last still borrows; consumed at the next call.
    lent: usize,
    /// `true` while skipping the remainder of an oversized line.
    discarding: bool,
    /// When a `read()` last returned bytes: the idle-reap clock.
    last_read: Instant,
}

impl<S: Read> LineReader<S> {
    fn new(stream: S) -> Self {
        LineReader {
            inner: BufReader::with_capacity(MAX_LINE_BYTES, stream),
            spill: Vec::new(),
            lent: 0,
            discarding: false,
            last_read: Instant::now(),
        }
    }

    fn get_mut(&mut self) -> &mut S {
        self.inner.get_mut()
    }

    /// Reads the next line, propagating `WouldBlock`/`TimedOut` with
    /// all partial-line state intact.
    fn next_line(&mut self) -> io::Result<WireLine<'_>> {
        self.inner.consume(std::mem::take(&mut self.lent));
        if self.spill.last() == Some(&b'\n') {
            self.spill.clear();
        }
        loop {
            let refill = self.inner.buffer().is_empty();
            let available = self.inner.fill_buf()?;
            if available.is_empty() {
                // EOF. An unterminated trailing fragment is
                // indistinguishable from a connection cut mid-write,
                // so it is never committed — only newline-terminated
                // lines count, and a resuming client re-sends the
                // fragment in full. Committing it would advance the
                // durable sequence number past data the client never
                // finished delivering.
                self.spill.clear();
                self.discarding = false;
                return Ok(WireLine::Eof);
            }
            if refill {
                self.last_read = Instant::now();
            }
            let Some(pos) = find_newline(available) else {
                let len = available.len();
                if !self.discarding {
                    if self.spill.len() + len > MAX_LINE_BYTES {
                        self.discarding = true;
                        self.spill.clear();
                    } else {
                        self.spill.extend_from_slice(available);
                    }
                }
                self.inner.consume(len);
                continue;
            };
            let take = pos + 1;
            if self.discarding || self.spill.len() + take > MAX_LINE_BYTES {
                self.discarding = false;
                self.spill.clear();
                self.inner.consume(take);
                return Ok(WireLine::Oversized);
            }
            if self.spill.is_empty() {
                self.lent = take;
            } else {
                self.spill.extend_from_slice(&available[..take]);
                self.inner.consume(take);
            }
            break;
        }
        let line = match self.lent {
            0 => &self.spill[..],
            lent => &self.inner.buffer()[..lent],
        };
        Ok(match std::str::from_utf8(line) {
            Ok(text) => WireLine::Text(text),
            Err(_) => WireLine::BadUtf8,
        })
    }
}

fn run_session_inner<S: Read + Write>(stream: S, state: &DaemonState) -> io::Result<SessionStats> {
    let mut session = Session {
        state,
        tenant: None,
        format: Format::Jsonl,
        csv_block: CsvBlock::Telemetry,
        line_no: 0,
        stats: SessionStats::default(),
        generation: 0,
        fenced: false,
    };
    let mut reader = LineReader::new(stream);
    let mut poll: Option<Poll> = None;
    loop {
        if state.shutting_down() {
            break;
        }
        match reader.next_line() {
            Ok(WireLine::Eof) => break,
            Ok(wire) => {
                if state.self_obs {
                    let poll = poll.get_or_insert_with(|| Poll {
                        started: Instant::now(),
                        lines: 0,
                        records_before: session.stats.records,
                    });
                    poll.lines += 1;
                }
                let reply = match wire {
                    WireLine::Text(line) => session.handle_line(line),
                    WireLine::Oversized => session.handle_bad_line(&oversized_line()),
                    WireLine::BadUtf8 => session.handle_bad_line(BAD_UTF8_LINE),
                    WireLine::Eof => unreachable!("handled above"),
                };
                if let Some(reply) = reply {
                    let stream = reader.get_mut();
                    stream.write_all(reply.as_bytes())?;
                    stream.flush()?;
                }
                if session.stats.shutdown {
                    break;
                }
            }
            // A timeout leaves any partial line buffered in the reader;
            // the next read resumes where it left off.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                session.flush_poll(&mut poll);
                if let Some(timeout) = state.idle_timeout {
                    if reader.last_read.elapsed() >= timeout {
                        Counters::bump(&state.counters.sessions_reaped);
                        let tenant = session
                            .tenant
                            .as_ref()
                            .map(|t| t.lock().expect("tenant lock").name.clone())
                            .unwrap_or_default();
                        state.log_event("session_idle_reap", &tenant, "");
                        break;
                    }
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    session.flush_poll(&mut poll);
    session.drain();
    Ok(session.stats)
}

/// A data line as the codec read it, before it is committed under the
/// tenant's lock. A record holds its own copy of its name, made here,
/// outside the lock.
enum Parsed {
    Record(ParsedRecord<'static>),
    Span(ParsedSpan),
    /// A line the codec or the framing rejected.
    Malformed,
}

struct Session<'a> {
    state: &'a DaemonState,
    tenant: Option<Arc<Mutex<Tenant>>>,
    format: Format,
    csv_block: CsvBlock,
    line_no: usize,
    stats: SessionStats,
    /// The tenant generation this session attached under. When the
    /// tenant's live generation moves past it, a newer session has
    /// taken over and this one is fenced.
    generation: u64,
    /// Set once fencing is detected: the rest of this connection is
    /// ignored. A cut socket can keep draining buffered lines after
    /// the client has already reconnected; committing them would race
    /// the resumed stream and duplicate records.
    fenced: bool,
}

impl Session<'_> {
    /// Processes one complete line, returning the reply to send, if any.
    fn handle_line(&mut self, raw: &str) -> Option<String> {
        if self.fenced {
            // A superseded session is inert: it drains its socket
            // without committing, replying, or erroring.
            return None;
        }
        self.line_no += 1;
        match classify(raw) {
            Line::Blank => None,
            Line::Control(Control::Ping) => Some("pong\n".to_string()),
            Line::Control(Control::Hello {
                tenant,
                format,
                resume,
            }) => {
                // Ending the previous stream first keeps `hello a …
                // hello b` on one connection well-formed.
                self.finish_open_tenant();
                self.csv_block = CsvBlock::Telemetry;
                match resume {
                    // A plain hello resets the tenant, which also clears
                    // any overload: the reset empties the buffers that
                    // caused it.
                    None => {
                        self.format = format;
                        let (handle, generation) = self.state.open_tenant(&tenant, format);
                        self.generation = generation;
                        self.tenant = Some(handle);
                        Some(format!("ok hello {tenant}\n"))
                    }
                    // A resume re-attaches without resetting. The ack
                    // carries the daemon's durable sequence number; the
                    // client rewinds its send buffer to that line, so
                    // the client's claimed position is advisory only.
                    Some(_client_seq) => {
                        if let Some(handle) = self.state.tenant(&tenant) {
                            if handle.lock().expect("tenant lock").overloaded {
                                self.state.log_event("session_busy", &tenant, "");
                                return Some(format!("busy retry-after {RETRY_AFTER_MS}\n"));
                            }
                        }
                        match self.state.resume_tenant(&tenant, format) {
                            Ok((handle, seq, generation)) => {
                                self.format = format;
                                self.generation = generation;
                                self.tenant = Some(handle);
                                Some(format!("ok hello {tenant} seq {seq}\n"))
                            }
                            Err(message) => self.error(&message),
                        }
                    }
                }
            }
            Line::Control(Control::End) => match self.tenant.take() {
                Some(tenant) => {
                    let mut guard = tenant.lock().expect("tenant lock");
                    if guard.generation != self.generation {
                        let name = guard.name.clone();
                        drop(guard);
                        self.fence(&name);
                        return None;
                    }
                    let json = guard.finalize().to_json();
                    let name = guard.name.clone();
                    let transitions = guard.take_transitions();
                    // Close-of-stream durability: a finished delta frame
                    // (or the base itself if no tick ever wrote one).
                    let ckpt_err = if guard.checkpoint_due() {
                        self.state.write_checkpoint(&mut guard).err()
                    } else {
                        self.state.append_checkpoint_frame(&mut guard).err()
                    };
                    drop(guard);
                    if let Some(e) = ckpt_err {
                        self.state
                            .log_event("checkpoint_error", &name, &e.to_string());
                    }
                    self.log_transitions(&name, &transitions);
                    Counters::bump(&self.state.counters.sessions_closed);
                    self.state.log_event("session_end", &name, "");
                    Some(json)
                }
                None => self.error("end without an open session"),
            },
            Line::Control(Control::Shutdown) => {
                self.state.request_shutdown();
                self.stats.shutdown = true;
                Some("ok shutdown\n".to_string())
            }
            Line::BadControl(message) => self.error(&message),
            Line::Data => self.handle_data(raw),
        }
    }

    /// Parses a data line with the codec the framing selects, outside
    /// the tenant's lock, then commits it.
    fn handle_data(&mut self, raw: &str) -> Option<String> {
        if self.tenant.is_none() {
            return self.error("data line before hello");
        }
        let text = raw.trim_end_matches(['\r', '\n']);
        // CSV headers only switch blocks — they buffer nothing, advance
        // no sequence number, and are exempt from shedding.
        if self.format == Format::Csv {
            if is_csv_header(text) {
                self.csv_block = CsvBlock::Telemetry;
                return None;
            }
            if is_span_csv_header(text) {
                self.csv_block = CsvBlock::Spans;
                return None;
            }
        }
        // Channel framing: JSONL lines self-describe by prefix; CSV rows
        // bind to whichever block the last header opened.
        let is_span = match self.format {
            Format::Jsonl => text.starts_with("{\"id\":"),
            Format::Csv => self.csv_block == CsvBlock::Spans,
        };
        let parsed = if is_span {
            parse_span_line(text, self.line_no, self.format).map_or(Parsed::Malformed, Parsed::Span)
        } else {
            parse_line(text, self.line_no, self.format)
                .map_or(Parsed::Malformed, |r| Parsed::Record(r.into_owned()))
        };
        self.commit(text, parsed);
        None
    }

    /// Charges a line the framing rejected — longer than
    /// [`MAX_LINE_BYTES`], or not UTF-8 — to the open tenant as a
    /// malformed data line, and reports it on the wire. The client
    /// counted it as a data line, so it advances the stream sequence
    /// like any other; like any other, it is shed without a reply past
    /// the watermark, and a fenced session drops it silently.
    fn handle_bad_line(&mut self, message: &str) -> Option<String> {
        if self.fenced {
            return None;
        }
        self.line_no += 1;
        if self.tenant.is_none() {
            return self.error(message);
        }
        self.commit("", Parsed::Malformed)
            .then(|| format!("err {message}\n"))
    }

    /// Commits one data line under a single hold of the open tenant's
    /// lock: a fenced session commits nothing, a line past the
    /// watermark is shed, and anything else lands as a record, a span
    /// or a parse error. `text` is the line as the wire spelled it,
    /// which the checkpoint captures when there is a state directory to
    /// write it to. Returns whether the line was committed.
    fn commit(&mut self, text: &str, parsed: Parsed) -> bool {
        let state = self.state;
        let tenant = self
            .tenant
            .as_ref()
            .expect("a data line needs an open tenant");
        let mut guard = tenant.lock().expect("tenant lock");
        if guard.generation != self.generation {
            let name = guard.name.clone();
            drop(guard);
            self.fence(&name);
            return false;
        }
        // Overload shedding: past the watermark the line is dropped
        // with accounting but without advancing the stream sequence, so
        // a resuming client retransmits it.
        if guard.buffered_lines() >= state.max_buffered_lines {
            guard.shed += 1;
            Counters::bump(&state.counters.lines_shed);
            if !guard.overloaded {
                guard.overloaded = true;
                let name = guard.name.clone();
                let detail = format!("buffered={}", guard.buffered_lines());
                drop(guard);
                Counters::bump(&state.counters.overloaded_tenants);
                state.log_event("overload_shed", &name, &detail);
            }
            return false;
        }
        let capture = state.state_dir.is_some();
        match parsed {
            Parsed::Record(record) => {
                let ticked = if capture {
                    guard.ingest_record_wire(text, record)
                } else {
                    guard.ingest_record(record)
                };
                let transitions = guard.take_transitions();
                let name = if transitions.is_empty() && !ticked {
                    String::new()
                } else {
                    guard.name.clone()
                };
                // Checkpoint at tick boundaries: detector state only
                // changes when a tick closes, so that is the natural
                // durability cadence. The first tick writes the base
                // document; every later tick appends a cheap delta
                // frame to the journal, keeping total write cost
                // O(stream) instead of O(stream²).
                let ckpt_err = if ticked {
                    if guard.checkpoint_due() {
                        state.write_checkpoint(&mut guard).err()
                    } else {
                        state.append_checkpoint_frame(&mut guard).err()
                    }
                } else {
                    None
                };
                drop(guard);
                if let Some(e) = ckpt_err {
                    state.log_event("checkpoint_error", &name, &e.to_string());
                }
                self.log_transitions(&name, &transitions);
                self.stats.records += 1;
                Counters::bump(&state.counters.records);
            }
            Parsed::Span(span) => {
                if capture {
                    guard.ingest_span_wire(text, span);
                } else {
                    guard.ingest_span(span);
                }
                drop(guard);
                self.stats.spans += 1;
                Counters::bump(&state.counters.spans);
            }
            Parsed::Malformed => {
                guard.note_parse_error();
                drop(guard);
                self.stats.errors += 1;
                Counters::bump(&state.counters.parse_errors);
            }
        }
        true
    }

    /// Forwards drained alert transitions to the daemon ops log.
    fn log_transitions(&mut self, tenant: &str, transitions: &[simkit::alert::AlertEvent]) {
        for ev in transitions {
            self.state.log_event(
                if ev.fired {
                    "alert_fired"
                } else {
                    "alert_resolved"
                },
                tenant,
                &format!("{} t={} value={}", ev.rule, ev.time_ms, ev.value),
            );
        }
    }

    /// Flushes the open wire poll, if any, into the ops histograms and
    /// the current tenant's monitor.
    fn flush_poll(&mut self, poll: &mut Option<Poll>) {
        let Some(poll) = poll.take() else {
            return;
        };
        let seconds = poll.started.elapsed().as_secs_f64();
        let records = self.stats.records - poll.records_before;
        self.state
            .ops
            .lock()
            .expect("ops lock")
            .observe_poll(seconds, poll.lines, records);
        if let Some(tenant) = &self.tenant {
            let mut guard = tenant.lock().expect("tenant lock");
            if guard.generation == self.generation {
                guard.observe_poll(seconds, poll.lines, records);
            }
        }
    }

    /// Counts a protocol error and reports it on the wire.
    fn error(&mut self, message: &str) -> Option<String> {
        self.stats.errors += 1;
        Counters::bump(&self.state.counters.parse_errors);
        Some(format!("err {message}\n"))
    }

    /// Marks this session as superseded by a newer attach and stops it
    /// from committing anything further.
    fn fence(&mut self, name: &str) {
        self.tenant = None;
        self.fenced = true;
        Counters::bump(&self.state.counters.sessions_closed);
        self.state.log_event("session_fenced", name, "");
    }

    /// Finalizes the open tenant stream without a reply — the drain
    /// path for EOF, daemon shutdown, and a mid-session re-`hello`.
    fn finish_open_tenant(&mut self) {
        if let Some(tenant) = self.tenant.take() {
            let mut guard = tenant.lock().expect("tenant lock");
            if guard.generation != self.generation {
                // A newer session owns the stream now; EOF on this
                // stale socket must not finalize it mid-send.
                let name = guard.name.clone();
                drop(guard);
                self.fence(&name);
                return;
            }
            guard.finalize();
            let name = guard.name.clone();
            let transitions = guard.take_transitions();
            let ckpt_err = if guard.checkpoint_due() {
                self.state.write_checkpoint(&mut guard).err()
            } else {
                self.state.append_checkpoint_frame(&mut guard).err()
            };
            drop(guard);
            if let Some(e) = ckpt_err {
                self.state
                    .log_event("checkpoint_error", &name, &e.to_string());
            }
            self.log_transitions(&name, &transitions);
            Counters::bump(&self.state.counters.sessions_closed);
            self.state.log_event("session_end", &name, "");
        }
    }

    fn drain(&mut self) {
        self.finish_open_tenant();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad::pipeline::PipelineConfig;
    use proptest::prelude::*;

    /// An in-memory duplex: the session reads a canned script and
    /// writes replies into a buffer.
    struct Script {
        input: io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn run(state: &DaemonState, script: &str) -> (SessionStats, String) {
        let mut script = Script {
            input: io::Cursor::new(script.as_bytes().to_vec()),
            output: Vec::new(),
        };
        let stats = run_session(&mut script, state).unwrap();
        (stats, String::from_utf8(script.output).unwrap())
    }

    fn run_replies(state: &DaemonState, script: &str) -> String {
        run(state, script).1
    }

    /// A framed line, owned, so the two readers can be compared.
    #[derive(PartialEq, Eq)]
    enum Framed {
        Eof,
        Text(String),
        Oversized,
        BadUtf8,
    }

    /// Shows a long line by its length and ends, so a failing case
    /// stays readable.
    impl std::fmt::Debug for Framed {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Framed::Text(text) if text.len() > 40 => {
                    let head: String = text.chars().take(12).collect();
                    let tail: String = text.chars().rev().take(12).collect();
                    let tail: String = tail.chars().rev().collect();
                    write!(f, "Text({} bytes: {head:?}..{tail:?})", text.len())
                }
                Framed::Text(text) => write!(f, "Text({text:?})"),
                Framed::Eof => write!(f, "Eof"),
                Framed::Oversized => write!(f, "Oversized"),
                Framed::BadUtf8 => write!(f, "BadUtf8"),
            }
        }
    }

    impl From<WireLine<'_>> for Framed {
        fn from(line: WireLine<'_>) -> Framed {
            match line {
                WireLine::Eof => Framed::Eof,
                WireLine::Text(text) => Framed::Text(text.to_string()),
                WireLine::Oversized => Framed::Oversized,
                WireLine::BadUtf8 => Framed::BadUtf8,
            }
        }
    }

    /// The reference framing: the reader the session used before it
    /// framed lines in place, which copies every line into a `String`
    /// of its own. [`LineReader`] must frame exactly what it frames.
    struct CopyingLineReader<S: Read> {
        inner: BufReader<S>,
        buf: Vec<u8>,
        discarding: bool,
    }

    impl<S: Read> CopyingLineReader<S> {
        fn new(stream: S) -> Self {
            CopyingLineReader {
                inner: BufReader::new(stream),
                buf: Vec::new(),
                discarding: false,
            }
        }

        fn next_line(&mut self) -> io::Result<Framed> {
            loop {
                let available = self.inner.fill_buf()?;
                if available.is_empty() {
                    self.buf.clear();
                    self.discarding = false;
                    return Ok(Framed::Eof);
                }
                match available.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        let take = pos + 1;
                        if !self.discarding && self.buf.len() + take <= MAX_LINE_BYTES {
                            self.buf.extend_from_slice(&available[..take]);
                        } else if !self.discarding {
                            self.discarding = true;
                            self.buf.clear();
                        }
                        self.inner.consume(take);
                        return Ok(self.take_line());
                    }
                    None => {
                        let len = available.len();
                        if !self.discarding {
                            if self.buf.len() + len > MAX_LINE_BYTES {
                                self.discarding = true;
                                self.buf.clear();
                            } else {
                                self.buf.extend_from_slice(available);
                            }
                        }
                        self.inner.consume(len);
                    }
                }
            }
        }

        fn take_line(&mut self) -> Framed {
            if self.discarding {
                self.discarding = false;
                self.buf.clear();
                return Framed::Oversized;
            }
            match String::from_utf8(std::mem::take(&mut self.buf)) {
                Ok(text) => Framed::Text(text),
                Err(_) => Framed::BadUtf8,
            }
        }
    }

    /// A read half that delivers its bytes in scheduled chunks, with
    /// scheduled read errors in between, then reports EOF.
    struct Chunked {
        data: io::Cursor<Vec<u8>>,
        /// `(chunk length, error before the chunk)`, cycled.
        schedule: Vec<(usize, Option<io::ErrorKind>)>,
        step: usize,
        /// Bytes left of the chunk being delivered.
        left: usize,
        failed: bool,
    }

    impl Chunked {
        fn new(data: Vec<u8>, schedule: Vec<(usize, Option<io::ErrorKind>)>) -> Self {
            Chunked {
                data: io::Cursor::new(data),
                schedule,
                step: 0,
                left: 0,
                failed: false,
            }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.left == 0 {
                let (len, error) = self.schedule[self.step % self.schedule.len()];
                if let (Some(kind), false) = (error, self.failed) {
                    self.failed = true;
                    return Err(kind.into());
                }
                self.failed = false;
                self.step += 1;
                self.left = len;
            }
            let len = buf.len().min(self.left);
            let n = self.data.read(&mut buf[..len])?;
            self.left = if n == 0 { 0 } else { self.left - n };
            Ok(n)
        }
    }

    /// Frames `data` delivered on `schedule` to the end, returning the
    /// lines and how many read errors came out between them.
    fn frame_with<F: FnMut() -> io::Result<Framed>>(mut next: F) -> (Vec<Framed>, usize) {
        let (mut lines, mut errors) = (Vec::new(), 0);
        loop {
            match next() {
                Ok(Framed::Eof) => return (lines, errors),
                Ok(line) => lines.push(line),
                Err(e) => {
                    assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock
                                | io::ErrorKind::TimedOut
                                | io::ErrorKind::Interrupted
                        ),
                        "{e}"
                    );
                    errors += 1;
                }
            }
        }
    }

    fn frame_in_place(
        data: &[u8],
        schedule: &[(usize, Option<io::ErrorKind>)],
    ) -> (Vec<Framed>, usize) {
        let mut reader = LineReader::new(Chunked::new(data.to_vec(), schedule.to_vec()));
        frame_with(|| reader.next_line().map(Framed::from))
    }

    fn frame_copying(
        data: &[u8],
        schedule: &[(usize, Option<io::ErrorKind>)],
    ) -> (Vec<Framed>, usize) {
        let mut reader = CopyingLineReader::new(Chunked::new(data.to_vec(), schedule.to_vec()));
        frame_with(|| reader.next_line())
    }

    /// Builds a wire stream from segment kinds: arbitrary bytes, short
    /// JSONL, CRLF and multi-byte lines, invalid UTF-8, and lines of
    /// `MAX_LINE_BYTES` - 1, exactly and + 1 with their newline; then
    /// an unterminated tail.
    fn wire_bytes(kinds: &[usize], bytes: &[u8], tail: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for &kind in kinds {
            match kind {
                0 => out.extend_from_slice(bytes),
                1 => out.extend_from_slice(b"{\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":1}\n"),
                2 => out.extend_from_slice(b"ping\r\n"),
                3 => out.extend_from_slice("h\u{e9}llo \u{20ac}\u{1f50b}\n".as_bytes()),
                4 => out.extend_from_slice(b"\xff\xfe\xc3\n"),
                5 => out.push(b'\n'),
                6..=8 => {
                    let len = MAX_LINE_BYTES - 7 + kind;
                    out.extend(std::iter::repeat_n(b'x', len - 1));
                    out.push(b'\n');
                }
                _ => unreachable!("kind out of range"),
            }
        }
        out.extend(tail.iter().filter(|&&b| b != b'\n'));
        out
    }

    const READ_ERRORS: [Option<io::ErrorKind>; 6] = [
        None,
        None,
        None,
        Some(io::ErrorKind::WouldBlock),
        Some(io::ErrorKind::TimedOut),
        Some(io::ErrorKind::Interrupted),
    ];

    fn schedule(lengths: &[usize], errors: &[usize]) -> Vec<(usize, Option<io::ErrorKind>)> {
        lengths
            .iter()
            .zip(errors.iter().cycle())
            .map(|(&len, &e)| (len, READ_ERRORS[e]))
            .collect()
    }

    #[test]
    fn framing_matches_the_copying_reader_at_the_line_cap() {
        // Each capped length alone, after a short line (so it straddles
        // the read buffer), and twice in a row, read whole and in
        // small pieces.
        for kind in 6..=8 {
            for kinds in [vec![kind], vec![1, kind, 1], vec![kind, kind, 2]] {
                let data = wire_bytes(&kinds, b"", b"tail");
                for lengths in [vec![usize::MAX], vec![4096, 1], vec![MAX_LINE_BYTES - 1, 3]] {
                    let plan = schedule(&lengths, &[0, 3]);
                    let copying = frame_copying(&data, &plan);
                    assert_eq!(
                        frame_in_place(&data, &plan),
                        copying,
                        "{kinds:?} {lengths:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_line_that_fits_the_buffer_is_not_copied() {
        let data = b"ping\nend\n".to_vec();
        let mut reader = LineReader::new(io::Cursor::new(data));
        assert_eq!(reader.next_line().unwrap(), WireLine::Text("ping\n"));
        let read_at = reader.last_read;
        assert_eq!(reader.next_line().unwrap(), WireLine::Text("end\n"));
        assert!(reader.spill.is_empty(), "both lines framed in place");
        assert_eq!(reader.last_read, read_at, "no read, no clock");
        assert_eq!(reader.next_line().unwrap(), WireLine::Eof);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-place reader frames every stream exactly as the
        /// copying reader does, however the bytes are split across
        /// reads and whatever read errors come between them.
        #[test]
        fn framing_matches_the_copying_reader(
            kinds in prop::collection::vec(0usize..9, 0..10),
            bytes in prop::collection::vec(0u8..=255, 0..48),
            tail in prop::collection::vec(0u8..=255, 0..8),
            lengths in prop::collection::vec(1usize..20_000, 1..6),
            small in prop::collection::vec(1usize..8, 1..6),
            errors in prop::collection::vec(0usize..READ_ERRORS.len(), 1..6),
        ) {
            let data = wire_bytes(&kinds, &bytes, &tail);
            for lengths in [&lengths, &small] {
                let plan = schedule(lengths, &errors);
                let in_place = frame_in_place(&data, &plan);
                prop_assert_eq!(&in_place, &frame_copying(&data, &plan), "{:?}", kinds);
            }
        }
    }

    #[test]
    fn jsonl_session_streams_records_and_spans() {
        let state = DaemonState::new(PipelineConfig::default());
        let replies = run_replies(
            &state,
            "hello acme\n\
             {\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
             {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}\n\
             {\"id\":0,\"name\":\"attack.drain\",\"parent\":null,\"t0\":0,\"t1\":100,\"attrs\":{}}\n\
             end\n",
        );
        assert!(replies.starts_with("ok hello acme\n"));
        assert!(replies.contains("\"records\":2"));
        let tenant = state.tenant("acme").unwrap();
        let guard = tenant.lock().unwrap();
        assert_eq!(guard.records().len(), 2);
        assert_eq!(guard.spans.len(), 1);
        assert!(guard.finished());
    }

    #[test]
    fn malformed_lines_never_abort_the_session() {
        let state = DaemonState::new(PipelineConfig::default());
        let (stats, replies) = run(
            &state,
            "hello t\n\
             {\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
             {\"t\":50,\"m\":\"rack-00.draw_w\",\"v\":10\n\
             {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}\n\
             end\n",
        );
        assert_eq!(stats.records, 2, "survivors on both sides of the error");
        assert_eq!(stats.errors, 1);
        assert_eq!(Counters::get(&state.counters.parse_errors), 1);
        assert!(replies.contains("\"records\":2"));
        let tenant = state.tenant("t").unwrap();
        assert_eq!(tenant.lock().unwrap().parse_errors, 1);
    }

    fn raw_session(state: &DaemonState) -> Session<'_> {
        Session {
            state,
            tenant: None,
            format: Format::Jsonl,
            csv_block: CsvBlock::Telemetry,
            line_no: 0,
            stats: SessionStats::default(),
            generation: 0,
            fenced: false,
        }
    }

    #[test]
    fn stale_sessions_are_fenced_after_a_resume_takeover() {
        // After a connection cut, the dead session's socket can keep
        // draining buffered lines while the client has already
        // reconnected. Those late lines must not commit — they would
        // race the resumed stream and duplicate records — and the
        // stale EOF must not finalize the new session's open stream.
        let state = DaemonState::new(PipelineConfig::default());
        let r1 = "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}";
        let r2 = "{\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}";

        let mut stale = raw_session(&state);
        stale.handle_line("hello t jsonl");
        stale.handle_line(r1);

        let mut fresh = raw_session(&state);
        let ack = fresh.handle_line("hello t jsonl resume 1").unwrap();
        assert_eq!(ack, "ok hello t seq 1\n");

        // The stale session's leftovers arrive late: dropped silently.
        stale.handle_line(r2);
        assert!(stale.fenced);
        assert_eq!(stale.stats.records, 1, "only the pre-takeover line");
        stale.drain();
        {
            let tenant = state.tenant("t").unwrap();
            let guard = tenant.lock().unwrap();
            assert_eq!(guard.records().len(), 1, "no duplicate commits");
            assert_eq!(guard.seq, 1);
            assert!(!guard.finished(), "stale EOF must not finalize");
        }

        // The takeover session still owns the stream.
        fresh.handle_line(r2);
        let tenant = state.tenant("t").unwrap();
        let guard = tenant.lock().unwrap();
        assert_eq!(guard.records().len(), 2);
        assert_eq!(guard.seq, 2);
    }

    #[test]
    fn truncated_final_lines_are_never_committed() {
        // A stream cut mid-write leaves an unterminated fragment at
        // EOF. Committing it (as a record OR a parse error) would
        // advance the durable sequence number past data the client
        // never finished sending, breaking exactly-once resume.
        let state = DaemonState::new(PipelineConfig::default());
        let (stats, _) = run(
            &state,
            "hello cut\n\
             {\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
             {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":1",
        );
        assert_eq!(stats.records, 1, "only the terminated line counts");
        assert_eq!(stats.errors, 0, "a fragment is not a parse error");
        let tenant = state.tenant("cut").unwrap();
        let guard = tenant.lock().unwrap();
        assert_eq!(guard.records().len(), 1);
        assert_eq!(guard.seq, 1, "durable seq excludes the fragment");
        assert_eq!(guard.parse_errors, 0);
    }

    #[test]
    fn csv_blocks_switch_on_headers() {
        let state = DaemonState::new(PipelineConfig::default());
        let replies = run_replies(
            &state,
            "hello c csv\n\
             time_ms,record,name,source,value\n\
             0,sample,rack-00.draw_w,,100\n\
             id,name,parent,start_ms,end_ms,attrs\n\
             0,attack.drain,,0,100,\n\
             time_ms,record,name,source,value\n\
             100,sample,rack-00.draw_w,,101\n\
             end\n",
        );
        assert!(replies.contains("\"records\":2"));
        let tenant = state.tenant("c").unwrap();
        let guard = tenant.lock().unwrap();
        assert_eq!(guard.records().len(), 2);
        assert_eq!(guard.spans.len(), 1);
        assert_eq!(guard.spans[0].name, "attack.drain");
    }

    #[test]
    fn protocol_errors_reply_err_and_count() {
        let state = DaemonState::new(PipelineConfig::default());
        let replies = run_replies(
            &state,
            "{\"t\":0,\"m\":\"a.x\",\"v\":1}\nend\nhello ../evil\nping\n",
        );
        assert!(replies.contains("err data line before hello"));
        assert!(replies.contains("err end without an open session"));
        assert!(replies.contains("err invalid tenant name"));
        assert!(replies.ends_with("pong\n"));
        assert_eq!(Counters::get(&state.counters.parse_errors), 3);
    }

    #[test]
    fn eof_drains_the_open_stream() {
        let state = DaemonState::new(PipelineConfig::default());
        let (_, replies) = run(
            &state,
            "hello drainy\n{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n",
        );
        assert_eq!(replies, "ok hello drainy\n", "no end reply at EOF");
        let tenant = state.tenant("drainy").unwrap();
        assert!(tenant.lock().unwrap().finished(), "drained at EOF");
        assert_eq!(Counters::get(&state.counters.sessions_closed), 1);
    }

    #[test]
    fn oversized_lines_are_discarded_not_buffered() {
        let state = DaemonState::new(PipelineConfig::default());
        let mut script = String::from("hello big\n");
        script.push_str(&"x".repeat(MAX_LINE_BYTES + 4096));
        script.push('\n');
        script.push_str("{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\nend\n");
        let (stats, replies) = run(&state, &script);
        assert!(
            replies.contains(&format!("err line exceeds {MAX_LINE_BYTES} bytes")),
            "{replies}"
        );
        assert_eq!(stats.records, 1, "the session survives the flood");
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn invalid_utf8_is_contained_to_the_line() {
        let state = DaemonState::new(PipelineConfig::default());
        let mut bytes = b"hello u8\n".to_vec();
        bytes.extend_from_slice(b"\xff\xfe garbage\n");
        bytes.extend_from_slice(b"{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\nend\n");
        let mut script = Script {
            input: io::Cursor::new(bytes),
            output: Vec::new(),
        };
        let stats = run_session(&mut script, &state).unwrap();
        let replies = String::from_utf8(script.output).unwrap();
        assert!(replies.contains("err line is not valid UTF-8"), "{replies}");
        assert_eq!(stats.records, 1, "session continues past the bad line");
    }

    /// The monitor's `ingest.parse_errors_total` counter of `tenant`.
    fn monitor_parse_errors(state: &DaemonState, tenant: &str) -> u64 {
        let tenant = state.tenant(tenant).unwrap();
        let guard = tenant.lock().unwrap();
        let registry = guard.monitor().expect("monitored").registry();
        registry.counter(registry.id("ingest.parse_errors_total").unwrap())
    }

    #[test]
    fn lines_the_framing_rejects_advance_the_resume_seq() {
        // A resuming client counts every line it sent as a data line,
        // so the daemon must too: otherwise the client rewinds by one
        // and re-sends a record the daemon already holds.
        let sample = |t: u32| format!("{{\"t\":{t},\"m\":\"rack-00.draw_w\",\"v\":100}}\n");
        let oversized = format!("{}\n", "x".repeat(MAX_LINE_BYTES + 1));
        for (bad, reply) in [
            (
                oversized.into_bytes(),
                format!("err line exceeds {MAX_LINE_BYTES} bytes\n"),
            ),
            (
                b"\xff\xfe\n".to_vec(),
                "err line is not valid UTF-8\n".to_string(),
            ),
        ] {
            let state = DaemonState::new(PipelineConfig::default());
            let mut bytes = b"hello big\n".to_vec();
            bytes.extend_from_slice(sample(0).as_bytes());
            bytes.extend_from_slice(&bad);
            bytes.extend_from_slice(sample(100).as_bytes());
            let mut script = Script {
                input: io::Cursor::new(bytes),
                output: Vec::new(),
            };
            let stats = run_session(&mut script, &state).unwrap();
            let replies = String::from_utf8(script.output).unwrap();
            assert_eq!(replies, format!("ok hello big\n{reply}"));
            assert_eq!((stats.records, stats.errors), (2, 1));
            assert_eq!(
                Counters::get(&state.counters.parse_errors),
                1,
                "counted once"
            );
            {
                let tenant = state.tenant("big").unwrap();
                let guard = tenant.lock().unwrap();
                assert_eq!((guard.seq, guard.parse_errors), (3, 1));
            }
            assert_eq!(monitor_parse_errors(&state, "big"), 1);
            let replies = run_replies(&state, "hello big jsonl resume 3\n");
            assert_eq!(replies, "ok hello big seq 3\n");
        }
    }

    #[test]
    fn a_fenced_session_commits_no_rejected_line() {
        let state = DaemonState::new(PipelineConfig::default());
        let mut stale = raw_session(&state);
        stale.handle_line("hello t jsonl");
        let mut fresh = raw_session(&state);
        fresh.handle_line("hello t jsonl resume 0");
        assert_eq!(stale.handle_bad_line("line is not valid UTF-8"), None);
        assert!(stale.fenced);
        assert_eq!(stale.handle_bad_line("line is not valid UTF-8"), None);
        let tenant = state.tenant("t").unwrap();
        let guard = tenant.lock().unwrap();
        assert_eq!((guard.seq, guard.parse_errors), (0, 0));
        assert_eq!(Counters::get(&state.counters.parse_errors), 0);
    }

    #[test]
    fn hello_resume_acks_the_durable_seq_and_keeps_state() {
        let state = DaemonState::new(PipelineConfig::default());
        let replies = run_replies(
            &state,
            "hello r\n\
             {\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
             {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}\n",
        );
        assert_eq!(replies, "ok hello r\n");
        // EOF drained (finalized) the stream; a resume re-attaches and
        // reports how many data lines the daemon durably consumed.
        let replies = run_replies(&state, "hello r jsonl resume 2\nend\n");
        assert!(replies.starts_with("ok hello r seq 2\n"), "{replies}");
        assert!(replies.contains("\"records\":2"), "idempotent end");
        // A format flip is refused without touching the stream.
        let replies = run_replies(&state, "hello r csv resume 2\n");
        assert!(replies.contains("err resume format"), "{replies}");
        assert_eq!(
            state.tenant("r").unwrap().lock().unwrap().records().len(),
            2
        );
    }

    #[test]
    fn overload_sheds_data_and_refuses_resume_until_reset() {
        let mut state = DaemonState::new(PipelineConfig::default());
        state.max_buffered_lines = 2;
        let (stats, _) = run(
            &state,
            "hello o\n\
             {\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
             {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}\n\
             {\"t\":200,\"m\":\"rack-00.draw_w\",\"v\":102}\n\
             {\"t\":300,\"m\":\"rack-00.draw_w\",\"v\":103}\n",
        );
        assert_eq!(stats.records, 2, "watermark admits two lines");
        assert_eq!(Counters::get(&state.counters.lines_shed), 2);
        assert_eq!(Counters::get(&state.counters.overloaded_tenants), 1);
        {
            let tenant = state.tenant("o").unwrap();
            let guard = tenant.lock().unwrap();
            assert_eq!(guard.shed, 2);
            assert_eq!(guard.seq, 2, "shed lines do not advance the sequence");
        }
        let log = state.with_ops_log(crate::state::OpsLog::render_jsonl);
        assert_eq!(
            log.matches("\"kind\":\"overload_shed\"").count(),
            1,
            "edge-triggered: one event per crossing"
        );
        // Resume is refused while overloaded…
        let replies = run_replies(&state, "hello o jsonl resume 2\n");
        assert_eq!(replies, format!("busy retry-after {RETRY_AFTER_MS}\n"));
        // …and a fresh hello resets the stream, clearing the overload.
        let _ = run_replies(&state, "hello o\n");
        assert_eq!(Counters::get(&state.counters.overloaded_tenants), 0);
    }

    /// Read half that yields its script, then blocks forever.
    struct IdleAfterScript {
        input: io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for IdleAfterScript {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.input.read(buf)? {
                0 => Err(io::ErrorKind::WouldBlock.into()),
                n => Ok(n),
            }
        }
    }

    impl Write for IdleAfterScript {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn idle_sessions_are_reaped_and_drained() {
        let mut state = DaemonState::new(PipelineConfig::default());
        state.idle_timeout = Some(std::time::Duration::ZERO);
        let mut script = IdleAfterScript {
            input: io::Cursor::new(
                b"hello idle\n{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n".to_vec(),
            ),
            output: Vec::new(),
        };
        let stats = run_session(&mut script, &state).unwrap();
        assert_eq!(stats.records, 1);
        assert_eq!(Counters::get(&state.counters.sessions_reaped), 1);
        assert_eq!(Counters::get(&state.counters.active_sessions), 0);
        let tenant = state.tenant("idle").unwrap();
        assert!(tenant.lock().unwrap().finished(), "reap drains the stream");
        let log = state.with_ops_log(crate::state::OpsLog::render_jsonl);
        assert!(
            log.contains("\"kind\":\"session_idle_reap\",\"tenant\":\"idle\""),
            "{log}"
        );
    }

    #[test]
    fn tick_boundaries_write_checkpoints() {
        let dir =
            std::env::temp_dir().join(format!("padsimd-session-test-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut state = DaemonState::new(PipelineConfig::default());
        state.state_dir = Some(dir.clone());
        // 25 records at 100ms: two full 1s ticks close mid-stream.
        let mut script = String::from("hello ck\n");
        for t in 0..25 {
            script.push_str(&format!(
                "{{\"t\":{},\"m\":\"rack-00.draw_w\",\"v\":{}}}\n",
                t * 100,
                100 + t % 5
            ));
        }
        script.push_str("end\n");
        let _ = run(&state, &script);
        assert_eq!(
            Counters::get(&state.counters.checkpoints_written),
            1,
            "the first tick writes the base exactly once"
        );
        assert!(
            Counters::get(&state.counters.checkpoint_frames) >= 2,
            "later tick crossings plus the end-of-stream frame append to the journal"
        );
        let doc = std::fs::read_to_string(dir.join("ck.ckpt")).unwrap();
        assert!(doc.starts_with("{\"version\":2,\"tenant\":\"ck\""), "{doc}");
        let journal = std::fs::read_to_string(dir.join("ck.ckpt.log")).unwrap();
        assert!(journal.contains("\"finished\":1"), "end frame: {journal}");
        assert!(
            journal.contains("ok frame 0\n"),
            "commit markers: {journal}"
        );

        // Base plus journal restore to the full finished stream, and
        // boot compaction folds them into one fresh base.
        let mut reborn = DaemonState::new(PipelineConfig::default());
        reborn.state_dir = Some(dir.clone());
        assert_eq!(reborn.load_checkpoints().unwrap(), 1);
        let tenant = reborn.tenant("ck").unwrap();
        let guard = tenant.lock().unwrap();
        assert_eq!(guard.seq, 25);
        assert!(guard.finished(), "the journal's finished frame re-ran end");
        drop(guard);
        let doc = std::fs::read_to_string(dir.join("ck.ckpt")).unwrap();
        assert!(doc.contains("\"finished\":1"), "compacted base: {doc}");
        assert!(
            !dir.join("ck.ckpt.log").exists(),
            "compaction drops the journal"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_control_sets_the_flag_and_acks() {
        let state = DaemonState::new(PipelineConfig::default());
        let (stats, replies) = run(&state, "hello s\nshutdown\nping\n");
        assert!(stats.shutdown);
        assert!(replies.ends_with("ok shutdown\n"), "ping never processed");
        assert!(state.shutting_down());
        let tenant = state.tenant("s").unwrap();
        assert!(tenant.lock().unwrap().finished(), "open stream drained");
    }
}
