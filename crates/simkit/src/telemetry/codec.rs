//! Serialization of telemetry traces to JSONL and CSV, and the strict
//! parser `padsim inspect` uses to read them back.
//!
//! Formats are hand-rolled (the workspace has no serde) but strict and
//! versionless by construction: metric names are restricted to
//! `[A-Za-z0-9._-]` ([`valid_name`]) — the parser rejects any other
//! name, since every renderer downstream (JSONL, CSV, Prometheus labels)
//! emits names unescaped — and event kinds come from a fixed table, so
//! no escaping is ever needed and every line is trivially machine- and
//! grep-readable. Event sources are free text (the simulator itself
//! emits `cluster feed`).
//!
//! # Wire formats
//!
//! JSONL — one object per line, keys always in this order:
//!
//! ```text
//! {"t":1000,"m":"rack-00.draw_w","v":123.45}      <- sample
//! {"t":1000,"e":"breaker_trip","s":"rack-00","v":1}  <- event
//! ```
//!
//! CSV — header `time_ms,record,name,source,value`:
//!
//! ```text
//! time_ms,record,name,source,value
//! 1000,sample,rack-00.draw_w,,123.45
//! 1000,event,breaker_trip,rack-00,1
//! ```
//!
//! Values are written as Rust's default `f64` `Display` writes them
//! (shortest round-trip representation), which is deterministic across
//! platforms — the basis of the byte-identical determinism contract.
//! The renderer writes an integral value below 2^53 as an integer,
//! which is the same bytes, and leaves every other value to `Display`.

use std::borrow::Cow;

use crate::intern::{name_prefix_len, valid_name};
use crate::telemetry::record::{EventKind, Record};
use crate::telemetry::registry::MetricRegistry;

/// On-disk trace format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// One JSON object per line (`.jsonl`).
    #[default]
    Jsonl,
    /// Comma-separated values with header (`.csv`).
    Csv,
}

impl Format {
    /// Parses a format name (`jsonl` or `csv`).
    pub fn from_name(name: &str) -> Option<Format> {
        match name {
            "jsonl" => Some(Format::Jsonl),
            "csv" => Some(Format::Csv),
            _ => None,
        }
    }

    /// Guesses the format from a file path's extension, defaulting to
    /// JSONL.
    pub fn from_path(path: &str) -> Format {
        if path.rsplit('.').next() == Some("csv") {
            Format::Csv
        } else {
            Format::Jsonl
        }
    }

    /// Canonical file extension (without dot).
    pub fn extension(self) -> &'static str {
        match self {
            Format::Jsonl => "jsonl",
            Format::Csv => "csv",
        }
    }
}

/// CSV header line (with trailing newline).
pub const CSV_HEADER: &str = "time_ms,record,name,source,value\n";

/// Room for a line's time prefix, value and line end beside its
/// middle: a seven-digit time and a 19-character value.
const LINE_ALLOWANCE: usize = 33;

/// Writes `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Writes `value` exactly as `Display` does. An integral value below
/// 2^53 in magnitude, other than `-0`, is written as an integer: below
/// 2^53 an integer's shortest round-trip digits are its own digits, so
/// the bytes are the same. Every other value (a fraction, `-0`, `inf`,
/// `NaN`, anything from 2^53 up) goes to `Display`.
fn push_value(out: &mut String, value: f64) {
    let n = value as i64;
    if n as f64 == value && n.unsigned_abs() < 1 << 53 && !(n == 0 && value.is_sign_negative()) {
        if n < 0 {
            out.push('-');
        }
        push_u64(out, n.unsigned_abs());
    } else {
        use std::fmt::Write as _;
        let _ = write!(out, "{value}");
    }
}

/// The middle of a sample line of metric `name`: `,"m":"<name>","v":`
/// or `,sample,<name>,,`.
fn push_sample_middle(out: &mut String, format: Format, name: &str) {
    let (open, close) = match format {
        Format::Jsonl => (",\"m\":\"", "\",\"v\":"),
        Format::Csv => (",sample,", ",,"),
    };
    out.push_str(open);
    out.push_str(name);
    out.push_str(close);
}

/// The middle of an event line: `,"e":"<kind>","s":"<source>","v":` or
/// `,event,<kind>,<source>,`.
fn push_event_middle(out: &mut String, format: Format, kind: &str, source: &str) {
    let (open, between, close) = match format {
        Format::Jsonl => (",\"e\":\"", "\",\"s\":\"", "\",\"v\":"),
        Format::Csv => (",event,", ",", ","),
    };
    out.push_str(open);
    out.push_str(kind);
    out.push_str(between);
    out.push_str(source);
    out.push_str(close);
}

/// The text every renderer builds, line by line. A line is its time
/// prefix (`{"t":<ms>` or `<ms>`), a middle that names the record, the
/// value and the line end. All the records of a tick share one time,
/// so the prefix is rebuilt only when the time changes.
struct Lines {
    out: String,
    format: Format,
    time_ms: Option<u64>,
    prefix: String,
}

impl Lines {
    /// A text in `format` (a CSV one opens with the header), with room
    /// for `capacity` bytes of lines. Nothing is allocated for an empty
    /// JSONL text.
    fn new(format: Format, capacity: usize) -> Lines {
        let out = match format {
            Format::Jsonl => String::with_capacity(capacity),
            Format::Csv => {
                let mut out = String::with_capacity(CSV_HEADER.len() + capacity);
                out.push_str(CSV_HEADER);
                out
            }
        };
        Lines {
            out,
            format,
            time_ms: None,
            prefix: String::new(),
        }
    }

    /// Opens a line at `time_ms`.
    fn start(&mut self, time_ms: u64) {
        if self.time_ms != Some(time_ms) {
            self.time_ms = Some(time_ms);
            self.prefix.clear();
            // `{"t":` and the 20 digits of `u64::MAX`: the prefix is
            // allocated once, whatever the times.
            self.prefix.reserve(25);
            if self.format == Format::Jsonl {
                self.prefix.push_str("{\"t\":");
            }
            push_u64(&mut self.prefix, time_ms);
        }
        self.out.push_str(&self.prefix);
    }

    /// Closes the open line with `value`.
    fn finish(&mut self, value: f64) {
        push_value(&mut self.out, value);
        self.out.push_str(match self.format {
            Format::Jsonl => "}\n",
            Format::Csv => "\n",
        });
    }

    /// A sample line whose middle is already built.
    fn sample(&mut self, time_ms: u64, middle: &str, value: f64) {
        self.start(time_ms);
        self.out.push_str(middle);
        self.finish(value);
    }

    fn event(&mut self, time_ms: u64, kind: &str, source: &str, value: f64) {
        self.start(time_ms);
        push_event_middle(&mut self.out, self.format, kind, source);
        self.finish(value);
    }
}

/// Renders records against their registry, each metric's sample middle
/// built once.
fn render(registry: &MetricRegistry, records: &[Record], format: Format) -> String {
    let middles: Vec<String> = registry
        .names()
        .map(|name| {
            let mut middle = String::new();
            push_sample_middle(&mut middle, format, name);
            middle
        })
        .collect();
    let longest = middles.iter().map(String::len).max().unwrap_or(0);
    let mut lines = Lines::new(format, records.len() * (longest + LINE_ALLOWANCE));
    for record in records {
        match record {
            Record::Sample(s) => {
                lines.sample(s.time.as_millis(), &middles[s.metric.index()], s.value)
            }
            Record::Event(e) => {
                lines.event(e.time.as_millis(), e.kind.as_str(), &e.source, e.value)
            }
        }
    }
    lines.out
}

/// Serializes records (already in canonical order — see
/// [`sort_records`](crate::telemetry::sort_records)) to a JSONL string.
pub fn to_jsonl(registry: &MetricRegistry, records: &[Record]) -> String {
    render(registry, records, Format::Jsonl)
}

/// Serializes records (already in canonical order) to a CSV string with
/// header.
pub fn to_csv(registry: &MetricRegistry, records: &[Record]) -> String {
    render(registry, records, Format::Csv)
}

/// One record parsed back from a serialized trace.
///
/// Metric ids don't survive serialization (they're per-registry), so the
/// parsed form carries names. The parsers borrow the name and source
/// from the text they read, so parsing a line allocates nothing; a
/// holder that outlives its text keeps [`into_owned`](Self::into_owned)
/// copies.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord<'a> {
    /// Simulation time in milliseconds.
    pub time_ms: u64,
    /// Metric name for samples, event kind wire name for events.
    pub name: Cow<'a, str>,
    /// Event source (empty for samples).
    pub source: Cow<'a, str>,
    /// The recorded value.
    pub value: f64,
    /// `true` for events, `false` for samples.
    pub is_event: bool,
}

impl ParsedRecord<'_> {
    /// The record with its own copies of its name and source, free of
    /// the text it was parsed from. A name or source it already owns is
    /// moved, not copied.
    pub fn into_owned(self) -> ParsedRecord<'static> {
        ParsedRecord {
            time_ms: self.time_ms,
            name: Cow::Owned(self.name.into_owned()),
            source: Cow::Owned(self.source.into_owned()),
            value: self.value,
            is_event: self.is_event,
        }
    }
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Strips `"key":` off the front of `rest` by comparing bytes in place.
fn strip_key<'a>(rest: &'a str, key: &str) -> Option<&'a str> {
    rest.strip_prefix('"')?
        .strip_prefix(key)?
        .strip_prefix("\":")
}

/// Pulls `"key":` off the front of `rest`, returning what follows.
pub(crate) fn expect_key<'a>(rest: &'a str, key: &str, line: usize) -> Result<&'a str, ParseError> {
    strip_key(rest, key).ok_or_else(|| err(line, format!("expected key {key:?}")))
}

/// Splits `rest` at the next `,` or the closing `}`. Both are ASCII, so
/// a byte scan finds the same place a char scan would, without decoding.
pub(crate) fn next_field(rest: &str, line: usize) -> Result<(&str, &str), ParseError> {
    match rest.bytes().position(|b| b == b',' || b == b'}') {
        Some(pos) => Ok((&rest[..pos], &rest[pos + 1..])),
        None => Err(err(line, "unterminated object")),
    }
}

/// The value of a field of 1–15 ASCII digits. Every such number is below
/// 2^53, so it converts to `f64` exactly, which is what `str::parse`
/// returns for it too. Any other field (a sign, a fraction, an exponent,
/// more digits) is `None` and goes to `str::parse`.
fn small_integer(field: &str) -> Option<u64> {
    let digits = field.as_bytes();
    if digits.is_empty() || digits.len() > 15 {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let digit = b.wrapping_sub(b'0');
        (digit < 10).then(|| n * 10 + u64::from(digit))
    })
}

/// Reads a time field: what `str::parse::<u64>` reads, the common short
/// case without it.
fn parse_time(field: &str) -> Option<u64> {
    small_integer(field).or_else(|| field.parse().ok())
}

/// Reads a value field: bit for bit what `str::parse::<f64>` reads, the
/// `0`/`1` gauges and other small integers without it.
fn parse_value(field: &str) -> Option<f64> {
    match small_integer(field) {
        Some(n) => Some(n as f64),
        None => field.parse().ok(),
    }
}

/// Passes `name` through when it is in the shared name charset, the one
/// every renderer of a parsed name relies on to emit it unescaped.
pub(crate) fn checked_name<'a>(
    name: &'a str,
    what: &str,
    line: usize,
) -> Result<&'a str, ParseError> {
    if valid_name(name) {
        Ok(name)
    } else {
        Err(err(line, format!("invalid {what} {name:?}")))
    }
}

/// Splits a quoted name field (`"name",` or `"name"}`) off the front of
/// `rest`, returning the name and what follows its separator. The common
/// case is one scan that finds the closing quote and checks the charset
/// together; anything else takes the general field path, which reports
/// the same errors as for any other field.
pub(crate) fn name_field<'a>(
    rest: &'a str,
    what: &str,
    line: usize,
) -> Result<(&'a str, &'a str), ParseError> {
    let bytes = rest.as_bytes();
    if bytes.first() == Some(&b'"') {
        let len = name_prefix_len(&bytes[1..]);
        if len > 0
            && bytes.get(len + 1) == Some(&b'"')
            && matches!(bytes.get(len + 2), Some(b',' | b'}'))
        {
            return Ok((&rest[1..=len], &rest[len + 3..]));
        }
    }
    let (field, rest) = next_field(rest, line)?;
    Ok((checked_name(unquote(field, line)?, what, line)?, rest))
}

pub(crate) fn unquote(s: &str, line: usize) -> Result<&str, ParseError> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err(line, format!("expected quoted string, got {s:?}")))
}

fn parse_jsonl_line(line_text: &str, line: usize) -> Result<ParsedRecord<'_>, ParseError> {
    let rest = line_text
        .strip_prefix('{')
        .ok_or_else(|| err(line, "expected '{'"))?;
    let rest = expect_key(rest, "t", line)?;
    let (t_field, rest) = next_field(rest, line)?;
    let time_ms = parse_time(t_field).ok_or_else(|| err(line, format!("bad time {t_field:?}")))?;
    if let Some(rest) = strip_key(rest, "m") {
        let (name, rest) = name_field(rest, "metric name", line)?;
        let rest = expect_key(rest, "v", line)?;
        let (v_field, rest) = next_field(rest, line)?;
        let value =
            parse_value(v_field).ok_or_else(|| err(line, format!("bad value {v_field:?}")))?;
        if !rest.is_empty() {
            return Err(err(line, "trailing content after sample"));
        }
        Ok(ParsedRecord {
            time_ms,
            name: Cow::Borrowed(name),
            source: Cow::Borrowed(""),
            value,
            is_event: false,
        })
    } else {
        let rest = expect_key(rest, "e", line)?;
        let (e_field, rest) = next_field(rest, line)?;
        let name = unquote(e_field, line)?;
        if EventKind::from_name(name).is_none() {
            return Err(err(line, format!("unknown event kind {name:?}")));
        }
        let rest = expect_key(rest, "s", line)?;
        let (s_field, rest) = next_field(rest, line)?;
        let source = unquote(s_field, line)?;
        let rest = expect_key(rest, "v", line)?;
        let (v_field, rest) = next_field(rest, line)?;
        let value =
            parse_value(v_field).ok_or_else(|| err(line, format!("bad value {v_field:?}")))?;
        if !rest.is_empty() {
            return Err(err(line, "trailing content after event"));
        }
        Ok(ParsedRecord {
            time_ms,
            name: Cow::Borrowed(name),
            source: Cow::Borrowed(source),
            value,
            is_event: true,
        })
    }
}

fn parse_csv_line(line_text: &str, line: usize) -> Result<ParsedRecord<'_>, ParseError> {
    let mut fields = line_text.split(',');
    let mut take = |label: &str| {
        fields
            .next()
            .ok_or_else(|| err(line, format!("missing {label} field")))
    };
    let time_ms = parse_time(take("time_ms")?).ok_or_else(|| err(line, "bad time_ms"))?;
    let record = take("record")?;
    let name = take("name")?;
    let source = take("source")?;
    let value = parse_value(take("value")?).ok_or_else(|| err(line, "bad value"))?;
    if fields.next().is_some() {
        return Err(err(line, "too many fields"));
    }
    let is_event = match record {
        "sample" => {
            checked_name(name, "metric name", line)?;
            false
        }
        "event" => {
            if EventKind::from_name(name).is_none() {
                return Err(err(line, format!("unknown event kind {name:?}")));
            }
            true
        }
        other => return Err(err(line, format!("unknown record type {other:?}"))),
    };
    Ok(ParsedRecord {
        time_ms,
        name: Cow::Borrowed(name),
        source: Cow::Borrowed(source),
        value,
        is_event,
    })
}

/// Parses a single wire line (either format) into a record.
///
/// `line` is the 1-based line number used in error messages. The CSV
/// header row is *not* accepted here — stream consumers that interleave
/// header lines (a fresh CSV block per sender) should skip them with
/// [`is_csv_header`] before calling.
///
/// This is the per-line entry point for wire use: a daemon ingesting a
/// live stream parses each line as it arrives and turns a failure into
/// a structured per-line error instead of aborting the whole session.
/// The record borrows from `line_text`.
pub fn parse_line(
    line_text: &str,
    line: usize,
    format: Format,
) -> Result<ParsedRecord<'_>, ParseError> {
    match format {
        Format::Jsonl => parse_jsonl_line(line_text, line),
        Format::Csv => parse_csv_line(line_text, line),
    }
}

/// `true` when the line is the telemetry CSV header row.
pub fn is_csv_header(line_text: &str) -> bool {
    line_text == CSV_HEADER.trim_end()
}

/// The index of the first newline in `bytes`, tested eight bytes at a
/// time: a word XOR eight newlines has a zero byte where `bytes` has a
/// newline, and the lowest byte the zero-byte test flags is always a
/// true zero (a borrow only ever spreads upward, into later bytes).
pub fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let start = bytes.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|pos| start + pos)
}

/// The lines of `text` exactly as `str::lines` splits them, each newline
/// found by [`find_newline`]: a line ends at `\n`, a `\r` right before
/// that `\n` is dropped too, and a final line needs no newline (a final
/// `\r` with none after it stays in the line).
fn lines(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        Some(match find_newline(rest.as_bytes()) {
            Some(pos) => {
                let line = &rest[..pos];
                rest = &rest[pos + 1..];
                line.strip_suffix('\r').unwrap_or(line)
            }
            None => std::mem::take(&mut rest),
        })
    })
}

/// The newlines in `bytes`, counted into a byte-wide counter per 255
/// bytes: the compiler turns that into wide compares, while a count per
/// byte into a `usize` runs about nine times slower.
fn count_newlines(bytes: &[u8]) -> usize {
    bytes
        .chunks(255)
        .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum()
}

/// How many records to reserve for parsing `text`: its line count,
/// capped at what its length can hold in the shortest well-formed
/// record lines, so that blank or short lines cannot reserve more than
/// a few times the text's own size. Reserving once keeps the record
/// vector from growing and moving while it is filled.
fn record_capacity(text: &str, format: Format) -> usize {
    // `{"t":0,"m":"a","v":0}` and `0,sample,a,,0`, without the newline.
    let shortest_line = match format {
        Format::Jsonl => 21,
        Format::Csv => 13,
    };
    let newlines = count_newlines(text.as_bytes());
    let lines = newlines + usize::from(!text.is_empty() && !text.ends_with('\n'));
    lines.min(text.len() / shortest_line)
}

/// The survivors and casualties of a lossy parse (see [`parse_lossy`]).
/// The records borrow from the parsed text.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LossyParse<'a> {
    /// Records from every well-formed line, in input order.
    pub records: Vec<ParsedRecord<'a>>,
    /// One structured error per malformed line, in input order.
    pub errors: Vec<ParseError>,
}

/// Parses a serialized trace, collecting malformed lines as structured
/// per-line errors instead of failing the whole parse.
///
/// Wire-facing counterpart of the strict [`parse`]: a truncated,
/// corrupted, or interleaved partial line costs exactly that line (and
/// an [`LossyParse::errors`] entry), never the rest of the stream. The
/// CSV header is required as the first line, matching [`parse`], but a
/// *repeated* header later in the stream is tolerated and skipped — the
/// natural shape of several serialized chunks glued together.
pub fn parse_lossy(text: &str, format: Format) -> LossyParse<'_> {
    let mut out = LossyParse {
        records: Vec::with_capacity(record_capacity(text, format)),
        errors: Vec::new(),
    };
    let mut lines = lines(text).enumerate();
    if format == Format::Csv {
        match lines.next() {
            Some((_, header)) if is_csv_header(header) => {}
            Some((_, header)) => out
                .errors
                .push(err(1, format!("bad CSV header {header:?}"))),
            None => return out,
        }
    }
    for (idx, line_text) in lines {
        if line_text.is_empty() || (format == Format::Csv && is_csv_header(line_text)) {
            continue;
        }
        match parse_line(line_text, idx + 1, format) {
            Ok(record) => out.records.push(record),
            Err(e) => out.errors.push(e),
        }
    }
    out
}

/// Re-serializes parsed records back to the wire format they came from.
///
/// The exact inverse of [`parse`] for any well-formed trace: names and
/// sources are restricted to an escape-free charset and values use the
/// shortest-round-trip `f64` form in both directions, so
/// `render_parsed(&parse(text)?) == text` byte for byte. This is what a
/// daemon uses to flush the telemetry it retained for a session back to
/// disk without ever holding the original byte stream.
pub fn render_parsed(records: &[ParsedRecord], format: Format) -> String {
    let mut lines = Lines::new(format, records.len() * 48);
    for r in records {
        // An event's name is its kind's wire name: the parsers accept
        // no other.
        if r.is_event {
            lines.event(r.time_ms, &r.name, &r.source, r.value);
        } else {
            lines.start(r.time_ms);
            push_sample_middle(&mut lines.out, format, &r.name);
            lines.finish(r.value);
        }
    }
    lines.out
}

/// Parses a serialized trace (either format) back into records.
///
/// The parser is strict: any malformed line fails the whole parse with
/// its line number, rather than silently skipping data. The records
/// borrow from `text`.
pub fn parse(text: &str, format: Format) -> Result<Vec<ParsedRecord<'_>>, ParseError> {
    let mut out = Vec::with_capacity(record_capacity(text, format));
    let mut lines = lines(text).enumerate();
    if format == Format::Csv {
        match lines.next() {
            Some((_, header)) if header == CSV_HEADER.trim_end() => {}
            Some((_, header)) => return Err(err(1, format!("bad CSV header {header:?}"))),
            None => return Ok(out),
        }
    }
    for (idx, line_text) in lines {
        if line_text.is_empty() {
            continue;
        }
        let line = idx + 1;
        out.push(match format {
            Format::Jsonl => parse_jsonl_line(line_text, line)?,
            Format::Csv => parse_csv_line(line_text, line)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::record::{EventRecord, Sample};
    use crate::telemetry::MetricRegistry;
    use crate::time::SimTime;

    fn sample_records() -> (MetricRegistry, Vec<Record>) {
        let mut reg = MetricRegistry::new();
        let draw = reg.register_gauge("rack-00.draw_w");
        let soc = reg.register_gauge("rack-00.soc");
        let records = vec![
            Record::Sample(Sample {
                time: SimTime::from_millis(100),
                metric: draw,
                value: 123.45,
            }),
            Record::Sample(Sample {
                time: SimTime::from_millis(100),
                metric: soc,
                value: 0.5,
            }),
            Record::Event(EventRecord {
                time: SimTime::from_millis(100),
                kind: EventKind::BreakerTrip,
                source: "rack-00".into(),
                value: 1.0,
            }),
        ];
        (reg, records)
    }

    #[test]
    fn jsonl_round_trips() {
        let (reg, records) = sample_records();
        let text = to_jsonl(&reg, &records);
        assert_eq!(
            text,
            "{\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":123.45}\n\
             {\"t\":100,\"m\":\"rack-00.soc\",\"v\":0.5}\n\
             {\"t\":100,\"e\":\"breaker_trip\",\"s\":\"rack-00\",\"v\":1}\n"
        );
        let parsed = parse(&text, Format::Jsonl).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].name, "rack-00.draw_w");
        assert_eq!(parsed[0].value, 123.45);
        assert!(!parsed[0].is_event);
        assert!(parsed[2].is_event);
        assert_eq!(parsed[2].source, "rack-00");
    }

    #[test]
    fn csv_round_trips() {
        let (reg, records) = sample_records();
        let text = to_csv(&reg, &records);
        assert!(text.starts_with(CSV_HEADER));
        let parsed = parse(&text, Format::Csv).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[1].name, "rack-00.soc");
        assert_eq!(parsed[1].value, 0.5);
        assert_eq!(parsed[2].name, "breaker_trip");
    }

    #[test]
    fn malformed_lines_fail_with_line_numbers() {
        let bad = "{\"t\":1,\"m\":\"a\",\"v\":2}\nnot json\n";
        let e = parse(bad, Format::Jsonl).unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse("wrong,header\n", Format::Csv).unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse(
            "{\"t\":1,\"e\":\"no_such_kind\",\"s\":\"x\",\"v\":1}\n",
            Format::Jsonl,
        )
        .unwrap_err();
        assert!(e.message.contains("unknown event kind"));
    }

    #[test]
    fn parse_line_matches_whole_trace_parse() {
        let (reg, records) = sample_records();
        for format in [Format::Jsonl, Format::Csv] {
            let text = match format {
                Format::Jsonl => to_jsonl(&reg, &records),
                Format::Csv => to_csv(&reg, &records),
            };
            let whole = parse(&text, format).unwrap();
            let by_line: Vec<ParsedRecord> = text
                .lines()
                .filter(|l| !(l.is_empty() || format == Format::Csv && is_csv_header(l)))
                .enumerate()
                .map(|(i, l)| parse_line(l, i + 1, format).unwrap())
                .collect();
            assert_eq!(whole, by_line, "{format:?}");
        }
    }

    #[test]
    fn render_parsed_is_the_exact_inverse_of_parse() {
        let (reg, records) = sample_records();
        for format in [Format::Jsonl, Format::Csv] {
            let text = match format {
                Format::Jsonl => to_jsonl(&reg, &records),
                Format::Csv => to_csv(&reg, &records),
            };
            let parsed = parse(&text, format).unwrap();
            assert_eq!(render_parsed(&parsed, format), text, "{format:?}");
        }
    }

    /// Wire-hardening contract: each malformed shape a live socket can
    /// produce costs exactly its own line; every well-formed line still
    /// parses, the error is structured (line number + message), and the
    /// survivors re-serialize cleanly.
    #[test]
    fn lossy_parse_survives_each_malformed_shape() {
        let good_a = "{\"t\":1,\"m\":\"a.x\",\"v\":2}";
        let good_b = "{\"t\":2,\"m\":\"a.x\",\"v\":3}";
        let cases: Vec<(&str, String)> = vec![
            // Truncated mid-object: the sender died mid-write.
            (
                "truncated",
                format!("{good_a}\n{{\"t\":3,\"m\":\"a.x\",\"v\":9\n{good_b}\n"),
            ),
            // Two records interleaved onto one line: concurrent writers
            // without line buffering.
            (
                "interleaved partial",
                format!(
                    "{good_a}\n{{\"t\":3,\"m\":\"a{{\"t\":4,\"m\":\"b.y\",\"v\":1}}\n{good_b}\n"
                ),
            ),
            // Unparseable value.
            (
                "bad value",
                format!("{good_a}\n{{\"t\":3,\"m\":\"a.x\",\"v\":1.2.3}}\n{good_b}\n"),
            ),
            // Unknown event kind.
            (
                "unknown event",
                format!("{good_a}\n{{\"t\":3,\"e\":\"no_such\",\"s\":\"x\",\"v\":1}}\n{good_b}\n"),
            ),
            // Garbage that is not JSON at all.
            ("garbage", format!("{good_a}\nhello world\n{good_b}\n")),
            // A metric name outside the wire charset: a quote here would
            // break every label value a renderer emits for it.
            (
                "quoted name",
                format!("{good_a}\n{{\"t\":3,\"m\":\"a\"b\",\"v\":2}}\n{good_b}\n"),
            ),
        ];
        for (label, text) in &cases {
            let lossy = parse_lossy(text, Format::Jsonl);
            assert_eq!(lossy.records.len(), 2, "{label}: good lines survive");
            assert_eq!(lossy.errors.len(), 1, "{label}: one structured error");
            assert_eq!(lossy.errors[0].line, 2, "{label}: error pins the line");
            assert!(!lossy.errors[0].message.is_empty(), "{label}");
            let rendered = render_parsed(&lossy.records, Format::Jsonl);
            assert_eq!(
                rendered,
                format!("{good_a}\n{good_b}\n"),
                "{label}: survivors round-trip"
            );
        }
    }

    #[test]
    fn lossy_parse_csv_tolerates_repeated_headers_and_counts_bad_rows() {
        let text = format!(
            "{h}1,sample,a.x,,2\n{h}2,sample,a.x,,3\n3,sample,a.x\n4,bogus,a.x,,1\n\
             5,sample,x\" y,,2\n",
            h = CSV_HEADER
        );
        let lossy = parse_lossy(&text, Format::Csv);
        assert_eq!(
            lossy.records.len(),
            2,
            "rows on both sides of the repeated header"
        );
        assert_eq!(lossy.errors.len(), 3);
        assert!(lossy.errors[0].message.contains("missing"));
        assert!(lossy.errors[1].message.contains("unknown record type"));
        assert!(lossy.errors[2].message.contains("invalid metric name"));
        // A stream that opens with garbage instead of the header loses
        // line 1 (reported), not the stream.
        let lossy = parse_lossy("wrong,header\n1,sample,a.x,,2\n", Format::Csv);
        assert_eq!(lossy.errors.len(), 1);
        assert_eq!(lossy.errors[0].line, 1);
        assert_eq!(lossy.records.len(), 1);
    }

    #[test]
    fn non_finite_gauges_round_trip_both_formats() {
        // NaN, ±inf appear legitimately (e.g. percentile of an empty
        // summary); Rust's f64 Display/parse handles them, and the wire
        // formats must not corrupt them.
        let mut reg = MetricRegistry::new();
        let g = reg.register_gauge("g");
        let records: Vec<Record> = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
            .map(|(i, value)| {
                Record::Sample(Sample {
                    time: SimTime::from_millis(i as u64),
                    metric: g,
                    value,
                })
            })
            .collect();
        for format in [Format::Jsonl, Format::Csv] {
            let text = match format {
                Format::Jsonl => to_jsonl(&reg, &records),
                Format::Csv => to_csv(&reg, &records),
            };
            let parsed = parse(&text, format).unwrap();
            assert_eq!(parsed.len(), 3);
            assert!(parsed[0].value.is_nan(), "{format:?} NaN");
            assert_eq!(parsed[1].value, f64::INFINITY, "{format:?} +inf");
            assert_eq!(parsed[2].value, f64::NEG_INFINITY, "{format:?} -inf");
        }
    }

    #[test]
    fn format_detection() {
        assert_eq!(Format::from_name("jsonl"), Some(Format::Jsonl));
        assert_eq!(Format::from_name("csv"), Some(Format::Csv));
        assert_eq!(Format::from_name("yaml"), None);
        assert_eq!(Format::from_path("out/telemetry.csv"), Format::Csv);
        assert_eq!(Format::from_path("out/telemetry.jsonl"), Format::Jsonl);
        assert_eq!(Format::from_path("noext"), Format::Jsonl);
    }

    /// The renderer before lines were built from byte pushes: one
    /// `writeln!` per line, every time and value through `Display`. The
    /// codec must write exactly what this does.
    mod render_reference {
        use super::super::{ParsedRecord, CSV_HEADER};
        use crate::telemetry::codec::Format;
        use crate::telemetry::record::{EventKind, Record};
        use crate::telemetry::registry::MetricRegistry;
        use crate::time::SimTime;
        use std::fmt::Write as _;

        fn write_sample_jsonl(out: &mut String, time: SimTime, name: &str, value: f64) {
            let _ = writeln!(
                out,
                "{{\"t\":{},\"m\":\"{}\",\"v\":{}}}",
                time.as_millis(),
                name,
                value
            );
        }

        fn write_event_jsonl(
            out: &mut String,
            time: SimTime,
            kind: EventKind,
            source: &str,
            value: f64,
        ) {
            let _ = writeln!(
                out,
                "{{\"t\":{},\"e\":\"{}\",\"s\":\"{}\",\"v\":{}}}",
                time.as_millis(),
                kind.as_str(),
                source,
                value
            );
        }

        fn write_sample_csv(out: &mut String, time: SimTime, name: &str, value: f64) {
            let _ = writeln!(out, "{},sample,{},,{}", time.as_millis(), name, value);
        }

        fn write_event_csv(
            out: &mut String,
            time: SimTime,
            kind: EventKind,
            source: &str,
            value: f64,
        ) {
            let _ = writeln!(
                out,
                "{},event,{},{},{}",
                time.as_millis(),
                kind.as_str(),
                source,
                value
            );
        }

        pub fn to_jsonl(registry: &MetricRegistry, records: &[Record]) -> String {
            let mut out = String::with_capacity(records.len() * 48);
            for record in records {
                match record {
                    Record::Sample(s) => {
                        write_sample_jsonl(&mut out, s.time, registry.name(s.metric), s.value)
                    }
                    Record::Event(e) => {
                        write_event_jsonl(&mut out, e.time, e.kind, &e.source, e.value)
                    }
                }
            }
            out
        }

        pub fn to_csv(registry: &MetricRegistry, records: &[Record]) -> String {
            let mut out = String::with_capacity(CSV_HEADER.len() + records.len() * 40);
            out.push_str(CSV_HEADER);
            for record in records {
                match record {
                    Record::Sample(s) => {
                        write_sample_csv(&mut out, s.time, registry.name(s.metric), s.value)
                    }
                    Record::Event(e) => {
                        write_event_csv(&mut out, e.time, e.kind, &e.source, e.value)
                    }
                }
            }
            out
        }

        pub fn render_parsed(records: &[ParsedRecord], format: Format) -> String {
            let mut out = String::with_capacity(records.len() * 48);
            if format == Format::Csv {
                out.push_str(CSV_HEADER);
            }
            for r in records {
                let time = SimTime::from_millis(r.time_ms);
                match (format, r.is_event) {
                    (Format::Jsonl, false) => write_sample_jsonl(&mut out, time, &r.name, r.value),
                    (Format::Csv, false) => write_sample_csv(&mut out, time, &r.name, r.value),
                    (format, true) => {
                        let name = match EventKind::from_name(&r.name) {
                            Some(kind) => kind.as_str(),
                            None => &r.name,
                        };
                        match format {
                            Format::Jsonl => {
                                let _ = writeln!(
                                    out,
                                    "{{\"t\":{},\"e\":\"{}\",\"s\":\"{}\",\"v\":{}}}",
                                    r.time_ms, name, r.source, r.value
                                );
                            }
                            Format::Csv => {
                                let _ = writeln!(
                                    out,
                                    "{},event,{},{},{}",
                                    r.time_ms, name, r.source, r.value
                                );
                            }
                        }
                    }
                }
            }
            out
        }
    }

    /// The parser before fields were found by byte scans, short integers
    /// read directly and lines split by [`find_newline`]: char scans,
    /// `str::parse` for every time and value, `str::lines`. The codec
    /// must accept, return and reject exactly what this does.
    mod reference {
        use super::super::{
            checked_name, err, expect_key, is_csv_header, strip_key, unquote, LossyParse,
            ParseError, ParsedRecord, CSV_HEADER,
        };
        use crate::intern::name_prefix_len;
        use crate::telemetry::codec::Format;
        use crate::telemetry::record::EventKind;

        fn next_field(rest: &str, line: usize) -> Result<(&str, &str), ParseError> {
            if let Some(pos) = rest.find([',', '}']) {
                let (field, tail) = rest.split_at(pos);
                Ok((field, &tail[1..]))
            } else {
                Err(err(line, "unterminated object"))
            }
        }

        fn name_field<'a>(
            rest: &'a str,
            what: &str,
            line: usize,
        ) -> Result<(&'a str, &'a str), ParseError> {
            let bytes = rest.as_bytes();
            if bytes.first() == Some(&b'"') {
                let len = name_prefix_len(&bytes[1..]);
                if len > 0
                    && bytes.get(len + 1) == Some(&b'"')
                    && matches!(bytes.get(len + 2), Some(b',' | b'}'))
                {
                    return Ok((&rest[1..=len], &rest[len + 3..]));
                }
            }
            let (field, rest) = next_field(rest, line)?;
            Ok((checked_name(unquote(field, line)?, what, line)?, rest))
        }

        fn parse_jsonl_line(line_text: &str, line: usize) -> Result<ParsedRecord<'_>, ParseError> {
            let rest = line_text
                .strip_prefix('{')
                .ok_or_else(|| err(line, "expected '{'"))?;
            let rest = expect_key(rest, "t", line)?;
            let (t_field, rest) = next_field(rest, line)?;
            let time_ms: u64 = t_field
                .parse()
                .map_err(|_| err(line, format!("bad time {t_field:?}")))?;
            if let Some(rest) = strip_key(rest, "m") {
                let (name, rest) = name_field(rest, "metric name", line)?;
                let rest = expect_key(rest, "v", line)?;
                let (v_field, rest) = next_field(rest, line)?;
                let value: f64 = v_field
                    .parse()
                    .map_err(|_| err(line, format!("bad value {v_field:?}")))?;
                if !rest.is_empty() {
                    return Err(err(line, "trailing content after sample"));
                }
                Ok(ParsedRecord {
                    time_ms,
                    name: name.into(),
                    source: "".into(),
                    value,
                    is_event: false,
                })
            } else {
                let rest = expect_key(rest, "e", line)?;
                let (e_field, rest) = next_field(rest, line)?;
                let name = unquote(e_field, line)?;
                if EventKind::from_name(name).is_none() {
                    return Err(err(line, format!("unknown event kind {name:?}")));
                }
                let rest = expect_key(rest, "s", line)?;
                let (s_field, rest) = next_field(rest, line)?;
                let source = unquote(s_field, line)?;
                let rest = expect_key(rest, "v", line)?;
                let (v_field, rest) = next_field(rest, line)?;
                let value: f64 = v_field
                    .parse()
                    .map_err(|_| err(line, format!("bad value {v_field:?}")))?;
                if !rest.is_empty() {
                    return Err(err(line, "trailing content after event"));
                }
                Ok(ParsedRecord {
                    time_ms,
                    name: name.into(),
                    source: source.into(),
                    value,
                    is_event: true,
                })
            }
        }

        fn parse_csv_line(line_text: &str, line: usize) -> Result<ParsedRecord<'_>, ParseError> {
            let mut fields = line_text.split(',');
            let mut take = |label: &str| {
                fields
                    .next()
                    .ok_or_else(|| err(line, format!("missing {label} field")))
            };
            let time_ms: u64 = take("time_ms")?
                .parse()
                .map_err(|_| err(line, "bad time_ms"))?;
            let record = take("record")?;
            let name = take("name")?;
            let source = take("source")?;
            let value: f64 = take("value")?.parse().map_err(|_| err(line, "bad value"))?;
            if fields.next().is_some() {
                return Err(err(line, "too many fields"));
            }
            let is_event = match record {
                "sample" => {
                    checked_name(name, "metric name", line)?;
                    false
                }
                "event" => {
                    if EventKind::from_name(name).is_none() {
                        return Err(err(line, format!("unknown event kind {name:?}")));
                    }
                    true
                }
                other => return Err(err(line, format!("unknown record type {other:?}"))),
            };
            Ok(ParsedRecord {
                time_ms,
                name: name.into(),
                source: source.into(),
                value,
                is_event,
            })
        }

        pub fn parse_line(
            line_text: &str,
            line: usize,
            format: Format,
        ) -> Result<ParsedRecord<'_>, ParseError> {
            match format {
                Format::Jsonl => parse_jsonl_line(line_text, line),
                Format::Csv => parse_csv_line(line_text, line),
            }
        }

        pub fn parse_lossy(text: &str, format: Format) -> LossyParse<'_> {
            let mut out = LossyParse::default();
            let mut lines = text.lines().enumerate();
            if format == Format::Csv {
                match lines.next() {
                    Some((_, header)) if is_csv_header(header) => {}
                    Some((_, header)) => out
                        .errors
                        .push(err(1, format!("bad CSV header {header:?}"))),
                    None => return out,
                }
            }
            for (idx, line_text) in lines {
                if line_text.is_empty() || (format == Format::Csv && is_csv_header(line_text)) {
                    continue;
                }
                match parse_line(line_text, idx + 1, format) {
                    Ok(record) => out.records.push(record),
                    Err(e) => out.errors.push(e),
                }
            }
            out
        }

        pub fn parse(text: &str, format: Format) -> Result<Vec<ParsedRecord<'_>>, ParseError> {
            let mut out = Vec::new();
            let mut lines = text.lines().enumerate();
            if format == Format::Csv {
                match lines.next() {
                    Some((_, header)) if header == CSV_HEADER.trim_end() => {}
                    Some((_, header)) => return Err(err(1, format!("bad CSV header {header:?}"))),
                    None => return Ok(out),
                }
            }
            for (idx, line_text) in lines {
                if line_text.is_empty() {
                    continue;
                }
                out.push(parse_line(line_text, idx + 1, format)?);
            }
            Ok(out)
        }
    }

    /// A record with its value as bits, so that two NaNs, or `0` and
    /// `-0`, compare as the bits they are.
    fn bits<'a>(records: &'a [ParsedRecord<'_>]) -> Vec<(u64, &'a str, &'a str, u64, bool)> {
        records
            .iter()
            .map(|r| {
                (
                    r.time_ms,
                    &*r.name,
                    &*r.source,
                    r.value.to_bits(),
                    r.is_event,
                )
            })
            .collect()
    }

    /// Holds [`parse_lossy`], [`parse`] and [`parse_line`] on `text` to the
    /// reference parser: the same records, values by bits, and the same
    /// errors, line and message.
    fn assert_matches_reference(text: &str, format: Format) -> Result<(), String> {
        let (got, want) = (
            parse_lossy(text, format),
            reference::parse_lossy(text, format),
        );
        if bits(&got.records) != bits(&want.records) || got.errors != want.errors {
            return Err(format!(
                "parse_lossy {format:?} {text:?}: {got:?}, reference {want:?}"
            ));
        }
        let (got, want) = (parse(text, format), reference::parse(text, format));
        let same = match (&got, &want) {
            (Ok(got), Ok(want)) => bits(got) == bits(want),
            (Err(got), Err(want)) => got == want,
            _ => false,
        };
        if !same {
            return Err(format!(
                "parse {format:?} {text:?}: {got:?}, reference {want:?}"
            ));
        }
        for line in text.lines() {
            let (got, want) = (
                parse_line(line, 7, format),
                reference::parse_line(line, 7, format),
            );
            let same = match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    bits(std::slice::from_ref(got)) == bits(std::slice::from_ref(want))
                }
                (Err(got), Err(want)) => got == want,
                _ => false,
            };
            if !same {
                return Err(format!(
                    "parse_line {format:?} {line:?}: {got:?}, reference {want:?}"
                ));
            }
        }
        Ok(())
    }

    /// Picks one of `options` by `seed`.
    fn pick<T: Copy>(options: &[T], seed: u64) -> T {
        options[(seed % options.len() as u64) as usize]
    }

    /// `len` digits drawn from `seed`, leading zeros allowed.
    fn digits(seed: u64, len: usize) -> String {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                char::from(b'0' + (x % 10) as u8)
            })
            .collect()
    }

    /// A time field: 1–20 digits (so with leading zeros and past
    /// `u64::MAX`), whole `u64`s, a sign, or no digits at all.
    fn time_spelling(a: u64, b: u64) -> String {
        match a % 8 {
            0 => digits(b, 1 + (b >> 32) as usize % 20),
            1 => b.to_string(),
            2 => format!("+{}", b % 100_000),
            3 => format!("000{}", b % 1_000),
            4 => pick(
                &[
                    "18446744073709551615",
                    "18446744073709551616",
                    "99999999999999999999",
                    "-1",
                    "-0",
                    "",
                    " 1",
                    "1 ",
                    "1.0",
                    "0x10",
                    "1:0",
                    "/1",
                ],
                b,
            )
            .to_string(),
            _ => (b % 1_000_000).to_string(),
        }
    }

    /// A value field: `Display` of arbitrary `f64` bits, the `0`/`1`
    /// gauges, integers near 10^15 and 2^53, digit runs of 1–20 with
    /// leading zeros, and spellings only `str::parse` reads (or rejects).
    fn value_spelling(a: u64, b: u64) -> String {
        let near = |base: u64| (base - 3 + b % 7).to_string();
        match a % 9 {
            0 | 1 => f64::from_bits(b).to_string(),
            2 => pick(&["0", "1"], b).to_string(),
            3 => near(1_000_000_000_000_000),
            4 => near(1 << 53),
            5 => digits(b, 1 + (b >> 32) as usize % 20),
            6 => pick(
                &[
                    "-0", "+1", "1e3", "inf", "-inf", "+inf", "NaN", "nan", "infinity", "1.", ".5",
                    "-.5", "0x10", "", " 1", "1 ", "1_0", "١", "12:5", "9/",
                ],
                b,
            )
            .to_string(),
            7 => ((b % 2_000) as f64 / 8.0 - 100.0).to_string(),
            _ => (b % 100_000).to_string(),
        }
    }

    /// A name inside the wire charset, or one with a character outside
    /// it (a quote, a space, a separator, a non-ASCII letter), or empty.
    fn name_spelling(a: u64, b: u64) -> String {
        let base = pick(&["rack-00.draw_w", "a", "b.y", "g_1-x", "Z9"], b);
        match a % 4 {
            0 => {
                let bad = pick(&["\"", " ", ",", "}", "é", ":", "{"], b >> 8);
                let cut = (b >> 16) as usize % (base.len() + 1);
                format!("{}{bad}{}", &base[..cut], &base[cut..])
            }
            1 if b.is_multiple_of(5) => String::new(),
            _ => base.to_string(),
        }
    }

    /// An event kind from the table, or one time in five a name
    /// spelling, which is rarely a kind.
    fn event_kind(a: u64, b: u64) -> String {
        if a.is_multiple_of(5) {
            name_spelling(a >> 3, b)
        } else {
            pick(&EventKind::ALL, b).as_str().to_string()
        }
    }

    /// Arbitrary text: tokens dense in the codec's delimiters, mixed with
    /// arbitrary bytes (decoded lossily, since text is UTF-8).
    fn arbitrary_text(b: u64, len: usize) -> String {
        const ALPHABET: &[&str] = &[
            "{", "}", ",", "\"", ":", "t", "m", "v", "e", "s", "0", "1", "9", ".", "-", "+", "a",
            " ", "\r", "é", "€", "😀", "\\", "sample", "event",
        ];
        let mut x = b | 1;
        let mut text = String::new();
        for _ in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(3) {
                let bytes = x.to_le_bytes();
                text.push_str(&String::from_utf8_lossy(
                    &bytes[1..2 + (x >> 60) as usize % 4],
                ));
            } else {
                text.push_str(pick(ALPHABET, x));
            }
        }
        text
    }

    /// One line (without its ending) of kind `kind` for a text in
    /// `format`, its fields drawn from `a` and `b`: mostly the format's
    /// own sample and event lines, and also the other format's lines,
    /// headers, empty and truncated lines and arbitrary text.
    fn line_of(kind: usize, format: Format, a: u64, b: u64) -> String {
        let t = time_spelling(a, b);
        let v = value_spelling(a >> 8, b.rotate_left(17));
        let name = name_spelling(a >> 16, b.rotate_left(29));
        let kind_name = event_kind(a >> 24, b.rotate_left(41));
        let source = pick(&["rack-00", "cluster feed", "", "x\"y", "a,b"], a >> 32);
        let (own, other) = match format {
            Format::Jsonl => (0, 2),
            Format::Csv => (2, 0),
        };
        let spelled = |shape: usize| match shape {
            0 => format!("{{\"t\":{t},\"m\":\"{name}\",\"v\":{v}}}"),
            1 => format!("{{\"t\":{t},\"e\":\"{kind_name}\",\"s\":\"{source}\",\"v\":{v}}}"),
            2 => format!("{t},sample,{name},,{v}"),
            _ => format!("{t},event,{kind_name},{source},{v}"),
        };
        match kind {
            0..=4 => spelled(own),
            5 => spelled(own + 1),
            6 => spelled(other + (a % 2) as usize),
            7 => CSV_HEADER.trim_end().to_string(),
            8 => String::new(),
            9 => {
                let whole = spelled(own + (a % 2) as usize);
                let mut cut = (b >> 40) as usize % (whole.len() + 1);
                while !whole.is_char_boundary(cut) {
                    cut -= 1;
                }
                whole[..cut].to_string()
            }
            _ => arbitrary_text(b, (a >> 40) as usize % 40),
        }
    }

    /// A whole text in `format`: lines of every kind, most ended by `\n`,
    /// the rest by `\r\n`, a lone `\r` or nothing, the last one with or
    /// without an ending.
    fn text_of(pieces: &[(usize, u64, u64, usize)], format: Format, csv_header: bool) -> String {
        let mut text = String::new();
        if csv_header {
            text.push_str(CSV_HEADER);
        }
        for &(kind, a, b, ending) in pieces {
            text.push_str(&line_of(kind, format, a, b));
            let endings = ["\n", "\n", "\n", "\n", "\n", "\n", "\r\n", "\r\n", "\r", ""];
            text.push_str(pick(&endings, ending as u64));
        }
        text
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn the_parser_matches_the_reference_parser(
            pieces in proptest::prop::collection::vec(
                (
                    0usize..11,
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u64>(),
                    0usize..10,
                ),
                0..12,
            ),
            csv in proptest::prelude::any::<bool>(),
            csv_header in proptest::prelude::any::<u64>(),
        ) {
            let format = if csv { Format::Csv } else { Format::Jsonl };
            let text = text_of(&pieces, format, csv && !csv_header.is_multiple_of(8));
            if let Err(message) = assert_matches_reference(&text, format) {
                proptest::prop_assert!(false, "{message}");
            }
        }
    }

    /// The inputs the property draws from, each on its own: every time
    /// and value spelling in both formats, and the line endings.
    #[test]
    fn the_parser_matches_the_reference_parser_on_each_spelling() {
        let mut texts = Vec::new();
        for a in 0..72u64 {
            // Every entry of each spelling list, then wider seeds.
            for b in (0..40).chain([1 << 20, 1 << 40, u64::MAX / 3, u64::MAX]) {
                let (t, v) = (time_spelling(a, b), value_spelling(a, b));
                texts.push(format!("{{\"t\":{t},\"m\":\"a\",\"v\":{v}}}\n"));
                texts.push(format!(
                    "{{\"t\":1,\"e\":\"shed\",\"s\":\"x\",\"v\":{v}}}\r\n"
                ));
                texts.push(format!("{}{t},sample,a,,{v}\n", CSV_HEADER));
                texts.push(format!("{}1,event,shed,x,{v}\r", CSV_HEADER));
            }
        }
        for ending in ["", "\n", "\r", "\r\n", "\n\r", "\r\r\n", "\n\n", "\r\n\r"] {
            texts.push(format!("{{\"t\":1,\"m\":\"a\",\"v\":2}}{ending}"));
            texts.push(format!("{}1,sample,a,,2{ending}", CSV_HEADER.trim_end()));
            texts.push(format!(
                "{}{ending}{}",
                CSV_HEADER.trim_end(),
                "1,sample,a,,2"
            ));
            texts.push(ending.to_string());
        }
        for text in &texts {
            for format in [Format::Jsonl, Format::Csv] {
                if let Err(message) = assert_matches_reference(text, format) {
                    panic!("{message}");
                }
            }
        }
    }

    /// A value for the renderer: arbitrary bits, or one the integer path
    /// must leave to `Display` or write exactly — `±0`, `±inf`, `NaN`,
    /// subnormals, integers near 10^15 and 2^53, 10^16–10^22, 2^60 and
    /// ±2^63 (whose shortest digits are not their own), and negative
    /// integers.
    fn value_of(a: u64, b: u64) -> f64 {
        let sign = if a & 8 == 0 { 1.0 } else { -1.0 };
        let near = |base: u64| sign * (base - 3 + b % 7) as f64;
        match a % 8 {
            0 | 1 => f64::from_bits(b),
            2 => pick(
                &[
                    0.0,
                    -0.0,
                    1.0,
                    -1.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                    -f64::NAN,
                    f64::MIN_POSITIVE,
                    f64::MAX,
                    f64::MIN,
                    0.5,
                    9_007_199_254_740_992.0,
                    -9_007_199_254_740_992.0,
                    4_503_599_627_370_495.5,
                    1_152_921_504_606_846_976.0,
                    -9_223_372_036_854_775_808.0,
                    9_223_372_036_854_775_808.0,
                ],
                b,
            ),
            3 => sign * f64::from_bits(b % (1 << 52)),
            4 => near(1_000_000_000_000_000),
            5 => near(1 << 53),
            6 => sign * 10f64.powi(16 + (b % 7) as i32) + (b >> 8) as f64 % 5.0,
            _ => sign * (b % 100_000) as f64,
        }
    }

    /// A time: the edges of `u64`, powers of ten, or arbitrary.
    fn time_of(b: u64) -> u64 {
        match b % 4 {
            0 => pick(
                &[
                    0,
                    1,
                    9,
                    10,
                    100,
                    1_000_000_000_000_000,
                    1 << 53,
                    u64::MAX - 1,
                    u64::MAX,
                ],
                b >> 2,
            ),
            1 => b,
            _ => (b >> 2) % 10_000 * 100,
        }
    }

    /// A name in the shared name charset, 1–12 characters.
    fn charset_name(b: u64) -> String {
        const CHARSET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-";
        let len = 1 + (b % 12) as usize;
        (0..len)
            .map(|i| char::from(CHARSET[(b >> (i * 5) ^ i as u64) as usize % CHARSET.len()]))
            .collect()
    }

    /// `ParsedRecord`s as bits, every NaN as the one `parse` returns: text
    /// carries no NaN sign or payload.
    fn canonical_bits<'a>(
        records: &'a [ParsedRecord<'_>],
    ) -> Vec<(u64, &'a str, &'a str, u64, bool)> {
        bits(records)
            .into_iter()
            .map(|(t, name, source, value, event)| {
                let value = if f64::from_bits(value).is_nan() {
                    f64::NAN.to_bits()
                } else {
                    value
                };
                (t, name, source, value, event)
            })
            .collect()
    }

    /// A registry of charset names and records drawn from `pieces`: each
    /// a sample of one of the names or an event of any kind, at one of a
    /// few times so that consecutive records share and change their time.
    fn recording(
        names: &[u64],
        times: &[u64],
        pieces: &[(bool, u64, u64)],
    ) -> (MetricRegistry, Vec<Record>) {
        let mut registry = MetricRegistry::new();
        let ids: Vec<_> = names
            .iter()
            .map(|&b| registry.register_gauge(&charset_name(b)))
            .collect();
        let records = pieces
            .iter()
            .map(|&(event, a, b)| {
                let time = SimTime::from_millis(time_of(times[(a % times.len() as u64) as usize]));
                let value = value_of(a >> 8, b);
                if event {
                    let source = match a >> 40 & 3 {
                        0 => String::new(),
                        1 => "cluster feed".to_string(),
                        _ => charset_name(b.rotate_left(23)),
                    };
                    Record::Event(EventRecord {
                        time,
                        kind: pick(&EventKind::ALL, a >> 16),
                        source,
                        value,
                    })
                } else {
                    Record::Sample(Sample {
                        time,
                        metric: pick(&ids, a >> 16),
                        value,
                    })
                }
            })
            .collect();
        (registry, records)
    }

    /// Holds `to_jsonl`, `to_csv` and `render_parsed` on one recording to
    /// the `writeln!` renderer, and checks that each text parses back to
    /// the records it was rendered from, values by bits.
    fn assert_renders_as_reference(
        registry: &MetricRegistry,
        records: &[Record],
    ) -> Result<(), String> {
        let parsed: Vec<ParsedRecord> = records
            .iter()
            .map(|record| match record {
                Record::Sample(s) => ParsedRecord {
                    time_ms: s.time.as_millis(),
                    name: registry.name(s.metric).into(),
                    source: "".into(),
                    value: s.value,
                    is_event: false,
                },
                Record::Event(e) => ParsedRecord {
                    time_ms: e.time.as_millis(),
                    name: e.kind.as_str().into(),
                    source: e.source.as_str().into(),
                    value: e.value,
                    is_event: true,
                },
            })
            .collect();
        for format in [Format::Jsonl, Format::Csv] {
            let (text, want) = match format {
                Format::Jsonl => (
                    to_jsonl(registry, records),
                    render_reference::to_jsonl(registry, records),
                ),
                Format::Csv => (
                    to_csv(registry, records),
                    render_reference::to_csv(registry, records),
                ),
            };
            if text != want {
                return Err(format!("{format:?} render {text:?}, reference {want:?}"));
            }
            let rendered = render_parsed(&parsed, format);
            let want = render_reference::render_parsed(&parsed, format);
            if rendered != want || rendered != text {
                return Err(format!(
                    "{format:?} render_parsed {rendered:?}, reference {want:?}"
                ));
            }
            let back = parse(&text, format).map_err(|e| format!("{format:?} {text:?}: {e}"))?;
            if canonical_bits(&back) != canonical_bits(&parsed) {
                return Err(format!("{format:?} {text:?} parsed back as {back:?}"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn the_renderer_matches_the_writeln_renderer(
            names in proptest::prop::collection::vec(proptest::prelude::any::<u64>(), 1..6),
            times in proptest::prop::collection::vec(proptest::prelude::any::<u64>(), 1..4),
            pieces in proptest::prop::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u64>(),
                ),
                0..24,
            ),
        ) {
            let (registry, records) = recording(&names, &times, &pieces);
            if let Err(message) = assert_renders_as_reference(&registry, &records) {
                proptest::prop_assert!(false, "{message}");
            }
        }
    }

    /// Every value and time the property draws from, each on its own,
    /// in a sample and in an event.
    #[test]
    fn the_renderer_matches_the_writeln_renderer_on_each_value() {
        for a in 0..128u64 {
            for b in (0..40).chain([1 << 20, 1 << 40, 1 << 52, u64::MAX / 3, u64::MAX]) {
                let pieces = [(false, a << 8, b), (true, a << 8 | 1 << 40, b)];
                let (registry, records) = recording(&[b], &[b, b >> 1], &pieces);
                if let Err(message) = assert_renders_as_reference(&registry, &records) {
                    panic!("{message}");
                }
            }
        }
    }

    #[test]
    fn count_newlines_counts_every_newline() {
        let mut texts = vec![String::new(), "\n".repeat(254), "\n".repeat(255)];
        texts.push("\n".repeat(256));
        texts.push("\n".repeat(1_000));
        texts.push(format!("a\n{}\r\n😀\n", "x".repeat(300)));
        texts.push(arbitrary_text(7, 2_000));
        for text in &texts {
            assert_eq!(
                count_newlines(text.as_bytes()),
                text.bytes().filter(|&b| b == b'\n').count(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn lines_split_as_str_lines_does() {
        for text in [
            "",
            "\n",
            "\r",
            "\r\n",
            "a",
            "a\n",
            "a\r",
            "a\r\n",
            "a\n\n",
            "a\r\rb\r\n",
            "\n\r",
            "é\n€\r\n😀",
            "0123456789abcdef\n0123456789\r\n",
        ] {
            assert_eq!(
                lines(text).collect::<Vec<_>>(),
                text.lines().collect::<Vec<_>>(),
                "{text:?}"
            );
        }
    }
}
