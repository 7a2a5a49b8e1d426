//! Serialization of span traces to JSONL and CSV, and the strict parser
//! `padsim incident` uses to read them back.
//!
//! The formats follow the telemetry codec's rules: restricted-charset
//! names and attribute keys (`[A-Za-z0-9._-]`, rejected on parse when
//! outside it), values via Rust's default `f64` `Display` (shortest
//! round-trip form), one record per line, and a parser that fails the
//! whole parse on the first malformed line.
//!
//! # Wire formats
//!
//! JSONL — one object per line, keys always in this order:
//!
//! ```text
//! {"id":0,"name":"attack.drain","parent":null,"t0":30000,"t1":330000,"attrs":{"rack":1,"nodes":4}}
//! {"id":1,"name":"attack.spike","parent":0,"t0":330000,"t1":600000,"attrs":{"rack":1,"nodes":4}}
//! ```
//!
//! CSV — header `id,name,parent,start_ms,end_ms,attrs`, attributes as
//! `key=value` pairs joined with `;`:
//!
//! ```text
//! id,name,parent,start_ms,end_ms,attrs
//! 0,attack.drain,,30000,330000,rack=1;nodes=4
//! 1,attack.spike,0,330000,600000,rack=1;nodes=4
//! ```

use crate::telemetry::codec::{
    checked_name, err, expect_key, name_field, next_field, unquote, Format, ParseError,
};
use crate::trace::span::{Span, SpanNames};

/// CSV header line for span traces (with trailing newline).
pub const SPAN_CSV_HEADER: &str = "id,name,parent,start_ms,end_ms,attrs\n";

fn write_span_jsonl(out: &mut String, names: &SpanNames, span: &Span) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"id\":{},\"name\":\"{}\",\"parent\":",
        span.id.index(),
        names.name(span.name)
    );
    match span.parent {
        Some(p) => {
            let _ = write!(out, "{}", p.index());
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"t0\":{},\"t1\":{},\"attrs\":{{",
        span.start.as_millis(),
        span.end.as_millis()
    );
    for (i, (key, value)) in span.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{key}\":{value}");
    }
    out.push_str("}}\n");
}

fn write_span_csv(out: &mut String, names: &SpanNames, span: &Span) {
    use std::fmt::Write as _;
    let _ = write!(out, "{},{},", span.id.index(), names.name(span.name));
    if let Some(p) = span.parent {
        let _ = write!(out, "{}", p.index());
    }
    let _ = write!(out, ",{},{},", span.start.as_millis(), span.end.as_millis());
    for (i, (key, value)) in span.attrs.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let _ = write!(out, "{key}={value}");
    }
    out.push('\n');
}

/// Serializes spans (already in canonical order — see
/// [`sort_spans`](crate::trace::sort_spans)) to a JSONL string.
pub fn spans_to_jsonl(names: &SpanNames, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for span in spans {
        write_span_jsonl(&mut out, names, span);
    }
    out
}

/// Serializes spans (already in canonical order) to a CSV string with
/// header.
pub fn spans_to_csv(names: &SpanNames, spans: &[Span]) -> String {
    let mut out = String::with_capacity(SPAN_CSV_HEADER.len() + spans.len() * 64);
    out.push_str(SPAN_CSV_HEADER);
    for span in spans {
        write_span_csv(&mut out, names, span);
    }
    out
}

/// One span parsed back from a serialized trace.
///
/// Interned ids don't survive serialization, so the parsed form carries
/// the resolved name and plain integer ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// The span id (dense within its trace).
    pub id: u64,
    /// The span's name.
    pub name: String,
    /// The causal parent's id, if any.
    pub parent: Option<u64>,
    /// Open time in simulation milliseconds.
    pub start_ms: u64,
    /// Close time in simulation milliseconds.
    pub end_ms: u64,
    /// Key/value attributes, in serialized order.
    pub attrs: Vec<(String, f64)>,
}

impl ParsedSpan {
    /// Looks up one attribute by key.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

fn parse_parent(field: &str, line: usize) -> Result<Option<u64>, ParseError> {
    if field == "null" || field.is_empty() {
        return Ok(None);
    }
    field
        .parse()
        .map(Some)
        .map_err(|_| err(line, format!("bad parent {field:?}")))
}

fn parse_attr_pair(pair: &str, sep: char, line: usize) -> Result<(String, f64), ParseError> {
    let (key, value) = pair
        .split_once(sep)
        .ok_or_else(|| err(line, format!("bad attribute {pair:?}")))?;
    let key = checked_name(key, "attribute key", line)?;
    let value: f64 = value
        .parse()
        .map_err(|_| err(line, format!("bad attribute value {value:?}")))?;
    Ok((key.to_string(), value))
}

fn parse_span_jsonl_line(line_text: &str, line: usize) -> Result<ParsedSpan, ParseError> {
    let rest = line_text
        .strip_prefix('{')
        .ok_or_else(|| err(line, "expected '{'"))?;
    let rest = expect_key(rest, "id", line)?;
    let (id_field, rest) = next_field(rest, line)?;
    let id: u64 = id_field
        .parse()
        .map_err(|_| err(line, format!("bad id {id_field:?}")))?;
    let rest = expect_key(rest, "name", line)?;
    let (name, rest) = name_field(rest, "span name", line)?;
    let name = name.to_string();
    let rest = expect_key(rest, "parent", line)?;
    let (parent_field, rest) = next_field(rest, line)?;
    let parent = parse_parent(parent_field, line)?;
    let rest = expect_key(rest, "t0", line)?;
    let (t0_field, rest) = next_field(rest, line)?;
    let start_ms: u64 = t0_field
        .parse()
        .map_err(|_| err(line, format!("bad t0 {t0_field:?}")))?;
    let rest = expect_key(rest, "t1", line)?;
    let (t1_field, rest) = next_field(rest, line)?;
    let end_ms: u64 = t1_field
        .parse()
        .map_err(|_| err(line, format!("bad t1 {t1_field:?}")))?;
    let mut rest = rest
        .strip_prefix("\"attrs\":{")
        .ok_or_else(|| err(line, "expected key \"attrs\""))?;
    let mut attrs = Vec::new();
    if let Some(tail) = rest.strip_prefix('}') {
        rest = tail;
    } else {
        loop {
            let pos = rest
                .find([',', '}'])
                .ok_or_else(|| err(line, "unterminated attrs"))?;
            let done = rest.as_bytes()[pos] == b'}';
            let pair = &rest[..pos];
            rest = &rest[pos + 1..];
            let (quoted_key, value) = pair
                .split_once(':')
                .ok_or_else(|| err(line, format!("bad attribute {pair:?}")))?;
            let key = checked_name(unquote(quoted_key, line)?, "attribute key", line)?.to_string();
            let value: f64 = value
                .parse()
                .map_err(|_| err(line, format!("bad attribute value {value:?}")))?;
            attrs.push((key, value));
            if done {
                break;
            }
        }
    }
    if rest != "}" {
        return Err(err(line, "trailing content after span"));
    }
    Ok(ParsedSpan {
        id,
        name,
        parent,
        start_ms,
        end_ms,
        attrs,
    })
}

fn parse_span_csv_line(line_text: &str, line: usize) -> Result<ParsedSpan, ParseError> {
    let mut fields = line_text.split(',');
    let mut take = |label: &str| {
        fields
            .next()
            .ok_or_else(|| err(line, format!("missing {label} field")))
    };
    let id: u64 = take("id")?.parse().map_err(|_| err(line, "bad id"))?;
    let name = checked_name(take("name")?, "span name", line)?.to_string();
    let parent = parse_parent(take("parent")?, line)?;
    let start_ms: u64 = take("start_ms")?
        .parse()
        .map_err(|_| err(line, "bad start_ms"))?;
    let end_ms: u64 = take("end_ms")?
        .parse()
        .map_err(|_| err(line, "bad end_ms"))?;
    let attrs_field = take("attrs")?;
    if fields.next().is_some() {
        return Err(err(line, "too many fields"));
    }
    let mut attrs = Vec::new();
    if !attrs_field.is_empty() {
        for pair in attrs_field.split(';') {
            attrs.push(parse_attr_pair(pair, '=', line)?);
        }
    }
    Ok(ParsedSpan {
        id,
        name,
        parent,
        start_ms,
        end_ms,
        attrs,
    })
}

/// Parses a single span wire line (either format).
///
/// `line` is the 1-based line number used in error messages. The span
/// CSV header row is not accepted here — stream consumers skip it with
/// [`is_span_csv_header`] first. This is the per-line entry point for
/// wire use, mirroring
/// [`parse_line`](crate::telemetry::codec::parse_line) on the telemetry
/// side: a malformed line becomes a structured per-line error instead
/// of aborting the stream.
pub fn parse_span_line(
    line_text: &str,
    line: usize,
    format: Format,
) -> Result<ParsedSpan, ParseError> {
    match format {
        Format::Jsonl => parse_span_jsonl_line(line_text, line),
        Format::Csv => parse_span_csv_line(line_text, line),
    }
}

/// `true` when the line is the span CSV header row.
pub fn is_span_csv_header(line_text: &str) -> bool {
    line_text == SPAN_CSV_HEADER.trim_end()
}

/// Re-serializes parsed spans back to the wire format they came from.
///
/// The exact inverse of [`parse_spans`] for any well-formed trace —
/// names and attribute keys are restricted to an escape-free charset
/// and values use the shortest-round-trip `f64` form in both
/// directions, so `render_parsed_spans(&parse_spans(text)?) == text`
/// byte for byte. This is what a daemon uses to persist the spans it
/// retained for a session (checkpoints, flushes) without ever holding
/// the original byte stream.
pub fn render_parsed_spans(spans: &[ParsedSpan], format: Format) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(spans.len() * 96);
    if format == Format::Csv {
        out.push_str(SPAN_CSV_HEADER);
    }
    for s in spans {
        match format {
            Format::Jsonl => {
                let _ = write!(out, "{{\"id\":{},\"name\":\"{}\",\"parent\":", s.id, s.name);
                match s.parent {
                    Some(p) => {
                        let _ = write!(out, "{p}");
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(
                    out,
                    ",\"t0\":{},\"t1\":{},\"attrs\":{{",
                    s.start_ms, s.end_ms
                );
                for (i, (key, value)) in s.attrs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{key}\":{value}");
                }
                out.push_str("}}\n");
            }
            Format::Csv => {
                let _ = write!(out, "{},{},", s.id, s.name);
                if let Some(p) = s.parent {
                    let _ = write!(out, "{p}");
                }
                let _ = write!(out, ",{},{},", s.start_ms, s.end_ms);
                for (i, (key, value)) in s.attrs.iter().enumerate() {
                    if i > 0 {
                        out.push(';');
                    }
                    let _ = write!(out, "{key}={value}");
                }
                out.push('\n');
            }
        }
    }
    out
}

/// Parses a serialized span trace (either format) back into spans.
///
/// The parser is strict: any malformed line fails the whole parse with
/// its 1-based line number, rather than silently skipping data.
///
/// # Errors
///
/// Returns the first malformed line's [`ParseError`].
pub fn parse_spans(text: &str, format: Format) -> Result<Vec<ParsedSpan>, ParseError> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    if format == Format::Csv {
        match lines.next() {
            Some((_, header)) if header == SPAN_CSV_HEADER.trim_end() => {}
            Some((_, header)) => return Err(err(1, format!("bad span CSV header {header:?}"))),
            None => return Ok(out),
        }
    }
    for (idx, line_text) in lines {
        if line_text.is_empty() {
            continue;
        }
        let line = idx + 1;
        out.push(match format {
            Format::Jsonl => parse_span_jsonl_line(line_text, line)?,
            Format::Csv => parse_span_csv_line(line_text, line)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::trace::span::{sort_spans, SpanId};

    fn sample_trace() -> (SpanNames, Vec<Span>) {
        let mut names = SpanNames::new();
        let drain = names.intern("attack.drain");
        let spike = names.intern("attack.spike");
        let spans = vec![
            Span {
                id: SpanId::from_index(0),
                name: drain,
                parent: None,
                start: SimTime::from_millis(30_000),
                end: SimTime::from_millis(330_000),
                attrs: vec![("rack".into(), 1.0), ("nodes".into(), 4.0)],
            },
            Span {
                id: SpanId::from_index(1),
                name: spike,
                parent: Some(SpanId::from_index(0)),
                start: SimTime::from_millis(330_000),
                end: SimTime::from_millis(600_000),
                attrs: Vec::new(),
            },
        ];
        (names, spans)
    }

    #[test]
    fn jsonl_round_trips() {
        let (names, spans) = sample_trace();
        let text = spans_to_jsonl(&names, &spans);
        assert_eq!(
            text,
            "{\"id\":0,\"name\":\"attack.drain\",\"parent\":null,\"t0\":30000,\"t1\":330000,\
             \"attrs\":{\"rack\":1,\"nodes\":4}}\n\
             {\"id\":1,\"name\":\"attack.spike\",\"parent\":0,\"t0\":330000,\"t1\":600000,\
             \"attrs\":{}}\n"
        );
        let parsed = parse_spans(&text, Format::Jsonl).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "attack.drain");
        assert_eq!(parsed[0].parent, None);
        assert_eq!(parsed[0].attr("rack"), Some(1.0));
        assert_eq!(parsed[0].attr("nodes"), Some(4.0));
        assert_eq!(parsed[1].parent, Some(0));
        assert_eq!(parsed[1].start_ms, 330_000);
        assert!(parsed[1].attrs.is_empty());
    }

    #[test]
    fn csv_round_trips() {
        let (names, spans) = sample_trace();
        let text = spans_to_csv(&names, &spans);
        assert!(text.starts_with(SPAN_CSV_HEADER));
        let parsed = parse_spans(&text, Format::Csv).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].attr("nodes"), Some(4.0));
        assert_eq!(parsed[1].parent, Some(0));
        assert_eq!(parsed[1].end_ms, 600_000);
    }

    #[test]
    fn render_parsed_spans_is_the_exact_inverse_of_parse() {
        let (names, spans) = sample_trace();
        for format in [Format::Jsonl, Format::Csv] {
            let text = match format {
                Format::Jsonl => spans_to_jsonl(&names, &spans),
                Format::Csv => spans_to_csv(&names, &spans),
            };
            let parsed = parse_spans(&text, format).unwrap();
            assert_eq!(render_parsed_spans(&parsed, format), text, "{format:?}");
            // And the rendered form parses back to the same spans.
            let reparsed = parse_spans(&render_parsed_spans(&parsed, format), format).unwrap();
            assert_eq!(reparsed, parsed, "{format:?}");
        }
    }

    #[test]
    fn malformed_lines_fail_with_line_numbers() {
        let good = "{\"id\":0,\"name\":\"a\",\"parent\":null,\"t0\":0,\"t1\":1,\"attrs\":{}}\n";
        let e = parse_spans(&format!("{good}not json\n"), Format::Jsonl).unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse_spans("wrong,header\n", Format::Csv).unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse_spans(
            "{\"id\":0,\"name\":\"a\",\"parent\":null,\"t0\":0,\"t1\":1,\"attrs\":{\"k\":x}}\n",
            Format::Jsonl,
        )
        .unwrap_err();
        assert!(e.message.contains("bad attribute value"));

        // Names and attribute keys outside the wire charset are rejected
        // in both formats: a renderer would emit them unescaped.
        for (text, format, what) in [
            (
                "{\"id\":0,\"name\":\"a\"b\",\"parent\":null,\"t0\":0,\"t1\":1,\"attrs\":{}}\n",
                Format::Jsonl,
                "invalid span name",
            ),
            (
                "{\"id\":0,\"name\":\"a\",\"parent\":null,\"t0\":0,\"t1\":1,\"attrs\":{\"k\"x\":1}}\n",
                Format::Jsonl,
                "invalid attribute key",
            ),
            (
                "id,name,parent,start_ms,end_ms,attrs\n0,a b,,0,1,\n",
                Format::Csv,
                "invalid span name",
            ),
            (
                "id,name,parent,start_ms,end_ms,attrs\n0,a,,0,1,k\"=1\n",
                Format::Csv,
                "invalid attribute key",
            ),
        ] {
            let e = parse_spans(text, format).unwrap_err();
            assert!(e.message.contains(what), "{format:?}: {e}");
        }
    }

    #[test]
    fn non_finite_attrs_round_trip() {
        let mut names = SpanNames::new();
        let n = names.intern("x");
        let spans = vec![Span {
            id: SpanId::from_index(0),
            name: n,
            parent: None,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            attrs: vec![
                ("nan".into(), f64::NAN),
                ("pinf".into(), f64::INFINITY),
                ("ninf".into(), f64::NEG_INFINITY),
            ],
        }];
        for format in [Format::Jsonl, Format::Csv] {
            let text = match format {
                Format::Jsonl => spans_to_jsonl(&names, &spans),
                Format::Csv => spans_to_csv(&names, &spans),
            };
            let parsed = parse_spans(&text, format).unwrap();
            assert!(parsed[0].attr("nan").unwrap().is_nan());
            assert_eq!(parsed[0].attr("pinf"), Some(f64::INFINITY));
            assert_eq!(parsed[0].attr("ninf"), Some(f64::NEG_INFINITY));
        }
    }

    #[test]
    fn sorted_output_is_deterministic() {
        let (names, mut spans) = sample_trace();
        spans.swap(0, 1);
        sort_spans(&mut spans);
        assert_eq!(spans[0].id, SpanId::from_index(0));
        let a = spans_to_jsonl(&names, &spans);
        let b = spans_to_jsonl(&names, &spans);
        assert_eq!(a, b);
    }
}
