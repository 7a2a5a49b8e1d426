//! The padsimd wire protocol: line framing and control grammar.
//!
//! A session is one connection carrying newline-delimited UTF-8 lines.
//! Lines are either **control** (a lowercase keyword in column 0:
//! `hello`, `end`, `ping`, `shutdown`) or **data** — telemetry records
//! and trace spans in the exact serialization the offline tools read
//! and write ([`simkit::telemetry::codec`] / [`simkit::trace::codec`]).
//! There is no new encoding: a recorded `pad.jsonl` file can be piped
//! down the socket verbatim.
//!
//! Channel framing rides on the formats' own disambiguators:
//!
//! * JSONL — telemetry lines start `{"t":`, span lines start `{"id":`;
//! * CSV — the telemetry header opens a telemetry block, the span
//!   header opens a span block, and rows bind to the open block.
//!
//! Control replies are single lines: `ok hello <tenant>` (or
//! `ok hello <tenant> seq <S>` for a resume, or `busy retry-after <ms>`
//! when the tenant is shedding load) / `pong` / the replay-summary
//! JSON (for `end`) / `ok shutdown`. Data lines are never
//! acknowledged, so a sender can stream at full throughput.

use simkit::intern::valid_name;
use simkit::telemetry::Format;

/// Maximum accepted tenant-name length.
pub const MAX_TENANT_LEN: usize = 64;

/// A parsed control line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control {
    /// `hello <tenant> [jsonl|csv] [resume <seq>]` — open (or reset) a
    /// tenant stream. With `resume`, the stream is re-attached instead
    /// of reset: the daemon replies `ok hello <tenant> seq <S>` where
    /// `S` is its durable sequence number, and the client rewinds its
    /// send buffer to line `S`.
    Hello {
        /// The tenant the rest of the session's data lines belong to.
        tenant: String,
        /// Wire format of the session's data lines.
        format: Format,
        /// The client's last-sent sequence number, when reconnecting.
        resume: Option<u64>,
    },
    /// `end` — close the tenant stream; the daemon replies with the
    /// replay-summary JSON.
    End,
    /// `ping` — liveness probe; the daemon replies `pong`.
    Ping,
    /// `shutdown` — drain every session, flush outputs, exit 0.
    Shutdown,
}

/// One classified wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// A recognized control line.
    Control(Control),
    /// A malformed control line (`hello` with a bad tenant, say) —
    /// counted as a protocol error, never fed to the codecs.
    BadControl(String),
    /// Anything else: a candidate telemetry/span line for the codecs.
    Data,
    /// Empty (keep-alive) line; ignored.
    Blank,
}

/// `true` for names safe to appear in file names and Prometheus labels:
/// 1–64 chars drawn from `[A-Za-z0-9._-]` (the shared name charset), not
/// starting with a dot or dash.
pub fn valid_tenant(name: &str) -> bool {
    valid_name(name) && name.len() <= MAX_TENANT_LEN && !name.starts_with(['.', '-'])
}

/// Classifies one line (without its trailing newline).
///
/// Control keywords claim the line only when they are the whole first
/// token, so telemetry data — which always starts `{` or a digit (CSV)
/// or is a known header — can never be shadowed.
pub fn classify(line: &str) -> Line {
    let trimmed = line.trim_end_matches(['\r', '\n']);
    if trimmed.is_empty() {
        return Line::Blank;
    }
    let mut words = trimmed.split_ascii_whitespace();
    match words.next() {
        Some("hello") => {
            let Some(tenant) = words.next() else {
                return Line::BadControl("hello requires a tenant name".to_string());
            };
            if !valid_tenant(tenant) {
                return Line::BadControl(format!("invalid tenant name {tenant:?}"));
            }
            let mut format = Format::Jsonl;
            let mut next = words.next();
            if let Some(name) = next {
                if name != "resume" {
                    match Format::from_name(name) {
                        Some(f) => format = f,
                        None => return Line::BadControl(format!("unknown format {name:?}")),
                    }
                    next = words.next();
                }
            }
            let resume = match next {
                None => None,
                Some("resume") => {
                    let Some(seq) = words.next().and_then(|s| s.parse::<u64>().ok()) else {
                        return Line::BadControl("resume requires a sequence number".to_string());
                    };
                    Some(seq)
                }
                Some(extra) => {
                    return Line::BadControl(format!("unexpected hello argument {extra:?}"))
                }
            };
            if words.next().is_some() {
                return Line::BadControl("hello takes at most four arguments".to_string());
            }
            Line::Control(Control::Hello {
                tenant: tenant.to_string(),
                format,
                resume,
            })
        }
        Some("end") if words.next().is_none() => Line::Control(Control::End),
        Some("ping") if words.next().is_none() => Line::Control(Control::Ping),
        Some("shutdown") if words.next().is_none() => Line::Control(Control::Shutdown),
        Some("end" | "ping" | "shutdown") => {
            Line::BadControl(format!("control line takes no arguments: {trimmed:?}"))
        }
        _ => Line::Data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_lines_parse() {
        assert_eq!(
            classify("hello acme\n"),
            Line::Control(Control::Hello {
                tenant: "acme".to_string(),
                format: Format::Jsonl,
                resume: None,
            })
        );
        assert_eq!(
            classify("hello rack-farm.eu csv"),
            Line::Control(Control::Hello {
                tenant: "rack-farm.eu".to_string(),
                format: Format::Csv,
                resume: None,
            })
        );
        assert_eq!(classify("end"), Line::Control(Control::End));
        assert_eq!(classify("ping\r\n"), Line::Control(Control::Ping));
        assert_eq!(classify("shutdown"), Line::Control(Control::Shutdown));
        assert_eq!(classify(""), Line::Blank);
    }

    #[test]
    fn hello_resume_parses_with_and_without_format() {
        assert_eq!(
            classify("hello acme resume 42"),
            Line::Control(Control::Hello {
                tenant: "acme".to_string(),
                format: Format::Jsonl,
                resume: Some(42),
            })
        );
        assert_eq!(
            classify("hello acme csv resume 0"),
            Line::Control(Control::Hello {
                tenant: "acme".to_string(),
                format: Format::Csv,
                resume: Some(0),
            })
        );
        assert!(matches!(classify("hello acme resume"), Line::BadControl(_)));
        assert!(matches!(
            classify("hello acme resume -3"),
            Line::BadControl(_)
        ));
        assert!(matches!(
            classify("hello acme csv resume 1 extra"),
            Line::BadControl(_)
        ));
    }

    #[test]
    fn bad_control_lines_are_flagged_not_fed_to_codecs() {
        assert!(matches!(classify("hello"), Line::BadControl(_)));
        assert!(matches!(classify("hello ../evil"), Line::BadControl(_)));
        assert!(matches!(classify("hello a b c"), Line::BadControl(_)));
        assert!(matches!(classify("hello acme xml"), Line::BadControl(_)));
        assert!(matches!(classify("end now"), Line::BadControl(_)));
    }

    #[test]
    fn telemetry_and_span_lines_are_data() {
        assert_eq!(classify("{\"t\":0,\"m\":\"a.x\",\"v\":1}"), Line::Data);
        assert_eq!(classify("{\"id\":0,\"n\":\"attack.drain\"}"), Line::Data);
        assert_eq!(classify("time_ms,record,name,source,value"), Line::Data);
        assert_eq!(classify("100,sample,rack-00.draw_w,,123.4"), Line::Data);
        // A malformed data line is still Data: the codec reports it.
        assert_eq!(classify("garbage but not a keyword"), Line::Data);
    }

    #[test]
    fn tenant_charset_is_path_and_label_safe() {
        assert!(valid_tenant("acme"));
        assert!(valid_tenant("t_0.east-1"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant(".hidden"));
        assert!(!valid_tenant("-flag"));
        assert!(!valid_tenant("a/b"));
        assert!(!valid_tenant(&"x".repeat(65)));
    }
}
