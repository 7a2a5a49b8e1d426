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

/// Classifies one line (with or without its trailing newline).
///
/// Control keywords claim the line only when they are the whole first
/// token, so telemetry data — which always starts `{` or a digit (CSV)
/// or is a known header — can never be shadowed. A line that starts
/// with `{` or a digit is data without a look at the rest of it.
pub fn classify(line: &str) -> Line {
    if line
        .as_bytes()
        .first()
        .is_some_and(|&b| b == b'{' || b.is_ascii_digit())
    {
        return Line::Data;
    }
    classify_words(line)
}

/// The whole-line scan behind [`classify`]: trims the line ending and
/// matches the first whitespace-separated word against the control
/// keywords.
fn classify_words(line: &str) -> Line {
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
    use proptest::prelude::*;

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

    /// Words and separators the generated lines are built from: every
    /// control keyword, hello arguments good and bad, data openers, and
    /// the whitespace and line endings the scan trims or splits on.
    const PIECES: [&str; 22] = [
        "hello",
        "end",
        "ping",
        "shutdown",
        "acme",
        "jsonl",
        "csv",
        "resume",
        "42",
        "-3",
        "../x",
        "{\"t\":0}",
        "7,sample",
        "time_ms",
        " ",
        "  ",
        "\t",
        "\r",
        "\n",
        "\r\n",
        "\u{b}",
        "é",
    ];

    /// Every control line, and lines that come close to one, cut at
    /// every character boundary, with and without each line ending.
    #[test]
    fn classify_equals_the_whole_line_scan_on_keyword_prefixes() {
        let lines = [
            "hello acme",
            "hello acme jsonl",
            "hello rack-farm.eu csv resume 18446744073709551615",
            "hello acme resume 42",
            "hello acme csv resume 1 extra",
            "hello ../evil",
            "hello acme xml",
            "end",
            "end now",
            "ping",
            "ping pong",
            "shutdown",
            "shutdown -f",
            " \thello acme",
            "helloacme",
            "endless",
        ];
        for line in lines {
            for cut in (0..=line.len()).filter(|&i| line.is_char_boundary(i)) {
                for ending in ["", "\n", "\r\n", "\r", "\n\n"] {
                    for opener in ["", "{", "0", " "] {
                        let text = format!("{opener}{}{ending}", &line[..cut]);
                        assert_eq!(classify(&text), classify_words(&text), "{text:?}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `classify` equals the whole-line scan on arbitrary strings:
        /// lossily decoded bytes, and lines assembled from keywords,
        /// arguments, data openers and whitespace.
        #[test]
        fn classify_equals_the_whole_line_scan(
            bytes in prop::collection::vec(0u8..=255, 0..24),
            pieces in prop::collection::vec(0usize..PIECES.len(), 0..8),
        ) {
            let lossy = String::from_utf8_lossy(&bytes).into_owned();
            let built: String = pieces.iter().map(|&i| PIECES[i]).collect();
            for text in [lossy.clone(), built.clone(), format!("{built}{lossy}")] {
                prop_assert_eq!(classify(&text), classify_words(&text), "{:?}", text);
            }
        }
    }
}
