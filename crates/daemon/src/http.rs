//! A minimal std-only HTTP/1.0 endpoint: Prometheus exposition plus
//! the incident/status JSON API.
//!
//! One request per connection, `GET` only, `Connection: close` — the
//! smallest server a scrape loop and a CI step need. Routes:
//!
//! | path                        | body                                    |
//! |-----------------------------|-----------------------------------------|
//! | `/healthz`                  | `ok` — pure liveness, always 200        |
//! | `/readyz`                   | `ready`, or 503 before bind / draining  |
//! | `/statusz`                  | one-object daemon status JSON           |
//! | `/metrics`                  | merged exposition, all tenants + daemon |
//! | `/alerts`                   | alert state JSON (`?format=prom` for    |
//! |                             | Prometheus `ALERTS{...}` series)        |
//! | `/logs`                     | bounded structured ops log, JSONL       |
//! | `/tenants`                  | JSON array of tenant status objects     |
//! | `/tenants/<id>`             | one tenant's status JSON                |
//! | `/tenants/<id>/summary`     | replay-summary JSON (after `end`)       |
//! | `/tenants/<id>/incidents`   | incident report JSON                    |
//! | `/tenants/<id>/firings`     | detector firing log, text               |
//! | `/tenants/<id>/metrics`     | that tenant's full labeled exposition   |
//! | `/tenants/<id>/alerts`      | that tenant's alert document JSON       |

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::Arc;
use std::time::Instant;

use simkit::alert::{render_alerts_prom, AlertEngine};
use simkit::telemetry::{
    render_prometheus_families, render_prometheus_reports, MetricRegistry, TelemetryReport,
};

use crate::state::{Counters, DaemonState};

/// A response body plus its media type.
struct Reply {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl Reply {
    fn ok(content_type: &'static str, body: String) -> Self {
        Reply {
            status: "200 OK",
            content_type,
            body,
        }
    }

    fn not_found() -> Self {
        Reply {
            status: "404 Not Found",
            content_type: "text/plain",
            body: "not found\n".to_string(),
        }
    }

    fn unavailable(body: &str) -> Self {
        Reply {
            status: "503 Service Unavailable",
            content_type: "text/plain",
            body: body.to_string(),
        }
    }
}

/// Hard cap on the request line; longer lines are answered 400 and the
/// excess is never buffered.
const MAX_REQUEST_LINE: usize = 8192;

/// Serves one HTTP exchange on `stream` and closes it.
pub fn handle_http<S: Read + Write>(stream: S, state: &DaemonState) -> io::Result<()> {
    Counters::bump(&state.counters.http_requests);
    let started = state.self_obs.then(Instant::now);
    let mut reader = BufReader::new(stream);
    let mut request_line: Vec<u8> = Vec::new();
    // Bounded request-line framing: a newline must arrive within
    // MAX_REQUEST_LINE bytes or the request is rejected without
    // buffering the rest. EOF before the newline is equally malformed.
    let well_formed = loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if state.shutting_down() {
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            break false; // EOF with no terminator
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let take = pos + 1;
                if request_line.len() + take <= MAX_REQUEST_LINE {
                    request_line.extend_from_slice(&available[..take]);
                    reader.consume(take);
                    break true;
                }
                reader.consume(take);
                break false;
            }
            None => {
                let len = available.len();
                let fits = request_line.len() + len <= MAX_REQUEST_LINE;
                if fits {
                    request_line.extend_from_slice(available);
                }
                reader.consume(len);
                if !fits {
                    break false;
                }
            }
        }
    };
    let request_line = String::from_utf8_lossy(&request_line);
    let mut parts = request_line.split_ascii_whitespace();
    let reply = match (well_formed, parts.next(), parts.next()) {
        (true, Some("GET"), Some(path)) => route(state, path),
        _ => Reply {
            status: "400 Bad Request",
            content_type: "text/plain",
            body: "bad request\n".to_string(),
        },
    };
    let class = match reply.status.as_bytes().first() {
        Some(b'2') => Some(&state.counters.http_2xx),
        Some(b'4') => Some(&state.counters.http_4xx),
        Some(b'5') => Some(&state.counters.http_5xx),
        _ => None,
    };
    if let Some(counter) = class {
        Counters::bump(counter);
    }
    if let Some(started) = started {
        state
            .ops
            .lock()
            .expect("ops lock")
            .observe_http(started.elapsed().as_secs_f64());
    }
    let stream = reader.get_mut();
    let header = format!(
        "HTTP/1.0 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reply.status,
        reply.content_type,
        reply.body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(reply.body.as_bytes())?;
    stream.flush()
}

fn route(state: &DaemonState, path: &str) -> Reply {
    let (path, query) = match path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (path, ""),
    };
    match path {
        "/healthz" => Reply::ok("text/plain", "ok\n".to_string()),
        "/readyz" => {
            if state.shutting_down() {
                Reply::unavailable("draining\n")
            } else if !state.is_ready() {
                Reply::unavailable("starting\n")
            } else if Counters::get(&state.counters.overloaded_tenants) > 0 {
                Reply::unavailable("overloaded\n")
            } else {
                Reply::ok("text/plain", "ready\n".to_string())
            }
        }
        "/statusz" => Reply::ok("application/json", render_statusz(state)),
        "/alerts" => {
            if query == "format=prom" {
                Reply::ok("text/plain", render_alerts_prom_doc(state))
            } else {
                Reply::ok("application/json", render_alerts_doc(state))
            }
        }
        "/logs" => Reply::ok(
            "application/json",
            state.with_ops_log(|log| log.render_jsonl()),
        ),
        "/metrics" => Reply::ok("text/plain", render_metrics(state)),
        "/tenants" | "/tenants/" => Reply::ok("application/json", render_tenant_list(state)),
        _ => {
            let Some(rest) = path.strip_prefix("/tenants/") else {
                return Reply::not_found();
            };
            let (name, leaf) = match rest.split_once('/') {
                Some((name, leaf)) => (name, leaf),
                None => (rest, ""),
            };
            let Some(tenant) = state.tenant(name) else {
                return Reply::not_found();
            };
            let mut guard = tenant.lock().expect("tenant lock");
            if leaf == "metrics" {
                // Catch the digest up under the lock, render after it.
                let report = guard.telemetry_report();
                drop(guard);
                let label = format!("tenant=\"{name}\"");
                return Reply::ok(
                    "text/plain",
                    render_prometheus_reports(&[(&label, &report)]),
                );
            }
            match leaf {
                "" => Reply::ok("application/json", guard.status_json()),
                "summary" => match &guard.summary {
                    Some(summary) => Reply::ok("application/json", summary.to_json()),
                    None => Reply {
                        status: "404 Not Found",
                        content_type: "text/plain",
                        body: "stream still open; summary appears after end\n".to_string(),
                    },
                },
                "incidents" => Reply::ok("application/json", guard.incidents_json()),
                "firings" => {
                    let body = match &guard.summary {
                        Some(summary) => summary.render_firings(),
                        None => "detector firings: stream still open\n".to_string(),
                    };
                    Reply::ok("text/plain", body)
                }
                "alerts" => match guard.alerts_json() {
                    Some(doc) => Reply::ok("application/json", doc),
                    None => Reply {
                        status: "404 Not Found",
                        content_type: "text/plain",
                        body: "self-observability disabled\n".to_string(),
                    },
                },
                _ => Reply::not_found(),
            }
        }
    }
}

/// Per-tenant monitor snapshots: `(label, engine)` pairs plus the
/// matching `(label, registry)` pairs when requested.
type MonitorSnapshots = (Vec<(String, AlertEngine)>, Vec<(String, MetricRegistry)>);

/// Clones every monitored tenant's alert engine (and optionally its
/// metric registry) out from under the tenant locks, so rendering
/// happens without holding any of them.
fn snapshot_monitors(state: &DaemonState, with_registries: bool) -> MonitorSnapshots {
    let mut engines = Vec::new();
    let mut registries = Vec::new();
    for (name, tenant) in state.tenants() {
        let guard = tenant.lock().expect("tenant lock");
        if let Some(mon) = guard.monitor() {
            let label = format!("tenant=\"{name}\"");
            engines.push((label.clone(), mon.engine().clone()));
            if with_registries {
                registries.push((label, mon.registry().clone()));
            }
        }
    }
    (engines, registries)
}

/// The aggregate `/alerts` JSON document: overall firing count plus
/// every monitored tenant's own alert document. Also written to
/// `alerts.json` on the shutdown flush.
pub(crate) fn render_alerts_doc(state: &DaemonState) -> String {
    let mut firing = 0;
    let mut emitted = 0;
    let mut out = String::from("{\"tenants\":[");
    for (name, tenant) in state.tenants() {
        let guard = tenant.lock().expect("tenant lock");
        let Some(mon) = guard.monitor() else {
            continue;
        };
        firing += mon.engine().firing_count();
        if emitted > 0 {
            out.push(',');
        }
        emitted += 1;
        let _ = write!(
            out,
            "\n{{\"tenant\":\"{name}\",\"alerts\":{}}}",
            mon.alerts_json().trim_end()
        );
    }
    if !out.ends_with('[') {
        out.push('\n');
    }
    let _ = writeln!(out, "],\"firing\":{firing}}}");
    out
}

/// `/alerts?format=prom`: every tenant's active alerts as one
/// Prometheus `ALERTS{...}` gauge family.
fn render_alerts_prom_doc(state: &DaemonState) -> String {
    let (engines, _) = snapshot_monitors(state, false);
    let refs: Vec<(&str, &AlertEngine)> = engines.iter().map(|(l, e)| (l.as_str(), e)).collect();
    render_alerts_prom(&refs)
}

/// `/statusz`: one JSON object of daemon-wide operational state. No
/// wall-clock fields — everything here is a counter or a flag.
fn render_statusz(state: &DaemonState) -> String {
    let c = &state.counters;
    let (engines, _) = snapshot_monitors(state, false);
    let firing: usize = engines.iter().map(|(_, e)| e.firing_count()).sum();
    format!(
        "{{\"ready\":{},\"draining\":{},\"self_obs\":{},\"tenants\":{},\
         \"sessions_opened\":{},\"sessions_closed\":{},\"active_sessions\":{},\
         \"records\":{},\"spans\":{},\"parse_errors\":{},\"http_requests\":{},\
         \"alerts_firing\":{},\"ops_log_entries\":{},\"ops_log_dropped\":{},\
         \"lines_shed\":{},\"checkpoints_written\":{},\"checkpoint_frames\":{},\
         \"sessions_reaped\":{},\"overloaded_tenants\":{}}}\n",
        state.is_ready(),
        state.shutting_down(),
        state.self_obs,
        state.tenants().len(),
        Counters::get(&c.sessions_opened),
        Counters::get(&c.sessions_closed),
        Counters::get(&c.active_sessions),
        Counters::get(&c.records),
        Counters::get(&c.spans),
        Counters::get(&c.parse_errors),
        Counters::get(&c.http_requests),
        firing,
        state.with_ops_log(|log| log.len()),
        state.with_ops_log(|log| log.dropped()),
        Counters::get(&c.lines_shed),
        Counters::get(&c.checkpoints_written),
        Counters::get(&c.checkpoint_frames),
        Counters::get(&c.sessions_reaped),
        Counters::get(&c.overloaded_tenants),
    )
}

fn render_tenant_list(state: &DaemonState) -> String {
    let mut out = String::from("{\"tenants\":[");
    for (i, (_, tenant)) in state.tenants().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        let status = tenant.lock().expect("tenant lock").status_json();
        out.push_str(status.trim_end());
    }
    if !out.ends_with('[') {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// The merged exposition: daemon self-counters, one `padsimd_tenant_*`
/// gauge per tenant, then the shared `pad_*` families with a `tenant`
/// label on every series. Families are emitted once (a single
/// HELP/TYPE block each), tenants in name order inside them, so the
/// scrape is valid Prometheus text and deterministic.
fn render_metrics(state: &DaemonState) -> String {
    let c = &state.counters;
    let mut out = String::new();
    let self_counters: [(&str, &str, u64); 13] = [
        (
            "padsimd_sessions_opened_total",
            "sessions opened (hello)",
            Counters::get(&c.sessions_opened),
        ),
        (
            "padsimd_sessions_closed_total",
            "sessions closed (end, EOF, or drain)",
            Counters::get(&c.sessions_closed),
        ),
        (
            "padsimd_records_total",
            "telemetry records accepted",
            Counters::get(&c.records),
        ),
        (
            "padsimd_spans_total",
            "span lines accepted",
            Counters::get(&c.spans),
        ),
        (
            "padsimd_parse_errors_total",
            "malformed wire lines skipped",
            Counters::get(&c.parse_errors),
        ),
        (
            "padsimd_http_requests_total",
            "HTTP requests served",
            Counters::get(&c.http_requests),
        ),
        (
            "padsimd_http_responses_2xx_total",
            "HTTP responses with a 2xx status",
            Counters::get(&c.http_2xx),
        ),
        (
            "padsimd_http_responses_4xx_total",
            "HTTP responses with a 4xx status",
            Counters::get(&c.http_4xx),
        ),
        (
            "padsimd_http_responses_5xx_total",
            "HTTP responses with a 5xx status",
            Counters::get(&c.http_5xx),
        ),
        (
            "padsimd_lines_shed_total",
            "data lines dropped by overload shedding",
            Counters::get(&c.lines_shed),
        ),
        (
            "padsimd_checkpoints_written_total",
            "tenant base checkpoints written to the state dir",
            Counters::get(&c.checkpoints_written),
        ),
        (
            "padsimd_checkpoint_frames_total",
            "delta frames appended to checkpoint journals",
            Counters::get(&c.checkpoint_frames),
        ),
        (
            "padsimd_sessions_reaped_total",
            "sessions closed by the idle-timeout reaper",
            Counters::get(&c.sessions_reaped),
        ),
    ];
    for (name, help, value) in self_counters {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }

    let tenants = state.tenants();
    let _ = writeln!(out, "# HELP padsimd_tenants tenant streams known");
    let _ = writeln!(out, "# TYPE padsimd_tenants gauge");
    let _ = writeln!(out, "padsimd_tenants {}", tenants.len());
    let _ = writeln!(
        out,
        "# HELP padsimd_active_sessions stream connections inside their read loop"
    );
    let _ = writeln!(out, "# TYPE padsimd_active_sessions gauge");
    let _ = writeln!(
        out,
        "padsimd_active_sessions {}",
        Counters::get(&c.active_sessions)
    );
    let _ = writeln!(
        out,
        "# HELP padsimd_overloaded_tenants tenant streams currently shedding load"
    );
    let _ = writeln!(out, "# TYPE padsimd_overloaded_tenants gauge");
    let _ = writeln!(
        out,
        "padsimd_overloaded_tenants {}",
        Counters::get(&c.overloaded_tenants)
    );

    // Daemon-wide wall-clock histograms (ingest latency, HTTP latency)
    // plus each monitored tenant's ingest-health registry, all under
    // the padsimd_ prefix with full _bucket/_sum/_count exposition.
    if state.self_obs {
        out.push_str(
            &state
                .ops
                .lock()
                .expect("ops lock")
                .registry()
                .render_prometheus("padsimd_", ""),
        );
    }
    let (engines, registries) = snapshot_monitors(state, true);
    if !registries.is_empty() {
        let refs: Vec<(&str, &MetricRegistry)> =
            registries.iter().map(|(l, r)| (l.as_str(), r)).collect();
        out.push_str(&render_prometheus_families("padsimd_", &refs));
    }
    if !engines.is_empty() {
        let refs: Vec<(&str, &AlertEngine)> =
            engines.iter().map(|(l, e)| (l.as_str(), e)).collect();
        out.push_str(&render_alerts_prom(&refs));
    }

    // Snapshot every tenant once; the per-family loops below reuse it.
    // Each lock is held only to catch the tenant's digest up; rendering
    // runs on the shared reports after every lock is released.
    struct Snap {
        name: String,
        level: u8,
        errors: u64,
        report: Arc<TelemetryReport>,
    }
    let snaps: Vec<Snap> = tenants
        .iter()
        .map(|(name, tenant)| {
            let mut guard = tenant.lock().expect("tenant lock");
            Snap {
                name: name.clone(),
                level: guard.level().number(),
                errors: guard.parse_errors,
                report: guard.telemetry_report(),
            }
        })
        .collect();

    let _ = writeln!(out, "# HELP padsimd_tenant_level current policy level");
    let _ = writeln!(out, "# TYPE padsimd_tenant_level gauge");
    for s in &snaps {
        let _ = writeln!(
            out,
            "padsimd_tenant_level{{tenant=\"{}\"}} {}",
            s.name, s.level
        );
    }
    let _ = writeln!(
        out,
        "# HELP padsimd_tenant_parse_errors_total malformed lines, by tenant"
    );
    let _ = writeln!(out, "# TYPE padsimd_tenant_parse_errors_total counter");
    for s in &snaps {
        let _ = writeln!(
            out,
            "padsimd_tenant_parse_errors_total{{tenant=\"{}\"}} {}",
            s.name, s.errors
        );
    }

    let labels: Vec<String> = snaps
        .iter()
        .map(|s| format!("tenant=\"{}\"", s.name))
        .collect();
    let reports: Vec<(&str, &TelemetryReport)> = labels
        .iter()
        .zip(&snaps)
        .map(|(label, s)| (label.as_str(), &*s.report))
        .collect();
    out.push_str(&render_prometheus_reports(&reports));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad::pipeline::PipelineConfig;
    use proptest::prelude::*;
    use simkit::telemetry::{parse, parse_line, Format};

    fn seeded_state() -> DaemonState {
        let state = DaemonState::new(PipelineConfig::default());
        let (tenant, _) = state.open_tenant("acme", Format::Jsonl);
        let trace = "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
                     {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":102}\n\
                     {\"t\":100,\"e\":\"breaker_trip\",\"s\":\"rack-00\",\"v\":1}\n";
        let mut guard = tenant.lock().unwrap();
        for r in parse(trace, Format::Jsonl).unwrap() {
            guard.ingest_record(r);
        }
        guard.finalize();
        drop(guard);
        state
    }

    struct Duplex {
        input: io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }
    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }
    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn raw(state: &DaemonState, request: &[u8]) -> String {
        let mut stream = Duplex {
            input: io::Cursor::new(request.to_vec()),
            output: Vec::new(),
        };
        handle_http(&mut stream, state).unwrap();
        String::from_utf8(stream.output).unwrap()
    }

    fn get(state: &DaemonState, path: &str) -> String {
        raw(state, format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
    }

    #[test]
    fn metrics_merges_tenants_with_single_help_blocks() {
        let state = seeded_state();
        let response = get(&state, "/metrics");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(response.contains("padsimd_tenants 1\n"));
        assert!(
            response.contains("pad_metric_mean{tenant=\"acme\",metric=\"rack-00.draw_w\"} 101\n")
        );
        assert!(response.contains("pad_events_total{tenant=\"acme\",kind=\"breaker_trip\"} 1\n"));
        assert!(response.contains("padsimd_tenant_level{tenant=\"acme\"} 1\n"));
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(
            body.matches("# TYPE pad_metric_mean gauge").count(),
            1,
            "one HELP/TYPE block per family"
        );
    }

    #[test]
    fn tenant_routes_serve_status_summary_firings_and_incidents() {
        let state = seeded_state();
        assert!(get(&state, "/healthz").ends_with("ok\n"));
        assert!(get(&state, "/tenants").contains("\"tenant\":\"acme\""));
        assert!(get(&state, "/tenants/acme").contains("\"finished\":true"));
        assert!(get(&state, "/tenants/acme/summary").contains("\"ticks\":2"));
        assert!(get(&state, "/tenants/acme/firings").contains("detector firings"));
        assert!(get(&state, "/tenants/acme/incidents").contains("\"incidents\":["));
        assert!(get(&state, "/tenants/acme/metrics")
            .contains("pad_metric_count{tenant=\"acme\",metric=\"rack-00.draw_w\"} 2\n"));
        assert!(get(&state, "/tenants/ghost").starts_with("HTTP/1.0 404"));
        assert!(get(&state, "/nope").starts_with("HTTP/1.0 404"));
    }

    #[test]
    fn readyz_tracks_bind_and_drain_while_healthz_stays_ok() {
        let state = DaemonState::new(PipelineConfig::default());
        assert!(get(&state, "/healthz").ends_with("ok\n"));
        let before = get(&state, "/readyz");
        assert!(before.starts_with("HTTP/1.0 503"), "not ready before bind");
        assert!(before.ends_with("starting\n"));
        state.set_ready(true);
        assert!(get(&state, "/readyz").starts_with("HTTP/1.0 200"));
        state.request_shutdown();
        let draining = get(&state, "/readyz");
        assert!(
            draining.starts_with("HTTP/1.0 503"),
            "draining is not ready"
        );
        assert!(draining.ends_with("draining\n"));
        assert!(
            get(&state, "/healthz").ends_with("ok\n"),
            "liveness is unaffected by readiness"
        );
    }

    #[test]
    fn metrics_carries_self_observability_histograms_and_alerts() {
        let state = seeded_state();
        let response = get(&state, "/metrics");
        assert!(response.contains("padsimd_ingest_latency_seconds_bucket{le=\""));
        assert!(response.contains("padsimd_ingest_latency_seconds_bucket{le=\"+Inf\"}"));
        assert!(response.contains("padsimd_ingest_latency_seconds_sum"));
        assert!(response.contains("padsimd_http_request_seconds_count"));
        assert!(response.contains("padsimd_ingest_records_total{tenant=\"acme\"} 3\n"));
        assert!(response.contains("padsimd_ingest_tick_gap_ms_bucket{tenant=\"acme\",le=\""));
        assert!(response.contains("padsimd_active_sessions 0\n"));
        assert!(response.contains("padsimd_http_responses_2xx_total"));
        assert!(response.contains("# TYPE ALERTS gauge"));
    }

    #[test]
    fn bare_state_renders_metrics_without_monitor_families() {
        let state = DaemonState::bare(PipelineConfig::default());
        state.open_tenant("t", Format::Jsonl);
        let response = get(&state, "/metrics");
        assert!(!response.contains("padsimd_ingest_latency_seconds"));
        assert!(!response.contains("ALERTS"));
        assert!(response.contains("padsimd_tenants 1\n"));
    }

    #[test]
    fn statusz_alerts_and_logs_routes_serve_documents() {
        let state = seeded_state();
        let statusz = get(&state, "/statusz");
        assert!(statusz.contains("\"ready\":false"));
        assert!(statusz.contains("\"tenants\":1"));
        assert!(statusz.contains("\"alerts_firing\":0"));
        let alerts = get(&state, "/alerts");
        assert!(alerts.contains("\"tenant\":\"acme\""));
        assert!(alerts.contains("\"firing\":0"));
        let prom = get(&state, "/alerts?format=prom");
        assert!(prom.starts_with("HTTP/1.0 200"));
        assert!(prom.contains("# TYPE ALERTS gauge"));
        let logs = get(&state, "/logs");
        assert!(logs.contains("\"kind\":\"session_open\""));
        let doc = get(&state, "/tenants/acme/alerts");
        assert!(doc.contains("\"name\":\"tenant-silent\""));
        assert!(doc.contains("\"events_dropped\":0"));
    }

    #[test]
    fn hostile_requests_get_4xx_and_are_counted() {
        let state = DaemonState::new(PipelineConfig::default());
        // Oversized request line: no newline within the cap.
        let mut flood = b"GET /".to_vec();
        flood.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 1024));
        flood.extend_from_slice(b" HTTP/1.0\r\n\r\n");
        assert!(raw(&state, &flood).starts_with("HTTP/1.0 400"));
        // Missing terminator: EOF before any newline.
        assert!(raw(&state, b"GET /healthz HTTP/1.0").starts_with("HTTP/1.0 400"));
        // Unknown method.
        assert!(raw(&state, b"POST /healthz HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 400"));
        // Binary garbage.
        assert!(raw(&state, b"\xff\xfe\x00\x01\n").starts_with("HTTP/1.0 400"));
        assert_eq!(Counters::get(&state.counters.http_4xx), 4);
        assert_eq!(Counters::get(&state.counters.http_5xx), 0);
        assert_eq!(Counters::get(&state.counters.http_requests), 4);
    }

    #[test]
    fn pipelined_requests_serve_the_first_and_close() {
        let state = DaemonState::new(PipelineConfig::default());
        let response = raw(
            &state,
            b"GET /healthz HTTP/1.0\r\nGET /statusz HTTP/1.0\r\n\r\njunk trailing bytes\n",
        );
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");
        assert!(response.contains("Connection: close"));
        assert!(response.ends_with("ok\n"), "one response only: {response}");
        assert_eq!(Counters::get(&state.counters.http_2xx), 1);
    }

    #[test]
    fn readyz_reports_overload_as_unavailable() {
        let state = DaemonState::new(PipelineConfig::default());
        state.set_ready(true);
        assert!(get(&state, "/readyz").starts_with("HTTP/1.0 200"));
        Counters::bump(&state.counters.overloaded_tenants);
        let overloaded = get(&state, "/readyz");
        assert!(overloaded.starts_with("HTTP/1.0 503"), "{overloaded}");
        assert!(overloaded.ends_with("overloaded\n"));
        Counters::drop_one(&state.counters.overloaded_tenants);
        assert!(get(&state, "/readyz").starts_with("HTTP/1.0 200"));
    }

    #[test]
    fn metrics_exposes_robustness_counters() {
        let state = DaemonState::new(PipelineConfig::default());
        let response = get(&state, "/metrics");
        assert!(response.contains("padsimd_lines_shed_total 0\n"));
        assert!(response.contains("padsimd_checkpoints_written_total 0\n"));
        assert!(response.contains("padsimd_sessions_reaped_total 0\n"));
        assert!(response.contains("padsimd_overloaded_tenants 0\n"));
        let statusz = get(&state, "/statusz");
        assert!(statusz.contains("\"lines_shed\":0"));
        assert!(statusz.contains("\"checkpoints_written\":0"));
        assert!(statusz.contains("\"sessions_reaped\":0"));
        assert!(statusz.contains("\"overloaded_tenants\":0"));
    }

    #[test]
    fn summary_is_404_while_the_stream_is_open() {
        let state = DaemonState::new(PipelineConfig::default());
        let (tenant, _) = state.open_tenant("open", Format::Jsonl);
        for r in parse(
            "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":1}\n",
            Format::Jsonl,
        )
        .unwrap()
        {
            tenant.lock().unwrap().ingest_record(r);
        }
        assert!(get(&state, "/tenants/open/summary").starts_with("HTTP/1.0 404"));
        assert!(get(&state, "/tenants/open").contains("\"finished\":false"));
    }

    /// A two-rack JSONL stream of `ticks` ticks, each line a wire line,
    /// with values offset by `base` and a shed event every 7th tick from
    /// one of two sources.
    fn wire_lines(ticks: u64, base: f64) -> Vec<String> {
        let mut lines = Vec::new();
        for t in 0..ticks {
            for rack in 0..2 {
                let v = base + rack as f64 * 5.0 + (t % 7) as f64;
                lines.push(format!(
                    "{{\"t\":{},\"m\":\"rack-0{rack}.draw_w\",\"v\":{v}}}",
                    t * 100
                ));
            }
            if t % 7 == 3 {
                lines.push(format!(
                    "{{\"t\":{},\"e\":\"shed\",\"s\":\"rack-0{}\",\"v\":1}}",
                    t * 100,
                    t % 2
                ));
            }
        }
        lines
    }

    /// Feeds wire lines as a session does, appending a journal frame at
    /// every tick boundary once `journal` is on.
    fn ingest(state: &DaemonState, name: &str, lines: &[String], journal: bool) {
        let tenant = state.tenant(name).unwrap();
        let mut guard = tenant.lock().unwrap();
        for line in lines {
            let r = parse_line(line, 1, Format::Jsonl).unwrap();
            if guard.ingest_record_wire(line, r) && journal {
                state.append_checkpoint_frame(&mut guard).unwrap();
            }
        }
    }

    /// Both metrics routes must serve what a fresh digest of the tenant's
    /// records renders: `/tenants/<id>/metrics` exactly, `/metrics` as
    /// its tail (the state holds one tenant).
    fn assert_scrapes_match_a_fresh_digest(state: &DaemonState, name: &str, step: &str) {
        let records = state
            .tenant(name)
            .unwrap()
            .lock()
            .unwrap()
            .records()
            .to_vec();
        let label = format!("tenant=\"{name}\"");
        let fresh = TelemetryReport::from_records(&records);
        let expected = render_prometheus_reports(&[(&label, &fresh)]);
        let body = |path: &str| {
            get(state, path)
                .split_once("\r\n\r\n")
                .unwrap()
                .1
                .to_string()
        };
        assert!(body("/metrics").ends_with(&expected), "{step}: /metrics");
        assert_eq!(
            body(&format!("/tenants/{name}/metrics")),
            expected,
            "{step}"
        );
    }

    #[test]
    fn tenant_digest_follows_every_writer_of_the_record_log() {
        let dir = std::env::temp_dir().join(format!("padsimd-http-digest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut state = DaemonState::new(PipelineConfig::default());
        state.state_dir = Some(dir.join("live"));
        std::fs::create_dir_all(dir.join("live")).unwrap();
        let name = "acme";

        state.open_tenant(name, Format::Jsonl);
        assert_scrapes_match_a_fresh_digest(&state, name, "empty");
        ingest(&state, name, &wire_lines(30, 100.0), false);
        assert_scrapes_match_a_fresh_digest(&state, name, "first stream");

        // `hello` resets the log; the new stream outgrows the old one.
        state.open_tenant(name, Format::Jsonl);
        let second = wire_lines(80, 200.0);
        let (head, tail) = second.split_at(second.len() / 2);
        ingest(&state, name, head, false);
        assert_scrapes_match_a_fresh_digest(&state, name, "after reset");
        {
            let tenant = state.tenant(name).unwrap();
            state.write_checkpoint(&mut tenant.lock().unwrap()).unwrap();
        }
        ingest(&state, name, tail, true);
        {
            let tenant = state.tenant(name).unwrap();
            let mut guard = tenant.lock().unwrap();
            guard.finalize();
            state.append_checkpoint_frame(&mut guard).unwrap();
        }
        assert_scrapes_match_a_fresh_digest(&state, name, "second stream finished");

        // The base alone restores into a fresh tenant, then the journal
        // frames apply on top of it.
        let restored_dir = dir.join("restored");
        std::fs::create_dir_all(&restored_dir).unwrap();
        let live = |file: &str| std::fs::read_to_string(dir.join("live").join(file)).unwrap();
        std::fs::write(restored_dir.join("acme.ckpt"), live("acme.ckpt")).unwrap();
        let journal = live("acme.ckpt.log");
        let mut restored = DaemonState::new(PipelineConfig::default());
        restored.state_dir = Some(restored_dir);
        assert_eq!(restored.load_checkpoints().unwrap(), 1);
        assert_eq!(
            restored
                .tenant(name)
                .unwrap()
                .lock()
                .unwrap()
                .records()
                .len(),
            head.len(),
            "the base covers the first half"
        );
        assert_scrapes_match_a_fresh_digest(&restored, name, "restored base");
        let (applied, stopped) = restored
            .tenant(name)
            .unwrap()
            .lock()
            .unwrap()
            .apply_journal(&journal);
        assert!(applied > 0 && stopped.is_none(), "{applied} {stopped:?}");
        assert_scrapes_match_a_fresh_digest(&restored, name, "journal applied");
        assert_eq!(
            get(&restored, "/tenants/acme/metrics"),
            get(&state, "/tenants/acme/metrics"),
            "restored plus journal serves the live stream's bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Path bytes for requests under `/tenants/`: both tenant names in
    /// pieces, every leaf, separators, a query and a percent sign.
    const PATH_PIECES: [&str; 14] = [
        "a",
        "b",
        "ghost",
        "/",
        "metrics",
        "summary",
        "incidents",
        "firings",
        "alerts",
        "?",
        "format=prom",
        "%2F",
        "..",
        "",
    ];

    /// One hostile request: raw bytes (`kind` 0), a path built from
    /// `PATH_PIECES` under `/tenants/` (1), an oversized line (2), a line
    /// with no terminator (3), or raw bytes inside a GET line (4).
    fn hostile_request(kind: usize, bytes: &[u8], pieces: &[usize]) -> Vec<u8> {
        let path: String = pieces.iter().map(|&i| PATH_PIECES[i]).collect();
        match kind {
            0 => bytes.to_vec(),
            1 => format!("GET /tenants/{path} HTTP/1.0\r\n\r\n").into_bytes(),
            2 => {
                let mut line = b"GET /tenants/".to_vec();
                line.resize(MAX_REQUEST_LINE + bytes.len(), b'a');
                line.extend_from_slice(b" HTTP/1.0\r\n\r\n");
                line
            }
            3 => format!("GET /tenants/{path} HTTP/1.0").into_bytes(),
            _ => {
                let mut line = b"GET /".to_vec();
                line.extend_from_slice(bytes);
                line.extend_from_slice(b" HTTP/1.0\n");
                line
            }
        }
    }

    /// A state with two tenants, `a` finished and `b` still open.
    fn two_tenant_state() -> DaemonState {
        let state = DaemonState::new(PipelineConfig::default());
        state.set_ready(true);
        for (name, ticks) in [("a", 20), ("b", 9)] {
            state.open_tenant(name, Format::Jsonl);
            ingest(&state, name, &wire_lines(ticks, 100.0), false);
        }
        state.tenant("a").unwrap().lock().unwrap().finalize();
        state
    }

    /// The tenants' expositions: each tenant's own, and the `pad_*`
    /// tail of `/metrics`.
    fn expositions(state: &DaemonState) -> Vec<String> {
        let metrics = get(state, "/metrics");
        let tail = metrics.find("# HELP pad_metric_count").unwrap();
        vec![
            metrics[tail..].to_string(),
            get(state, "/tenants/a/metrics"),
            get(state, "/tenants/b/metrics"),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any request bytes get exactly one response whose status line
        /// is 200, 400, 404 or 503, every response is counted in one
        /// status class, and no request changes a tenant's exposition.
        #[test]
        fn arbitrary_request_bytes_get_one_counted_response(
            kinds in prop::collection::vec(0usize..5, 1..4),
            bytes in prop::collection::vec(0u8..=255, 0..48),
            pieces in prop::collection::vec(0usize..PATH_PIECES.len(), 0..8),
        ) {
            let state = two_tenant_state();
            let before = expositions(&state);
            for &kind in &kinds {
                let mut stream = Duplex {
                    input: io::Cursor::new(hostile_request(kind, &bytes, &pieces)),
                    output: Vec::new(),
                };
                prop_assert!(handle_http(&mut stream, &state).is_ok());
                let response = String::from_utf8_lossy(&stream.output).into_owned();
                let (head, body) = response.split_once("\r\n\r\n").expect("header block");
                let status = head.lines().next().unwrap_or_default();
                prop_assert!(
                    ["200 ", "400 ", "404 ", "503 "]
                        .iter()
                        .any(|code| status.starts_with(&format!("HTTP/1.0 {code}"))),
                    "status line {status:?}"
                );
                prop_assert_eq!(head.matches("HTTP/1.0 ").count(), 1);
                prop_assert!(
                    head.contains(&format!("\r\nContent-Length: {}\r\n", body.len())),
                    "one body of the announced length"
                );
            }
            let c = &state.counters;
            prop_assert_eq!(
                Counters::get(&c.http_requests),
                Counters::get(&c.http_2xx) + Counters::get(&c.http_4xx) + Counters::get(&c.http_5xx)
            );
            prop_assert_eq!(expositions(&state), before);
        }
    }
}
