//! Graceful shutdown (std-only, via the `shutdown` control line): open
//! sessions drain, pending summaries and telemetry flush to `--out`,
//! and the daemon exits cleanly.

mod common;

use common::{recorded_run, TestDaemon};
use paddaemon::client::{send, Conn, SendJob};
use paddaemon::server::{serve, ServeOptions};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn shutdown_drains_open_sessions_and_flushes_outputs() {
    let run = recorded_run(0xD0_1D);
    let daemon = TestDaemon::start("shutdown");
    let out_dir = daemon.out_dir.clone();

    // Stream a session and leave it OPEN: no `end`, no EOF — the
    // connection idles with the stream mid-flight when shutdown hits.
    let mut open_conn = Conn::connect(&daemon.data_addr).unwrap();
    writeln!(open_conn, "hello draining jsonl").unwrap();
    open_conn.write_all(run.telemetry.as_bytes()).unwrap();
    open_conn.write_all(run.spans.as_bytes()).unwrap();
    open_conn.flush().unwrap();

    // A second, finished session rides along.
    let replies = send(
        &daemon.data_addr,
        &SendJob {
            tenant: "done".to_string(),
            format: "jsonl",
            telemetry: run.telemetry.clone(),
            end: true,
            ..SendJob::default()
        },
    )
    .unwrap();
    assert_eq!(format!("{}\n", replies[1]), run.summary_json);

    // Give the open session a moment to ingest everything it was sent
    // before the drain closes it (writes are async to the reader).
    std::thread::sleep(std::time::Duration::from_millis(300));
    daemon.shutdown();
    drop(open_conn);

    // The drained tenant's outputs match the offline pipeline exactly.
    let read = |name: &str| std::fs::read_to_string(out_dir.join(name)).unwrap();
    assert_eq!(read("draining.detect.json"), run.summary_json);
    assert_eq!(read("done.detect.json"), run.summary_json);
    assert_eq!(read("draining.firings.txt"), run.firings);
    assert_eq!(read("draining.incidents.json"), run.incidents_json);
    // Telemetry flush is the exact bytes that were streamed in.
    assert_eq!(read("draining.telemetry.jsonl"), run.telemetry);

    let report = read("daemon_report.json");
    assert!(report.contains("\"tenants\":["), "{report}");
    assert!(report.contains("\"tenant\":\"draining\""));
    assert!(report.contains("\"tenant\":\"done\""));
    assert!(report.contains("\"parse_errors\":0"));
    assert!(
        report.contains("\"sessions_opened\":2"),
        "shutdown-only connections open no session: {report}"
    );
}

#[test]
fn malformed_lines_surface_in_the_flush_report_not_as_aborts() {
    let daemon = TestDaemon::start("badlines");
    let out_dir = daemon.out_dir.clone();
    let telemetry = "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
                     {\"t\":50,\"m\":\"rack-00.draw_w\",\"v\":1.2.3}\n\
                     {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}\n\
                     not json at all {{{\n\
                     {\"t\":200,\"m\":\"rack-00.draw_w\",\"v\":102}\n";
    let replies = send(
        &daemon.data_addr,
        &SendJob {
            tenant: "noisy".to_string(),
            format: "jsonl",
            telemetry: telemetry.to_string(),
            end: true,
            ..SendJob::default()
        },
    )
    .unwrap();
    let summary = &replies[1];
    assert!(summary.contains("\"records\":3"), "{summary}");
    assert!(summary.contains("\"ticks\":3"), "{summary}");
    let (_, metrics) = paddaemon::client::http_get(&daemon.http_addr, "/metrics").unwrap();
    assert!(
        metrics.contains("padsimd_parse_errors_total 2\n"),
        "{metrics}"
    );
    assert!(metrics.contains("padsimd_tenant_parse_errors_total{tenant=\"noisy\"} 2\n"));
    daemon.shutdown();
    let report = std::fs::read_to_string(out_dir.join("daemon_report.json")).unwrap();
    assert!(report.contains("\"parse_errors\":2"), "{report}");
}

#[test]
fn serve_returns_promptly_with_idle_listeners_one_on_every_interface() {
    let dir = common::scratch_dir("idle");
    let (ports_file, uds) = (dir.join("ports.txt"), dir.join("data.sock"));
    let opts = ServeOptions {
        listen: Some("127.0.0.1:0".to_string()),
        uds: Some(uds.clone()),
        http: Some("0.0.0.0:0".to_string()),
        ports_file: Some(ports_file.clone()),
        ..ServeOptions::default()
    };
    let handle = std::thread::spawn(move || serve(opts));
    let deadline = Instant::now() + Duration::from_secs(10);
    let ports = loop {
        let text = std::fs::read_to_string(&ports_file).unwrap_or_default();
        if text.lines().any(|l| l.starts_with("http ")) {
            break text;
        }
        assert!(Instant::now() < deadline, "daemon wrote its ports in time");
        std::thread::sleep(Duration::from_millis(5));
    };
    let port = |name: &str| -> u16 {
        let line = ports.lines().find_map(|l| l.strip_prefix(name)).unwrap();
        line.rsplit(':').next().unwrap().parse().unwrap()
    };
    let (data_port, http_port) = (port("data "), port("http "));

    let t0 = Instant::now();
    let replies = send(
        &format!("unix:{}", uds.display()),
        &SendJob {
            shutdown: true,
            ..SendJob::default()
        },
    )
    .unwrap();
    assert_eq!(replies, vec!["ok shutdown".to_string()]);
    while !handle.is_finished() {
        assert!(t0.elapsed() < Duration::from_secs(10), "serve hung");
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.join().unwrap().unwrap();
    // A wake that failed would cost the connect timeout (1 s).
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    // Every acceptor was woken and dropped its listener.
    for port in [data_port, http_port] {
        assert!(TcpStream::connect(("127.0.0.1", port)).is_err(), "{port}");
    }
    assert!(!uds.exists());
}
