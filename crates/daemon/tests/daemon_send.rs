//! The resumable client against data lines the daemon's framing
//! rejects: such a line draws an `err` reply but leaves the stream open,
//! so the call still returns the stream's summary, with that reply kept
//! in order ahead of it. Only an `err` that answers `end` fails the call.
//! A line the daemon would take for a control line fails it before it
//! connects.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

use common::TestDaemon;
use paddaemon::client::{send, send_resumable, RetryOpts, SendJob};
use paddaemon::session::MAX_LINE_BYTES;

const FIRST: &str = "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}";
const LAST: &str = "{\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}";

/// A sample, a data line longer than the daemon buffers, a sample.
fn telemetry() -> String {
    let oversized = format!(
        "{{\"t\":50,\"m\":\"x\",\"v\":{}}}",
        "1".repeat(MAX_LINE_BYTES)
    );
    format!("{FIRST}\n{oversized}\n{LAST}\n")
}

fn job(tenant: &str) -> SendJob {
    SendJob {
        tenant: tenant.to_string(),
        format: "jsonl",
        telemetry: telemetry(),
        end: true,
        ..SendJob::default()
    }
}

fn no_retries() -> RetryOpts {
    RetryOpts {
        max_attempts: 1,
        base_delay_ms: 1,
    }
}

#[test]
fn a_rejected_data_line_keeps_its_reply_and_the_summary() {
    let daemon = TestDaemon::start("send-rejected");
    let rejected = format!("err line exceeds {MAX_LINE_BYTES} bytes");
    // The one-shot client reads every reply: the reference.
    let one_shot = send(&daemon.data_addr, &job("oneshot")).expect("one-shot send");
    assert_eq!(one_shot.len(), 3, "{one_shot:?}");
    assert_eq!(
        one_shot[..2],
        ["ok hello oneshot".to_string(), rejected.clone()]
    );
    let summary = &one_shot[2];
    assert!(summary.starts_with('{'), "{summary}");

    let fresh = send_resumable(&daemon.data_addr, &job("fresh"), &no_retries())
        .expect("a rejected data line does not fail the call");
    assert_eq!(
        fresh,
        [
            "ok hello fresh seq 0".to_string(),
            rejected.clone(),
            summary.clone()
        ]
    );

    // A stream cut after its first line: the resume rewinds to line 1,
    // so the rejected line is the first one re-sent.
    let head = SendJob {
        telemetry: format!("{FIRST}\n"),
        end: false,
        ..job("resumed")
    };
    assert_eq!(
        send(&daemon.data_addr, &head).expect("head of the stream"),
        ["ok hello resumed"]
    );
    let resumed = send_resumable(&daemon.data_addr, &job("resumed"), &no_retries())
        .expect("a rejected data line does not fail the resumed call");
    assert_eq!(
        resumed,
        [
            "ok hello resumed seq 1".to_string(),
            rejected,
            summary.clone()
        ]
    );
    daemon.shutdown();
}

#[test]
fn an_err_that_answers_end_fails_the_call() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address").to_string();
    // A daemon that rejects a data line and then `end` itself.
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("client connects");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut lines = BufReader::new(stream).lines();
        let hello = lines.next().expect("hello").expect("hello line");
        assert_eq!(hello, "hello t jsonl resume 3");
        writeln!(writer, "ok hello t seq 0").unwrap();
        writeln!(writer, "err line exceeds {MAX_LINE_BYTES} bytes").unwrap();
        for line in lines {
            if line.expect("client line") == "end" {
                writeln!(writer, "err end without an open session").unwrap();
                break;
            }
        }
    });
    let err = send_resumable(&addr, &job("t"), &no_retries()).expect_err("end was rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(err.to_string(), "err end without an open session");
    peer.join().expect("scripted daemon");
}

#[test]
fn a_control_line_in_the_data_fails_before_connecting() {
    let daemon = TestDaemon::start("send-control");
    for word in ["ping", "end", "hello q", "shutdown", "end now"] {
        let job = SendJob {
            telemetry: format!("{FIRST}\n{word}\n{LAST}\n"),
            ..job("p")
        };
        let err = send_resumable(&daemon.data_addr, &job, &no_retries())
            .expect_err("a control line is not data");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{word}");
        assert_eq!(
            err.to_string(),
            format!("telemetry line 2 is a control line, not data: {word:?}")
        );
    }
    let spans = SendJob {
        spans: Some("ping\n".to_string()),
        ..job("p")
    };
    let err = send_resumable(&daemon.data_addr, &spans, &no_retries())
        .expect_err("a control line is not span data either");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // None of those calls reached the daemon: the tenant's stream opens
    // at sequence 0.
    let clean = SendJob {
        telemetry: format!("{FIRST}\n{LAST}\n"),
        ..job("p")
    };
    let replies = send_resumable(&daemon.data_addr, &clean, &no_retries()).expect("clean send");
    assert_eq!(replies[0], "ok hello p seq 0");
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[1].starts_with('{'), "{replies:?}");
    daemon.shutdown();
}
