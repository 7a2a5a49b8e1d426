//! `padsimd`'s argument handling through the built binary: `--help` from
//! every subcommand, and the exit code and message of each argument
//! error. None of these invocations opens a socket.

use std::process::{Command, Output};

fn padsimd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_padsimd"))
        .args(args)
        .output()
        .expect("padsimd runs")
}

#[test]
fn every_subcommand_prints_the_usage_for_help() {
    let main = padsimd(&["--help"]);
    assert_eq!(main.status.code(), Some(0));
    let head = "padsimd — PAD defense-as-a-service daemon over telemetry streams\n";
    assert!(main.stdout.starts_with(head.as_bytes()));
    for args in [
        &["-h"][..],
        &["serve", "--help"],
        &["send", "-h"],
        &["get", "--help"],
        &["chaos", "--help"],
    ] {
        let run = padsimd(args);
        assert_eq!(run.status.code(), Some(0), "{args:?}");
        assert_eq!(run.stdout, main.stdout, "{args:?}");
        assert!(run.stderr.is_empty(), "{args:?}");
    }
}

/// No subcommand, an unknown one, and for each subcommand a value flag
/// without its value, a non-number and an unknown argument.
const ARGUMENT_ERRORS: &[(&[&str], &str)] = &[
    (&[], "a subcommand is required (serve, send, get, chaos)"),
    (&["bogus"], "unknown subcommand \"bogus\""),
    (&["serve", "--listen"], "--listen requires a value"),
    (
        &["serve", "--hold-down", "x"],
        "--hold-down expects a tick count, got \"x\"",
    ),
    (
        &["serve", "--max-buffered", "x"],
        "--max-buffered expects a line count, got \"x\"",
    ),
    (
        &["serve", "--idle-timeout", "x"],
        "--idle-timeout expects milliseconds, got \"x\"",
    ),
    (&["serve", "--strictness", "x"], "unknown strictness \"x\""),
    (&["serve", "--bogus"], "unknown serve argument \"--bogus\""),
    (
        &["send"],
        "send requires a <target> (host:port or unix:<path>)",
    ),
    (
        &["send", "127.0.0.1:9", "--tenant"],
        "--tenant requires a value",
    ),
    (
        &["send", "127.0.0.1:9", "--retries", "x"],
        "--retries expects an attempt count, got \"x\"",
    ),
    (
        &["send", "127.0.0.1:9"],
        "send requires a <telemetry-file> (or --shutdown)",
    ),
    (&["send", "a", "b", "c"], "unknown send argument \"c\""),
    (&["chaos", "--out"], "--out requires a value"),
    (
        &["chaos", "--seed", "x"],
        "--seed expects an integer, got \"x\"",
    ),
    (&["chaos", "--bogus"], "unknown chaos argument \"--bogus\""),
    (&["get"], "get requires an <http-addr>"),
    (&["get", "127.0.0.1:9"], "get requires a <path>"),
];

#[test]
fn argument_errors_exit_2_with_their_message() {
    for (args, message) in ARGUMENT_ERRORS {
        let run = padsimd(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr,
            format!("padsimd: {message}\nrun `padsimd --help` for usage\n"),
            "{args:?}"
        );
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}
