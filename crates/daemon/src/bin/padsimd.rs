//! `padsimd` — the PAD defense daemon: stream telemetry in, get
//! verdicts, metrics, and incident reports out.
//!
//! ```text
//! padsimd serve --listen 127.0.0.1:0 --http 127.0.0.1:0 --out out/ --ports-file ports.txt
//! padsimd send 127.0.0.1:4800 out/pad.jsonl --tenant acme
//! padsimd get 127.0.0.1:4801 /metrics
//! padsimd send 127.0.0.1:4800 --shutdown
//! ```

use std::path::PathBuf;
use std::time::Duration;

use pad::cli::Flags;
use pad::pipeline::PipelineConfig;
use pad::policy::Strictness;
use paddaemon::chaos::{run_chaos, ChaosOptions};
use paddaemon::client::{http_get, send, send_resumable, RetryOpts, SendJob};
use paddaemon::server::{serve, ServeOptions};
use simkit::telemetry::Format;

const USAGE: &str = "\
padsimd — PAD defense-as-a-service daemon over telemetry streams

USAGE:
    padsimd serve [SERVE OPTIONS]
    padsimd send <target> [<telemetry-file>] [SEND OPTIONS]
    padsimd get <http-addr> <path>
    padsimd chaos [CHAOS OPTIONS]

SUBCOMMANDS:
    serve                        run the daemon until a shutdown control
                                 line arrives, then drain sessions, flush
                                 per-tenant outputs, and exit 0.
                                 --listen <host:port>   telemetry stream
                                                        listener (default
                                                        127.0.0.1:0)
                                 --uds <path>           also listen on a
                                                        Unix socket
                                 --http <host:port>     HTTP endpoint
                                                        (/metrics, tenant
                                                        and incident API)
                                 --out <dir>            shutdown flush dir
                                 --ports-file <file>    write bound
                                                        addresses (name
                                                        addr per line)
                                 --hold-down <ticks>    policy hold-down
                                 --strictness <strict|lenient>
                                 --alerts <rules.json>  alert rules for
                                                        every tenant
                                                        monitor (default:
                                                        built-in rules;
                                                        see `padsim
                                                        inspect
                                                        --alert-schema`)
                                 --state-dir <dir>      write per-tenant
                                                        crash-recovery
                                                        checkpoints here
                                                        and restore them
                                                        at startup
                                 --max-buffered <n>     per-tenant line
                                                        watermark before
                                                        overload shedding
                                 --idle-timeout <ms>    reap sessions
                                                        silent this long
    send                         stream a recorded trace as one tenant
                                 session and print the daemon's replies.
                                 <target> is host:port or unix:<path>.
                                 Exits 1 printing the daemon's error
                                 when the hello is rejected.
                                 --tenant <name>        tenant (default
                                                        tenant-0)
                                 --format <jsonl|csv>   wire format
                                                        (default: from
                                                        file extension)
                                 --spans <file>         span trace to
                                                        stream after the
                                                        telemetry
                                 --no-end               leave the stream
                                                        open (no summary)
                                 --shutdown             finish with a
                                                        shutdown control
                                                        line
                                 --resume               crash-tolerant
                                                        path: reconnect
                                                        with `hello …
                                                        resume <seq>` and
                                                        rewind to the
                                                        daemon's acked
                                                        sequence number
                                 --retries <n>          reconnect budget
                                                        for --resume
                                                        (default 8)
    get                          HTTP GET against a running daemon and
                                 print the body (exit 1 on non-200).
    chaos                        wire-level fault injection: run daemon
                                 kill/restart and proxy-fault scenarios,
                                 diff recovered outputs against an
                                 uninterrupted baseline, and write
                                 chaos_report.json. Exits nonzero when a
                                 lossless scenario's outputs differ.
                                 --ci-smoke             run the built-in
                                                        scenario set
                                 --out <dir>            scratch/report
                                                        dir (default
                                                        chaos-out/)
                                 --seed <n>             trace seed

The wire protocol is line-oriented: `hello <tenant> [jsonl|csv]`
(append `resume <seq>` to re-attach after a disconnect; the ack
`ok hello <tenant> seq <S>` names the daemon's durable sequence
number), then telemetry/span lines exactly as recorded by padsim
(`--telemetry` / `--trace` output streams verbatim), then `end`. The
`end` reply is the replay-summary JSON, byte-identical to `padsim
detect --replay --json` on the same records.
";

fn fail(message: &str) -> ! {
    eprintln!("padsimd: {message}");
    eprintln!("run `padsimd --help` for usage");
    std::process::exit(2);
}

fn main() {
    let mut flags = Flags::new(std::env::args().skip(1), USAGE, fail);
    match flags.next().as_deref() {
        Some("serve") => run_serve(flags),
        Some("send") => run_send(flags),
        Some("get") => run_get(flags),
        Some("chaos") => run_chaos_cmd(flags),
        Some(other) => fail(&format!("unknown subcommand {other:?}")),
        None => fail("a subcommand is required (serve, send, get, chaos)"),
    }
}

fn run_chaos_cmd(mut flags: Flags) {
    let mut opts = ChaosOptions::default();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--ci-smoke" => opts.ci_smoke = true,
            "--out" => opts.out = PathBuf::from(flags.value()),
            "--seed" => opts.seed = flags.parse("an integer"),
            other => fail(&format!("unknown chaos argument {other:?}")),
        }
    }
    let daemon = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot locate the padsimd binary: {e}")));
    opts.daemon_bin = daemon;
    match run_chaos(&opts) {
        Ok(report) => {
            print!("{}", report.render_text());
            if !report.all_lossless_identical() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("padsimd: chaos harness error: {e}");
            std::process::exit(1);
        }
    }
}

fn run_serve(mut flags: Flags) {
    let mut opts = ServeOptions::default();
    let mut config = PipelineConfig::default();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--listen" => opts.listen = Some(flags.value()),
            "--uds" => opts.uds = Some(PathBuf::from(flags.value())),
            "--http" => opts.http = Some(flags.value()),
            "--out" => opts.out = Some(PathBuf::from(flags.value())),
            "--ports-file" => opts.ports_file = Some(PathBuf::from(flags.value())),
            "--hold-down" => config.hold_down = flags.parse("a tick count"),
            "--strictness" => {
                config.strictness = match flags.value().as_str() {
                    "strict" => Strictness::Strict,
                    "lenient" => Strictness::Lenient,
                    other => fail(&format!("unknown strictness {other:?}")),
                }
            }
            "--alerts" => {
                let path = flags.value();
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
                let rules = simkit::alert::parse_rules(&text)
                    .unwrap_or_else(|e| fail(&format!("bad alert rules in {path}: {e}")));
                opts.alert_rules = Some(rules);
            }
            "--state-dir" => opts.state_dir = Some(PathBuf::from(flags.value())),
            "--max-buffered" => opts.max_buffered_lines = Some(flags.parse("a line count")),
            "--idle-timeout" => {
                opts.idle_timeout = Some(Duration::from_millis(flags.parse("milliseconds")))
            }
            other => fail(&format!("unknown serve argument {other:?}")),
        }
    }
    opts.config = config;
    if let Err(e) = serve(opts) {
        eprintln!("padsimd: {e}");
        std::process::exit(1);
    }
}

fn run_send(mut flags: Flags) {
    let mut target: Option<String> = None;
    let mut file: Option<PathBuf> = None;
    let mut job = SendJob {
        tenant: "tenant-0".to_string(),
        format: "jsonl",
        end: true,
        ..SendJob::default()
    };
    let mut format_given = false;
    let mut spans_file: Option<PathBuf> = None;
    let mut resume = false;
    let mut retries = RetryOpts::default();
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--tenant" => job.tenant = flags.value(),
            "--format" => {
                let name = flags.value();
                job.format = match Format::from_name(&name) {
                    Some(Format::Jsonl) => "jsonl",
                    Some(Format::Csv) => "csv",
                    None => fail(&format!("unknown format {name:?}")),
                };
                format_given = true;
            }
            "--spans" => spans_file = Some(PathBuf::from(flags.value())),
            "--no-end" => job.end = false,
            "--shutdown" => job.shutdown = true,
            "--resume" => resume = true,
            "--retries" => retries.max_attempts = flags.parse("an attempt count"),
            other if !other.starts_with('-') && target.is_none() => target = Some(arg),
            other if !other.starts_with('-') && file.is_none() => file = Some(PathBuf::from(other)),
            other => fail(&format!("unknown send argument {other:?}")),
        }
    }
    let target =
        target.unwrap_or_else(|| fail("send requires a <target> (host:port or unix:<path>)"));
    match &file {
        Some(path) => {
            job.telemetry = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
            if !format_given && Format::from_path(&path.to_string_lossy()) == Format::Csv {
                job.format = "csv";
            }
        }
        None => {
            if !job.shutdown {
                fail("send requires a <telemetry-file> (or --shutdown)");
            }
            job.tenant = String::new();
        }
    }
    if let Some(path) = &spans_file {
        job.spans = Some(
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display()))),
        );
    }
    let result = if resume {
        send_resumable(&target, &job, &retries)
    } else {
        send(&target, &job)
    };
    match result {
        Ok(replies) => {
            // A rejected hello surfaces as an `err …` reply line on the
            // one-shot path: print it to stderr and exit nonzero so
            // scripts see the failure.
            let rejected = replies.iter().any(|line| line.starts_with("err "));
            for line in &replies {
                if line.starts_with("err ") {
                    eprintln!("padsimd: {line}");
                } else {
                    println!("{line}");
                }
            }
            if rejected {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("padsimd: {e}");
            std::process::exit(1);
        }
    }
}

fn run_get(mut flags: Flags) {
    let addr = flags
        .next()
        .unwrap_or_else(|| fail("get requires an <http-addr>"));
    let path = flags.require("get requires a <path>");
    match http_get(&addr, &path) {
        Ok((status, body)) => {
            print!("{body}");
            if !status.contains("200") {
                eprintln!("padsimd: {status}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("padsimd: {e}");
            std::process::exit(1);
        }
    }
}
