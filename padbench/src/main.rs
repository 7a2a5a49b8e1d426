//! `padbench` — the repository's benchmark: simulator throughput and
//! live-defense latency over four workloads, plus a traced run that
//! breaks each workload down by layer.
//!
//! ```text
//! padbench --workload sim-sweep --seed 42 --seconds 30 --trace 0
//! padbench --workload daemon-prod --seed 42 --seconds 30 --trace 1 --out padbench-out
//! padbench stability --workload daemon-ingest --runs 10 --seed 42 --seconds 30
//! ```
//!
//! A run prints one line per metric (name, value, unit, sample count),
//! then, as its last line, the JSON result: whether every output check
//! passed, how many operations it attempted and how many failed, and
//! the metrics `BENCHMARK.json` lists for the mode (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`).

#[cfg(test)]
mod contract;
mod daemon;
mod inputs;
mod simwork;
mod spans;
mod spec;
mod speed;
mod stability;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::Metric;

const USAGE: &str = "\
usage: padbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
       padbench stability --workload <name> [--runs <n>] [--seed <n>] [--seconds <s>]

workloads: sim-sweep, sim-forensics, daemon-ingest, daemon-prod
--trace 1 writes <out>/<workload>.spans.jsonl and .layers.json (default out: padbench-out)";

/// The benchmark's workloads (see `BENCHMARK.json` for why each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimSweep,
    SimForensics,
    DaemonIngest,
    DaemonProd,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimSweep,
        Workload::SimForensics,
        Workload::DaemonIngest,
        Workload::DaemonProd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim-sweep",
            Workload::SimForensics => "sim-forensics",
            Workload::DaemonIngest => "daemon-ingest",
            Workload::DaemonProd => "daemon-prod",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// Where traced runs and the daemon's state directory go.
    pub out: PathBuf,
    /// Tiny inputs, for the contract test.
    pub smoke: bool,
}

/// What a run measured and how its output checks went.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is reported on
    /// stderr and counted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("padbench: check failed: {}", what());
        }
    }

    /// Counts `n` operations that could not complete.
    pub fn lost(&mut self, n: u64, why: &str) {
        self.attempted += n;
        self.failed += n;
        eprintln!("padbench: {n} operation(s) failed: {why}");
    }

    /// The result line the benchmark contract asks for.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload in this process.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload {
        Workload::SimSweep => Ok(simwork::sim_sweep(args)),
        Workload::SimForensics => Ok(simwork::sim_forensics(args)),
        Workload::DaemonIngest | Workload::DaemonProd => daemon::run(args),
    }
}

fn parse_run_args(mut it: impl Iterator<Item = String>) -> Result<(RunArgs, u32), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("padbench-out");
    let mut runs = 5u32;
    let mut smoke = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            "--runs" => runs = value()?.parse().map_err(|_| "--runs expects an integer")?,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let args = RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
        out,
        smoke,
    };
    Ok((args, runs))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let stability = argv.peek().map(String::as_str) == Some("stability");
    if stability {
        argv.next();
    }
    let (args, runs) = match parse_run_args(argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("padbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if stability {
        return match stability::run(&args, runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("padbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("padbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "padbench: metric {} did not measure ({})",
            bad.name, bad.value
        );
        return ExitCode::FAILURE;
    }
    for m in &outcome.metrics {
        println!(
            "{:<34} {:>14.6} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
