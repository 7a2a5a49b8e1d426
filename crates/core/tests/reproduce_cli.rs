//! `padsim` through the built binary. `padsim reproduce`, on the fast
//! experiments only: the registry names every `results/` file, a pinned
//! figure regenerates byte for byte, `--out` writes what stdout prints,
//! and an unknown name is refused with the valid ones. Every entry
//! point's argument handling: `--help`, and the exit code and message of
//! each argument error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use pad::experiments::EXPERIMENTS;

fn padsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_padsim"))
        .args(args)
        .output()
        .expect("padsim runs")
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn registry_names_are_unique_and_each_has_one_results_file() {
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    names.sort_unstable();
    let count = names.len();
    names.dedup();
    assert_eq!(names.len(), count, "an experiment name repeats");
    let mut files: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ is readable")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort_unstable();
    let expected: Vec<String> = names.iter().map(|name| format!("{name}.txt")).collect();
    assert_eq!(files, expected, "results/ holds one <name>.txt per entry");
}

#[test]
fn fig01_prints_its_results_file() {
    let run = padsim(&["reproduce", "fig01_outage_cost"]);
    assert!(run.status.success());
    let pinned = std::fs::read_to_string(results_dir().join("fig01_outage_cost.txt")).unwrap();
    assert_eq!(String::from_utf8(run.stdout).unwrap(), pinned);
}

#[test]
fn out_writes_the_bytes_stdout_prints() {
    let dir = std::env::temp_dir().join(format!("padsim-reproduce-{}", std::process::id()));
    let printed = padsim(&["reproduce", "fig02_survey", "--smoke"]);
    let written = padsim(&[
        "reproduce",
        "fig02_survey",
        "--smoke",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(printed.status.success() && written.status.success());
    let file = std::fs::read(dir.join("fig02_survey.txt")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(file, printed.stdout);
}

#[test]
fn unknown_experiment_exits_2_and_names_every_entry() {
    let run = padsim(&["reproduce", "fig99_unknown"]);
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8(run.stderr).unwrap();
    for experiment in EXPERIMENTS {
        assert!(stderr.contains(experiment.name), "{stderr}");
    }
}

#[test]
fn smoke_platform_validation_exits_0() {
    let run = padsim(&["reproduce", "validate_platform", "--smoke"]);
    assert_eq!(
        run.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&run.stdout)
    );
}

const USAGE_HEAD: &str = "padsim — simulate power-virus attacks on a battery-backed data center\n";

/// Asserts `run` exited 2 with `line` as the first line of stderr.
fn assert_refused(run: &Output, line: &str) {
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().next(), Some(line), "{stderr}");
}

#[test]
fn every_entry_point_prints_the_usage_for_help() {
    let main = padsim(&["--help"]);
    assert_eq!(main.status.code(), Some(0));
    assert!(main.stdout.starts_with(USAGE_HEAD.as_bytes()));
    for command in [
        "inspect",
        "incident",
        "detect",
        "fault",
        "mc",
        "perf",
        "reproduce",
    ] {
        for flag in ["--help", "-h"] {
            let run = padsim(&[command, flag]);
            assert_eq!(run.status.code(), Some(0), "{command} {flag}");
            assert_eq!(run.stdout, main.stdout, "{command} {flag}");
            assert!(run.stderr.is_empty(), "{command} {flag}");
        }
    }
}

/// For each entry point: a value flag without its value, a non-number,
/// and an unknown argument.
const ARGUMENT_ERRORS: &[(&[&str], &str)] = &[
    (&["--nodes"], "error: --nodes requires a value"),
    (
        &["--nodes", "x"],
        "error: --nodes expects an integer, got \"x\"",
    ),
    (
        &["--budget", "x"],
        "error: --budget expects a number, got \"x\"",
    ),
    (&["--bogus"], "error: unknown flag \"--bogus\""),
    (
        &["--nodes", "4", "inspect"],
        "error: unknown flag \"inspect\"",
    ),
    (&["inspect", "--format"], "error: --format requires a value"),
    (
        &["inspect", "t.jsonl", "--alerts"],
        "error: --alerts requires a rules file (or `default`)",
    ),
    (
        &["inspect", "--bogus"],
        "error: unknown inspect argument \"--bogus\"",
    ),
    (
        &["incident", "--format"],
        "error: --format requires a value",
    ),
    (
        &["incident", "--bogus"],
        "error: unknown incident argument \"--bogus\"",
    ),
    (&["detect", "--replay"], "error: --replay requires a value"),
    (
        &["detect", "--seed", "x"],
        "error: --seed expects an integer, got \"x\"",
    ),
    (
        &["detect", "--bogus"],
        "error: unknown detect argument \"--bogus\"",
    ),
    (&["fault", "--plan"], "error: --plan requires a value"),
    (
        &["fault", "--victims", "x"],
        "error: --victims expects an integer, got \"x\"",
    ),
    (
        &["fault", "--bogus"],
        "error: unknown fault argument \"--bogus\"",
    ),
    (&["mc", "--rounds"], "error: --rounds requires a value"),
    (
        &["mc", "--max-states", "x"],
        "error: --max-states expects an integer, got \"x\"",
    ),
    (&["mc", "--bogus"], "error: unknown mc argument \"--bogus\""),
    (&["perf", "--ticks"], "error: --ticks requires a value"),
    (
        &["perf", "--gate", "x"],
        "error: --gate expects a number, got \"x\"",
    ),
    (
        &["perf", "--bogus"],
        "error: unknown perf argument \"--bogus\"",
    ),
    (
        &["reproduce", "all", "--out"],
        "error: --out requires a value",
    ),
    (
        &["reproduce", "all", "--jobs", "x"],
        "error: --jobs expects an integer, got \"x\"",
    ),
];

#[test]
fn argument_errors_exit_2_with_their_message() {
    for (args, line) in ARGUMENT_ERRORS {
        assert_refused(&padsim(args), line);
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_refused(
        &padsim(&["reproduce", "--bogus"]),
        &format!(
            "error: unknown reproduce argument \"--bogus\"; experiments: all, {}",
            names.join(", ")
        ),
    );
}

#[test]
fn mc_refuses_a_dup_budget_above_255() {
    let run = padsim(&[
        "mc",
        "--dup-budget",
        "300",
        "--racks",
        "2",
        "--rounds",
        "1",
        "--no-replay",
    ]);
    assert_refused(
        &run,
        "error: --dup-budget expects an integer from 0 to 255, got \"300\"",
    );
}

#[test]
fn mc_refuses_rounds_above_u32() {
    let run = padsim(&[
        "mc",
        "--rounds",
        "4294967297",
        "--racks",
        "2",
        "--no-replay",
    ]);
    assert_refused(
        &run,
        "error: --rounds expects an integer below 2^32, got \"4294967297\"",
    );
}

#[test]
fn zero_racks_exit_2() {
    assert_refused(
        &padsim(&["--racks", "0"]),
        "error: --racks must be at least 1",
    );
    assert_refused(
        &padsim(&["perf", "--racks", "0"]),
        "error: --racks must be at least 1",
    );
}

#[test]
fn zero_servers_exit_2() {
    assert_refused(
        &padsim(&["--servers", "0"]),
        "error: --servers must be at least 1",
    );
    assert_refused(
        &padsim(&["perf", "--servers", "0"]),
        "error: --servers must be at least 1",
    );
}

#[test]
fn zero_nodes_exit_2() {
    assert_refused(
        &padsim(&["--nodes", "0"]),
        "error: --nodes must be at least 1",
    );
    assert_refused(
        &padsim(&["fault", "--nodes", "0"]),
        "error: --nodes must be at least 1",
    );
}

#[test]
fn mean_util_outside_0_1_exits_2() {
    for (text, shown) in [
        ("0", "0"),
        ("1", "1"),
        ("-0.5", "-0.5"),
        ("5", "5"),
        ("nan", "NaN"),
    ] {
        assert_refused(
            &padsim(&["--mean-util", text]),
            &format!("error: invalid --mean-util: mean utilization must be in (0,1), got {shown}"),
        );
    }
}
