//! `padsim reproduce` through the built binary, on the fast experiments
//! only: the registry names every `results/` file, a pinned figure
//! regenerates byte for byte, `--out` writes what stdout prints, and an
//! unknown name is refused with the valid ones.

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
