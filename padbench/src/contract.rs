//! The benchmark's contract: `BENCHMARK.json` is well formed and names
//! exactly what the runs print, and every workload at `--smoke` scale
//! passes its output checks in both modes, on the held-out seed.
//!
//! Run with `cargo test --release --manifest-path padbench/Cargo.toml`
//! after building `padsimd` into the same target directory (as
//! `run.sh` does); a missing `padsimd` fails the daemon tests with a
//! message naming it.

use std::collections::BTreeSet;

use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::{run, RunArgs, Workload};

/// The seed no tuning used.
const HELD_OUT_SEED: u64 = 1234;

#[test]
fn benchmark_json_is_valid_and_matches_what_runs_print() {
    let spec = spec::load().expect("BENCHMARK.json parses and validates");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, workloads);
    let e2e: Vec<(&str, &str)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(e2e, END_TO_END);
    let layers: Vec<(&str, &str)> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let table: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _, _)| (n, u)).collect();
    assert_eq!(layers, table);

    // Every layer names the end-to-end metrics it should move and the
    // workloads that exercise it, and those exist.
    let e2e_names: BTreeSet<&str> = e2e.iter().map(|(n, _)| *n).collect();
    for (name, _, moves, on) in PER_LAYER {
        assert!(!on.is_empty(), "{name} names no workload");
        for m in moves {
            assert!(e2e_names.contains(m), "{name} moves unknown metric {m}");
        }
        for w in on {
            assert!(workloads.contains(w), "{name} names unknown workload {w}");
        }
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    let widest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(widest),
        "setup_s carries the largest bound"
    );
}

#[test]
fn spec_checks_reject_malformed_files() {
    let good = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json");
    assert!(spec::parse(&good).is_ok());
    for (from, to) in [
        ("\"setup_s\"", "\"setup s\""),
        ("\"run_seconds\": 30", "\"run_seconds\": 61"),
        ("\"bound\": 0.25", "\"bound\": 0.3"),
        ("\"better\": \"lower\"", "\"better\": \"less\""),
        ("\"trace.synth_ms\"", "\"sim.steps\""),
    ] {
        assert!(good.contains(from), "fixture lost {from}");
        let bad = good.replacen(from, to, 1);
        assert!(spec::parse(&bad).is_err(), "accepted {from} -> {to}");
    }
}

fn smoke(workload: Workload, trace: bool) {
    let out = std::env::temp_dir().join(format!(
        "padbench-contract-{}-{}-{trace}",
        std::process::id(),
        workload.name()
    ));
    let args = RunArgs {
        workload,
        seed: HELD_OUT_SEED,
        seconds: 0.4,
        trace,
        out: out.clone(),
        smoke: true,
    };
    let started = std::time::Instant::now();
    let outcome = run(&args).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let took = started.elapsed();
    assert!(outcome.attempted > 0, "{} checked nothing", workload.name());
    assert_eq!(outcome.failed, 0, "{} failed its checks", workload.name());
    let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    if trace {
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, ..)| *n).collect();
        assert_eq!(printed, expected);
        for file in ["spans.jsonl", "layers.json"] {
            let path = out.join(format!("{}.{file}", workload.name()));
            assert!(path.is_file(), "{} was not written", path.display());
        }
    } else {
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(printed, expected);
        for m in &outcome.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out);
    assert!(
        took.as_secs_f64() < 5.0,
        "{} took {took:?} at smoke scale",
        workload.name()
    );
}

#[test]
fn sim_sweep_passes_its_checks() {
    smoke(Workload::SimSweep, false);
    smoke(Workload::SimSweep, true);
}

#[test]
fn sim_forensics_passes_its_checks() {
    smoke(Workload::SimForensics, false);
    smoke(Workload::SimForensics, true);
}

#[test]
fn daemon_ingest_passes_its_checks() {
    smoke(Workload::DaemonIngest, false);
    smoke(Workload::DaemonIngest, true);
}

#[test]
fn daemon_prod_passes_its_checks() {
    smoke(Workload::DaemonProd, false);
    smoke(Workload::DaemonProd, true);
}
