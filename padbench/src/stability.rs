//! `padbench stability`: runs one workload several times, each with its
//! own seed and in its own process, and reports for every end-to-end
//! metric the median, the quartiles and the spread (interquartile range
//! over median) against the metric's bound in `BENCHMARK.json`.
//!
//! The suggested bound is max(5%, 2 × spread), capped at the 25% the
//! benchmark contract allows; a metric whose spread exceeds 10% is too
//! noisy to gate and is flagged for demotion to a diagnostic.

use std::collections::BTreeMap;
use std::process::Command;

use simkit::jsonio::{JsonParser, ObjFields};

use crate::stats::Samples;
use crate::{spec, RunArgs};

/// One run's result line, parsed.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Result<RunResult, String> {
    // The line is this program's own: its only literals are the
    // `correct` flag, which the workspace JSON reader has no type for.
    let line = line
        .replacen("\"correct\": true", "\"correct\": 1", 1)
        .replacen("\"correct\": false", "\"correct\": 0", 1);
    let doc = JsonParser::parse_document(&line)?;
    let obj = doc.as_object("result")?;
    let mut metrics = BTreeMap::new();
    for (name, value) in obj.obj_field("metrics")? {
        metrics.insert(name.clone(), value.as_object(name)?.f64_field("value")?);
    }
    Ok(RunResult {
        attempted: obj.u64_field("attempted")?,
        failed: obj.u64_field("failed")?,
        metrics,
    })
}

pub fn run(args: &RunArgs, runs: u32) -> Result<(), String> {
    let spec = spec::load()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate padbench: {e}"))?;
    let mut values: BTreeMap<String, Samples> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for i in 0..u64::from(runs.max(2)) {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--out"])
            .arg(&args.out)
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !output.status.success() {
            return Err(format!(
                "seed {seed}: exit {} — {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let result = parse_result(last).map_err(|e| format!("seed {seed}: {e}: {last}"))?;
        attempted += result.attempted;
        failed += result.failed;
        for (name, value) in result.metrics {
            values.entry(name).or_default().push(value);
        }
        eprintln!("padbench stability: seed {seed} done");
    }
    println!(
        "{} over {} seeds from {}: {failed} of {attempted} operations failed (bound: 0)",
        args.workload.name(),
        runs.max(2),
        args.seed
    );
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>8} {:>7} {:>9}  verdict",
        "metric", "median", "q1", "q3", "spread", "bound", "suggest"
    );
    for m in &spec.end_to_end {
        let Some(samples) = values.get(&m.name) else {
            println!("{:<18} missing from the runs' output", m.name);
            continue;
        };
        let median = samples.median();
        let (q1, q3) = samples.quartiles().unwrap_or((f64::NAN, f64::NAN));
        let spread = (q3 - q1) / median;
        let bound = m.bound.unwrap_or(f64::NAN);
        let verdict = if spread > 0.10 {
            "too noisy: demote to a diagnostic"
        } else if spread * 3.0 > bound {
            "spread above a third of the bound"
        } else {
            "ok"
        };
        println!(
            "{:<18} {:>12.5} {:>12.5} {:>12.5} {:>7.2}% {:>6.1}% {:>8.1}%  {verdict}",
            m.name,
            median,
            q1,
            q3,
            spread * 100.0,
            bound * 100.0,
            (2.0 * spread).clamp(0.05, 0.25) * 100.0
        );
        println!("{:<18} runs: {}", "", samples.render());
    }
    if failed > 0 {
        return Err(format!("{failed} operations failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_result_line() {
        let r = parse_result(
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
        )
        .unwrap();
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(r.metrics["setup_s"], 0.5);
    }
}
