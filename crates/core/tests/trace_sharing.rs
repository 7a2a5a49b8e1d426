//! The `Arc<ClusterTrace>` sharing contract: a sweep parses (or loads)
//! its trace exactly once, no matter how many scenarios run over it.
//!
//! The parse counter is process-global, so this binary holds only the
//! test that reads it: a test that parses on another thread of the same
//! process would move the count mid-sweep. Parse errors are tested in
//! `trace_parse_errors.rs`.

use std::sync::Arc;

use pad::prelude::*;
use simkit::time::{SimDuration, SimTime};
use workload::trace::{trace_parse_count, ClusterTrace};

/// A tiny CSV covering the 16 machines of the `small_test` topology.
fn small_csv() -> String {
    let mut text = String::from("# start, end, machine, cpu_rate\n");
    for machine in 0..16 {
        text.push_str(&format!("0.0, 3600.0, {machine}, 0.4\n"));
        text.push_str(&format!("600.0, 1800.0, {machine}, 0.3\n"));
    }
    text
}

#[test]
fn sweep_parses_the_trace_exactly_once() {
    let trace = ClusterTrace::parse_csv(
        &small_csv(),
        16,
        SimDuration::from_secs(60),
        SimTime::from_hours(1),
    )
    .expect("well-formed CSV parses");
    let parses_before = trace_parse_count();

    // Eight scenarios over the one parsed trace...
    let cases: Vec<SurvivalCase> = (0..8)
        .map(|_| {
            SurvivalCase::quiet(
                SimConfig::small_test(Scheme::Pad),
                SimTime::from_mins(5),
                SimDuration::SECOND,
            )
        })
        .collect();
    let outcomes = ConfigSweep::new(Arc::new(trace), 7)
        .with_jobs(4)
        .run(cases)
        .expect("sweep runs");
    assert_eq!(outcomes.len(), 8);

    // ...must not have re-parsed anything: the Arc is shared, not cloned
    // from source.
    assert_eq!(
        trace_parse_count(),
        parses_before,
        "the sweep re-parsed the trace instead of sharing the Arc"
    );
}
