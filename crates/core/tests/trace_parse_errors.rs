//! Malformed trace input surfaces as an error with its line number,
//! never a panic.
//!
//! This lives apart from `trace_sharing.rs`: parsing here bumps the
//! process-global parse counter that the sharing test compares across
//! a sweep.

use simkit::time::{SimDuration, SimTime};
use workload::trace::ClusterTrace;

#[test]
fn malformed_trace_rows_error_instead_of_panicking() {
    let step = SimDuration::from_secs(60);
    let horizon = SimTime::from_hours(1);

    // Wrong field count.
    let err = ClusterTrace::parse_csv("0.0, 3600.0, 0\n", 1, step, horizon)
        .expect_err("three fields must not parse");
    assert!(err.contains("line 1"), "{err}");

    // Non-numeric rate, with the line number pointing past the comment.
    let err = ClusterTrace::parse_csv("# header\n0.0, 3600.0, 0, lots\n", 1, step, horizon)
        .expect_err("bad rate must not parse");
    assert!(err.contains("line 2"), "{err}");

    // End before start.
    let err = ClusterTrace::parse_csv("10.0, 5.0, 0, 0.5\n", 1, step, horizon)
        .expect_err("inverted interval must not parse");
    assert!(err.contains("line 1"), "{err}");

    // Rate out of range.
    let err = ClusterTrace::parse_csv("0.0, 60.0, 0, 1.5\n", 1, step, horizon)
        .expect_err("rate above 1 must not parse");
    assert!(err.contains("line 1"), "{err}");
}
