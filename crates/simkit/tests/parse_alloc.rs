//! The telemetry codec's heap allocations. Parsing a line allocates
//! nothing: the record borrows its name and source from the line, and
//! keys and record-type words are matched in place. Parsing a whole
//! text allocates once, the record vector, reserved from its line
//! count. Rendering a trace allocates per call and per metric, never per
//! record.
//!
//! The counting allocator counts only on the thread that enables it, so
//! tests running beside each other on other threads cannot disturb a
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use simkit::telemetry::{
    parse, parse_line, parse_lossy, to_csv, to_jsonl, EventKind, EventRecord, Format,
    MetricRegistry, ParsedRecord, Record, Sample,
};
use simkit::time::SimTime;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the heap allocations it made on
/// this thread.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = black_box(f());
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// Parses `line` and returns the record with the heap allocations the
/// parse made on this thread.
fn parse_counting(line: &str, format: Format) -> (ParsedRecord<'_>, u64) {
    let (parsed, allocations) = counting(|| parse_line(black_box(line), 1, format));
    let record = parsed.unwrap_or_else(|e| panic!("{line:?} is well formed: {e}"));
    (record, allocations)
}

#[test]
fn a_sample_line_parses_without_allocating() {
    for (line, format) in [
        (
            r#"{"t":1000,"m":"rack-00.draw_w","v":123.45}"#,
            Format::Jsonl,
        ),
        ("1000,sample,rack-00.draw_w,,123.45", Format::Csv),
    ] {
        let (record, allocations) = parse_counting(line, format);
        assert!(!record.is_event);
        assert_eq!(record.name, "rack-00.draw_w");
        assert_eq!(record.source, "");
        assert_eq!(record.value, 123.45);
        assert_eq!(allocations, 0, "{format:?} sample {line:?}");
    }
}

#[test]
fn an_event_line_parses_without_allocating() {
    for (line, format) in [
        (
            r#"{"t":1000,"e":"breaker_trip","s":"rack-00","v":1}"#,
            Format::Jsonl,
        ),
        ("1000,event,breaker_trip,rack-00,1", Format::Csv),
    ] {
        let (record, allocations) = parse_counting(line, format);
        assert!(record.is_event);
        assert_eq!(record.name, "breaker_trip");
        assert_eq!(record.source, "rack-00");
        assert_eq!(record.value, 1.0);
        assert_eq!(allocations, 0, "{format:?} event {line:?}");
    }
}

/// Every way a line can be malformed still fails, with the message it
/// has always had.
#[test]
fn malformed_lines_keep_their_error_messages() {
    let cases = [
        ("not json", Format::Jsonl, "expected '{'"),
        (r#"{"x":1}"#, Format::Jsonl, r#"expected key "t""#),
        (r#"{"t":1"#, Format::Jsonl, "unterminated object"),
        (
            r#"{"t":abc,"m":"a","v":1}"#,
            Format::Jsonl,
            r#"bad time "abc""#,
        ),
        (
            r#"{"t":1,"q":"a","v":1}"#,
            Format::Jsonl,
            r#"expected key "e""#,
        ),
        (r#"{"t":1,"m"}"#, Format::Jsonl, r#"expected key "e""#),
        (
            r#"{"t":1,"m":"a\"b","v":2}"#,
            Format::Jsonl,
            r#"invalid metric name "a\\\"b""#,
        ),
        (
            r#"{"t":1,"m":a,"v":2}"#,
            Format::Jsonl,
            r#"expected quoted string, got "a""#,
        ),
        (
            r#"{"t":1,"m":"a","x":2}"#,
            Format::Jsonl,
            r#"expected key "v""#,
        ),
        (
            r#"{"t":1,"m":"a","v":2"#,
            Format::Jsonl,
            "unterminated object",
        ),
        (
            r#"{"t":1,"m":"a","v":1.2.3}"#,
            Format::Jsonl,
            r#"bad value "1.2.3""#,
        ),
        (
            r#"{"t":1,"m":"a","v":2}x"#,
            Format::Jsonl,
            "trailing content after sample",
        ),
        (
            r#"{"t":1,"e":"no_such","s":"x","v":1}"#,
            Format::Jsonl,
            r#"unknown event kind "no_such""#,
        ),
        (
            r#"{"t":1,"e":"breaker_trip","x":"r","v":1}"#,
            Format::Jsonl,
            r#"expected key "s""#,
        ),
        (
            r#"{"t":1,"e":"breaker_trip","s":r,"v":1}"#,
            Format::Jsonl,
            r#"expected quoted string, got "r""#,
        ),
        (
            r#"{"t":1,"e":"breaker_trip","s":"r","w":1}"#,
            Format::Jsonl,
            r#"expected key "v""#,
        ),
        (
            r#"{"t":1,"e":"breaker_trip","s":"r","v":x}"#,
            Format::Jsonl,
            r#"bad value "x""#,
        ),
        (
            r#"{"t":1,"e":"breaker_trip","s":"r","v":1}z"#,
            Format::Jsonl,
            "trailing content after event",
        ),
        ("1,sample,a.x", Format::Csv, "missing source field"),
        ("1", Format::Csv, "missing record field"),
        ("x,sample,a,,1", Format::Csv, "bad time_ms"),
        ("1,sample,a,,zz", Format::Csv, "bad value"),
        ("1,sample,a,,1,extra", Format::Csv, "too many fields"),
        (
            "1,bogus,a.x,,1",
            Format::Csv,
            r#"unknown record type "bogus""#,
        ),
        (
            "1,sample,x\" y,,2",
            Format::Csv,
            r#"invalid metric name "x\" y""#,
        ),
        (
            "1,event,nope,r,1",
            Format::Csv,
            r#"unknown event kind "nope""#,
        ),
    ];
    for (line, format, message) in cases {
        let e = parse_line(line, 7, format).expect_err(line);
        assert_eq!(e.line, 7, "{line:?}");
        assert_eq!(e.message, message, "{format:?} {line:?}");
    }
}

/// A recording of `ticks` 100 ms ticks: four metrics sampled every tick
/// with `0`/`1` gauges, small integers and fractions, and an event every
/// tenth tick.
fn recording(ticks: u64) -> (MetricRegistry, Vec<Record>) {
    let mut registry = MetricRegistry::new();
    let metrics = [
        registry.register_gauge("rack-00.draw_w"),
        registry.register_gauge("rack-00.soc"),
        registry.register_gauge("cluster.detect.fired"),
        registry.register_counter("rack-00.breaker.trips"),
    ];
    let mut records = Vec::new();
    for tick in 0..ticks {
        let time = SimTime::from_millis(tick * 100);
        let values = [
            1_000.0 + tick as f64 / 3.0,
            1.0 - tick as f64 * 1e-5,
            (tick % 2) as f64,
            (tick / 7) as f64,
        ];
        for (&metric, value) in metrics.iter().zip(values) {
            records.push(Record::Sample(Sample {
                time,
                metric,
                value,
            }));
        }
        if tick % 10 == 3 {
            records.push(Record::Event(EventRecord {
                time,
                kind: EventKind::Shed,
                source: "rack-00".to_string(),
                value: 2.0,
            }));
        }
    }
    (registry, records)
}

#[test]
fn rendering_allocates_the_same_for_any_record_count() {
    let counts: Vec<u64> = [10, 1_000, 20_000]
        .into_iter()
        .map(|ticks| {
            let (registry, records) = recording(ticks);
            ALLOCATIONS.with(|n| n.set(0));
            COUNTING.with(|c| c.set(true));
            let text = black_box(to_jsonl(black_box(&registry), black_box(&records)));
            COUNTING.with(|c| c.set(false));
            assert_eq!(text.lines().count(), records.len());
            ALLOCATIONS.with(Cell::get)
        })
        .collect();
    assert!(
        counts.windows(2).all(|pair| pair[0] == pair[1]),
        "allocations per render for 10, 1,000 and 20,000 ticks: {counts:?}"
    );
}

#[test]
fn parsing_a_recording_allocates_only_its_record_vector() {
    for ticks in [10, 1_000, 20_000] {
        let (registry, records) = recording(ticks);
        for format in [Format::Jsonl, Format::Csv] {
            let text = match format {
                Format::Jsonl => to_jsonl(&registry, &records),
                Format::Csv => to_csv(&registry, &records),
            };
            let (parsed, allocations) = counting(|| parse(black_box(&text), format));
            assert_eq!(parsed.expect("own recording parses").len(), records.len());
            assert_eq!(allocations, 1, "parse of {ticks} ticks, {format:?}");
            let (lossy, allocations) = counting(|| parse_lossy(black_box(&text), format));
            assert_eq!(lossy.records.len(), records.len());
            assert!(lossy.errors.is_empty());
            assert_eq!(allocations, 1, "parse_lossy of {ticks} ticks, {format:?}");
        }
    }
}

#[test]
fn a_text_of_newlines_reserves_no_more_than_its_length_allows() {
    let text = "\n".repeat(100_000);
    for (shortest, format) in [
        (r#"{"t":0,"m":"a","v":0}"#, Format::Jsonl),
        ("0,sample,a,,0", Format::Csv),
    ] {
        parse_line(shortest, 1, format).expect("the shortest record line is well formed");
        let cap = text.len() / shortest.len();
        let lossy = parse_lossy(&text, format);
        assert!(lossy.records.is_empty());
        assert!(
            lossy.records.capacity() <= cap,
            "{format:?}: {} records reserved for {} newlines, cap {cap}",
            lossy.records.capacity(),
            text.len()
        );
    }
    let records = parse(&text, Format::Jsonl).expect("blank lines parse");
    assert!(records.capacity() <= text.len() / r#"{"t":0,"m":"a","v":0}"#.len());
}
