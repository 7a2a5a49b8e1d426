//! A session in steady state allocates only what each record owns: its
//! metric name. The wire line is framed in place, classified without a
//! copy and committed under one hold of the tenant's lock.
//!
//! The counting allocator counts only on the thread that enables it, so
//! tests running beside each other on other threads cannot disturb a
//! count. The session runs on the test thread, over an in-memory stream
//! that switches counting on and off between reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};

use pad::detect::DetectConfig;
use pad::pipeline::PipelineConfig;
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
use paddaemon::session::run_session;
use paddaemon::state::DaemonState;
use simkit::telemetry::Format;
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;

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

/// Ticks of the recorded session, and how many of them open it before
/// the counted window: the first tick builds the pipeline.
const TICKS: usize = 300;
const WARM_UP_TICKS: usize = 20;

/// A recorded 100 ms telemetry stream of the paper's 22 × 10 cluster
/// with live detection on, one string per tick.
fn recorded_ticks() -> Vec<String> {
    let config = SimConfig::paper_default(Scheme::Pad);
    let trace = SynthConfig {
        machines: config.topology.total_servers(),
        horizon: SimTime::from_mins(10),
        mean_utilization: 0.6,
        ..SynthConfig::small_test()
    }
    .generate_direct(11);
    let mut sim = ClusterSim::new(config, trace).expect("valid config");
    sim.enable_telemetry(1 << 20);
    sim.enable_detection(DetectConfig::default());
    for _ in 0..TICKS {
        sim.step(SimDuration::from_millis(100));
    }
    let telemetry = sim
        .take_telemetry()
        .expect("telemetry enabled")
        .serialize(Format::Jsonl);
    let mut ticks: Vec<String> = Vec::new();
    let mut tick_time = None;
    for line in telemetry.lines() {
        let time = line.split(',').next();
        if tick_time != Some(time) {
            tick_time = Some(time);
            ticks.push(String::new());
        }
        let tick = ticks.last_mut().expect("pushed above");
        tick.push_str(line);
        tick.push('\n');
    }
    ticks
}

/// An in-memory session transport that counts this thread's
/// allocations while the session works through `window`. A read never
/// crosses an edge of the window, so the session has handled every
/// line before it and none after it when counting switches.
struct Metered {
    input: io::Cursor<Vec<u8>>,
    window: (u64, u64),
}

impl Read for Metered {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let pos = self.input.position();
        let (start, end) = self.window;
        COUNTING.with(|c| c.set((start..end).contains(&pos)));
        let edge = if pos < start {
            start
        } else if pos < end {
            end
        } else {
            u64::MAX
        };
        let room = buf.len().min((edge - pos).try_into().unwrap_or(usize::MAX));
        self.input.read(&mut buf[..room])
    }
}

impl Write for Metered {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_steady_session_allocates_only_each_records_name() {
    let ticks = recorded_ticks();
    let (warm_up, steady) = ticks.split_at(WARM_UP_TICKS);
    let mut request = b"hello steady jsonl\n".to_vec();
    warm_up
        .iter()
        .for_each(|t| request.extend_from_slice(t.as_bytes()));
    let start = request.len() as u64;
    steady
        .iter()
        .for_each(|t| request.extend_from_slice(t.as_bytes()));
    let end = request.len() as u64;
    request.extend_from_slice(b"end\n");
    let lines = steady.iter().map(|t| t.lines().count()).sum::<usize>() as f64;

    let state = DaemonState::new(PipelineConfig::default());
    let wire = Metered {
        input: io::Cursor::new(request),
        window: (start, end),
    };
    ALLOCATIONS.with(|n| n.set(0));
    let stats = run_session(wire, &state).expect("in-memory session");
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.with(Cell::get) as f64;

    let records = ticks.iter().map(|t| t.lines().count()).sum::<usize>() as u64;
    assert_eq!(stats.records, records, "every line is a record");
    assert_eq!(stats.errors, 0);
    let per_line = allocations / lines;
    assert!(
        per_line <= 1.05,
        "{allocations} allocations over {lines} steady data lines: {per_line:.3} per line \
         (one is the record's name)"
    );
}
