//! A steady-state `ClusterSim::step` allocates nothing: with
//! instruments and faults off, each scheme at the paper's 22 × 10 scale
//! runs 1,000 ticks after warm-up without one heap allocation.
//!
//! The window is chosen so that only the per-tick path runs: the attack
//! is armed to start after it, the slow management loop's interval is
//! longer than it, and the event log must not grow (no forensic event
//! was recorded, so no event path was taken). The counting allocator
//! counts only on the thread that enables it, so the test harness's own
//! threads cannot disturb the count; this file holds a single test so
//! that nothing else runs in its binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
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

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

const DT: SimDuration = SimDuration::from_millis(100);
const WARM_UP: u64 = 100;
const MEASURED: u64 = 1_000;

#[test]
fn steady_state_steps_do_not_allocate() {
    let window = DT * (WARM_UP + MEASURED);
    let trace = Arc::new(
        SynthConfig {
            machines: 220,
            horizon: SimTime::ZERO + window + SimDuration::from_mins(2),
            step: SimDuration::from_mins(1),
            mean_utilization: 0.31,
            machine_bias_std: 0.04,
            ..SynthConfig::google_may2010()
        }
        .generate_direct(7),
    );
    for scheme in Scheme::ALL {
        let config = SimConfig {
            grant_interval: window + SimDuration::SECOND,
            ..SimConfig::paper_default(scheme)
        };
        let mut sim = ClusterSim::new_shared(config, Arc::clone(&trace)).unwrap();
        let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4);
        let victim = sim.most_vulnerable_rack();
        sim.set_attack(scenario, victim, SimTime::ZERO + window + DT);
        for _ in 0..WARM_UP {
            sim.step(DT);
        }
        let logged = sim.event_log().len();
        let allocations = allocations_in(|| {
            for _ in 0..MEASURED {
                sim.step(DT);
            }
        });
        assert_eq!(
            sim.event_log().len(),
            logged,
            "{}: an event was logged inside the window",
            scheme.label()
        );
        assert_eq!(
            allocations,
            0,
            "{}: {allocations} allocations in {MEASURED} steady-state steps",
            scheme.label()
        );
    }
}
