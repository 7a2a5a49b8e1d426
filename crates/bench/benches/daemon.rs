//! Benchmarks of the `padsimd` daemon ingest path: a recorded session
//! pushed through the wire protocol in memory (classify + parse +
//! online pipeline, no socket), the same session over a real loopback
//! TCP daemon, and the connect/hello/end session cycle. The paired
//! measurement at the end prints the grep-able throughput line the CI
//! daemon-suite step records, and enforces a loose floor so a
//! catastrophic regression fails the step outright. The checks after it
//! each gate one layer against a baseline that layer's work does not
//! move: self-observability against the bare session, the checkpoint
//! calls against the bare file I/O of the bytes they write, the
//! session's framing and bookkeeping against the bare per-line calls, a
//! `/metrics` digest of a full-size session against twice the digest of
//! its first half, and catching a held digest up by one scrape interval
//! against digesting the whole session. Neither the checkpoint nor the
//! scrape-digest baseline renders or parses, so a codec change moves
//! neither.

use criterion::{criterion_group, criterion_main, Criterion};
use pad::detect::DetectConfig;
use pad::pipeline::PipelineConfig;
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
use paddaemon::client::{send, SendJob};
use paddaemon::proto::{classify, Line};
use paddaemon::server::{serve, ServeOptions};
use paddaemon::session::run_session;
use paddaemon::state::{Counters, DaemonState, Tenant};
use simkit::telemetry::{parse_line, parse_lossy, Format, ParsedRecord, TelemetryReport};
use simkit::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};
use workload::synth::SynthConfig;

/// A recorded telemetry stream of `ticks` 100 ms steps of `config`'s
/// cluster, with live detection on.
fn record(config: SimConfig, ticks: usize) -> String {
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
    for _ in 0..ticks {
        sim.step(SimDuration::from_millis(100));
    }
    sim.take_telemetry()
        .expect("telemetry enabled")
        .serialize(Format::Jsonl)
}

/// The paper's 22 × 10 cluster for 1,000 ticks: every metric sampled
/// 1,000 times, about 178 records a tick.
fn paper_session() -> String {
    record(SimConfig::paper_default(Scheme::Pad), 1_000)
}

/// The paper-scale session, parsed and owned: the shape a scrape
/// digests for each finished tenant. The small testbed's 200 ticks hold
/// too few samples per metric to show a cost that grows faster than
/// linearly.
fn paper_session_records() -> Vec<ParsedRecord<'static>> {
    let text = paper_session();
    let records = parse_lossy(&text, Format::Jsonl).records;
    records.into_iter().map(ParsedRecord::into_owned).collect()
}

/// A recorded telemetry stream from the small testbed: the payload
/// the ingest measurements in this file replay.
fn recorded_telemetry() -> String {
    record(SimConfig::small_test(Scheme::Pad), 200)
}

/// One full session as request bytes: hello, the stream, end.
fn session_request(telemetry: &str) -> Vec<u8> {
    format!("hello bench jsonl\n{telemetry}end\n").into_bytes()
}

/// An in-memory session transport: reads the prepared request (owned,
/// or borrowed so that no copy of it is made or freed inside a timing),
/// drops the replies. Isolates the daemon's per-line work from the
/// socket.
struct Wire<T: AsRef<[u8]> = Vec<u8>> {
    input: io::Cursor<T>,
}

impl<T: AsRef<[u8]>> Read for Wire<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl<T: AsRef<[u8]>> Write for Wire<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Starts a loopback daemon in a thread and discovers its data port.
fn start_daemon() -> (String, std::thread::JoinHandle<io::Result<()>>) {
    let dir = std::env::temp_dir().join(format!("padsimd-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ports_file = dir.join("ports.txt");
    let opts = ServeOptions {
        listen: Some("127.0.0.1:0".to_string()),
        ports_file: Some(ports_file.clone()),
        ..ServeOptions::default()
    };
    let handle = std::thread::spawn(move || serve(opts));
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(text) = std::fs::read_to_string(&ports_file) {
            for line in text.lines() {
                if let Some(("data", addr)) = line.split_once(' ') {
                    return (addr.to_string(), handle);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon did not write its data address in time");
}

fn stop_daemon(addr: &str, handle: std::thread::JoinHandle<io::Result<()>>) {
    let replies = send(
        addr,
        &SendJob {
            shutdown: true,
            ..SendJob::default()
        },
    )
    .expect("shutdown control line");
    assert_eq!(replies, vec!["ok shutdown".to_string()]);
    handle.join().expect("serve thread").expect("clean exit");
}

fn bench_daemon(c: &mut Criterion) {
    let telemetry = recorded_telemetry();
    let request = session_request(&telemetry);

    // The socket-free wire path: every line classified, parsed, and fed
    // to the tenant's online pipeline, summary rendered on `end`.
    let mut group = c.benchmark_group("daemon_session");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("ingest_in_memory", |b| {
        b.iter(|| {
            let state = DaemonState::new(PipelineConfig::default());
            let wire = Wire {
                input: io::Cursor::new(request.clone()),
            };
            black_box(run_session(wire, &state).expect("in-memory session"))
        })
    });
    // The same session with self-observability off: no per-tenant
    // monitor, no ops histograms, no ops log. The delta against the
    // instrumented path above is what the watchers cost.
    group.bench_function("ingest_in_memory_bare", |b| {
        b.iter(|| {
            let state = DaemonState::bare(PipelineConfig::default());
            let wire = Wire {
                input: io::Cursor::new(request.clone()),
            };
            black_box(run_session(wire, &state).expect("in-memory session"))
        })
    });
    group.finish();

    // The same session over a real loopback socket, plus the empty
    // connect/hello/end cycle that bounds per-session overhead.
    let (addr, handle) = start_daemon();
    let full_job = SendJob {
        tenant: "bench".to_string(),
        format: "jsonl",
        telemetry: telemetry.clone(),
        end: true,
        ..SendJob::default()
    };
    let cycle_job = SendJob {
        tenant: "cycle".to_string(),
        format: "jsonl",
        end: true,
        ..SendJob::default()
    };
    let mut group = c.benchmark_group("daemon_loopback");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("ingest_tcp", |b| {
        b.iter(|| black_box(send(&addr, &full_job).expect("session replies")))
    });
    group.bench_function("session_cycle", |b| {
        b.iter(|| black_box(send(&addr, &cycle_job).expect("cycle replies")))
    });
    group.finish();
    stop_daemon(&addr, handle);
}

/// Paired throughput measurement over loopback TCP: stream the recorded
/// session repeatedly and take the best round (min-of-rounds is robust
/// to scheduler noise). Prints the grep-able line the CI daemon-suite
/// step records, and enforces a floor loose enough for shared runners
/// but tight enough to catch an accidental per-line allocation storm.
fn check_ingest_throughput(_c: &mut Criterion) {
    let telemetry = recorded_telemetry();
    let events = telemetry.lines().count();
    let (addr, handle) = start_daemon();
    let job = SendJob {
        tenant: "throughput".to_string(),
        format: "jsonl",
        telemetry,
        end: true,
        ..SendJob::default()
    };
    black_box(send(&addr, &job).expect("warm-up session"));
    let mut best = Duration::MAX;
    for _ in 0..10 {
        let t = Instant::now();
        black_box(send(&addr, &job).expect("timed session"));
        best = best.min(t.elapsed());
    }
    stop_daemon(&addr, handle);
    let rate = events as f64 / best.as_secs_f64();
    println!(
        "daemon_ingest_events_per_sec: {rate:.0} ({events} events over loopback TCP, min of 10 rounds)"
    );
    assert!(
        rate >= 10_000.0,
        "daemon ingest fell to {rate:.0} events/sec (floor 10k)"
    );
}

/// Paired self-observability overhead measurement on the socket-free
/// wire path: the recorded session through a bare state (no monitors,
/// no ops metrics, no ops log) versus the default instrumented state.
/// The ratio is the median of 10 rounds, each dividing the instrumented
/// session by the bare one timed right before it: the host's speed
/// shifts within a run, and a ratio of two minimums can pair a fast
/// round on one side with none on the other. Prints the grep-able ratio
/// line the CI daemon-suite step records, and enforces a generous
/// ceiling — the budget is 5%, the gate trips well before
/// instrumentation could hide a 50% regression.
fn check_selfobs_overhead(_c: &mut Criterion) {
    let telemetry = recorded_telemetry();
    let request = session_request(&telemetry);
    let events = telemetry.lines().count();
    let run = |bare: bool| {
        let state = if bare {
            DaemonState::bare(PipelineConfig::default())
        } else {
            DaemonState::new(PipelineConfig::default())
        };
        let wire = Wire {
            input: io::Cursor::new(request.clone()),
        };
        let t = Instant::now();
        black_box(run_session(wire, &state).expect("in-memory session"));
        t.elapsed()
    };
    // Warm both paths, then interleave the timed rounds so drift hits
    // bare and instrumented alike.
    run(true);
    run(false);
    let (mut best_bare, mut best_full) = (Duration::MAX, Duration::MAX);
    let mut ratios = Vec::with_capacity(10);
    for _ in 0..10 {
        let bare = run(true);
        let full = run(false);
        best_bare = best_bare.min(bare);
        best_full = best_full.min(full);
        ratios.push(full.as_secs_f64() / bare.as_secs_f64());
    }
    let ratio = median(ratios);
    println!(
        "daemon_selfobs_overhead_ratio: {ratio:.3} ({events} events in memory, median of 10 \
         paired rounds; best instrumented {:.2?} vs bare {:.2?})",
        best_full, best_bare
    );
    assert!(
        ratio <= 1.5,
        "self-observability overhead ratio {ratio:.3} exceeds 1.5× the bare ingest path"
    );
}

/// The median of an even number of ratios.
fn median(mut ratios: Vec<f64>) -> f64 {
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    (ratios[mid - 1] + ratios[mid]) / 2.0
}

/// The base document and the journal frames of one checkpointed run,
/// read back from its state directory: the base file, and the journal
/// cut after each frame's `ok frame <n>` commit line. A frame number
/// seen twice keeps its first copy, so the frames are the bytes each
/// call meant to write, however often it wrote them.
fn written_checkpoint(base: &std::path::Path, journal: &std::path::Path) -> (Vec<u8>, Vec<String>) {
    let base = std::fs::read(base).expect("base checkpoint");
    let journal = std::fs::read_to_string(journal).expect("checkpoint journal");
    let (mut frames, mut numbers) = (Vec::new(), std::collections::BTreeSet::new());
    let mut frame = String::new();
    for line in journal.split_inclusive('\n') {
        frame.push_str(line);
        if let Some(number) = line.strip_prefix("ok frame ") {
            if numbers.insert(number.trim_end().to_string()) {
                frames.push(std::mem::take(&mut frame));
            }
            frame.clear();
        }
    }
    (base, frames)
}

/// Paired crash-recovery measurement: the checkpoint calls a session
/// with a `--state-dir` makes over the paper-scale session — the base
/// document at the first tick boundary, one journal frame at every
/// later one and the finished frame at `end` — timed call by call,
/// versus the bare file I/O of the same bytes. The base and every frame
/// are captured from one checkpointed run, outside the timing, then
/// written with plain `std::fs` calls in the same state directory:
/// `write` and `rename` for the base, the journal's removal, and one
/// `write_all` per frame on an open append handle. Ingest runs between
/// the calls, untimed, and captures each wire line into the checkpoint
/// cache, so neither side moves with the ingest path, and neither
/// renders or parses: a codec change moves neither. What the ratio
/// shows is what the calls add to the I/O — the meta lines, building
/// each frame from the cache, and the commit markers. The paper-scale
/// session makes each frame large enough (about 178 records) that the
/// appends, not the base write, carry the cost. The ratio is the median
/// of 10 rounds, each dividing the calls by the bare I/O timed right
/// after them. Prints the grep-able ratio line the CI daemon-suite step
/// records, and fails above 1.8: the calls read 1.34–1.63 of the bare
/// I/O on a 2-vCPU VM over 21 runs each with the renderer before its
/// byte pushes and after, and each frame written twice reads 2.20–2.45.
fn check_checkpoint_overhead(_c: &mut Criterion) {
    let telemetry = paper_session();
    let records = parse_lossy(&telemetry, Format::Jsonl).records;
    let state_dir = std::env::temp_dir().join(format!("padsimd-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir).expect("state dir");
    let mut state = DaemonState::new(PipelineConfig::default());
    state.state_dir = Some(state_dir.clone());
    let checkpoint_calls = || {
        let (tenant, _) = state.open_tenant("bench", Format::Jsonl);
        let mut guard = tenant.lock().expect("tenant lock");
        let mut spent = Duration::ZERO;
        let mut checkpoint = |guard: &mut Tenant| {
            let t = Instant::now();
            let written = if guard.checkpoint_due() {
                state.write_checkpoint(guard)
            } else {
                state.append_checkpoint_frame(guard)
            };
            spent += t.elapsed();
            written.expect("checkpoint write");
        };
        for (line, record) in telemetry.lines().zip(&records) {
            if guard.ingest_record_wire(line, record.clone()) {
                checkpoint(&mut guard);
            }
        }
        guard.finalize();
        checkpoint(&mut guard);
        spent
    };
    let base_path = state.checkpoint_path("bench").expect("state dir is set");
    let journal_path = state.journal_path("bench").expect("state dir is set");
    let frames_before = Counters::get(&state.counters.checkpoint_frames);
    black_box(checkpoint_calls());
    let frames = Counters::get(&state.counters.checkpoint_frames) - frames_before;
    let (base, journal) = written_checkpoint(&base_path, &journal_path);
    let bytes = base.len() + journal.iter().map(String::len).sum::<usize>();
    let bare_io = || {
        let t = Instant::now();
        let tmp = base_path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, &base).expect("base write");
        std::fs::rename(&tmp, &base_path).expect("base rename");
        match std::fs::remove_file(&journal_path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => panic!("journal removal: {e}"),
            _ => {}
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .expect("journal open");
        for frame in &journal {
            file.write_all(frame.as_bytes()).expect("frame append");
        }
        t.elapsed()
    };
    black_box(bare_io());
    let (mut best_ckpt, mut best_io) = (Duration::MAX, Duration::MAX);
    let mut ratios = Vec::with_capacity(10);
    for _ in 0..10 {
        let ckpt = checkpoint_calls();
        let io = bare_io();
        best_ckpt = best_ckpt.min(ckpt);
        best_io = best_io.min(io);
        ratios.push(ckpt.as_secs_f64() / io.as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&state_dir);
    let ratio = median(ratios);
    println!(
        "daemon_checkpoint_overhead_ratio: {ratio:.3} ({} records, a base write and {frames} \
         journal frames vs the bare I/O of their {bytes} bytes, median of 10 paired rounds; \
         best {:.2?} vs {:.2?})",
        records.len(),
        best_ckpt,
        best_io
    );
    assert_eq!(
        journal.len() as u64,
        frames,
        "one captured frame per append"
    );
    assert!(
        ratio <= 1.8,
        "checkpoint overhead ratio {ratio:.3} exceeds 1.8× the bare I/O of the same bytes"
    );
}

/// Paired session-layer measurement on the paper-scale session:
/// `run_session` over the in-memory wire versus the same lines fed
/// through the calls a session makes for each of them — `classify` →
/// `parse_line` → one hold of the tenant's lock → `Tenant::ingest_record`
/// — then `finalize` at `end`, with no framing or session bookkeeping
/// in between. Each side gets a fresh daemon state, built and dropped
/// outside the timing, and the session reads the request in place. The
/// ratio is the median of 10 paired rounds, the order swapped every
/// round so that neither side always finds the heap the other just
/// freed: a ratio of two minimums swung with the host's speed. Prints
/// the grep-able ratio line the CI daemon-suite step records, and fails
/// above 1.5, naming the stage: the session reads 1.17–1.27 on a 2-vCPU
/// VM, and a session that copies every line into a `String` of its own
/// and takes the tenant's lock twice per line reads 1.77–1.90.
fn check_session_overhead(_c: &mut Criterion) {
    let telemetry = paper_session();
    let request = session_request(&telemetry);
    let events = telemetry.lines().count();
    let session = |state: &DaemonState| {
        let wire = Wire {
            input: io::Cursor::new(&request[..]),
        };
        let t = Instant::now();
        black_box(run_session(wire, state).expect("in-memory session"));
        t.elapsed()
    };
    let bare_calls = |state: &DaemonState| {
        let t = Instant::now();
        let (tenant, _) = state.open_tenant("bench", Format::Jsonl);
        for (n, line) in telemetry.lines().enumerate() {
            if classify(line) == Line::Data {
                let record = parse_line(line, n + 2, Format::Jsonl).expect("recorded line");
                tenant.lock().expect("tenant lock").ingest_record(record);
            }
        }
        black_box(tenant.lock().expect("tenant lock").finalize().to_json());
        t.elapsed()
    };
    let fresh = || DaemonState::new(PipelineConfig::default());
    black_box(session(&fresh()));
    black_box(bare_calls(&fresh()));
    let (mut best_session, mut best_bare) = (Duration::MAX, Duration::MAX);
    let mut ratios = Vec::with_capacity(10);
    for round in 0..10 {
        let (for_session, for_bare) = (fresh(), fresh());
        let (in_session, bare) = if round % 2 == 0 {
            let in_session = session(&for_session);
            (in_session, bare_calls(&for_bare))
        } else {
            let bare = bare_calls(&for_bare);
            (session(&for_session), bare)
        };
        best_session = best_session.min(in_session);
        best_bare = best_bare.min(bare);
        ratios.push(in_session.as_secs_f64() / bare.as_secs_f64());
    }
    let ratio = median(ratios);
    println!(
        "daemon_session_overhead_ratio: {ratio:.3} ({events} events in memory, median of 10 \
         paired rounds; best run_session {:.2?} vs the bare per-line calls {:.2?})",
        best_session, best_bare
    );
    assert!(
        ratio <= 1.5,
        "session stage (framing, classify, tenant lock): run_session costs {ratio:.3}× the \
         bare per-line calls (gate 1.5)"
    );
}

/// Scrape-digest linearity: `TelemetryReport::from_records` over the
/// whole paper-scale session (what `/metrics` runs under a finished
/// tenant's lock) versus twice the digest of its first half. A digest
/// linear in the record count reads about 1 whatever the codec costs,
/// since neither side renders or parses. The ratio is the median of 10
/// paired rounds, the order swapped every round. Prints the grep-able
/// ratio line the CI daemon-suite step records, and fails above 1.17:
/// the digest reads 1.01–1.13 on a 2-vCPU VM over 30 runs, and one that
/// sorted-inserts each sample into its metric's summary (`Summary::push`)
/// reads 1.21–1.25.
fn check_scrape_digest_ratio(_c: &mut Criterion) {
    let records = paper_session_records();
    let half = &records[..records.len() / 2];
    let digest = |records: &[ParsedRecord]| {
        let t = Instant::now();
        black_box(TelemetryReport::from_records(records));
        t.elapsed()
    };
    black_box(digest(&records));
    black_box(digest(half));
    let (mut best_whole, mut best_half) = (Duration::MAX, Duration::MAX);
    let mut ratios = Vec::with_capacity(10);
    for round in 0..10 {
        let (whole, first_half) = if round % 2 == 0 {
            let whole = digest(&records);
            (whole, digest(half))
        } else {
            let first_half = digest(half);
            (digest(&records), first_half)
        };
        best_whole = best_whole.min(whole);
        best_half = best_half.min(first_half);
        ratios.push(whole.as_secs_f64() / (2.0 * first_half.as_secs_f64()));
    }
    let ratio = median(ratios);
    println!(
        "daemon_scrape_digest_ratio: {ratio:.3} ({} records, whole digest over twice the \
         first half's, median of 10 paired rounds; best {:.2?} vs {:.2?})",
        records.len(),
        best_whole,
        best_half
    );
    assert!(
        ratio <= 1.17,
        "scrape digest ratio {ratio:.3} exceeds 1.17: digesting the whole session costs more \
         than twice digesting its first half"
    );
}

/// Paired scrape catch-up measurement: a tenant's digest caught up by
/// one scrape interval — a report holding the first four fifths of the
/// paper-scale session extended by the last fifth, the clone it extends
/// taken outside the timing — versus `TelemetryReport::from_records`
/// over the whole session, what a scrape would spend if the digest were
/// rebuilt every time. Min-of-rounds each, interleaved so drift hits
/// both alike. Prints the grep-able ratio line the CI daemon-suite step
/// records, and fails above 0.5: a rebuilt digest reads about 1.
fn check_scrape_catch_up_ratio(_c: &mut Criterion) {
    let records = paper_session_records();
    let (held, interval) = records.split_at(records.len() * 4 / 5);
    let held = TelemetryReport::from_records(held);
    black_box(TelemetryReport::from_records(&records));
    let (mut best_catch_up, mut best_whole) = (Duration::MAX, Duration::MAX);
    for _ in 0..10 {
        let mut report = held.clone();
        let t = Instant::now();
        report.extend(interval);
        best_catch_up = best_catch_up.min(t.elapsed());
        black_box(report);
        let t = Instant::now();
        let whole = TelemetryReport::from_records(&records);
        best_whole = best_whole.min(t.elapsed());
        black_box(whole);
    }
    let ratio = best_catch_up.as_secs_f64() / best_whole.as_secs_f64();
    println!(
        "daemon_scrape_catch_up_ratio: {ratio:.3} ({} of {} records, catch-up {:.2?} vs whole \
         digest {:.2?}, min of 10 rounds)",
        interval.len(),
        records.len(),
        best_catch_up,
        best_whole
    );
    assert!(
        ratio <= 0.5,
        "scrape catch-up ratio {ratio:.3} exceeds 0.5 of digesting the whole session"
    );
}

criterion_group!(
    benches,
    bench_daemon,
    check_ingest_throughput,
    check_selfobs_overhead,
    check_checkpoint_overhead,
    check_session_overhead,
    check_scrape_digest_ratio,
    check_scrape_catch_up_ratio
);
criterion_main!(benches);
