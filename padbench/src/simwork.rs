//! The simulator workloads, driven through `pad::sim` and `pad::sweep`
//! in this process.
//!
//! * `sim-sweep` — the paper's survival sweep: all six schemes attacked
//!   on one shared trace, fanned over two workers, instruments off.
//! * `sim-forensics` — the forensic user path: each scheme recorded with
//!   telemetry, live detection and span tracing on, serialized to JSONL,
//!   then replayed offline the way `padsim detect --replay --json`,
//!   `padsim inspect --alerts default` and `padsim incident --json` do.
//!
//! Both repeat a fixed round of work until the run's time is up. An
//! untraced round is preceded by a host-speed probe and its timings are
//! scaled by it (see `speed`); a run reports medians over its rounds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pad::detect::DetectConfig;
use pad::metrics::SurvivalReport;
use pad::pipeline::{
    default_alert_rules, monitor_records, reconstruct_json, replay_records, try_infer_racks,
    PipelineConfig,
};
use pad::prof::{SimProfile, StepPhase, STEP_TOTAL};
use pad::sweep::{ConfigSweep, SurvivalCase};
use simkit::telemetry::{parse_lossy, Format};
use simkit::trace::parse_spans;
use workload::trace::ClusterTrace;

use crate::inputs::{build_sim, cluster_trace, rack_hours, stream, sweep_cases, RACKS, TICK};
use crate::spans::{SpanId, Spans};
use crate::spec::{end_to_end, Layers};
use crate::speed::probe;
use crate::stats::{peak_rss_mb, Samples};
use crate::{Outcome, RunArgs};

/// Sweep workers. Fixed rather than read from the machine, so a run
/// means the same on any box; the reference box has two cores.
const JOBS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ticks per sim-sweep scenario (33 simulated minutes): about 0.1 s of
/// host time each, so a 30 s run sweeps each scheme dozens of times.
const SWEEP_TICKS: u64 = 20_000;
/// Ticks per sim-forensics scenario (40 simulated seconds, attack at
/// 10 s): enough for the detectors to fire and the policy to escalate,
/// short enough that a 30 s run replays each scheme dozens of times.
const FORENSICS_TICKS: u64 = 400;
/// Ticks per scenario at `--smoke` scale.
const SMOKE_TICKS: u64 = 200;
/// Record ring sized so a forensics scenario never evicts (a 22-rack
/// cluster emits about 178 records per tick).
const RECORDS_PER_TICK_CAP: usize = 256;
const SPAN_CAP: usize = 100_000;

/// Repeats `round` until `budget` has passed, at least once.
fn repeat(budget: Duration, mut round: impl FnMut(u64)) {
    let end = Instant::now() + budget;
    let mut n = 0;
    loop {
        round(n);
        n += 1;
        if Instant::now() >= end {
            return;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The host's speed before an untraced unit of work; a traced run
/// reports raw layer times and skips the probe.
fn speed(args: &RunArgs, threads: usize) -> f64 {
    if args.trace {
        1.0
    } else {
        probe(threads)
    }
}

/// Builds what a user builds before the first simulated step: the
/// shared trace, the cases, and one simulator per case (with the
/// forensic instruments on when `instrument`). Each set-up is a `setup`
/// span; `setup_s` is their median.
fn set_up(
    args: &RunArgs,
    ticks: u64,
    noise_seed: u64,
    instrument: bool,
    spans: &mut Spans,
    root: SpanId,
    out: &mut Outcome,
) -> (Arc<ClusterTrace>, Vec<SurvivalCase>) {
    let mut built = None;
    for _ in 0..if args.smoke { 2 } else { SETUPS } {
        let setup = spans.begin("setup", Some(root), 0);
        let trace = spans.time("workload.synth", Some(setup), 0, || {
            Arc::new(cluster_trace(args.seed, ticks))
        });
        let cases = sweep_cases(ticks);
        for (i, case) in cases.iter().enumerate() {
            let sim = spans.time("pad.sim.new", Some(setup), i as u64, || {
                build_sim(&trace, case, noise_seed, i).map(|mut sim| {
                    if instrument {
                        enable_instruments(&mut sim, ticks);
                    }
                    sim
                })
            });
            out.check(sim.is_ok(), || {
                format!("scenario {i} set-up: {:?}", sim.err())
            });
        }
        spans.end(setup);
        built = Some((trace, cases));
    }
    built.expect("at least one set-up ran")
}

fn enable_instruments(sim: &mut pad::sim::ClusterSim, ticks: u64) {
    sim.enable_telemetry(ticks as usize * RECORDS_PER_TICK_CAP);
    sim.enable_detection(DetectConfig::default());
    sim.enable_tracing(SPAN_CAP);
}

/// The step-phase breakdown a merged profile measured, per step.
fn step_layers(layers: &mut Layers, profile: &SimProfile) {
    let steps = profile.steps.max(1) as f64;
    let per_step_us = |name: &str| {
        profile
            .phases
            .get(name)
            .map_or(0.0, |p| p.total.as_secs_f64() * 1e6 / steps)
    };
    let n = profile.steps as usize;
    layers.set("step.total_us", per_step_us(STEP_TOTAL), n);
    for phase in StepPhase::ALL {
        let name = match phase {
            StepPhase::Faults => "step.faults_us",
            StepPhase::Attack => "step.attack_us",
            StepPhase::Capping => "step.capping_us",
            StepPhase::Demand => "step.demand_us",
            StepPhase::Vdeb => "step.vdeb_us",
            StepPhase::Battery => "step.battery_us",
            StepPhase::Breaker => "step.breaker_us",
            StepPhase::Policy => "step.policy_us",
            StepPhase::Telemetry => "step.telemetry_us",
            StepPhase::Clock => "step.clock_us",
        };
        layers.set(name, per_step_us(phase.name()), n);
    }
}

/// Common tail of a traced run: coverage and overhead, then the span
/// files, then the metrics.
fn finish_traced(
    args: &RunArgs,
    spans: &Spans,
    mut layers: Layers,
    traced_round: &Samples,
    baseline_round: &Samples,
    out: &mut Outcome,
) {
    layers.set(
        "trace.overhead_ratio",
        traced_round.median() / baseline_round.median(),
        traced_round.len().min(baseline_round.len()),
    );
    layers.set("trace.coverage_ratio", spans.coverage(), 1);
    layers.set(
        "trace.spans",
        spans.layers().values().map(|l| l.count).sum::<u64>() as f64,
        1,
    );
    out.metrics = layers.into_metrics();
    if let Err(e) = spans.write(&args.out, args.workload.name(), &out.metrics) {
        out.lost(
            1,
            &format!("writing the span files to {}: {e}", args.out.display()),
        );
    }
}

/// `sim-sweep`: six attacked schemes per round through
/// `ConfigSweep::run_profiled` on two workers.
pub fn sim_sweep(args: &RunArgs) -> Outcome {
    let ticks = if args.smoke { SMOKE_TICKS } else { SWEEP_TICKS };
    let noise_seed = stream(args.seed, "sweep").next_u64();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut out = Outcome::default();

    // A traced run first repeats the untraced rounds for half its time:
    // the baseline `trace.overhead_ratio` divides by.
    let mut baseline = Samples::default();
    if args.trace {
        let sweep =
            ConfigSweep::new(Arc::new(cluster_trace(args.seed, ticks)), noise_seed).with_jobs(JOBS);
        let cases = sweep_cases(ticks);
        repeat(budget / 2, |_| {
            let t0 = Instant::now();
            let result = sweep.run(cases.clone());
            baseline.push(t0.elapsed().as_secs_f64());
            out.check(result.is_ok(), || {
                format!("baseline sweep: {:?}", result.err())
            });
        });
    }

    let mut spans = Spans::new(Instant::now());
    let root = spans.begin("padbench.run", None, 0);
    let (trace, mut cases) = set_up(args, ticks, noise_seed, false, &mut spans, root, &mut out);
    if args.trace {
        cases = cases
            .into_iter()
            .map(SurvivalCase::record_profile)
            .collect();
    }
    let sweep = ConfigSweep::new(Arc::clone(&trace), noise_seed).with_jobs(JOBS);

    let mut rates = Samples::default();
    let mut round_wall = Samples::default();
    let mut scenario_ms = vec![Samples::default(); cases.len()];
    let mut utilization = Samples::default();
    let mut queue_wait = Samples::default();
    let mut profile = SimProfile::default();
    let mut reference: Option<Vec<(SurvivalReport, Vec<f64>)>> = None;
    let (mut steps_per_round, mut overloads_per_round) = (0u64, 0usize);
    let round_budget = if args.trace { budget / 2 } else { budget };
    repeat(round_budget, |round| {
        let speed = speed(args, JOBS);
        let span = spans.begin("pad.sweep", Some(root), round);
        let t0 = Instant::now();
        let result = sweep.run_profiled(cases.clone());
        let wall = t0.elapsed();
        spans.end(span);
        let (outcomes, sweep_profile) = match result {
            Ok(done) => done,
            Err(e) => return out.lost(cases.len() as u64, &format!("sweep round {round}: {e}")),
        };
        let steps: u64 = outcomes.iter().map(|o| o.cost.steps).sum();
        rates.push(rack_hours(steps) / (wall.as_secs_f64() * speed));
        round_wall.push(wall.as_secs_f64());
        utilization.push(sweep_profile.utilization());
        queue_wait.push(
            outcomes
                .iter()
                .map(|o| o.cost.queue_wait.as_secs_f64())
                .sum(),
        );
        steps_per_round = steps;
        overloads_per_round = outcomes.iter().map(|o| o.report.overloads.len()).sum();
        for (o, times) in outcomes.iter().zip(&mut scenario_ms) {
            times.push(ms(o.cost.wall_clock) * speed);
            if let Some(p) = &o.profile {
                profile.merge(p);
            }
        }
        let got: Vec<_> = outcomes
            .into_iter()
            .map(|o| (o.report, o.final_socs))
            .collect();
        match &reference {
            None => {
                for (i, (report, _)) in got.iter().enumerate() {
                    out.check(report.ended_at > simkit::time::SimTime::ZERO, || {
                        format!("scenario {i} simulated nothing")
                    });
                }
                reference = Some(got);
            }
            Some(first) => {
                for (i, (a, b)) in first.iter().zip(&got).enumerate() {
                    out.check(a == b, || {
                        format!("round {round} scenario {i} differs from round 0")
                    });
                }
            }
        }
    });
    spans.end(root);

    // A serial re-run (one worker) must reproduce the parallel sweep's
    // reports and final battery states exactly.
    let serial = ConfigSweep::new(trace, noise_seed).run(cases);
    match (&serial, &reference) {
        (Ok(serial), Some(first)) => {
            for (i, (o, (report, socs))) in serial.iter().zip(first).enumerate() {
                out.check(&o.report == report && &o.final_socs == socs, || {
                    format!("serial re-run of scenario {i} differs from the parallel sweep")
                });
            }
        }
        _ => out.lost(1, &format!("serial re-run: {:?}", serial.err())),
    }

    if args.trace {
        let mut layers = Layers::default();
        let synth = spans.samples_ms("workload.synth");
        layers.set("trace.synth_ms", synth.median(), synth.len());
        let new = spans.samples_ms("pad.sim.new");
        layers.set("sim.new_ms", new.median(), new.len());
        layers.set("sweep.utilization", utilization.median(), utilization.len());
        layers.set("sweep.queue_wait_s", queue_wait.median(), queue_wait.len());
        step_layers(&mut layers, &profile);
        layers.set("sim.steps", steps_per_round as f64, 1);
        layers.set(
            "sim.rack_seconds",
            (steps_per_round as usize * RACKS) as f64 * TICK.as_secs_f64(),
            1,
        );
        layers.set("sim.overloads", overloads_per_round as f64, 1);
        finish_traced(args, &spans, layers, &round_wall, &baseline, &mut out);
    } else {
        out.metrics = sim_metrics(&spans, &rates, &scenario_ms);
    }
    out
}

/// The end-to-end metrics of a simulator workload: the median set-up,
/// as measured, and, scaled by the host's speed, the median round's
/// throughput and the median and 90th percentile across the six schemes
/// of each scheme's median scenario time.
fn sim_metrics(
    spans: &Spans,
    rates: &Samples,
    scenario_ms: &[Samples],
) -> Vec<crate::stats::Metric> {
    let setup = spans.samples_ms("setup");
    let per_scheme: Samples = scenario_ms.iter().map(Samples::median).collect();
    let runs = scenario_ms.iter().map(Samples::len).sum();
    println!(
        "peak_rss_mb {:.3} MB (VmHWM, diagnostic)",
        peak_rss_mb(None).unwrap_or(f64::NAN)
    );
    vec![
        end_to_end("setup_s", setup.median() / 1e3, setup.len()),
        end_to_end("rack_hours_per_s", rates.median(), rates.len()),
        end_to_end("latency_p50_ms", per_scheme.quantile(0.5), runs),
        end_to_end("latency_p90_ms", per_scheme.quantile(0.9), runs),
    ]
}

/// What one forensic scenario produced: the three offline documents an
/// operator reads, plus the checks' inputs.
#[derive(Debug, PartialEq)]
struct Forensics {
    summary: String,
    alerts: String,
    incidents: String,
    records: usize,
    samples_fed: u64,
    steps: u64,
    overloads: usize,
}

/// Records scenario `index` with every forensic instrument on, then
/// answers the three offline questions from the serialized trace. The
/// offline half (parse to incident report) is one `forensics.query`
/// span: the latency an operator waits for.
#[allow(clippy::too_many_arguments)]
fn forensic_scenario(
    trace: &Arc<ClusterTrace>,
    case: &SurvivalCase,
    noise_seed: u64,
    index: usize,
    ticks: u64,
    profile: Option<&mut SimProfile>,
    spans: &mut Spans,
    parent: SpanId,
    request: u64,
    out: &mut Outcome,
) -> Option<Forensics> {
    let run = spans.begin("pad.sim.run", Some(parent), request);
    let mut sim = match build_sim(trace, case, noise_seed, index) {
        Ok(sim) => sim,
        Err(e) => {
            out.lost(1, &format!("scenario {index}: {e}"));
            return None;
        }
    };
    enable_instruments(&mut sim, ticks);
    if profile.is_some() {
        sim.enable_profiling();
    }
    let report = sim.run(case.horizon, case.dt, false);
    let live_firings = sim
        .take_detection()
        .map(|d| d.bank().render_firings())
        .unwrap_or_default();
    if let (Some(acc), Some(p)) = (profile, sim.take_profile()) {
        acc.merge(&p);
    }
    spans.end(run);
    let (text, span_text) = spans.time("codec.render", Some(parent), request, || {
        (
            sim.take_telemetry()
                .map(|t| t.serialize(Format::Jsonl))
                .unwrap_or_default(),
            sim.take_trace()
                .map(|t| t.serialize(Format::Jsonl))
                .unwrap_or_default(),
        )
    });

    let query = spans.begin("forensics.query", Some(parent), request);
    let parsed = spans.time("codec.parse", Some(query), request, || {
        parse_lossy(&text, Format::Jsonl)
    });
    let racks = try_infer_racks(&parsed.records).unwrap_or(1);
    let config = PipelineConfig::default();
    let summary = spans.time("pipeline.replay", Some(query), request, || {
        replay_records(racks, config, &parsed.records)
    });
    let (monitored, monitor) = spans.time("monitor.replay", Some(query), request, || {
        monitor_records(racks, config, default_alert_rules(), &parsed.records)
    });
    let span_list = spans.time("trace.parse_spans", Some(query), request, || {
        parse_spans(&span_text, Format::Jsonl)
    });
    let incidents = spans.time("incident.reconstruct", Some(query), request, || {
        span_list
            .as_ref()
            .map(|s| reconstruct_json(s, &parsed.records))
    });
    spans.end(query);

    out.check(parsed.errors.is_empty(), || {
        format!(
            "scenario {index}: {} unparseable telemetry lines",
            parsed.errors.len()
        )
    });
    out.check(live_firings == summary.firings, || {
        format!("scenario {index}: replayed detector firings differ from the live run")
    });
    out.check(monitored == summary, || {
        format!("scenario {index}: the monitored replay's summary differs from the plain replay")
    });
    let incidents = match incidents {
        Ok(doc) => doc,
        Err(e) => {
            out.lost(1, &format!("scenario {index}: span trace: {e}"));
            return None;
        }
    };
    Some(Forensics {
        summary: summary.to_json(),
        alerts: monitor.alerts_json(),
        incidents,
        records: parsed.records.len(),
        samples_fed: summary.samples_fed,
        steps: report
            .ended_at
            .saturating_since(simkit::time::SimTime::ZERO)
            / case.dt,
        overloads: report.overloads.len(),
    })
}

/// `sim-forensics`: per round, every scheme recorded and replayed.
pub fn sim_forensics(args: &RunArgs) -> Outcome {
    let ticks = if args.smoke {
        SMOKE_TICKS
    } else {
        FORENSICS_TICKS
    };
    let noise_seed = stream(args.seed, "forensics").next_u64();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut out = Outcome::default();
    let mut spans = Spans::new(Instant::now());

    let mut baseline = Samples::default();
    if args.trace {
        let trace = Arc::new(cluster_trace(args.seed, ticks));
        let cases = sweep_cases(ticks);
        let mut scratch = Spans::new(Instant::now());
        let root = scratch.begin("baseline", None, 0);
        repeat(budget / 2, |round| {
            let t0 = Instant::now();
            for (i, case) in cases.iter().enumerate() {
                let request = round * cases.len() as u64 + i as u64;
                forensic_scenario(
                    &trace,
                    case,
                    noise_seed,
                    i,
                    ticks,
                    None,
                    &mut scratch,
                    root,
                    request,
                    &mut out,
                );
            }
            baseline.push(t0.elapsed().as_secs_f64());
        });
    }

    let root = spans.begin("padbench.run", None, 0);
    let (trace, cases) = set_up(args, ticks, noise_seed, true, &mut spans, root, &mut out);
    let mut rates = Samples::default();
    let mut round_wall = Samples::default();
    let mut round_speed = Vec::new();
    let mut profile = SimProfile::default();
    let mut reference: Vec<Forensics> = Vec::new();
    let mut round_records = 0usize;
    let round_budget = if args.trace { budget / 2 } else { budget };
    repeat(round_budget, |round| {
        let speed = speed(args, 1);
        round_speed.push(speed);
        let t0 = Instant::now();
        let mut results = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            let request = round * cases.len() as u64 + i as u64;
            let scenario = spans.begin("scenario", Some(root), request);
            let acc = args.trace.then_some(&mut profile);
            results.push(forensic_scenario(
                &trace, case, noise_seed, i, ticks, acc, &mut spans, scenario, request, &mut out,
            ));
            spans.end(scenario);
        }
        let wall = t0.elapsed().as_secs_f64();
        rates.push(rack_hours(ticks * cases.len() as u64) / (wall * speed));
        round_wall.push(wall);
        let results: Vec<Forensics> = results.into_iter().flatten().collect();
        round_records = results.iter().map(|f| f.records).sum();
        if reference.is_empty() {
            reference = results;
        } else {
            out.check(results == reference, || {
                format!("round {round}: forensic documents differ from round 0")
            });
        }
    });
    spans.end(root);

    if args.trace {
        let mut layers = Layers::default();
        let synth = spans.samples_ms("workload.synth");
        layers.set("trace.synth_ms", synth.median(), synth.len());
        let new = spans.samples_ms("pad.sim.new");
        layers.set("sim.new_ms", new.median(), new.len());
        step_layers(&mut layers, &profile);
        let span_layers = spans.layers();
        let total_ns = |name: &str| span_layers.get(name).map_or(0, |l| l.total_ns) as f64;
        let records = (round_records * round_wall.len()) as f64;
        let per_record = |ns: f64| ns / records.max(1.0);
        layers.set(
            "codec.render_ns_per_record",
            per_record(total_ns("codec.render")),
            records as usize,
        );
        layers.set(
            "codec.parse_ns_per_record",
            per_record(total_ns("codec.parse")),
            records as usize,
        );
        let pipeline_ns = total_ns("pipeline.replay");
        layers.set(
            "pipeline.ingest_ns_per_record",
            per_record(pipeline_ns),
            records as usize,
        );
        // monitor_records runs the pipeline and the monitor; what it
        // costs beyond the plain replay is the monitor's share.
        layers.set(
            "monitor.observe_ns_per_record",
            per_record(total_ns("monitor.replay") - pipeline_ns),
            records as usize,
        );
        let reconstruct = spans.samples_ms("incident.reconstruct");
        layers.set(
            "incident.reconstruct_ms",
            reconstruct.median(),
            reconstruct.len(),
        );
        let fed: u64 = reference.iter().map(|f| f.samples_fed).sum();
        layers.set(
            "pipeline.samples_fed_ratio",
            fed as f64 / round_records.max(1) as f64,
            round_records,
        );
        let steps: u64 = reference.iter().map(|f| f.steps).sum();
        layers.set("sim.steps", steps as f64, 1);
        layers.set(
            "sim.rack_seconds",
            (steps as usize * RACKS) as f64 * TICK.as_secs_f64(),
            1,
        );
        layers.set(
            "sim.overloads",
            reference.iter().map(|f| f.overloads).sum::<usize>() as f64,
            1,
        );
        finish_traced(args, &spans, layers, &round_wall, &baseline, &mut out);
    } else {
        // Round r ran query spans r*len .. (r+1)*len, one per scenario.
        let mut query_ms = vec![Samples::default(); cases.len()];
        for (k, ns) in spans.durations_ns("forensics.query").enumerate() {
            let speed = round_speed[k / cases.len()];
            query_ms[k % cases.len()].push(ns as f64 / 1e6 * speed);
        }
        out.metrics = sim_metrics(&spans, &rates, &query_ms);
    }
    out
}
