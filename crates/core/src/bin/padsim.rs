//! `padsim` — simulate a power-virus attack on a battery-backed cluster.
//!
//! A self-contained command-line front end over the `pad` library: build
//! a cluster, pick a defense scheme and an attack, and read the survival
//! report.
//!
//! ```text
//! padsim --scheme pad --style dense --class cpu --nodes 4 --duration-mins 60
//! padsim --scheme all --jobs 4 --telemetry out/ --telemetry-format jsonl
//! padsim inspect out/pad.jsonl
//! padsim detect --replay out/pad.jsonl
//! padsim --telemetry out/ --trace out/ && padsim incident out/
//! padsim fault --plan ci-smoke --out faulted/
//! padsim reproduce all --jobs 2 --out results/
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use attack::scenario::{AttackScenario, AttackStyle};
use attack::virus::VirusClass;
use pad::cli::Flags;
use pad::detect::{
    confusion, spike_detection_rate, spike_latencies, threshold_roc, DetectConfig, SimDetectors,
    TickVerdict,
};
use pad::experiments::detect_rates::{GRACE, LEAD_IN};
use pad::experiments::{testbed_config, testbed_trace, Fidelity, EXPERIMENTS};
use pad::fault::{named_plan, DegradedConfig, NAMED_PLANS};
use pad::mc::{
    counterexample_plan, invariant, mc_schema, render_mc_report_json, render_violation, BrokenMode,
    ModelConfig, VdebModel, INVARIANTS,
};
use pad::pipeline::PipelineConfig;
use pad::prof::{extract_json_number, gate_check, perf_schema, PerfReport, SimProfile};
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, EmergencyAction, SimConfig};
use pad::sweep::{AttackSpec, ConfigSweep, SurvivalCase, Victim};
use powerinfra::server::ServerSpec;
use powerinfra::topology::{ClusterTopology, RackId};
use simkit::fault::{FaultPlan, FaultTarget};
use simkit::heatmap::Heatmap;
use simkit::mc::{Bounds, Checker, McReport, Strategy, Violation};
use simkit::table::Table;
use simkit::telemetry::codec::{parse, Format, ParsedRecord};
use simkit::telemetry::inspect::TelemetryReport;
use simkit::telemetry::TelemetryDump;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{parse_spans, render_report_json, render_timeline, TraceDump};
use workload::synth::SynthConfig;
use workload::trace::ClusterTrace;

/// Ring capacity backing `--telemetry`: enough for ~45 minutes of a
/// 22-rack cluster at 100 ms steps before the ring starts evicting.
const DEFAULT_TELEMETRY_CAPACITY: usize = 1_000_000;

/// Ring capacity backing `--trace`: spans are episodic (one per attack
/// phase, discharge episode, cap engagement…), orders of magnitude fewer
/// than per-tick records.
const DEFAULT_TRACE_CAPACITY: usize = 100_000;

const USAGE: &str = "\
padsim — simulate power-virus attacks on a battery-backed data center

USAGE:
    padsim [OPTIONS]
    padsim inspect <trace-file> [--names] [--prom] [--alerts <rules.json|default>]
                   [--alert-schema] [--format jsonl|csv]
    padsim incident <trace-dir|spans-file> [--names] [--json] [--format jsonl|csv]
    padsim detect [--replay <trace-file>] [DETECT OPTIONS]
    padsim fault [--plan <name|file.json>] [FAULT OPTIONS]
    padsim mc [MC OPTIONS]
    padsim perf [PERF OPTIONS]
    padsim reproduce <name|all> [--smoke] [--jobs <N>] [--out <dir>]

SUBCOMMANDS:
    inspect <file>                          summarize a recorded telemetry trace
                                            (per-metric stats, event counts, and
                                            per-subscription detector-firing
                                            counts when the trace carries
                                            detector_fired events);
                                            --names lists the metric names only;
                                            --prom renders Prometheus text
                                            exposition instead of tables;
                                            --alerts replays the trace through
                                            the stream monitor and prints the
                                            alert document (the same bytes
                                            padsimd serves per tenant) — pass a
                                            rules JSON file or `default` for the
                                            built-in rules; --alert-schema
                                            prints the pinned metric/rule schema
                                            and exits
    incident <dir|file>                     reconstruct incidents from recorded
                                            span traces (*.spans.jsonl/.csv),
                                            joining the sibling telemetry file
                                            when present: ASCII sim-time
                                            timeline + per-incident forensics
                                            (root cause, blast radius,
                                            time-to-detect/escalate, shed
                                            energy); --json emits the report as
                                            JSON (one report per trace file);
                                            --names prints the span wire schema
    detect                                  run the streaming detector bank:
                                            with --replay <file> it replays a
                                            recorded trace (rack count inferred
                                            from rack-NN.draw_w names, or pass
                                            --racks); without it, a live labeled
                                            attack on the Sec. V testbed with a
                                            confusion matrix, per-spike latency,
                                            a live-vs-replay determinism check,
                                            and (with --roc) a threshold sweep.
                                            With --replay, --json emits the
                                            replay summary (ticks, firings,
                                            policy escalations) as JSON — the
                                            same document padsimd serves.
                                            Options: --replay <file> --json
                                            --format <jsonl|csv> --racks <N>
                                            --style <dense|sparse>
                                            --class <cpu|mem|io> --nodes <N>
                                            --duration-mins <N> --seed <N>
                                            --jobs <N> --roc
    fault                                   run an attack under an injected
                                            fault plan with the graceful-
                                            degradation control plane armed,
                                            and report what the injector did
                                            (fault_report.json with --out).
                                            --plan names a built-in plan
                                            (ci-smoke, sensor-storm, partition,
                                            brownout) or a JSON plan file;
                                            --list prints the built-in names;
                                            --print-plan dumps the resolved
                                            plan as JSON (a scaffold for custom
                                            plans); --no-fallback disarms the
                                            staleness watchdog (frozen-plan
                                            mode). Options: --plan <name|file>
                                            --scheme <...> --style <...>
                                            --class <...> --nodes <N>
                                            --victims <N> --seed <N>
                                            --attack-at-mins <N> [default: 10]
                                            --duration-mins <N> [default: 20]
                                            --out <dir> --format <jsonl|csv>
    mc                                      bounded exhaustive model checking of
                                            the vDEB coordination protocol: every
                                            interleaving of deliver / drop /
                                            defer / duplicate over a short grant
                                            horizon, checked against the four
                                            control-plane invariants. A violation
                                            prints the counterexample trace, maps
                                            it onto a deterministic fault plan,
                                            and replays it through the real
                                            simulator into an incident timeline.
                                            --broken checks a deliberately
                                            defective model (lease-expiry,
                                            duplicate-grant); --ci-smoke runs
                                            the CI gate (healthy model must hold
                                            exhaustively with >10k states AND the
                                            broken model must yield a replayable
                                            counterexample); --schema prints the
                                            mc_report.json field schema.
                                            Options: --racks <N> [default: 3]
                                            --rounds <N> [default: 4]
                                            --strategy <dfs|bfs> [default: dfs]
                                            --invariant <name|all>  (repeatable)
                                            --broken <lease-expiry|duplicate-grant>
                                            --max-states <N> --dup-budget <N>
                                            --no-replay --seed <N> --out <dir>
    perf                                    measure the simulator's own
                                            performance: profile the hot-loop
                                            stages of every scheme attacked on
                                            one shared trace, account simulated
                                            rack-seconds per wall-second, and
                                            emit a schema-pinned
                                            perf_report.json (--out). --table
                                            prints the phase breakdown and the
                                            sweep's worker economics;
                                            --baseline <old.json> --gate <pct>
                                            compares the measured throughput
                                            against a checked-in baseline and
                                            exits nonzero on a regression
                                            beyond the gate (the CI step);
                                            --schema prints the report field
                                            schema. Options: --jobs <N>
                                            --racks <N> --servers <N>
                                            --ticks <N> [default: 3000]
                                            --seed <N> --out <file.json>
                                            --table --baseline <file.json>
                                            --gate <pct> [default: 25]
    reproduce <name|all>                    regenerate one table or figure of the
                                            paper's evaluation (or every one, in
                                            order), banner and body to stdout;
                                            an unknown name lists the valid
                                            ones. --smoke runs the reduced
                                            scale; --jobs fans each sweep across
                                            workers (output identical for any
                                            N); --out writes <dir>/<name>.txt
                                            per experiment instead, as in
                                            results/. Exits 1 when a premise
                                            validate_platform asserts fails.

OPTIONS:
    --scheme <conv|ps|pspc|udeb|vdeb|pad|all>  defense scheme   [default: pad]
                                            'all' compares every scheme in one
                                            sweep over a shared trace
    --jobs <N>                              sweep worker threads [default: 1]
                                            results are identical for any N
    --style <dense|sparse>                  spike style         [default: dense]
    --class <cpu|mem|io>                    virus class         [default: cpu]
    --nodes <N>                             compromised servers [default: 4]
    --victims <N>                           racks attacked simultaneously [default: 1]
    --racks <N>                             racks               [default: 22]
    --servers <N>                           servers per rack    [default: 10]
    --mean-util <F>                         mean utilization    [default: 0.31]
    --budget <F>                            budget fraction     [default: 0.75]
    --action <shed|migrate>                 PAD Level-3 action  [default: shed]
    --duration-mins <N>                     attack window       [default: 60]
    --attack-at-mins <N>                    warmup before attack [default: 30]
    --seed <N>                              trace/noise seed    [default: 42]
    --escalate                              attacker acquires more nodes over time
    --soc-map                               print the battery map at the end
    --log                                   print the forensic event log
    --telemetry <dir>                       record per-tick telemetry and write
                                            one trace file per scheme into <dir>
    --telemetry-format <jsonl|csv>          trace file format    [default: jsonl]
    --trace <dir>                           record causal spans and write one
                                            <scheme>.spans file per scheme into
                                            <dir> (same format flag)
    -h, --help                              show this help
";

#[derive(Debug)]
struct Args {
    scheme: Scheme,
    all_schemes: bool,
    jobs: usize,
    style: AttackStyle,
    class: VirusClass,
    nodes: usize,
    victims: usize,
    racks: usize,
    servers: usize,
    mean_util: f64,
    budget: f64,
    action: EmergencyAction,
    duration_mins: u64,
    attack_at_mins: u64,
    seed: u64,
    escalate: bool,
    soc_map: bool,
    log: bool,
    telemetry: Option<PathBuf>,
    telemetry_format: Format,
    trace: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scheme: Scheme::Pad,
            all_schemes: false,
            jobs: 1,
            style: AttackStyle::Dense,
            class: VirusClass::CpuIntensive,
            nodes: 4,
            victims: 1,
            racks: 22,
            servers: 10,
            mean_util: 0.31,
            budget: 0.75,
            action: EmergencyAction::Shed,
            duration_mins: 60,
            attack_at_mins: 30,
            seed: 42,
            escalate: false,
            soc_map: false,
            log: false,
            telemetry: None,
            telemetry_format: Format::Jsonl,
            trace: None,
        }
    }
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_args(mut flags: Flags) -> Args {
    let mut args = Args::default();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--scheme" => {
                let name = flags.value();
                if name.to_lowercase() == "all" {
                    args.all_schemes = true;
                    args.scheme = Scheme::Pad;
                } else {
                    args.scheme = parse_scheme(&name);
                }
            }
            "--jobs" => args.jobs = flags.parse::<usize>("an integer").max(1),
            "--style" => args.style = parse_style(&flags.value()),
            "--class" => args.class = parse_class(&flags.value()),
            "--nodes" => args.nodes = flags.parse("an integer"),
            "--victims" => args.victims = flags.parse("an integer"),
            "--racks" => args.racks = flags.parse("an integer"),
            "--servers" => args.servers = flags.parse("an integer"),
            "--mean-util" => args.mean_util = flags.parse("a number"),
            "--budget" => args.budget = flags.parse("a number"),
            "--action" => {
                args.action = match flags.value().to_lowercase().as_str() {
                    "shed" => EmergencyAction::Shed,
                    "migrate" => EmergencyAction::Migrate,
                    other => fail(&format!("unknown action {other:?}")),
                }
            }
            "--duration-mins" => args.duration_mins = flags.parse("an integer"),
            "--attack-at-mins" => args.attack_at_mins = flags.parse("an integer"),
            "--seed" => args.seed = flags.parse("an integer"),
            "--escalate" => args.escalate = true,
            "--soc-map" => args.soc_map = true,
            "--log" => args.log = true,
            "--telemetry" => args.telemetry = Some(PathBuf::from(flags.value())),
            "--trace" => args.trace = Some(PathBuf::from(flags.value())),
            "--telemetry-format" => {
                let name = flags.value();
                args.telemetry_format = Format::from_name(&name)
                    .unwrap_or_else(|| fail(&format!("unknown telemetry format {name:?}")));
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    args
}

/// `padsim inspect <file>`: parse a recorded trace and print either the
/// per-metric summary table (plus per-subscription detector-firing
/// counts when the trace carries `detector_fired` events), the
/// Prometheus text exposition (`--prom`), or (with `--names`) the bare
/// metric-name list — the latter is what CI diffs against the
/// checked-in schema.
fn run_inspect(mut flags: Flags) -> ! {
    let mut path: Option<PathBuf> = None;
    let mut names_only = false;
    let mut prom = false;
    let mut alerts: Option<String> = None;
    let mut format: Option<Format> = None;
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--names" => names_only = true,
            "--prom" => prom = true,
            "--alert-schema" => {
                print!("{}", pad::pipeline::alert_schema());
                std::process::exit(0);
            }
            "--alerts" => {
                alerts = Some(flags.require("--alerts requires a rules file (or `default`)"))
            }
            "--format" => format = Some(parse_format(&flags.value())),
            other if !other.starts_with('-') && path.is_none() => path = Some(PathBuf::from(other)),
            other => fail(&format!("unknown inspect argument {other:?}")),
        }
    }
    let path = path.unwrap_or_else(|| fail("inspect requires a trace file path"));
    let records = read_records(&path, format);
    if let Some(rules) = alerts {
        let rules = if rules == "default" {
            pad::pipeline::default_alert_rules()
        } else {
            simkit::alert::parse_rules(&read_file(Path::new(&rules)))
                .unwrap_or_else(|e| fail(&format!("bad alert rules in {rules}: {e}")))
        };
        let racks = pad::pipeline::try_infer_racks(&records).unwrap_or(1);
        let (_, monitor) =
            pad::pipeline::monitor_records(racks, PipelineConfig::default(), rules, &records);
        print!("{}", monitor.alerts_json());
        std::process::exit(0);
    }
    let report = TelemetryReport::from_records(&records);
    if names_only {
        for name in report.metric_names() {
            println!("{name}");
        }
    } else if prom {
        print!("{}", report.render_prometheus());
    } else {
        print!("{}", report.render());
        print_detection_counts(&records);
        print_fault_windows(&records);
    }
    std::process::exit(0);
}

/// When the trace carries `fault_injected` / `fault_cleared` events (a
/// faulted run recorded by `padsim fault`), prints each fault window:
/// spec index, target, and the open/close times — the quick answer to
/// "what was broken, where, and when" before reaching for `incident`.
fn print_fault_windows(records: &[ParsedRecord]) {
    let edges: Vec<&ParsedRecord> = records
        .iter()
        .filter(|r| r.is_event && (r.name == "fault_injected" || r.name == "fault_cleared"))
        .collect();
    if edges.is_empty() {
        return;
    }
    let mut table = Table::new(vec!["spec", "target", "injected", "cleared"]);
    table.title("fault windows (spec index within the injected plan)");
    // Pair each open with the next close of the same (spec, target). A
    // window still open at the end of the trace shows a dash; so does
    // the open time of a close whose open was evicted by the ring.
    let mut rows: Vec<(f64, String, Option<u64>, Option<u64>)> = Vec::new();
    for edge in &edges {
        if edge.name == "fault_injected" {
            rows.push((edge.value, edge.source.clone(), Some(edge.time_ms), None));
        } else if let Some(slot) = rows.iter_mut().find(|(value, source, _, close)| {
            close.is_none() && *value == edge.value && *source == edge.source
        }) {
            slot.3 = Some(edge.time_ms);
        } else {
            rows.push((edge.value, edge.source.clone(), None, Some(edge.time_ms)));
        }
    }
    let fmt = |ms: Option<u64>| {
        ms.map_or_else(
            || "-".to_string(),
            |ms| SimTime::from_millis(ms).to_string(),
        )
    };
    for (value, source, open, close) in &rows {
        table.row(vec![
            format!("{value:.0}"),
            source.clone(),
            fmt(*open),
            fmt(*close),
        ]);
    }
    println!();
    print!("{}", table.render());
}

/// When the trace carries `detector_fired` events (a detection trace),
/// replays it through a fresh detector stack and prints the firing count
/// per subscription — which detector on which channel did the work.
fn print_detection_counts(records: &[ParsedRecord]) {
    let has_detections = records
        .iter()
        .any(|r| r.is_event && r.name == "detector_fired");
    if !has_detections {
        return;
    }
    let Some(racks) = pad::pipeline::try_infer_racks(records) else {
        println!("\ndetection trace present, but no rack-NN.draw_w samples to replay it over");
        return;
    };
    let mut stack = SimDetectors::new(racks, DetectConfig::default());
    stack.replay(records);
    let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for f in stack.bank().firings() {
        *counts.entry(f.label.as_str()).or_insert(0) += 1;
    }
    let mut table = Table::new(vec!["subscription", "firings"]);
    table.title("detector firings by subscription (replayed)");
    for (label, count) in &counts {
        table.row(vec![(*label).to_string(), count.to_string()]);
    }
    println!();
    print!("{}", table.render());
}

/// `padsim incident <dir|file>`: reconstruct incidents from recorded
/// span traces. A directory is scanned for `*.spans.jsonl` / `*.spans.csv`
/// files (one per scheme, as written by `--trace`); each trace's sibling
/// telemetry file (same stem without `.spans`) is joined when present.
fn run_incident(mut flags: Flags) -> ! {
    let mut path: Option<PathBuf> = None;
    let mut names_only = false;
    let mut json = false;
    let mut format: Option<Format> = None;
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--names" => names_only = true,
            "--json" => json = true,
            "--format" => format = Some(parse_format(&flags.value())),
            other if !other.starts_with('-') && path.is_none() => path = Some(PathBuf::from(other)),
            other => fail(&format!("unknown incident argument {other:?}")),
        }
    }
    if names_only {
        print!("{}", pad::trace::trace_schema());
        std::process::exit(0);
    }
    let path = path.unwrap_or_else(|| fail("incident requires a span-trace directory or file"));
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut found: Vec<PathBuf> = std::fs::read_dir(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())))
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.ends_with(".spans.jsonl") || name.ends_with(".spans.csv")
            })
            .collect();
        found.sort();
        if found.is_empty() {
            fail(&format!(
                "no *.spans.jsonl / *.spans.csv files in {}",
                path.display()
            ));
        }
        found
    } else {
        vec![path]
    };
    for (i, file) in files.iter().enumerate() {
        let file_format = format.unwrap_or_else(|| Format::from_path(&file.to_string_lossy()));
        let spans = match parse_spans(&read_file(file), file_format) {
            Ok(spans) => spans,
            Err(e) => fail(&format!("{}: {e}", file.display())),
        };
        // Join the sibling telemetry trace (pad.spans.jsonl -> pad.jsonl)
        // so incidents pick up overload/trip blast radius and detector
        // firing times.
        let telemetry_path = {
            let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
            file.with_file_name(name.replace(".spans.", "."))
        };
        let telemetry = std::fs::read_to_string(&telemetry_path)
            .ok()
            .and_then(|t| parse(&t, Format::from_path(&telemetry_path.to_string_lossy())).ok())
            .unwrap_or_default();
        let incidents = pad::pipeline::reconstruct(&spans, &telemetry);
        if json {
            print!("{}", render_report_json(&incidents));
            continue;
        }
        if i > 0 {
            println!();
        }
        println!("== {} ==", file.display());
        print!("{}", render_timeline(&spans, 72));
        if incidents.is_empty() {
            println!("incidents: none (no attack.* root spans in the trace)");
            continue;
        }
        println!("incidents: {}", incidents.len());
        for inc in &incidents {
            let fmt_opt = |v: Option<u64>| {
                v.map(|ms| format!("{ms} ms"))
                    .unwrap_or_else(|| "-".to_string())
            };
            println!(
                "  {} @ {}..{} ms: {} span(s), blast radius {} rack(s) {:?}, \
                 {} firing(s), time-to-detect {}, time-to-escalate {}, shed {:.1} J",
                inc.root_name,
                inc.start_ms,
                inc.end_ms,
                inc.span_ids.len(),
                inc.blast_racks.len(),
                inc.blast_racks,
                inc.detector_firings,
                fmt_opt(inc.time_to_detect_ms),
                fmt_opt(inc.time_to_escalate_ms),
                inc.shed_energy_j
            );
        }
    }
    std::process::exit(0);
}

/// Prints a detector-bank firing log, or a placeholder when quiet.
fn print_firings(stack: &SimDetectors) {
    let firings = stack.bank().render_firings();
    if firings.is_empty() {
        println!("detector firings: none");
    } else {
        println!(
            "detector firings ({} rising edges; time_ms label score):",
            stack.bank().firings().len()
        );
        print!("{firings}");
    }
}

/// `padsim detect`: run the streaming detector bank over a recorded
/// trace (`--replay`), or live on the §V testbed against a labeled
/// attack — reporting the confusion matrix, per-spike latency, a
/// live-vs-replay determinism check, and optionally a threshold ROC.
fn run_detect(mut flags: Flags) -> ! {
    let mut replay: Option<PathBuf> = None;
    let mut format: Option<Format> = None;
    let mut racks_override: Option<usize> = None;
    let mut style = AttackStyle::Sparse;
    let mut class = VirusClass::CpuIntensive;
    let mut nodes = 1usize;
    let mut duration_mins = 5u64;
    let mut seed = 42u64;
    let mut jobs = 1usize;
    let mut roc = false;
    let mut json = false;
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--replay" => replay = Some(PathBuf::from(flags.value())),
            "--json" => json = true,
            "--format" => format = Some(parse_format(&flags.value())),
            "--racks" => racks_override = Some(flags.parse::<usize>("an integer").max(1)),
            "--style" => style = parse_style(&flags.value()),
            "--class" => class = parse_class(&flags.value()),
            "--nodes" => nodes = flags.parse::<usize>("an integer").max(1),
            "--duration-mins" => duration_mins = flags.parse("an integer"),
            "--seed" => seed = flags.parse("an integer"),
            "--jobs" => jobs = flags.parse::<usize>("an integer").max(1),
            "--roc" => roc = true,
            other => fail(&format!("unknown detect argument {other:?}")),
        }
    }

    // Replay mode: feed a recorded trace through the shared pipeline —
    // the same code path the padsimd daemon runs per streamed session,
    // so the two stay byte-identical by construction.
    if let Some(path) = replay {
        let records = read_records(&path, format);
        let racks = racks_override.unwrap_or_else(|| {
            pad::pipeline::try_infer_racks(&records)
                .unwrap_or_else(|| fail("trace has no rack-NN.draw_w samples; pass --racks <N>"))
        });
        let summary = pad::pipeline::replay_records(racks, PipelineConfig::default(), &records);
        if json {
            print!("{}", summary.to_json());
        } else {
            println!("{}", summary.render_headline());
            print!("{}", summary.render_firings());
        }
        std::process::exit(0);
    }
    if json {
        fail("--json is only available with --replay");
    }

    // Live mode: the §V testbed under a labeled attack. Phase I is
    // skipped so the scenario's ground-truth spike timeline is exact.
    let config = testbed_config(Scheme::Conv);
    let racks = config.topology.racks();
    let scenario = AttackScenario::new(style, class, nodes).immediate();
    let attack_at = SimTime::ZERO + LEAD_IN;
    let horizon = attack_at + SimDuration::from_mins(duration_mins);
    let windows = scenario.ground_truth(attack_at, horizon);
    let mut sim = new_sim(config, testbed_trace(seed), seed);
    sim.enable_detection(DetectConfig::default());
    sim.enable_telemetry(DEFAULT_TELEMETRY_CAPACITY);
    sim.set_attack(scenario, RackId(0), attack_at);
    println!(
        "padsim detect: {} live on the testbed rack, attack at t={attack_at}, {} ground-truth spike(s)",
        scenario.label(),
        windows.spike_count()
    );

    let dt = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    let mut verdicts = Vec::new();
    while t < horizon {
        sim.step(dt);
        verdicts.push(TickVerdict {
            time: t,
            fused: sim.detection().expect("detection enabled").fused(),
        });
        t += dt;
    }

    let m = confusion(&verdicts, &windows, GRACE);
    let rate = spike_detection_rate(&verdicts, &windows, GRACE);
    println!(
        "per-spike detection rate: {:.1}%   tick confusion: tp {} fp {} tn {} fn {} (tpr {:.1}%, fpr {:.2}%)",
        rate * 100.0,
        m.true_pos,
        m.false_pos,
        m.true_neg,
        m.false_neg,
        m.tpr() * 100.0,
        m.fpr() * 100.0
    );
    let latencies: Vec<f64> = spike_latencies(&verdicts, &windows, GRACE)
        .into_iter()
        .flatten()
        .map(|d| d.as_millis() as f64)
        .collect();
    if !latencies.is_empty() {
        println!(
            "mean detection latency: {:.0} ms over {} detected spike(s)",
            latencies.iter().sum::<f64>() / latencies.len() as f64,
            latencies.len()
        );
    }
    let stack = sim.detection().expect("detection enabled");
    print_firings(stack);

    // Determinism check: replaying the recorded telemetry through a
    // fresh stack must reproduce the live firing log byte for byte.
    let live_firings = stack.bank().render_firings();
    let dump = sim.take_telemetry().expect("telemetry enabled");
    let records = match parse(&dump.serialize(Format::Jsonl), Format::Jsonl) {
        Ok(records) => records,
        Err(e) => fail(&format!("telemetry round-trip: {e}")),
    };
    let mut fresh = SimDetectors::new(racks, DetectConfig::default());
    fresh.replay(&records);
    if fresh.bank().render_firings() == live_firings {
        println!("replay check: firing log byte-identical, live vs replayed telemetry");
    } else {
        println!("replay check: MISMATCH between live and replayed firing logs");
    }

    if roc {
        let scales = [0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
        let points = threshold_roc(
            &records,
            racks,
            DetectConfig::default(),
            &windows,
            &scales,
            GRACE,
            jobs,
        );
        let mut table = Table::new(vec!["scale", "tick tpr", "tick fpr", "spike rate"]);
        table.title("threshold sweep — fused verdict operating points");
        for p in &points {
            table.row(vec![
                format!("{:.2}", p.scale),
                format!("{:.1}%", p.tpr * 100.0),
                format!("{:.2}%", p.fpr * 100.0),
                format!("{:.1}%", p.spike_rate * 100.0),
            ]);
        }
        print!("{}", table.render());
    }
    std::process::exit(0);
}

/// Resolves `--plan`: a built-in name first, then a JSON plan file.
fn resolve_plan(name: &str) -> FaultPlan {
    if let Some(plan) = named_plan(name) {
        return plan;
    }
    let text = std::fs::read_to_string(name).unwrap_or_else(|e| {
        fail(&format!(
            "--plan {name:?} is neither a built-in plan ({}) nor a readable file: {e}",
            NAMED_PLANS.join(", ")
        ))
    });
    FaultPlan::from_json(&text).unwrap_or_else(|e| fail(&format!("{name}: {e}")))
}

/// `padsim fault`: run a labeled attack while an injected fault plan
/// degrades the sensors, the coordinator link, and the physical layer —
/// with the graceful-degradation control plane armed (or disarmed with
/// `--no-fallback`, the frozen-plan mode the fault-tolerance experiment
/// compares against). Reports the survival summary plus what the
/// injector actually did; `--out` also writes `fault_report.json` next
/// to the usual telemetry and span traces.
fn run_fault(mut flags: Flags) -> ! {
    let mut plan_name = "ci-smoke".to_string();
    let mut list = false;
    let mut print_plan = false;
    let mut no_fallback = false;
    let mut out: Option<PathBuf> = None;
    let mut format = Format::Jsonl;
    let mut args = Args {
        attack_at_mins: 10,
        duration_mins: 20,
        ..Args::default()
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--plan" => plan_name = flags.value(),
            "--list" => list = true,
            "--print-plan" => print_plan = true,
            "--no-fallback" => no_fallback = true,
            "--out" => out = Some(PathBuf::from(flags.value())),
            "--format" => format = parse_format(&flags.value()),
            "--scheme" => args.scheme = parse_scheme(&flags.value()),
            "--style" => args.style = parse_style(&flags.value()),
            "--class" => args.class = parse_class(&flags.value()),
            "--nodes" => args.nodes = flags.parse("an integer"),
            "--victims" => args.victims = flags.parse("an integer"),
            "--seed" => args.seed = flags.parse("an integer"),
            "--attack-at-mins" => args.attack_at_mins = flags.parse("an integer"),
            "--duration-mins" => args.duration_mins = flags.parse("an integer"),
            other => fail(&format!("unknown fault argument {other:?}")),
        }
    }
    if list {
        for name in NAMED_PLANS {
            println!("{name}");
        }
        std::process::exit(0);
    }
    let plan = resolve_plan(&plan_name);
    if print_plan {
        println!("{}", plan.to_json());
        std::process::exit(0);
    }

    let config = build_config(&args, args.scheme);
    let degraded = if no_fallback {
        DegradedConfig::for_grant_interval(config.grant_interval).without_fallback()
    } else {
        DegradedConfig::for_grant_interval(config.grant_interval)
    };
    let attack_at = SimTime::from_mins(args.attack_at_mins);
    let horizon = attack_at + SimDuration::from_mins(args.duration_mins);
    let scenario = attack_scenario(&args);
    let trace = attack_trace(&args, &config, horizon);
    let grant_interval = config.grant_interval;
    let mut sim = new_sim(config, trace, args.seed);
    // Unlike the plain attack run, telemetry and spans start at t=0:
    // the named plans open their first windows before the attack lands,
    // and those edges are part of the story.
    if out.is_some() {
        sim.enable_telemetry(DEFAULT_TELEMETRY_CAPACITY);
        sim.enable_tracing(DEFAULT_TRACE_CAPACITY);
    }
    if let Err(e) = sim.enable_faults(plan.clone(), degraded, 0xFA11 ^ args.seed) {
        fail(&format!("invalid fault plan: {e}"));
    }

    println!(
        "padsim fault: {} racks x {} servers, scheme {}, plan {:?} ({} spec(s)), {}",
        args.racks,
        args.servers,
        args.scheme.label(),
        plan.name(),
        plan.len(),
        if no_fallback {
            "watchdog DISARMED (frozen-plan mode)".to_string()
        } else {
            format!(
                "watchdog fallback after {} of silence",
                degraded.watchdog_timeout
            )
        }
    );
    print_schedule("injected fault schedule", &plan);

    // Warm to the attack with faults live, then hit the weakest racks.
    sim.run(attack_at, SimDuration::from_millis(100), false);
    attack_weakest(&mut sim, scenario, args.victims, attack_at);
    let report = sim.run(horizon, SimDuration::from_millis(100), true);

    println!();
    match report.survival() {
        Some(t) => println!("SURVIVAL: {:.0} s", t.as_secs_f64()),
        None => println!(
            "SURVIVAL: > {:.0} s (no overload within the window)",
            report.survival_or_horizon().as_secs_f64()
        ),
    }
    println!(
        "overload excursions: {}   breaker trips: {}   throughput: {:.3}",
        report.effective_attacks(),
        report.breaker_trips,
        report.normalized_throughput()
    );

    let faults = sim.faults().expect("fault injection was enabled");
    let c = faults.counters();
    println!(
        "fault windows: {} opened, {} cleared",
        c.injected, c.cleared
    );
    println!(
        "sensor path:   {} readings corrupted, {} dropped",
        c.readings_corrupted, c.readings_dropped
    );
    println!(
        "control path:  {} plan entries lost, {} delayed, {} reordered, \
         {} duplicate(s) rejected, {} retries used",
        c.plans_lost, c.plans_delayed, c.plans_reordered, c.plans_duplicate, c.retries_used
    );
    println!(
        "degradation:   {} fallback entries, {} rack-ticks in local control (grant interval {})",
        c.fallback_entries, c.fallback_ticks, grant_interval
    );
    let fault_report = faults.report();

    if let Some(dir) = &out {
        create_dir(dir);
        let report_path = dir.join("fault_report.json");
        write_file(&report_path, fault_report.to_json() + "\n");
        println!("fault report -> {}", report_path.display());
        let telemetry = sim.take_telemetry().expect("telemetry was enabled");
        let spans = sim.take_trace().expect("tracing was enabled");
        write_recordings(dir, args.scheme, format, Some(&telemetry), Some(&spans));
    }
    std::process::exit(0);
}

/// `padsim mc`: bounded exhaustive model checking of the vDEB
/// coordination protocol. Builds the scripted small-world model over the
/// pure `ProtocolState` transition, explores every message interleaving
/// up to the configured horizon, and checks the selected invariants in
/// every reachable state. Counterexamples are replayed through the
/// full-fidelity simulator as deterministic fault plans.
fn run_mc(mut flags: Flags) -> ! {
    let mut racks = 3usize;
    let mut rounds = 4u32;
    let mut strategy = Strategy::Dfs;
    let mut broken = BrokenMode::None;
    let mut invariant_names: Vec<String> = Vec::new();
    let mut max_states: u64 = Bounds::default().max_states;
    let mut dup_budget: Option<u8> = None;
    let mut ci_smoke = false;
    let mut schema = false;
    let mut no_replay = false;
    // Replay workload seed. 7 runs the cluster heterogeneous enough
    // that the coordinator reassigns grants between rounds, so a stale
    // lease visibly overspends when the broken model replays.
    let mut seed = 7u64;
    let mut out: Option<PathBuf> = None;
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--racks" => racks = flags.parse("an integer"),
            "--rounds" => rounds = flags.parse("an integer below 2^32"),
            "--strategy" => {
                let name = flags.value();
                strategy = Strategy::from_name(&name)
                    .unwrap_or_else(|| fail(&format!("unknown strategy {name:?}")));
            }
            "--invariant" => {
                let name = flags.value();
                if name == "all" {
                    invariant_names = INVARIANTS.iter().map(|n| n.to_string()).collect();
                } else if INVARIANTS.contains(&name.as_str()) {
                    if !invariant_names.contains(&name) {
                        invariant_names.push(name);
                    }
                } else {
                    fail(&format!(
                        "unknown invariant {name:?} (known: {})",
                        INVARIANTS.join(", ")
                    ));
                }
            }
            "--broken" => {
                let name = flags.value();
                broken = BrokenMode::from_name(&name)
                    .unwrap_or_else(|| fail(&format!("unknown broken mode {name:?}")));
            }
            "--max-states" => max_states = flags.parse("an integer"),
            "--dup-budget" => dup_budget = Some(flags.parse("an integer from 0 to 255")),
            "--ci-smoke" => ci_smoke = true,
            "--schema" => schema = true,
            "--no-replay" => no_replay = true,
            "--seed" => seed = flags.parse("an integer"),
            "--out" => out = Some(PathBuf::from(flags.value())),
            other => fail(&format!("unknown mc argument {other:?}")),
        }
    }
    if schema {
        print!("{}", mc_schema());
        std::process::exit(0);
    }
    if racks < 2 {
        fail("--racks must be at least 2 (the grant economy needs a cool rack)");
    }
    if rounds == 0 {
        fail("--rounds must be at least 1");
    }
    if invariant_names.is_empty() {
        invariant_names = INVARIANTS.iter().map(|n| n.to_string()).collect();
    }
    let mut config = ModelConfig::new(racks, rounds).with_broken(broken);
    if let Some(d) = dup_budget {
        config.dup_budget = d;
    }

    if ci_smoke {
        run_mc_ci_smoke(config, strategy, &invariant_names, max_states, seed, out);
    }

    println!(
        "padsim mc: vdeb protocol model, {} racks, {} rounds (+{} tail ticks), \
         dup budget {}, msg ttl {} rounds, strategy {}, broken {}",
        config.racks,
        config.rounds,
        config.max_ticks() - config.rounds,
        config.dup_budget,
        config.msg_ttl_rounds,
        strategy.name(),
        config.broken.name()
    );
    println!("invariants: {}", invariant_names.join(", "));
    let report = check_model(config, strategy, &invariant_names, max_states);
    print_mc_report(&report);
    if let Some(dir) = &out {
        write_mc_report(dir, &config, strategy, &invariant_names, &report);
    }
    let expect_violation = config.broken != BrokenMode::None;
    match report.violations.first() {
        None => {
            if report.truncated {
                println!(
                    "RESULT: no violation found, but the search was TRUNCATED at \
                     {} states — not an exhaustive proof",
                    report.discovered
                );
            } else {
                println!(
                    "RESULT: all invariants hold in every one of the {} reachable states",
                    report.discovered
                );
            }
            if expect_violation {
                eprintln!("error: broken mode {:?} found no violation", broken.name());
                std::process::exit(1);
            }
        }
        Some(v) => {
            println!();
            print!("{}", render_violation(v));
            if !no_replay {
                replay_counterexample(v, &config, seed, out.as_deref());
            }
            if !expect_violation {
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

/// Builds the model + selected invariants and runs the checker.
fn check_model(
    config: ModelConfig,
    strategy: Strategy,
    invariant_names: &[String],
    max_states: u64,
) -> McReport {
    let model = VdebModel::new(config);
    let props: Vec<_> = invariant_names
        .iter()
        .map(|n| {
            invariant(n, config.protocol())
                .unwrap_or_else(|| fail(&format!("unknown invariant {n:?}")))
        })
        .collect();
    let bounds = Bounds {
        max_states,
        ..Bounds::default()
    };
    Checker::new(strategy)
        .with_bounds(bounds)
        .run(&model, &props)
}

/// Prints the explored-state counters of one checker run.
fn print_mc_report(report: &McReport) {
    println!(
        "explored: {} states discovered, {} expanded, {} deduped, {} terminal(s), \
         max depth {}, frontier peak {}{}",
        report.discovered,
        report.expanded,
        report.deduped,
        report.terminals,
        report.max_depth,
        report.frontier_peak,
        if report.truncated { " (TRUNCATED)" } else { "" }
    );
}

/// Writes `mc_report.json` into `dir`.
fn write_mc_report(
    dir: &Path,
    config: &ModelConfig,
    strategy: Strategy,
    invariant_names: &[String],
    report: &McReport,
) {
    create_dir(dir);
    let path = dir.join("mc_report.json");
    write_file(
        &path,
        render_mc_report_json(config, strategy.name(), invariant_names, report) + "\n",
    );
    println!("mc report -> {}", path.display());
}

/// `padsim mc --ci-smoke`: the CI gate. The healthy model must hold all
/// four invariants exhaustively with more than 10k discovered states,
/// and the deliberately broken lease-expiry model must yield a
/// counterexample that replays into a non-empty fault plan.
fn run_mc_ci_smoke(
    config: ModelConfig,
    strategy: Strategy,
    invariant_names: &[String],
    max_states: u64,
    seed: u64,
    out: Option<PathBuf>,
) -> ! {
    let config = ModelConfig {
        broken: BrokenMode::None,
        ..config
    };
    println!(
        "padsim mc --ci-smoke: healthy model, {} racks, {} rounds, strategy {}",
        config.racks,
        config.rounds,
        strategy.name()
    );
    let all: Vec<String> = INVARIANTS.iter().map(|n| n.to_string()).collect();
    let names = if invariant_names.len() == all.len() {
        invariant_names.to_vec()
    } else {
        all
    };
    let report = check_model(config, strategy, &names, max_states);
    print_mc_report(&report);
    if let Some(dir) = &out {
        write_mc_report(dir, &config, strategy, &names, &report);
    }
    if !report.violations.is_empty() {
        for v in &report.violations {
            print!("{}", render_violation(v));
        }
        eprintln!("error: healthy model violates an invariant");
        std::process::exit(1);
    }
    if report.truncated {
        eprintln!("error: healthy run truncated — raise --max-states for an exhaustive check");
        std::process::exit(1);
    }
    if report.discovered <= 10_000 {
        eprintln!(
            "error: only {} states discovered (CI bar: >10000) — raise --rounds or --racks",
            report.discovered
        );
        std::process::exit(1);
    }
    println!(
        "healthy model: all {} invariants hold exhaustively",
        names.len()
    );

    // The gate's second half: the checker must still be able to find
    // bugs. Re-enable the cross-round double-spend and demand a
    // counterexample that maps onto a deterministic fault plan.
    let broken_config =
        ModelConfig::new(config.racks, config.rounds.min(2)).with_broken(BrokenMode::LeaseExpiry);
    println!(
        "broken model (lease-expiry), {} racks, {} rounds, strategy bfs",
        broken_config.racks, broken_config.rounds
    );
    let broken_report = check_model(broken_config, Strategy::Bfs, &names, max_states);
    print_mc_report(&broken_report);
    let Some(v) = broken_report.violations.first() else {
        eprintln!("error: broken lease-expiry model found no violation");
        std::process::exit(1);
    };
    print!("{}", render_violation(v));
    replay_counterexample(v, &broken_config, seed, out.as_deref());
    println!("ci-smoke: PASS");
    std::process::exit(0);
}

/// Maps a checker counterexample onto a deterministic fault plan and
/// replays it through the full-fidelity simulator, sampling the grant
/// spend gate every second and rendering the recorded spans as the
/// forensic incident timeline.
fn replay_counterexample(v: &Violation, config: &ModelConfig, seed: u64, out: Option<&Path>) {
    let args = Args {
        racks: config.racks,
        servers: 4,
        ..Args::default()
    };
    let sim_config = build_config(&args, Scheme::Pad);
    let interval = sim_config.grant_interval;
    let plan = counterexample_plan(&v.trace, config.racks, interval);
    println!();
    println!(
        "replay: {} fault spec(s) reproduce the counterexample on the simulator clock",
        plan.len()
    );
    print_schedule("counterexample fault schedule", &plan);

    // Run long enough for every faulted round plus the watchdog tail.
    let last_window = plan
        .specs()
        .iter()
        .map(|s| s.end)
        .max()
        .unwrap_or(SimTime::ZERO);
    let horizon = last_window + interval * 4u64;
    let trace = SynthConfig {
        machines: sim_config.topology.total_servers(),
        horizon: horizon + interval * 2u64,
        // Counterexample replays last seconds, not the paper's months;
        // resample the workload on the grant clock so the short horizon
        // still covers whole steps, and run the cluster hot enough that
        // the coordinator actually issues budget grants to spend.
        step: interval,
        mean_utilization: 0.5,
        machine_bias_std: 0.25,
        ..SynthConfig::small_test()
    }
    .generate_direct(seed);
    let mut sim = new_sim(sim_config, trace, seed);
    sim.enable_tracing(DEFAULT_TRACE_CAPACITY);
    let degraded = match config.broken {
        BrokenMode::LeaseExpiry => {
            DegradedConfig::for_grant_interval(interval).without_lease_expiry()
        }
        _ => DegradedConfig::for_grant_interval(interval),
    };
    if let Err(e) = sim.enable_faults(plan, degraded, 0x3C11 ^ seed) {
        fail(&format!("invalid counterexample plan: {e}"));
    }

    // Step second by second so the spend gate is sampled between grant
    // rounds, where a stale lease (if leases are off) overspends.
    let dt = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    let mut overspend_samples = 0u64;
    let mut max_overspend = 0.0f64;
    while t < horizon {
        t += SimDuration::from_secs(1);
        sim.run(t, dt, false);
        let over = sim
            .grant_spend()
            .iter()
            .zip(sim.grants_current())
            .map(|(s, g)| s.0 - g.0)
            .fold(0.0f64, f64::max);
        if over > 1e-9 {
            overspend_samples += 1;
            max_overspend = max_overspend.max(over);
        }
    }
    let faults = sim.faults().expect("fault injection was enabled");
    let c = faults.counters();
    println!(
        "replay counters: {} plan entries lost, {} delayed, {} duplicate(s), \
         {} fallback entries, {} rack-ticks in local control",
        c.plans_lost, c.plans_delayed, c.plans_duplicate, c.fallback_entries, c.fallback_ticks
    );
    if overspend_samples > 0 {
        println!(
            "spend gate: {} sample(s) with a rack spending over its current \
             entitlement (worst +{:.1} W) — the model's stale grant reproduces \
             at full fidelity",
            overspend_samples, max_overspend
        );
    } else {
        println!("spend gate: no rack over its current entitlement during the replay");
    }
    let dump = sim.take_trace().expect("tracing was enabled");
    let text = dump.serialize(Format::Jsonl);
    let spans = match parse_spans(&text, Format::Jsonl) {
        Ok(spans) => spans,
        Err(e) => fail(&format!("replay spans: {e}")),
    };
    print!("{}", render_timeline(&spans, 72));
    let incidents = pad::pipeline::reconstruct(&spans, &[]);
    if incidents.is_empty() {
        println!("incidents: none (control-plane replay carries no attack root span)");
    } else {
        println!("incidents: {}", incidents.len());
    }
    if let Some(dir) = out {
        create_dir(dir);
        write_file(&dir.join("mc_counterexample.spans.jsonl"), text);
        let ce_path = dir.join("mc_counterexample.txt");
        write_file(&ce_path, render_violation(v));
        println!("counterexample -> {} (spans next to it)", ce_path.display());
    }
}

/// `padsim perf`: one profiled sweep — every scheme attacked identically
/// on one shared trace — merged into a phase breakdown, a simulated
/// rack-hours-per-wall-second figure, and (with `--out`) the
/// schema-pinned `perf_report.json` the CI regression gate reads.
fn run_perf(mut flags: Flags) -> ! {
    let mut args = Args::default();
    let mut ticks = 3_000u64;
    let mut out: Option<PathBuf> = None;
    let mut table = false;
    let mut baseline: Option<PathBuf> = None;
    let mut gate_pct = 25.0f64;
    let mut schema = false;
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--jobs" => args.jobs = flags.parse::<usize>("an integer").max(1),
            "--racks" => args.racks = flags.parse("an integer"),
            "--servers" => args.servers = flags.parse("an integer"),
            "--ticks" => ticks = flags.parse("an integer"),
            "--seed" => args.seed = flags.parse("an integer"),
            "--out" => out = Some(PathBuf::from(flags.value())),
            "--table" => table = true,
            "--baseline" => baseline = Some(PathBuf::from(flags.value())),
            "--gate" => gate_pct = flags.parse("a number"),
            "--schema" => schema = true,
            other => fail(&format!("unknown perf argument {other:?}")),
        }
    }
    if schema {
        print!("{}", perf_schema());
        std::process::exit(0);
    }
    if ticks == 0 {
        fail("--ticks must be at least 1");
    }
    if !(gate_pct > 0.0 && gate_pct < 100.0) {
        fail("--gate expects a percentage strictly between 0 and 100");
    }

    let dt = SimDuration::from_millis(100);
    let horizon = SimTime::ZERO + dt * ticks;
    // Attack at a quarter of the horizon: the measured loop spends most
    // of its ticks inside the defended (interesting) regime, with enough
    // quiet lead-in that the warm path is represented too.
    let attack_at = SimTime::ZERO + dt * (ticks / 4);
    let config = build_config(&args, Scheme::Pad);

    println!(
        "padsim perf: {} scheme scenario(s), {} racks x {} servers, {} ticks @ {} ms, \
         {} worker(s)",
        Scheme::ALL.len(),
        args.racks,
        args.servers,
        ticks,
        (dt.as_secs_f64() * 1000.0).round() as u64,
        args.jobs
    );

    // sweep.parse: synthesizing (or in trace-driven setups, parsing) the
    // shared cluster trace — done once per sweep, not once per scenario.
    let parse_start = Instant::now();
    let trace = SynthConfig {
        machines: config.topology.total_servers(),
        horizon: horizon + SimDuration::from_mins(2),
        // Short perf horizons must still cover whole trace steps, so
        // resample the workload on a one-minute clock.
        step: SimDuration::from_mins(1),
        mean_utilization: args.mean_util,
        machine_bias_std: 0.04,
        ..SynthConfig::google_may2010()
    }
    .generate_direct(args.seed);
    let parse_wall = parse_start.elapsed();

    let scenario = AttackScenario::new(AttackStyle::Dense, VirusClass::CpuIntensive, 4);
    let cases: Vec<SurvivalCase> = Scheme::ALL
        .iter()
        .map(|&scheme| {
            SurvivalCase::quiet(build_config(&args, scheme), horizon, dt)
                .with_attack(AttackSpec {
                    scenario,
                    victim: Victim::MostVulnerable,
                    start: attack_at,
                })
                .record_profile()
        })
        .collect();
    let sweep = ConfigSweep::new(Arc::new(trace), args.seed ^ 0x5EED).with_jobs(args.jobs);
    let (outcomes, sweep_profile) = match sweep.run_profiled(cases) {
        Ok(o) => o,
        Err(e) => fail(&e),
    };

    let mut merged = SimProfile::default();
    let mut scenario_wall = Duration::ZERO;
    let mut queue_wait = Duration::ZERO;
    for outcome in &outcomes {
        merged.merge(
            outcome
                .profile
                .as_ref()
                .expect("profiling was requested for every case"),
        );
        scenario_wall += outcome.cost.wall_clock;
        queue_wait += outcome.cost.queue_wait;
    }
    let report = PerfReport::new(
        args.racks,
        args.servers,
        "all".to_string(),
        ticks,
        dt,
        args.seed,
        merged,
        &sweep_profile,
        parse_wall,
        scenario_wall,
        queue_wait,
    );

    println!(
        "throughput: {:.2} simulated rack-hours per wall-second \
         ({:.0} steps/s over {:.1} s wall)",
        report.throughput.unit_hours_per_wall_second(),
        report.throughput.steps_per_second(),
        report.throughput.wall.as_secs_f64()
    );
    println!(
        "step profile: {} steps, {:.2} s inside step(), phase coverage {:.1}%",
        report.profile.steps,
        report.profile.step_wall().as_secs_f64(),
        report.profile.coverage() * 100.0
    );
    println!(
        "sweep profile: {} scenario(s) on {} worker(s), {:.0}% utilization, \
         {:.2} s total queue wait",
        report.scenarios,
        report.workers.len(),
        report.utilization * 100.0,
        report.queue_wait.as_secs_f64()
    );

    if table {
        let mut phases = Table::new(vec![
            "phase",
            "calls",
            "total (ms)",
            "mean (µs)",
            "max (µs)",
            "share",
        ]);
        phases
            .title("phase breakdown — step.* shares of measured step time, sweep.* of sweep wall");
        for (p, share) in report.phase_rows() {
            phases.row(vec![
                p.name.clone(),
                p.calls.to_string(),
                format!("{:.2}", p.total.as_secs_f64() * 1e3),
                format!("{:.2}", p.mean().as_secs_f64() * 1e6),
                format!("{:.2}", p.max.as_secs_f64() * 1e6),
                format!("{:.1}%", share * 100.0),
            ]);
        }
        print!("{}", phases.render());
        let mut workers = Table::new(vec!["worker", "scenarios", "busy (s)", "merge (s)"]);
        workers.title("worker economics — busy vs sweep wall is the utilization figure");
        for (i, w) in report.workers.iter().enumerate() {
            workers.row(vec![
                i.to_string(),
                w.scenarios.to_string(),
                format!("{:.2}", w.busy.as_secs_f64()),
                format!("{:.3}", w.merge.as_secs_f64()),
            ]);
        }
        print!("{}", workers.render());
    }

    if let Some(path) = &out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            create_dir(dir);
        }
        write_file(path, report.to_json() + "\n");
        println!("perf report -> {}", path.display());
    }

    if let Some(path) = &baseline {
        let text = read_file(path);
        let base = extract_json_number(&text, "rack_hours_per_wall_sec").unwrap_or_else(|| {
            fail(&format!(
                "{} carries no rack_hours_per_wall_sec figure",
                path.display()
            ))
        });
        let current = report.throughput.unit_hours_per_wall_second();
        match gate_check(current, base, gate_pct) {
            Ok(change) => println!(
                "gate: {:.3} rack-hours/s vs baseline {:.3} ({:+.1}%, within the \
                 -{:.0}% gate)",
                current, base, change, gate_pct
            ),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

/// `padsim reproduce <name|all>`: run experiments from the registry and
/// print each one's banner and body, or write `<dir>/<name>.txt` each
/// with `--out`. Exits 1 once every output is written when a premise an
/// experiment asserts failed.
fn run_reproduce(mut flags: Flags) -> ! {
    let names = || {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        format!("experiments: all, {}", names.join(", "))
    };
    let mut target: Option<String> = None;
    let mut fidelity = Fidelity::Paper;
    let mut jobs = 1usize;
    let mut out: Option<PathBuf> = None;
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--smoke" => fidelity = Fidelity::Smoke,
            "--jobs" => jobs = flags.parse::<usize>("an integer").max(1),
            "--out" => out = Some(PathBuf::from(flags.value())),
            other if !other.starts_with('-') && target.is_none() => target = Some(arg),
            other => fail(&format!(
                "unknown reproduce argument {other:?}; {}",
                names()
            )),
        }
    }
    let selected: Vec<_> = match target.as_deref() {
        None => fail(&format!(
            "reproduce requires an experiment name; {}",
            names()
        )),
        Some("all") => EXPERIMENTS.iter().collect(),
        Some(name) => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(experiment) => vec![experiment],
            None => fail(&format!("unknown experiment {name:?}; {}", names())),
        },
    };
    if let Some(dir) = &out {
        create_dir(dir);
    }
    let mut failed = Vec::new();
    for experiment in selected {
        let run = experiment.reproduce(fidelity, jobs);
        if !run.passed {
            failed.push(experiment.name);
        }
        match &out {
            Some(dir) => write_file(&dir.join(format!("{}.txt", experiment.name)), &run.text),
            None => print!("{}", run.text),
        }
    }
    if !failed.is_empty() {
        eprintln!("error: a premise failed in {}", failed.join(", "));
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Filename stem for a scheme's trace file (matches the `--scheme` keys).
fn scheme_key(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Conv => "conv",
        Scheme::Ps => "ps",
        Scheme::Pspc => "pspc",
        Scheme::UDebOnly => "udeb",
        Scheme::VDebOnly => "vdeb",
        Scheme::Pad => "pad",
    }
}

/// Reads a recorded telemetry trace, in `format` or the one its
/// extension names.
fn read_records(path: &Path, format: Option<Format>) -> Vec<ParsedRecord> {
    let format = format.unwrap_or_else(|| Format::from_path(&path.to_string_lossy()));
    match parse(&read_file(path), format) {
        Ok(records) => records,
        Err(e) => fail(&format!("{}: {e}", path.display())),
    }
}

fn read_file(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())))
}

fn create_dir(dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail(&format!("cannot create {}: {e}", dir.display()));
    }
}

fn write_file(path: &Path, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
}

/// Writes one scheme's telemetry (`<scheme>.<ext>`) and span trace
/// (`<scheme>.spans.<ext>`, next to the telemetry file `padsim incident`
/// joins it with) into `dir`, and reports each file written.
fn write_recordings(
    dir: &Path,
    scheme: Scheme,
    format: Format,
    telemetry: Option<&TelemetryDump>,
    spans: Option<&TraceDump>,
) {
    create_dir(dir);
    let (key, ext) = (scheme_key(scheme), format.extension());
    let files = [
        telemetry.map(|d| {
            let what = format!("telemetry: {} records", d.records.len());
            (format!("{key}.{ext}"), d.serialize(format), what, d.dropped)
        }),
        spans.map(|d| {
            let what = format!("spans: {} span(s)", d.spans.len());
            (
                format!("{key}.spans.{ext}"),
                d.serialize(format),
                what,
                d.dropped,
            )
        }),
    ];
    for (file, text, what, dropped) in files.into_iter().flatten() {
        let path = dir.join(file);
        write_file(&path, text);
        let dropped = if dropped > 0 {
            format!(" ({dropped} evicted by the ring)")
        } else {
            String::new()
        };
        println!("{what}{dropped} -> {}", path.display());
    }
}

/// Parses a `--scheme` key; the main command reads `all` before this.
fn parse_scheme(text: &str) -> Scheme {
    let name = text.to_lowercase();
    Scheme::ALL
        .into_iter()
        .find(|&scheme| scheme_key(scheme) == name)
        .unwrap_or_else(|| fail(&format!("unknown scheme {name:?}")))
}

fn parse_style(text: &str) -> AttackStyle {
    match text.to_lowercase().as_str() {
        "dense" => AttackStyle::Dense,
        "sparse" => AttackStyle::Sparse,
        other => fail(&format!("unknown style {other:?}")),
    }
}

fn parse_class(text: &str) -> VirusClass {
    match text.to_lowercase().as_str() {
        "cpu" => VirusClass::CpuIntensive,
        "mem" => VirusClass::MemIntensive,
        "io" => VirusClass::IoIntensive,
        other => fail(&format!("unknown class {other:?}")),
    }
}

fn parse_format(name: &str) -> Format {
    Format::from_name(name).unwrap_or_else(|| fail(&format!("unknown format {name:?}")))
}

fn build_config(args: &Args, scheme: Scheme) -> SimConfig {
    if args.racks == 0 {
        fail("--racks must be at least 1");
    }
    if args.servers == 0 {
        fail("--servers must be at least 1");
    }
    let server = ServerSpec::hp_proliant_dl585_g5();
    let nameplate = server.peak * args.servers as f64;
    let config = SimConfig {
        topology: ClusterTopology::new(args.racks, args.servers),
        budget_fraction: args.budget,
        emergency_action: args.action,
        p_ideal: nameplate * 0.05,
        udeb_max_power: nameplate * 0.3,
        udeb_engage_threshold: nameplate * 0.0675,
        demand_jitter: nameplate * 0.01,
        ..SimConfig::paper_default(scheme)
    };
    if let Err(e) = config.validate() {
        fail(&format!("invalid configuration: {e}"));
    }
    config
}

/// The synthetic workload an attack run plays (the main command and
/// `fault`), ten minutes longer than its horizon.
fn attack_trace(args: &Args, config: &SimConfig, horizon: SimTime) -> ClusterTrace {
    let synth = SynthConfig {
        machines: config.topology.total_servers(),
        horizon: horizon + SimDuration::from_mins(10),
        mean_utilization: args.mean_util,
        machine_bias_std: 0.04,
        ..SynthConfig::google_may2010()
    };
    if let Err(e) = synth.validate() {
        fail(&format!("invalid --mean-util: {e}"));
    }
    synth.generate_direct(args.seed)
}

/// The attack the main command and `fault` install: `--nodes` servers
/// of `--style` and `--class`; with `--escalate` the attacker acquires
/// more nodes every 5 minutes.
fn attack_scenario(args: &Args) -> AttackScenario {
    if args.nodes == 0 {
        fail("--nodes must be at least 1");
    }
    let scenario = AttackScenario::new(args.style, args.class, args.nodes);
    if args.escalate {
        scenario.with_escalation(SimDuration::from_mins(5))
    } else {
        scenario
    }
}

/// A simulator over `trace`, its noise seeded from `seed`.
fn new_sim(config: SimConfig, trace: ClusterTrace, seed: u64) -> ClusterSim {
    let mut sim = ClusterSim::new(config, trace).unwrap_or_else(|e| fail(&e));
    sim.reseed_noise(seed ^ 0x5EED);
    sim
}

/// Attacks the `victims` racks with the least battery charge left from
/// `attack_at`, reporting each, and returns the weakest.
fn attack_weakest(
    sim: &mut ClusterSim,
    scenario: AttackScenario,
    victims: usize,
    attack_at: SimTime,
) -> RackId {
    let mut by_soc: Vec<(usize, f64)> = sim.rack_socs().into_iter().enumerate().collect();
    by_soc.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite SOC"));
    let victims = victims.clamp(1, by_soc.len());
    for (i, &(rack, soc)) in by_soc.iter().take(victims).enumerate() {
        let v = RackId(rack);
        println!(
            "attack: {} from t={} against {} (battery at {:.0}%)",
            scenario.label(),
            attack_at,
            v,
            soc * 100.0
        );
        if i == 0 {
            sim.set_attack(scenario, v, attack_at);
        } else {
            sim.add_attack(scenario, v, attack_at);
        }
    }
    RackId(by_soc[0].0)
}

/// Prints a fault plan's windows, one row per spec.
fn print_schedule(title: &str, plan: &FaultPlan) {
    let mut schedule = Table::new(vec!["spec", "fault", "target", "window"]);
    schedule.title(title);
    for (i, spec) in plan.specs().iter().enumerate() {
        let target = match spec.target {
            FaultTarget::All => "cluster".to_string(),
            FaultTarget::Unit(u) => format!("rack-{u:02}"),
        };
        schedule.row(vec![
            i.to_string(),
            spec.kind.to_string(),
            target,
            format!("{}..{}", spec.start, spec.end),
        ]);
    }
    print!("{}", schedule.render());
}

/// `--scheme all`: one sweep over a shared trace, every scheme attacked
/// identically, fanned across `--jobs` workers.
fn run_comparison(
    args: &Args,
    scenario: AttackScenario,
    trace: ClusterTrace,
    attack_at: SimTime,
    horizon: SimTime,
) {
    println!(
        "padsim: {} racks x {} servers, comparing all schemes on {} worker(s)",
        args.racks, args.servers, args.jobs
    );
    let cases: Vec<SurvivalCase> = Scheme::ALL
        .iter()
        .map(|&scheme| {
            let mut case = SurvivalCase::quiet(
                build_config(args, scheme),
                horizon,
                SimDuration::from_millis(100),
            )
            .with_attack(AttackSpec {
                scenario,
                victim: Victim::MostVulnerable,
                start: attack_at,
            })
            .stop_on_overload();
            if args.telemetry.is_some() {
                case = case.record_telemetry(DEFAULT_TELEMETRY_CAPACITY);
            }
            if args.trace.is_some() {
                case = case.record_trace(DEFAULT_TRACE_CAPACITY);
            }
            case
        })
        .collect();
    let sweep = ConfigSweep::new(Arc::new(trace), args.seed ^ 0x5EED).with_jobs(args.jobs);
    let (outcomes, profile) = match sweep.run_profiled(cases) {
        Ok(o) => o,
        Err(e) => fail(&e),
    };
    let mut table = Table::new(vec![
        "scheme",
        "survival (s)",
        "overloads",
        "trips",
        "throughput",
        "sim steps",
        "wall (s)",
        "wait (s)",
    ]);
    table.title("scheme comparison — identical trace, attack and noise per scenario index");
    for (scheme, outcome) in Scheme::ALL.iter().zip(&outcomes) {
        let survival = match outcome.report.survival() {
            Some(t) => format!("{:.0}", t.as_secs_f64()),
            None => format!(">{:.0}", outcome.report.survival_or_horizon().as_secs_f64()),
        };
        table.row(vec![
            scheme.label().to_string(),
            survival,
            outcome.report.effective_attacks().to_string(),
            outcome.report.breaker_trips.to_string(),
            format!("{:.3}", outcome.report.normalized_throughput()),
            outcome.cost.steps.to_string(),
            format!("{:.1}", outcome.cost.wall_clock.as_secs_f64()),
            format!("{:.1}", outcome.cost.queue_wait.as_secs_f64()),
        ]);
    }
    print!("{}", table.render());
    println!(
        "sweep profile: {} scenario(s) on {} worker(s), {:.1} s wall, {:.0}% utilization",
        profile.scenarios(),
        profile.workers.len(),
        profile.wall_clock.as_secs_f64(),
        profile.utilization() * 100.0
    );
    if let Some(dir) = &args.telemetry {
        for (&scheme, outcome) in Scheme::ALL.iter().zip(&outcomes) {
            let dump = outcome.telemetry.as_ref();
            let dump = dump.expect("telemetry was requested for every case");
            write_recordings(dir, scheme, args.telemetry_format, Some(dump), None);
        }
    }
    if let Some(dir) = &args.trace {
        for (&scheme, outcome) in Scheme::ALL.iter().zip(&outcomes) {
            let dump = outcome.trace.as_ref();
            let dump = dump.expect("span tracing was requested for every case");
            write_recordings(dir, scheme, args.telemetry_format, None, Some(dump));
        }
    }
}

fn main() {
    let flags = |skip| Flags::new(std::env::args().skip(skip), USAGE, fail);
    match std::env::args().nth(1).as_deref() {
        Some("inspect") => run_inspect(flags(2)),
        Some("incident") => run_incident(flags(2)),
        Some("detect") => run_detect(flags(2)),
        Some("fault") => run_fault(flags(2)),
        Some("mc") => run_mc(flags(2)),
        Some("perf") => run_perf(flags(2)),
        Some("reproduce") => run_reproduce(flags(2)),
        _ => run_attack(&parse_args(flags(1))),
    }
}

/// The main command: attack the weakest rack(s) of a cluster under one
/// scheme, or under every scheme with `--scheme all`.
fn run_attack(args: &Args) {
    let config = build_config(args, args.scheme);
    let attack_at = SimTime::from_mins(args.attack_at_mins);
    let horizon = attack_at + SimDuration::from_mins(args.duration_mins);
    let scenario = attack_scenario(args);
    let trace = attack_trace(args, &config, horizon);
    if args.all_schemes {
        return run_comparison(args, scenario, trace, attack_at, horizon);
    }

    let mut sim = new_sim(config, trace, args.seed);
    if args.soc_map {
        sim.record_soc(SimDuration::from_mins(1));
    }

    println!(
        "padsim: {} racks x {} servers, scheme {}, budget {:.0}% of nameplate",
        args.racks,
        args.servers,
        args.scheme.label(),
        args.budget * 100.0
    );

    // Warm up to the attack, then attack the weakest rack(s). Telemetry
    // starts with the attack window — the warmup is not the story.
    sim.run(attack_at, SimDuration::SECOND, false);
    if args.telemetry.is_some() {
        sim.enable_telemetry(DEFAULT_TELEMETRY_CAPACITY);
    }
    if args.trace.is_some() {
        sim.enable_tracing(DEFAULT_TRACE_CAPACITY);
    }
    let victim = attack_weakest(&mut sim, scenario, args.victims, attack_at);
    let report = sim.run(horizon, SimDuration::from_millis(100), true);

    println!();
    match report.survival() {
        Some(t) => {
            println!(
                "SURVIVAL: {:.0} s (first overload at t={})",
                t.as_secs_f64(),
                report
                    .overloads
                    .first()
                    .map(|e| e.time.to_string())
                    .unwrap_or_default()
            );
        }
        None => println!(
            "SURVIVAL: > {:.0} s (no overload within the window)",
            report.survival_or_horizon().as_secs_f64()
        ),
    }
    println!(
        "overload excursions: {}   breaker trips: {}   throughput: {:.3}",
        report.effective_attacks(),
        report.breaker_trips,
        report.normalized_throughput()
    );
    println!(
        "victim battery now: {:.0}%   pool mean: {:.0}%   policy level: {}",
        sim.rack_socs()[victim.0] * 100.0,
        sim.rack_socs().iter().sum::<f64>() / args.racks as f64 * 100.0,
        sim.level()
    );
    if let Some(drain) = sim.attacker_observed_drain() {
        println!(
            "attacker's learned drain time: {:.0} s",
            drain.as_secs_f64()
        );
    }

    if let Some(dir) = &args.telemetry {
        let dump = sim.take_telemetry().expect("telemetry was enabled");
        write_recordings(dir, args.scheme, args.telemetry_format, Some(&dump), None);
    }

    if let Some(dir) = &args.trace {
        let dump = sim.take_trace().expect("tracing was enabled");
        write_recordings(dir, args.scheme, args.telemetry_format, None, Some(&dump));
    }

    if args.log {
        println!("\n== event log ==");
        print!("{}", sim.event_log().render());
    }

    if args.soc_map {
        let history = sim.soc_history().expect("recording enabled");
        let mut map = Heatmap::new();
        map.title("battery state of charge over the run");
        for rack in 0..history.racks() {
            map.row(
                format!("rack-{rack:02}"),
                history.rack_series(rack).values().to_vec(),
            );
        }
        println!("\n{}", map.render(96));
    }
}
