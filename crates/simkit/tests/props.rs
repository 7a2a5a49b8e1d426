//! Property tests on the simulation substrate.

use proptest::prelude::*;
use simkit::detect::{
    Cusum, Detector, DetectorBank, DrainRateDetector, EwmaZScore, Firing, FusedVerdict,
    SpikeTrainDetector, StreamDetector, Verdict,
};
use simkit::engine::{ControlFlow, Engine};
use simkit::rng::RngStream;
use simkit::series::TimeSeries;
use simkit::stats::{OnlineStats, Summary};
use simkit::telemetry::{MetricId, MetricRegistry, ParsedRecord, TelemetryReport};
use simkit::time::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine dispatches every event exactly once, in non-decreasing
    /// time order, regardless of insertion order.
    #[test]
    fn engine_dispatches_all_in_order(times in prop::collection::vec(0u64..100_000, 1..200)) {
        let mut engine = Engine::empty();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule(SimTime::from_millis(t), i);
        }
        let mut dispatched: Vec<(SimTime, usize)> = Vec::new();
        engine.run(|_, t, id| {
            dispatched.push((t, id));
            ControlFlow::Continue
        });
        prop_assert_eq!(dispatched.len(), times.len(), "lost or duplicated events");
        for w in dispatched.windows(2) {
            prop_assert!(w[1].0 >= w[0].0, "time went backwards");
        }
        let mut ids: Vec<usize> = dispatched.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..times.len()).collect::<Vec<_>>());
    }

    /// Simultaneous events preserve FIFO order.
    #[test]
    fn engine_ties_are_fifo(count in 1usize..100, at in 0u64..1_000) {
        let mut engine = Engine::empty();
        for i in 0..count {
            engine.schedule(SimTime::from_millis(at), i);
        }
        let mut seen = Vec::new();
        engine.run(|_, _, id| {
            seen.push(id);
            ControlFlow::Continue
        });
        prop_assert_eq!(seen, (0..count).collect::<Vec<_>>());
    }

    /// OnlineStats merge is equivalent to sequential accumulation at any
    /// split point.
    #[test]
    fn stats_merge_any_split(values in prop::collection::vec(-1e6f64..1e6, 2..100), split_frac in 0.0f64..1.0) {
        let split = ((values.len() as f64 * split_frac) as usize).min(values.len());
        let seq: OnlineStats = values.iter().copied().collect();
        let mut a: OnlineStats = values[..split].iter().copied().collect();
        let b: OnlineStats = values[split..].iter().copied().collect();
        a.merge(&b);
        prop_assert_eq!(a.count(), seq.count());
        prop_assert!((a.mean() - seq.mean()).abs() <= 1e-6 * seq.mean().abs().max(1.0));
        prop_assert!(
            (a.population_variance() - seq.population_variance()).abs()
                <= 1e-6 * seq.population_variance().abs().max(1.0)
        );
    }

    /// Percentiles are monotone and bounded by the sample extremes.
    #[test]
    fn summary_percentiles_monotone(values in prop::collection::vec(-1e3f64..1e3, 1..80)) {
        let summary: Summary = values.iter().copied().collect();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let v = summary.percentile(p);
            prop_assert!(v >= last - 1e-12, "percentile not monotone");
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "percentile out of range");
            last = v;
        }
    }

    /// Downsampling by mean conserves the series total (sum × step).
    #[test]
    fn downsample_mean_conserves_total(values in prop::collection::vec(0.0f64..100.0, 1..120), factor in 1usize..10) {
        let series = TimeSeries::new(SimTime::ZERO, SimDuration::SECOND, values.clone());
        let down = series.downsample_mean(factor);
        // Totals match when weighting each downsampled bucket by its
        // actual source count.
        let mut reconstructed = 0.0;
        for (i, chunk) in values.chunks(factor).enumerate() {
            reconstructed += down.values()[i] * chunk.len() as f64;
        }
        let original: f64 = values.iter().sum();
        prop_assert!((reconstructed - original).abs() < 1e-6 * original.max(1.0));
    }

    /// Forked RNG streams with different labels never produce identical
    /// prefixes.
    #[test]
    fn rng_forks_diverge(seed in 0u64..10_000, a in "[a-z]{1,8}", b in "[a-z]{1,8}") {
        prop_assume!(a != b);
        let root = RngStream::new(seed);
        let mut x = root.fork(&a);
        let mut y = root.fork(&b);
        let same = (0..16).filter(|_| x.next_u64() == y.next_u64()).count();
        prop_assert!(same < 4, "streams {a:?}/{b:?} suspiciously correlated");
    }

    /// A CUSUM detector must never fire on a constant stream, whatever
    /// the level: a flat signal has zero residual, so the cumulative
    /// sum stays at zero for any drift and threshold.
    #[test]
    fn cusum_never_fires_on_constant_input(
        level in -1e6f64..1e6,
        drift in 0.0f64..4.0,
        threshold in 0.1f64..100.0,
        n in 1usize..400,
    ) {
        let mut cusum = Cusum::new(drift, threshold);
        for i in 0..n {
            let v = cusum.push(SimTime::from_millis(i as u64 * 100), level);
            prop_assert!(!v.fired, "fired on constant input at sample {i}");
        }
        prop_assert_eq!(cusum.positive_sum(), 0.0);
    }

    /// Replaying the same stream through a clone reproduces the exact
    /// verdict sequence — the property the telemetry-replay path
    /// depends on.
    #[test]
    fn cusum_replay_is_deterministic(values in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let mut live = Cusum::new(0.5, 8.0);
        let mut replayed = live.clone();
        for (i, &x) in values.iter().enumerate() {
            let t = SimTime::from_millis(i as u64 * 100);
            prop_assert_eq!(live.push(t, x), replayed.push(t, x));
        }
        prop_assert_eq!(live, replayed);
    }

    /// The spike of any value through `align_down` stays within one step.
    #[test]
    fn align_down_within_step(ms in 0u64..10_000_000, step_ms in 1u64..100_000) {
        let t = SimTime::from_millis(ms);
        let step = SimDuration::from_millis(step_ms);
        let aligned = t.align_down(step);
        prop_assert!(aligned <= t);
        prop_assert!(t.saturating_since(aligned) < step);
        prop_assert_eq!(aligned.as_millis() % step_ms, 0);
    }
}

/// Values with repeats, both signed zeros and both infinities: the
/// inputs where sorting once could disagree with inserting one by one.
const SUMMARY_POOL: [f64; 7] = [0.0, -0.0, 1.5, -1.5, f64::INFINITY, f64::NEG_INFINITY, 3.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Collecting a summary, or extending one chunk by chunk, sorts each
    /// batch once, yet builds what pushing each value in turn from
    /// `Summary::new()` builds, bit for bit (the comparison is on bits
    /// because `-0.0 == 0.0`). Chunks may be empty. Three cases in four
    /// carry a NaN in the first, a middle or the last chunk, from where
    /// on the values are pushed.
    #[test]
    fn collected_summary_matches_pushed_bits(
        picks in prop::collection::vec(
            prop::collection::vec(0usize..SUMMARY_POOL.len(), 0..16),
            1..6,
        ),
        nan_chunk in 0usize..4,
        nan_at in 0usize..16,
    ) {
        let mut chunks: Vec<Vec<f64>> = picks
            .iter()
            .map(|chunk| chunk.iter().map(|&i| SUMMARY_POOL[i]).collect())
            .collect();
        let with_nan = match nan_chunk {
            0 => None,
            1 => Some(0),
            2 => Some(chunks.len() / 2),
            _ => Some(chunks.len() - 1),
        };
        if let Some(c) = with_nan {
            let at = nan_at % (chunks[c].len() + 1);
            chunks[c].insert(at, f64::NAN);
        }
        let values = chunks.concat();
        let mut pushed = Summary::new();
        for &v in &values {
            pushed.push(v);
        }
        let collected: Summary = values.iter().copied().collect();
        let mut extended = Summary::new();
        for chunk in &chunks {
            extended.extend(chunk.iter().copied());
        }
        let bits = |s: &Summary| s.sorted_values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&collected), bits(&pushed));
        prop_assert_eq!(bits(&extended), bits(&pushed));
        prop_assert_eq!(collected.snapshot_json(), pushed.snapshot_json());
        prop_assert_eq!(extended.snapshot_json(), pushed.snapshot_json());
    }
}

/// Metric names of the report property's recordings.
const REPORT_METRICS: [&str; 4] = ["rack-00.draw_w", "rack-01.draw_w", "a.x", "z.y"];

/// Sample values of the report property: signed zeros and repeats in
/// the first `REPORT_FINITE`, then both infinities and a NaN.
const REPORT_POOL: [f64; 11] = [
    0.0,
    -0.0,
    1.5,
    -2.0,
    3.0,
    1.5,
    -0.0,
    7.25,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];
const REPORT_FINITE: usize = 8;

/// One recorded tick of the report property: a sort key per metric
/// (the order the tick writes them in), a value pick per metric, and an
/// event pick (below 6 adds an event of one of two kinds from one of
/// three sources).
type TickPicks = (Vec<usize>, Vec<usize>, usize);

/// A recording-shaped stream: every tick samples each metric once, in
/// the tick's own order, from the finite values only when `finite`.
fn report_records(ticks: &[TickPicks], finite: bool) -> Vec<ParsedRecord<'static>> {
    let pool = if finite {
        &REPORT_POOL[..REPORT_FINITE]
    } else {
        &REPORT_POOL[..]
    };
    let mut records = Vec::new();
    for (t, (keys, values, event)) in ticks.iter().enumerate() {
        let mut order: Vec<usize> = (0..REPORT_METRICS.len()).collect();
        order.sort_by_key(|&m| keys[m]);
        for m in order {
            records.push(ParsedRecord {
                time_ms: t as u64 * 100,
                name: REPORT_METRICS[m].into(),
                source: "".into(),
                value: pool[values[m] % pool.len()],
                is_event: false,
            });
        }
        if *event < 6 {
            records.push(ParsedRecord {
                time_ms: t as u64 * 100,
                name: ["shed", "breaker_trip"][event % 2].into(),
                source: format!("rack-0{}", event % 3).into(),
                value: 1.0,
                is_event: true,
            });
        }
    }
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Extending a report chunk by chunk, at arbitrary cuts (empty
    /// chunks included), builds the report `from_records` builds over
    /// the whole stream: equal, with every metric's state the same bits,
    /// and rendering the same bytes.
    #[test]
    fn chunked_report_matches_whole_report(
        ticks in prop::collection::vec(
            (
                prop::collection::vec(0usize..1000, REPORT_METRICS.len()),
                prop::collection::vec(0usize..REPORT_POOL.len(), REPORT_METRICS.len()),
                0usize..10,
            ),
            1..40,
        ),
        finite in any::<bool>(),
        cuts in prop::collection::vec(0usize..1000, 0..6),
    ) {
        let records = report_records(&ticks, finite);
        let whole = TelemetryReport::from_records(&records);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (records.len() + 1)).collect();
        cuts.sort_unstable();
        let mut chunked = TelemetryReport::default();
        let mut start = 0;
        for end in cuts.into_iter().chain([records.len()]) {
            chunked.extend(&records[start..end]);
            start = end;
        }
        let bits = |r: &TelemetryReport| {
            r.metric_names()
                .iter()
                .map(|&name| {
                    let d = r.metric(name).expect("listed metric");
                    format!("{name} {} {}", d.stats.snapshot_json(), d.summary.snapshot_json())
                })
                .collect::<Vec<_>>()
        };
        // `==` takes NaN for unequal to itself (a NaN sample, or the
        // mean of both infinities), so it is compared on finite streams;
        // the bits cover every case.
        if finite {
            prop_assert_eq!(&chunked, &whole);
        }
        prop_assert_eq!(bits(&chunked), bits(&whole));
        prop_assert_eq!(chunked.render(), whole.render());
        prop_assert_eq!(chunked.render_prometheus(), whole.render_prometheus());
    }
}

/// Metrics registered for the dispatch property. Subscriptions draw from
/// the first `SUBSCRIBABLE`, so the ids past them never have one.
const METRICS: usize = 12;
const SUBSCRIBABLE: usize = 8;

/// Sample values with jumps large enough to fire every detector family.
const SAMPLE_POOL: [f64; 6] = [100.0, 101.0, 99.0, 500.0, 0.0, 1_000.0];

/// A detector of `family` (0..4) with a low threshold, so that arbitrary
/// streams fire and recover often.
fn detector(family: u8, threshold: f64) -> Detector {
    let window = SimDuration::from_secs(1);
    match family {
        0 => Detector::Ewma(
            EwmaZScore::new(0.2, threshold)
                .with_warmup(2)
                .with_min_std(0.1),
        ),
        1 => Detector::Cusum(Cusum::new(0.5, threshold).with_warmup(2).with_min_std(0.1)),
        2 => Detector::SpikeTrain(SpikeTrainDetector::new(threshold, 2, window).with_min_std(0.1)),
        _ => Detector::DrainRate(DrainRateDetector::new(threshold, window)),
    }
}

/// One subscription of [`ScanBank`].
struct ScanSub {
    metric: MetricId,
    label: String,
    detector: Detector,
    last: Verdict,
    fires: u64,
    first_fire: Option<SimTime>,
}

/// The reference for `DetectorBank::observe`: every sample filters every
/// subscription for its metric.
struct ScanBank {
    subs: Vec<ScanSub>,
    min_votes: usize,
    firings: Vec<Firing>,
}

impl ScanBank {
    fn observe(&mut self, t: SimTime, metric: MetricId, value: f64) {
        for sub in self.subs.iter_mut().filter(|s| s.metric == metric) {
            let verdict = sub.detector.push(t, value);
            if verdict.fired && !sub.last.fired {
                sub.fires += 1;
                sub.first_fire.get_or_insert(t);
                self.firings.push(Firing {
                    time: t,
                    label: sub.label.clone(),
                    score: verdict.score,
                });
            }
            sub.last = verdict;
        }
    }

    fn fused(&self) -> FusedVerdict {
        let score = self
            .subs
            .iter()
            .map(|s| s.last.score)
            .fold(0.0_f64, f64::max);
        let votes = self.subs.iter().filter(|s| s.last.fired).count();
        FusedVerdict {
            score,
            votes,
            fired: votes >= self.min_votes,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dispatching a sample to its own metric's subscriptions does what
    /// scanning every subscription does: the same firings in the same
    /// order with the same labels and score bits, the same fused verdict
    /// after every sample, and the same state in every subscription.
    /// Metrics may carry no subscription, one, or several, and samples
    /// arrive for ids no subscription uses.
    #[test]
    fn dispatch_by_metric_matches_the_scan(
        subs in prop::collection::vec((0..SUBSCRIBABLE, 0u8..4, 0.5f64..4.0), 0..24),
        samples in prop::collection::vec((0..METRICS, 0..SAMPLE_POOL.len(), 0u64..3), 0..300),
        min_votes in 1usize..4,
    ) {
        let mut registry = MetricRegistry::new();
        let ids: Vec<MetricId> = (0..METRICS)
            .map(|i| registry.register_gauge(&format!("m{i}")))
            .collect();
        let mut bank = DetectorBank::new(min_votes);
        let mut scan = ScanBank { subs: Vec::new(), min_votes, firings: Vec::new() };
        for (k, &(metric, family, threshold)) in subs.iter().enumerate() {
            let label = format!("s{k}.m{metric}");
            bank.subscribe(ids[metric], label.clone(), detector(family, threshold));
            scan.subs.push(ScanSub {
                metric: ids[metric],
                label,
                detector: detector(family, threshold),
                last: Verdict::QUIET,
                fires: 0,
                first_fire: None,
            });
        }
        let bits = |f: FusedVerdict| (f.score.to_bits(), f.votes, f.fired);
        let mut t = SimTime::ZERO;
        for &(metric, value, step) in &samples {
            t += SimDuration::from_millis(100 * step);
            bank.observe(t, ids[metric], SAMPLE_POOL[value]);
            scan.observe(t, ids[metric], SAMPLE_POOL[value]);
            prop_assert_eq!(bits(bank.fused()), bits(scan.fused()));
        }
        let firing = |f: &Firing| (f.time, f.label.clone(), f.score.to_bits());
        prop_assert_eq!(
            bank.firings().iter().map(firing).collect::<Vec<_>>(),
            scan.firings.iter().map(firing).collect::<Vec<_>>()
        );
        prop_assert_eq!(bank.len(), scan.subs.len());
        for (sub, reference) in bank.subscriptions().zip(&scan.subs) {
            prop_assert_eq!(sub.label(), reference.label.as_str());
            prop_assert_eq!(sub.last().score.to_bits(), reference.last.score.to_bits());
            prop_assert_eq!(sub.last().fired, reference.last.fired);
            prop_assert_eq!(sub.fires(), reference.fires);
            prop_assert_eq!(sub.first_fire(), reference.first_fire);
            prop_assert_eq!(sub.detector(), &reference.detector);
        }
    }
}
