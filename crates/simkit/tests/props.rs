//! Property tests on the simulation substrate.

use proptest::prelude::*;
use simkit::detect::{Cusum, StreamDetector};
use simkit::engine::{ControlFlow, Engine};
use simkit::rng::RngStream;
use simkit::series::TimeSeries;
use simkit::stats::{OnlineStats, Summary};
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

    /// Collecting a summary sorts once, yet builds what pushing each
    /// value in turn from `Summary::new()` builds, bit for bit (the
    /// comparison is on bits because `-0.0 == 0.0`). Half the cases
    /// carry a NaN, which takes the push path.
    #[test]
    fn collected_summary_matches_pushed_bits(
        picks in prop::collection::vec(0usize..SUMMARY_POOL.len(), 0..64),
        with_nan in any::<bool>(),
        nan_at in 0usize..64,
    ) {
        let mut values: Vec<f64> = picks.iter().map(|&i| SUMMARY_POOL[i]).collect();
        if with_nan {
            values.insert(nan_at % (values.len() + 1), f64::NAN);
        }
        let mut pushed = Summary::new();
        for &v in &values {
            pushed.push(v);
        }
        let collected: Summary = values.iter().copied().collect();
        let bits = |s: &Summary| s.sorted_values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&collected), bits(&pushed));
        prop_assert_eq!(collected.snapshot_json(), pushed.snapshot_json());
    }
}
