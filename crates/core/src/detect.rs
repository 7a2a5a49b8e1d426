//! Online power-attack detection wired into the cluster simulator.
//!
//! Table I shows interval metering is nearly blind to narrow, sparse
//! spikes: a 1-second spike inside a 5-minute energy window is diluted
//! 300×. This module takes the opposite approach — streaming detectors
//! from [`simkit::detect`] consume the simulator's per-tick telemetry
//! *as it is emitted* and fuse their verdicts into a graded
//! [`DetectionEvidence`] signal for the security policy, so Level-2/3
//! escalation can fire while the µDEB still has charge.
//!
//! # Architecture
//!
//! * [`DetectConfig`] — the detector thresholds and fusion knobs (with
//!   [`DetectConfig::scaled`] for ROC threshold sweeps);
//! * [`SimDetectors`] — a [`DetectorBank`] subscribed to per-rack draw /
//!   SOC / µDEB-shave channels plus the aggregate cluster draw. The
//!   simulator feeds it in stage 10b of [`ClusterSim::step`]
//!   (gauge-by-gauge, registration order), and the same struct replays a
//!   serialized telemetry trace offline — the feeding order is identical
//!   in both modes, so live and replayed firing logs match
//!   byte-for-byte;
//! * the evaluation harness — [`confusion`], [`spike_detection_rate`],
//!   [`spike_latencies`] score a per-tick verdict stream against the
//!   [`AttackWindows`] ground truth, and [`threshold_roc`] sweeps a
//!   threshold-scale grid across [`SweepRunner`] workers.
//!
//! [`ClusterSim::step`]: crate::sim::ClusterSim::step
//! [`ClusterSim`]: crate::sim::ClusterSim

use std::collections::BTreeMap;

use attack::scenario::AttackWindows;
use simkit::detect::{
    Cusum, Detector, DetectorBank, DrainRateDetector, EwmaZScore, FusedVerdict, SpikeTrainDetector,
};
use simkit::sweep::SweepRunner;
use simkit::telemetry::{MetricId, MetricRegistry, ParsedRecord};
use simkit::time::{SimDuration, SimTime};

use crate::policy::DetectionEvidence;
use crate::telemetry::RackTick;

/// Detector thresholds and fusion knobs.
///
/// The defaults are calibrated for the testbed signals (per-rack draw
/// with ~1% nameplate jitter, 100 ms ticks): tight enough to catch a
/// single-server spike, loose enough that an attack-free diurnal trace
/// stays under a 5% false-positive tick rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectConfig {
    /// EWMA smoothing factor for the draw-baseline detectors.
    pub ewma_alpha: f64,
    /// z-score at which a draw residual counts as a spike.
    pub ewma_threshold: f64,
    /// CUSUM slack per sample (in σ units).
    pub cusum_drift: f64,
    /// Accumulated CUSUM sum (in σ units) at which the change fires.
    pub cusum_threshold: f64,
    /// z-score an individual excursion needs to enter the spike ring.
    pub spike_sigma: f64,
    /// Spikes inside the window needed before the train detector fires.
    pub min_spikes: usize,
    /// Sliding window the spike-train detector counts over.
    pub spike_window: SimDuration,
    /// SOC drain rate (fraction of capacity per hour) that fires the
    /// drain detector.
    pub drain_per_hour: f64,
    /// Sliding window the drain-rate estimator differentiates over.
    pub drain_window: SimDuration,
    /// Concurrently-fired detectors needed for a fused (Suspected)
    /// verdict.
    pub min_votes: usize,
    /// Concurrently-fired detectors needed for a Confirmed verdict.
    pub confirm_votes: usize,
    /// How long fused evidence keeps feeding the policy after the last
    /// fired tick — bridges the quiet gaps between sparse spikes so the
    /// policy does not flap.
    pub hold: SimDuration,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            ewma_alpha: 0.05,
            ewma_threshold: 5.0,
            cusum_drift: 0.5,
            cusum_threshold: 12.0,
            spike_sigma: 4.0,
            min_spikes: 2,
            spike_window: SimDuration::from_secs(150),
            drain_per_hour: 2.0,
            drain_window: SimDuration::from_secs(60),
            min_votes: 2,
            confirm_votes: 3,
            hold: SimDuration::from_secs(120),
        }
    }
}

impl DetectConfig {
    /// Returns a copy with every firing threshold multiplied by `scale`
    /// (> 1 = stricter, < 1 = more sensitive). The fusion knobs are
    /// unchanged. This is the one-dimensional family the ROC sweep
    /// walks.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn scaled(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "threshold scale must be positive");
        self.ewma_threshold *= scale;
        self.cusum_threshold *= scale;
        self.spike_sigma *= scale;
        self.drain_per_hour *= scale;
        self
    }
}

/// The detection channels registered for one rack.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RackChannels {
    draw: MetricId,
    soc: MetricId,
    udeb_shave: MetricId,
}

/// Most distinct sample names a [`SimDetectors`] remembers in arrival
/// order. The names come off the wire, so the list must stay bounded; a
/// stream with more distinct names resolves the rest through the maps
/// alone.
const ARRIVAL_NAMES_CAP: usize = 4_096;

/// Resolves sample names to the stack's metric ids, fastest when names
/// arrive in the same order every tick, as recorded telemetry does.
///
/// It keeps each distinct name seen so far, in arrival order, with the
/// registry's answer for it. A name is first compared with the entry
/// after the previous hit, then with the first entry (where the next
/// tick starts); only when both differ does it go to a map: this list's
/// own index for a name seen before, the registry for a new one. The
/// answer always equals the registry's, because each entry caches it and
/// the registry never changes after [`SimDetectors::new`].
///
/// The list is a lookup cache, not detector state: it takes no part in
/// equality, so stacks fed the same samples compare equal whichever way
/// their names were resolved.
#[derive(Debug, Clone, Default)]
struct ArrivalNames {
    /// Distinct names in first-arrival order, each with its metric id
    /// (`None` for names the stack does not subscribe to).
    names: Vec<(String, Option<MetricId>)>,
    /// Each listed name's position in `names`.
    positions: BTreeMap<String, usize>,
    /// The position after the previous hit.
    next: usize,
}

impl ArrivalNames {
    fn resolve(&mut self, registry: &MetricRegistry, name: &str) -> Option<MetricId> {
        let listed = [self.next, 0]
            .into_iter()
            .find(|&i| self.names.get(i).is_some_and(|(n, _)| n == name))
            .or_else(|| self.positions.get(name).copied());
        if let Some(i) = listed {
            self.next = i + 1;
            return self.names[i].1;
        }
        let id = registry.id(name);
        if self.names.len() < ARRIVAL_NAMES_CAP {
            self.positions.insert(name.to_string(), self.names.len());
            self.names.push((name.to_string(), id));
            self.next = self.names.len();
        }
        id
    }
}

impl PartialEq for ArrivalNames {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// One tick's fused verdict, as collected by [`SimDetectors::replay`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickVerdict {
    /// The tick's timestamp.
    pub time: SimTime,
    /// The bank's fused verdict after every sample of the tick.
    pub fused: FusedVerdict,
}

/// The simulator's detector stack: a [`DetectorBank`] subscribed to the
/// cluster's detection channels, plus the hold-window state that turns
/// fused verdicts into policy [`DetectionEvidence`].
///
/// The same struct serves both execution modes: the simulator feeds it
/// live in [`ClusterSim::step`](crate::sim::ClusterSim::step), and
/// [`SimDetectors::replay`] feeds it a parsed telemetry trace offline.
/// The bank's metric ids come from its own private registry (only the
/// subscribed names are registered), so a replayed trace needs no id
/// translation — unsubscribed metric names are simply skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct SimDetectors {
    config: DetectConfig,
    registry: MetricRegistry,
    bank: DetectorBank,
    racks: Vec<RackChannels>,
    cluster_draw: MetricId,
    fused_was_fired: bool,
    last_suspected: Option<SimTime>,
    last_confirmed: Option<SimTime>,
    arrival: ArrivalNames,
}

impl SimDetectors {
    /// Builds the detector stack for a cluster of `racks` racks.
    ///
    /// Per rack: an EWMA z-score and a spike-train detector on
    /// `rack-NN.draw_w`, a drain-rate estimator on `rack-NN.soc`, and a
    /// CUSUM on `rack-NN.udeb_shave_w`. Cluster-wide: an EWMA z-score
    /// and a CUSUM on `cluster.draw_w`.
    ///
    /// # Panics
    ///
    /// Panics if `racks` is zero.
    pub fn new(racks: usize, config: DetectConfig) -> Self {
        assert!(racks > 0, "a detector stack needs at least one rack");
        let mut registry = MetricRegistry::new();
        let mut bank = DetectorBank::new(config.min_votes);
        let rack_channels: Vec<RackChannels> = (0..racks)
            .map(|r| RackChannels {
                draw: registry.register_gauge(&format!("rack-{r:02}.draw_w")),
                soc: registry.register_gauge(&format!("rack-{r:02}.soc")),
                udeb_shave: registry.register_gauge(&format!("rack-{r:02}.udeb_shave_w")),
            })
            .collect();
        for (r, ch) in rack_channels.iter().enumerate() {
            bank.subscribe(
                ch.draw,
                format!("rack-{r:02}.draw.ewma"),
                Detector::Ewma(EwmaZScore::new(config.ewma_alpha, config.ewma_threshold)),
            );
            bank.subscribe(
                ch.draw,
                format!("rack-{r:02}.draw.spikes"),
                Detector::SpikeTrain(SpikeTrainDetector::new(
                    config.spike_sigma,
                    config.min_spikes,
                    config.spike_window,
                )),
            );
            bank.subscribe(
                ch.soc,
                format!("rack-{r:02}.soc.drain"),
                Detector::DrainRate(DrainRateDetector::new(
                    config.drain_per_hour,
                    config.drain_window,
                )),
            );
            bank.subscribe(
                ch.udeb_shave,
                format!("rack-{r:02}.shave.cusum"),
                Detector::Cusum(Cusum::new(config.cusum_drift, config.cusum_threshold)),
            );
        }
        let cluster_draw = registry.register_gauge("cluster.draw_w");
        bank.subscribe(
            cluster_draw,
            "cluster.draw.ewma",
            Detector::Ewma(EwmaZScore::new(config.ewma_alpha, config.ewma_threshold)),
        );
        bank.subscribe(
            cluster_draw,
            "cluster.draw.cusum",
            Detector::Cusum(Cusum::new(config.cusum_drift, config.cusum_threshold)),
        );
        SimDetectors {
            config,
            registry,
            bank,
            racks: rack_channels,
            cluster_draw,
            fused_was_fired: false,
            last_suspected: None,
            last_confirmed: None,
            arrival: ArrivalNames::default(),
        }
    }

    /// The configuration the stack was built with.
    pub fn config(&self) -> &DetectConfig {
        &self.config
    }

    /// The underlying bank (subscriptions, firings, fused verdict).
    pub fn bank(&self) -> &DetectorBank {
        &self.bank
    }

    /// How many racks the stack watches.
    pub fn rack_count(&self) -> usize {
        self.racks.len()
    }

    /// Feeds one rack's per-tick gauges. Channel order (draw, SOC,
    /// µDEB shave) matches the serialized record order, which is what
    /// keeps live and replayed firing logs identical.
    pub fn observe_rack(&mut self, now: SimTime, rack: usize, tick: &RackTick) {
        let ch = self.racks[rack];
        self.bank.observe(now, ch.draw, tick.draw_w);
        self.bank.observe(now, ch.soc, tick.soc);
        self.bank.observe(now, ch.udeb_shave, tick.udeb_shave_w);
    }

    /// Feeds the aggregate cluster draw (after every rack's channels).
    pub fn observe_cluster(&mut self, now: SimTime, draw_w: f64) {
        self.bank.observe(now, self.cluster_draw, draw_w);
    }

    /// Closes the tick: updates the evidence hold-windows from the fused
    /// verdict and reports the verdict on its rising edge (quiet →
    /// fired), which is when the simulator emits a
    /// `detector_fired` event.
    pub fn end_tick(&mut self, now: SimTime) -> Option<FusedVerdict> {
        let fused = self.bank.fused();
        if fused.fired {
            self.last_suspected = Some(now);
            if fused.votes >= self.config.confirm_votes {
                self.last_confirmed = Some(now);
            }
        }
        let rising = fused.fired && !self.fused_was_fired;
        self.fused_was_fired = fused.fired;
        rising.then_some(fused)
    }

    /// The graded evidence the security policy consumes at `now`:
    /// `Confirmed` while a confirm-quorum verdict is within the hold
    /// window, `Suspected` while any fused firing is, `None` otherwise.
    pub fn evidence(&self, now: SimTime) -> DetectionEvidence {
        let held =
            |t: Option<SimTime>| t.is_some_and(|t| now.saturating_since(t) <= self.config.hold);
        if held(self.last_confirmed) {
            DetectionEvidence::Confirmed
        } else if held(self.last_suspected) {
            DetectionEvidence::Suspected
        } else {
            DetectionEvidence::None
        }
    }

    /// The bank's current fused verdict.
    pub fn fused(&self) -> FusedVerdict {
        self.bank.fused()
    }

    /// Feeds one parsed record into the open tick. Events and metrics
    /// the stack does not subscribe to are skipped (returning `false`),
    /// so the surviving feed order equals the live emission order.
    ///
    /// This is the streaming half of [`replay`](SimDetectors::replay):
    /// a caller consuming a live feed calls `observe_record` per record
    /// and [`end_tick`](SimDetectors::end_tick) whenever the timestamp
    /// changes, and lands in exactly the state a batch replay reaches.
    pub fn observe_record(&mut self, r: &ParsedRecord) -> bool {
        if r.is_event {
            return false;
        }
        match self.arrival.resolve(&self.registry, &r.name) {
            Some(id) => {
                self.bank
                    .observe(SimTime::from_millis(r.time_ms), id, r.value);
                true
            }
            None => false,
        }
    }

    /// Replays a parsed telemetry trace through the stack, returning one
    /// [`TickVerdict`] per distinct timestamp. Records are grouped into
    /// ticks by runs of equal timestamps and fed via
    /// [`observe_record`](SimDetectors::observe_record), so the firing
    /// log is byte-identical to the live run's.
    pub fn replay(&mut self, records: &[ParsedRecord]) -> Vec<TickVerdict> {
        let mut verdicts = Vec::new();
        let mut i = 0;
        while i < records.len() {
            let t_ms = records[i].time_ms;
            while i < records.len() && records[i].time_ms == t_ms {
                self.observe_record(&records[i]);
                i += 1;
            }
            let now = SimTime::from_millis(t_ms);
            self.end_tick(now);
            verdicts.push(TickVerdict {
                time: now,
                fused: self.bank.fused(),
            });
        }
        verdicts
    }

    /// Clears all detector and evidence state (subscriptions stay).
    pub fn reset(&mut self) {
        self.bank.reset();
        self.fused_was_fired = false;
        self.last_suspected = None;
        self.last_confirmed = None;
    }
}

/// Tick-level scoring of a verdict stream against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Fired ticks inside an attack window.
    pub true_pos: u64,
    /// Fired ticks outside every attack window.
    pub false_pos: u64,
    /// Quiet ticks outside every attack window.
    pub true_neg: u64,
    /// Quiet ticks inside an attack window.
    pub false_neg: u64,
}

impl ConfusionMatrix {
    /// Tallies one tick.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.true_pos += 1,
            (true, false) => self.false_pos += 1,
            (false, false) => self.true_neg += 1,
            (false, true) => self.false_neg += 1,
        }
    }

    /// Total ticks tallied.
    pub fn total(&self) -> u64 {
        self.true_pos + self.false_pos + self.true_neg + self.false_neg
    }

    /// True-positive rate (sensitivity); 0 when there were no attack
    /// ticks.
    pub fn tpr(&self) -> f64 {
        let pos = self.true_pos + self.false_neg;
        if pos == 0 {
            0.0
        } else {
            self.true_pos as f64 / pos as f64
        }
    }

    /// False-positive rate; 0 when there were no benign ticks.
    pub fn fpr(&self) -> f64 {
        let neg = self.false_pos + self.true_neg;
        if neg == 0 {
            0.0
        } else {
            self.false_pos as f64 / neg as f64
        }
    }
}

/// Scores every tick of `verdicts` against `windows`, extending each
/// window's end by `grace` (detectors decay, they do not snap shut).
pub fn confusion(
    verdicts: &[TickVerdict],
    windows: &AttackWindows,
    grace: SimDuration,
) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::default();
    for v in verdicts {
        m.record(v.fused.fired, windows.is_attack_with_grace(v.time, grace));
    }
    m
}

/// Per-spike first-detection latency: for each ground-truth spike
/// window, the delay from spike start to the first fused-fired tick
/// inside `[start, end + grace)`, or `None` when the spike went
/// undetected.
pub fn spike_latencies(
    verdicts: &[TickVerdict],
    windows: &AttackWindows,
    grace: SimDuration,
) -> Vec<Option<SimDuration>> {
    windows
        .spikes
        .iter()
        .map(|&(s, e)| {
            verdicts
                .iter()
                .find(|v| v.fused.fired && v.time >= s && v.time < e + grace)
                .map(|v| v.time.saturating_since(s))
        })
        .collect()
}

/// Fraction of ground-truth spikes with at least one fused-fired tick
/// inside the (grace-extended) spike window — the detector-bank
/// counterpart of Table I's per-spike metering detection rate.
pub fn spike_detection_rate(
    verdicts: &[TickVerdict],
    windows: &AttackWindows,
    grace: SimDuration,
) -> f64 {
    if windows.spikes.is_empty() {
        return 0.0;
    }
    let detected = spike_latencies(verdicts, windows, grace)
        .iter()
        .filter(|l| l.is_some())
        .count();
    detected as f64 / windows.spikes.len() as f64
}

/// One operating point of the threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Threshold scale applied to the base config.
    pub scale: f64,
    /// Tick-level true-positive rate on the attack trace.
    pub tpr: f64,
    /// Tick-level false-positive rate on the attack trace.
    pub fpr: f64,
    /// Per-spike detection rate on the attack trace.
    pub spike_rate: f64,
}

/// Sweeps the detector thresholds over `scales`, replaying the same
/// parsed trace at every operating point and scoring it against
/// `windows`. Fanned over `jobs` [`SweepRunner`] workers; each point
/// replays a fresh stack, so the curve is identical for any worker
/// count.
pub fn threshold_roc(
    records: &[ParsedRecord],
    racks: usize,
    base: DetectConfig,
    windows: &AttackWindows,
    scales: &[f64],
    grace: SimDuration,
    jobs: usize,
) -> Vec<RocPoint> {
    SweepRunner::new(jobs).run(scales.to_vec(), |_, scale| {
        let mut stack = SimDetectors::new(racks, base.scaled(scale));
        let verdicts = stack.replay(records);
        let m = confusion(&verdicts, windows, grace);
        RocPoint {
            scale,
            tpr: m.tpr(),
            fpr: m.fpr(),
            spike_rate: spike_detection_rate(&verdicts, windows, grace),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(score: f64, votes: usize) -> FusedVerdict {
        FusedVerdict {
            score,
            votes,
            fired: true,
        }
    }

    fn tick(secs: u64, fused: FusedVerdict) -> TickVerdict {
        TickVerdict {
            time: SimTime::from_secs(secs),
            fused,
        }
    }

    #[test]
    fn stack_wires_four_per_rack_plus_cluster_pair() {
        let stack = SimDetectors::new(3, DetectConfig::default());
        assert_eq!(stack.bank().len(), 3 * 4 + 2);
        assert_eq!(stack.rack_count(), 3);
        let families: Vec<&str> = stack
            .bank()
            .subscriptions()
            .map(|s| s.detector().family())
            .collect();
        assert_eq!(
            &families[..4],
            &["ewma", "spike_train", "drain_rate", "cusum"]
        );
        assert_eq!(&families[12..], &["ewma", "cusum"]);
    }

    #[test]
    fn scaled_multiplies_thresholds_only() {
        let base = DetectConfig::default();
        let strict = base.scaled(2.0);
        assert_eq!(strict.ewma_threshold, base.ewma_threshold * 2.0);
        assert_eq!(strict.cusum_threshold, base.cusum_threshold * 2.0);
        assert_eq!(strict.spike_sigma, base.spike_sigma * 2.0);
        assert_eq!(strict.drain_per_hour, base.drain_per_hour * 2.0);
        assert_eq!(strict.min_votes, base.min_votes);
        assert_eq!(strict.hold, base.hold);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = DetectConfig::default().scaled(0.0);
    }

    #[test]
    fn evidence_holds_then_decays() {
        let config = DetectConfig {
            min_votes: 1,
            confirm_votes: 2,
            hold: SimDuration::from_secs(10),
            ..DetectConfig::default()
        };
        let mut stack = SimDetectors::new(1, config);
        // Warm the per-rack EWMA on a flat draw, then spike it.
        let mut now = SimTime::ZERO;
        for _ in 0..60 {
            stack.observe_rack(
                now,
                0,
                &RackTick {
                    draw_w: 1000.0,
                    soc: 1.0,
                    ..RackTick::default()
                },
            );
            assert_eq!(stack.end_tick(now), None);
            now += SimDuration::from_millis(100);
        }
        assert_eq!(stack.evidence(now), DetectionEvidence::None);
        stack.observe_rack(
            now,
            0,
            &RackTick {
                draw_w: 5000.0,
                soc: 1.0,
                ..RackTick::default()
            },
        );
        let rising = stack.end_tick(now).expect("spike fires the bank");
        assert!(rising.fired && rising.votes >= 1);
        assert_eq!(stack.evidence(now), DetectionEvidence::Suspected);
        // Still held 9 s later; decayed after the 10 s hold expires.
        assert_eq!(
            stack.evidence(now + SimDuration::from_secs(9)),
            DetectionEvidence::Suspected
        );
        assert_eq!(
            stack.evidence(now + SimDuration::from_secs(11)),
            DetectionEvidence::None
        );
        stack.reset();
        assert_eq!(stack.evidence(now), DetectionEvidence::None);
        assert_eq!(stack.fused(), FusedVerdict::default());
    }

    #[test]
    fn confusion_counts_each_quadrant() {
        let windows = AttackWindows {
            drain: None,
            spikes: vec![(SimTime::from_secs(10), SimTime::from_secs(11))],
        };
        let verdicts = vec![
            tick(5, FusedVerdict::default()),  // true negative
            tick(6, fired(2.0, 2)),            // false positive
            tick(10, fired(3.0, 2)),           // true positive
            tick(12, FusedVerdict::default()), // false negative (grace)
        ];
        let m = confusion(&verdicts, &windows, SimDuration::from_secs(3));
        assert_eq!(
            m,
            ConfusionMatrix {
                true_pos: 1,
                false_pos: 1,
                true_neg: 1,
                false_neg: 1,
            }
        );
        assert_eq!(m.total(), 4);
        assert_eq!(m.tpr(), 0.5);
        assert_eq!(m.fpr(), 0.5);
    }

    #[test]
    fn empty_confusion_rates_are_zero() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.tpr(), 0.0);
        assert_eq!(m.fpr(), 0.0);
    }

    #[test]
    fn latency_and_rate_score_per_spike() {
        let windows = AttackWindows {
            drain: None,
            spikes: vec![
                (SimTime::from_secs(10), SimTime::from_secs(11)),
                (SimTime::from_secs(70), SimTime::from_secs(71)),
            ],
        };
        // First spike caught 400 ms in; second missed entirely.
        let verdicts = vec![
            tick(9, FusedVerdict::default()),
            TickVerdict {
                time: SimTime::from_millis(10_400),
                fused: fired(2.0, 2),
            },
            tick(70, FusedVerdict::default()),
        ];
        let grace = SimDuration::from_millis(300);
        let lats = spike_latencies(&verdicts, &windows, grace);
        assert_eq!(lats, vec![Some(SimDuration::from_millis(400)), None]);
        assert_eq!(spike_detection_rate(&verdicts, &windows, grace), 0.5);
        assert_eq!(
            spike_detection_rate(&verdicts, &AttackWindows::default(), grace),
            0.0
        );
    }

    const RACK_GAUGES: [&str; 8] = [
        "draw_w",
        "soc",
        "batt_discharge_w",
        "batt_charge_w",
        "udeb_energy_j",
        "udeb_shave_w",
        "cap_duty",
        "breaker_margin",
    ];

    fn sample(time_ms: u64, name: String, value: f64) -> ParsedRecord<'static> {
        ParsedRecord {
            time_ms,
            name: name.into(),
            source: "".into(),
            value,
            is_event: false,
        }
    }

    /// `ticks` ticks of 2-rack telemetry in registration order, as a
    /// recording holds it: 8 gauges per rack, then the cluster's 2. Each
    /// tick's samples form one inner vector. Rack 1's draw (and with it
    /// the cluster's) jumps for ticks 120..140, so detectors fire.
    fn two_rack_ticks(ticks: u64) -> Vec<Vec<ParsedRecord<'static>>> {
        let mut rng = simkit::rng::RngStream::new(7);
        (0..ticks)
            .map(|i| {
                let t = i * 100;
                let mut tick = Vec::new();
                let mut cluster = 0.0;
                for r in 0..2 {
                    let draw = if r == 1 && (120..140).contains(&i) {
                        6_000.0
                    } else {
                        1_000.0 + rng.uniform(-10.0, 10.0)
                    };
                    cluster += draw;
                    for gauge in RACK_GAUGES {
                        let value = match gauge {
                            "draw_w" => draw,
                            "soc" => 1.0 - 0.001 * i as f64,
                            "udeb_shave_w" => rng.uniform(0.0, 5.0),
                            _ => rng.uniform(0.0, 1.0),
                        };
                        tick.push(sample(t, format!("rack-{r:02}.{gauge}"), value));
                    }
                }
                tick.push(sample(t, "cluster.draw_w".to_string(), cluster));
                tick.push(sample(t, "cluster.level".to_string(), 0.0));
                tick
            })
            .collect()
    }

    /// The reference for [`SimDetectors::observe_record`]: every name
    /// resolved through the registry's map.
    fn observe_through_map(stack: &mut SimDetectors, r: &ParsedRecord) -> bool {
        if r.is_event {
            return false;
        }
        match stack.registry.id(&r.name) {
            Some(id) => {
                stack
                    .bank
                    .observe(SimTime::from_millis(r.time_ms), id, r.value);
                true
            }
            None => false,
        }
    }

    /// Feeds `ticks` to one stack through the arrival-order lookup and to
    /// another through the map, closing each tick on both, and checks
    /// that every record is fed or skipped alike and that both end in
    /// the same state.
    fn assert_lookup_matches_map(label: &str, ticks: &[Vec<ParsedRecord>]) -> SimDetectors {
        let mut arrival = SimDetectors::new(2, DetectConfig::default());
        let mut map = SimDetectors::new(2, DetectConfig::default());
        for tick in ticks {
            for r in tick {
                assert_eq!(
                    arrival.observe_record(r),
                    observe_through_map(&mut map, r),
                    "{label}: {} at {}",
                    r.name,
                    r.time_ms
                );
            }
            let now = SimTime::from_millis(tick[0].time_ms);
            assert_eq!(arrival.end_tick(now), map.end_tick(now), "{label}");
        }
        assert_eq!(arrival, map, "{label}");
        assert_eq!(
            arrival.bank().render_firings(),
            map.bank().render_firings(),
            "{label}"
        );
        arrival
    }

    #[test]
    fn arrival_order_lookup_matches_the_map_on_every_stream_shape() {
        let ordered = two_rack_ticks(200);
        let in_order = assert_lookup_matches_map("in order", &ordered);
        assert!(
            !in_order.bank().firings().is_empty(),
            "the streams must exercise firings"
        );
        assert_eq!(in_order.arrival.names.len(), 2 * 8 + 2);

        let mut rng = simkit::rng::RngStream::new(11);
        let mut permuted = ordered.clone();
        for tick in &mut permuted {
            rng.shuffle(tick);
        }
        assert_lookup_matches_map("permuted within ticks", &permuted);

        let mut dropped = ordered.clone();
        for (i, tick) in dropped.iter_mut().enumerate() {
            if i % 7 == 3 {
                tick.retain(|r| r.name != "rack-00.draw_w");
            }
            if i % 11 == 5 {
                tick.retain(|r| r.name != "rack-01.soc" && r.name != "cluster.draw_w");
            }
        }
        assert_lookup_matches_map("subscribed metrics dropped", &dropped);

        let mut unknown = ordered.clone();
        for (i, tick) in unknown.iter_mut().enumerate() {
            let t = tick[0].time_ms;
            let at = rng.below(tick.len() + 1);
            tick.insert(at, sample(t, format!("fresh.{i}"), 1.0));
            let at = rng.below(tick.len() + 1);
            tick.insert(at, sample(t, format!("noise.{}", i % 3), 2.0));
        }
        assert_lookup_matches_map("unknown names inserted", &unknown);

        let mut events = ordered.clone();
        for tick in &mut events {
            let t = tick[0].time_ms;
            let at = rng.below(tick.len() + 1);
            tick.insert(
                at,
                ParsedRecord {
                    time_ms: t,
                    name: "breaker_trip".into(),
                    source: "rack-00.draw_w".into(),
                    value: 1.0,
                    is_event: true,
                },
            );
        }
        assert_lookup_matches_map("events interleaved", &events);

        let mut mixed = unknown;
        for (i, tick) in mixed.iter_mut().enumerate() {
            if i % 5 == 0 {
                rng.shuffle(tick);
            }
            if i % 9 == 4 {
                tick.retain(|r| r.name != "rack-01.udeb_shave_w");
            }
        }
        assert_lookup_matches_map("all shapes at once", &mixed);
    }

    #[test]
    fn live_and_replayed_stacks_compare_equal() {
        let ticks = two_rack_ticks(200);
        let mut live = SimDetectors::new(2, DetectConfig::default());
        let mut replayed = SimDetectors::new(2, DetectConfig::default());
        for tick in &ticks {
            let now = SimTime::from_millis(tick[0].time_ms);
            let value = |name: String| {
                tick.iter()
                    .find(|r| r.name == name)
                    .expect("every gauge is in every tick")
                    .value
            };
            for rack in 0..2 {
                let gauge = |g: &str| value(format!("rack-{rack:02}.{g}"));
                let rack_tick = RackTick {
                    draw_w: gauge("draw_w"),
                    soc: gauge("soc"),
                    udeb_shave_w: gauge("udeb_shave_w"),
                    ..RackTick::default()
                };
                live.observe_rack(now, rack, &rack_tick);
            }
            live.observe_cluster(now, value("cluster.draw_w".to_string()));
            live.end_tick(now);
            for r in tick {
                replayed.observe_record(r);
            }
            replayed.end_tick(now);
        }
        assert!(!live.bank().firings().is_empty());
        assert!(replayed.arrival.names.len() > live.arrival.names.len());
        assert_eq!(live, replayed);
    }

    #[test]
    fn arrival_order_list_stops_at_its_cap() {
        let mut stack = SimDetectors::new(1, DetectConfig::default());
        for i in 0..100_000u64 {
            assert!(!stack.observe_record(&sample(i, format!("unknown-{i}"), 1.0)));
        }
        assert_eq!(stack.arrival.names.len(), ARRIVAL_NAMES_CAP);
        assert_eq!(stack.arrival.positions.len(), ARRIVAL_NAMES_CAP);
        // Past the cap, subscribed and listed names still resolve.
        assert!(stack.observe_record(&sample(100_000, "rack-00.draw_w".to_string(), 1.0)));
        assert!(!stack.observe_record(&sample(100_000, "unknown-7".to_string(), 1.0)));
        assert!(!stack.observe_record(&sample(100_000, "unknown-99999".to_string(), 1.0)));
        assert_eq!(stack.arrival.names.len(), ARRIVAL_NAMES_CAP);
    }

    #[test]
    fn replay_groups_records_by_tick() {
        use simkit::telemetry::{parse, Format};

        let jsonl = "\
{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":1000}\n\
{\"t\":0,\"m\":\"rack-00.soc\",\"v\":1}\n\
{\"t\":0,\"m\":\"rack-00.batt_discharge_w\",\"v\":0}\n\
{\"t\":0,\"m\":\"rack-00.udeb_shave_w\",\"v\":0}\n\
{\"t\":0,\"m\":\"cluster.draw_w\",\"v\":1000}\n\
{\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":1001}\n\
{\"t\":100,\"m\":\"cluster.draw_w\",\"v\":1001}\n\
{\"t\":100,\"e\":\"overload\",\"s\":\"pdu\",\"v\":1}\n";
        let records = parse(jsonl, Format::Jsonl).expect("valid trace");
        let mut stack = SimDetectors::new(1, DetectConfig::default());
        let verdicts = stack.replay(&records);
        assert_eq!(verdicts.len(), 2, "one verdict per distinct timestamp");
        assert_eq!(verdicts[0].time, SimTime::ZERO);
        assert_eq!(verdicts[1].time, SimTime::from_millis(100));
        assert!(verdicts.iter().all(|v| !v.fused.fired));
    }
}
