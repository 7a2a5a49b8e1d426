//! The two-phase attack controller.
//!
//! Figure 6 of the paper: in **Phase I** the virus "keeps running workload
//! in order to accelerate battery discharge" — a visible but non-offending
//! peak. The attacker watches its own VMs: once the rack battery
//! disconnects, the data center falls back to performance scaling (DVFS),
//! which the attacker observes as a throughput drop. That observation is
//! both the Phase-I exit condition and the side-channel sample the
//! autonomy estimator consumes. In **Phase II** the virus mutates into a
//! hidden spike train.

use simkit::time::{SimDuration, SimTime};

use crate::spike::SpikeTrain;
use crate::virus::PowerVirus;

/// Which phase the attack is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackPhase {
    /// Waiting for the configured start time.
    Dormant,
    /// Phase I: sustained drain (visible peak).
    Draining,
    /// Phase II: hidden spike train.
    Spiking,
}

impl AttackPhase {
    /// Stable lower-case name, used as a span attribute and in rendered
    /// forensics output.
    pub fn name(self) -> &'static str {
        match self {
            AttackPhase::Dormant => "dormant",
            AttackPhase::Draining => "draining",
            AttackPhase::Spiking => "spiking",
        }
    }
}

/// Why the attack left Phase I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionCause {
    /// The performance side channel fired: the attacker *observed* the
    /// battery running out — an informative sample for its autonomy
    /// estimator.
    SideChannel,
    /// The drain timer expired without any observation: the probe taught
    /// the attacker nothing (what vDEB's capacity sharing aims for).
    Timeout,
}

/// A two-phase attack on one rack, driving some number of compromised
/// servers.
///
/// # Example
///
/// ```
/// use attack::phases::{AttackPhase, TwoPhaseAttack};
/// use attack::spike::SpikeTrain;
/// use attack::virus::{PowerVirus, VirusClass};
/// use simkit::time::{SimDuration, SimTime};
///
/// let mut atk = TwoPhaseAttack::new(
///     PowerVirus::new(VirusClass::CpuIntensive),
///     SpikeTrain::per_minute(2.0, SimDuration::from_secs(1)),
///     SimTime::from_secs(10),
/// );
/// assert_eq!(atk.phase_at(SimTime::ZERO), AttackPhase::Dormant);
/// assert_eq!(atk.phase_at(SimTime::from_secs(20)), AttackPhase::Draining);
/// // The attacker's VMs suddenly slow down: battery must be out.
/// atk.observe_performance(SimTime::from_secs(80), 0.8);
/// assert_eq!(atk.phase_at(SimTime::from_secs(81)), AttackPhase::Spiking);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TwoPhaseAttack {
    virus: PowerVirus,
    train: SpikeTrain,
    start: SimTime,
    /// Time at which Phase II began (set by observation or timeout).
    spike_start: Option<SimTime>,
    /// Performance (relative to 1.0) below which the attacker concludes
    /// capping has started — i.e. the battery is out.
    capping_threshold: f64,
    /// Give-up timer: switch to Phase II even without a side-channel
    /// signal after this long — the attacker's prior estimate of a
    /// typical BBU autonomy window (default 5 minutes).
    max_drain: SimDuration,
    /// Duration of Phase I as actually experienced (the side-channel
    /// sample for the autonomy estimator).
    observed_drain: Option<SimDuration>,
    /// Why Phase I ended.
    cause: Option<TransitionCause>,
}

impl TwoPhaseAttack {
    /// Creates an attack that starts draining at `start`.
    pub fn new(virus: PowerVirus, train: SpikeTrain, start: SimTime) -> Self {
        TwoPhaseAttack {
            virus,
            train,
            start,
            spike_start: None,
            capping_threshold: 0.9,
            max_drain: SimDuration::from_mins(5),
            observed_drain: None,
            cause: None,
        }
    }

    /// Sets the drain give-up timeout (from a prior autonomy estimate).
    pub fn with_max_drain(mut self, max_drain: SimDuration) -> Self {
        self.max_drain = max_drain;
        self
    }

    /// The virus being driven.
    pub fn virus(&self) -> &PowerVirus {
        &self.virus
    }

    /// The Phase-II spike plan.
    pub fn train(&self) -> &SpikeTrain {
        &self.train
    }

    /// When the attack begins.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The Phase-I give-up timeout: the attacker stops draining and
    /// transitions to Phase II at `start + max_drain` even without an
    /// observed capping signal.
    pub fn max_drain(&self) -> SimDuration {
        self.max_drain
    }

    /// When Phase II began, if it has.
    pub fn spiking_since(&self) -> Option<SimTime> {
        self.spike_start
    }

    /// The drain duration the attacker observed, once Phase II has begun —
    /// this is the side-channel sample fed to
    /// [`crate::recon::AutonomyEstimator`].
    pub fn observed_drain(&self) -> Option<SimDuration> {
        self.observed_drain
    }

    /// Feeds the attacker's own observed VM performance (1.0 = full
    /// speed). A drop below the capping threshold during Phase I is read
    /// as "battery exhausted" and triggers Phase II.
    pub fn observe_performance(&mut self, now: SimTime, performance: f64) {
        if self.spike_start.is_some() || now < self.start {
            return;
        }
        if performance < self.capping_threshold {
            self.transition(now, TransitionCause::SideChannel);
        }
    }

    fn transition(&mut self, now: SimTime, cause: TransitionCause) {
        self.spike_start = Some(now);
        self.observed_drain = Some(now.saturating_since(self.start));
        self.cause = Some(cause);
    }

    /// Why Phase I ended, once it has.
    pub fn transition_cause(&self) -> Option<TransitionCause> {
        self.cause
    }

    /// The phase at time `now`, applying the drain timeout if no side
    /// channel fired.
    pub fn phase_at(&mut self, now: SimTime) -> AttackPhase {
        if now < self.start {
            return AttackPhase::Dormant;
        }
        if self.spike_start.is_none() && now.saturating_since(self.start) >= self.max_drain {
            self.transition(now, TransitionCause::Timeout);
        }
        match self.spike_start {
            Some(s) if now >= s => AttackPhase::Spiking,
            _ => AttackPhase::Draining,
        }
    }

    /// The utilization the virus imposes on each compromised server at
    /// `now`.
    pub fn utilization_at(&mut self, now: SimTime) -> f64 {
        match self.phase_at(now) {
            AttackPhase::Dormant => 0.0,
            AttackPhase::Draining => self.virus.drain_utilization(),
            AttackPhase::Spiking => {
                let spike_origin = self.spike_start.expect("spiking implies start");
                let rel = now.saturating_since(spike_origin);
                let envelope = self.train.envelope_at(SimTime::ZERO + rel);
                if envelope > 0.0 {
                    self.virus.spike_utilization(self.train.width())
                } else {
                    self.virus.utilization(0.0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virus::VirusClass;

    fn attack() -> TwoPhaseAttack {
        TwoPhaseAttack::new(
            PowerVirus::new(VirusClass::CpuIntensive),
            SpikeTrain::per_minute(2.0, SimDuration::from_secs(1)),
            SimTime::from_secs(100),
        )
    }

    #[test]
    fn dormant_before_start() {
        let mut a = attack();
        assert_eq!(a.phase_at(SimTime::from_secs(50)), AttackPhase::Dormant);
        assert_eq!(a.utilization_at(SimTime::from_secs(50)), 0.0);
    }

    #[test]
    fn drains_at_full_amplitude() {
        let mut a = attack();
        assert_eq!(a.phase_at(SimTime::from_secs(150)), AttackPhase::Draining);
        assert_eq!(a.utilization_at(SimTime::from_secs(150)), 1.0);
    }

    #[test]
    fn side_channel_triggers_phase_two_and_records_drain() {
        let mut a = attack();
        // Healthy performance: stays in Phase I.
        a.observe_performance(SimTime::from_secs(150), 1.0);
        assert_eq!(a.phase_at(SimTime::from_secs(151)), AttackPhase::Draining);
        // Capping observed at t=160: transition, drain = 60 s.
        a.observe_performance(SimTime::from_secs(160), 0.7);
        assert_eq!(a.phase_at(SimTime::from_secs(160)), AttackPhase::Spiking);
        assert_eq!(a.observed_drain(), Some(SimDuration::from_secs(60)));
    }

    #[test]
    fn observations_before_start_ignored() {
        let mut a = attack();
        a.observe_performance(SimTime::from_secs(10), 0.1);
        assert_eq!(a.phase_at(SimTime::from_secs(150)), AttackPhase::Draining);
    }

    #[test]
    fn drain_timeout_forces_phase_two() {
        let mut a = attack().with_max_drain(SimDuration::from_secs(30));
        assert_eq!(a.phase_at(SimTime::from_secs(129)), AttackPhase::Draining);
        assert_eq!(a.phase_at(SimTime::from_secs(130)), AttackPhase::Spiking);
        assert_eq!(a.observed_drain(), Some(SimDuration::from_secs(30)));
        assert_eq!(a.transition_cause(), Some(TransitionCause::Timeout));
    }

    #[test]
    fn side_channel_transition_is_informative() {
        let mut a = attack();
        assert_eq!(a.transition_cause(), None);
        a.observe_performance(SimTime::from_secs(160), 0.5);
        assert_eq!(a.transition_cause(), Some(TransitionCause::SideChannel));
    }

    #[test]
    fn spike_utilization_follows_train() {
        let mut a = attack();
        a.observe_performance(SimTime::from_secs(160), 0.5);
        // Spike train restarts at the transition: first spike immediately.
        let in_spike = a.utilization_at(SimTime::from_secs(160));
        assert!(in_spike > 0.9, "in-spike utilization {in_spike}");
        // Between spikes: baseline.
        let idle = a.utilization_at(SimTime::from_secs(175));
        assert!(idle < 0.2, "between-spike utilization {idle}");
        // Next spike 30 s after transition.
        let next = a.utilization_at(SimTime::from_secs(190));
        assert!(next > 0.9);
    }

    #[test]
    fn later_observations_do_not_retransition() {
        let mut a = attack();
        a.observe_performance(SimTime::from_secs(160), 0.5);
        let first = a.observed_drain();
        a.observe_performance(SimTime::from_secs(200), 0.5);
        assert_eq!(a.observed_drain(), first);
    }
}
