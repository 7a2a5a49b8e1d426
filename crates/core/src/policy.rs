//! PAD's hierarchical security policy (Figure 9).
//!
//! "PAD adopts a hierarchical model, where power management strategies are
//! classified into different levels of emergency states. We have defined
//! three levels: Normal (Level 1), Minor Incident (Level 2), and Emergency
//! (Level 3). There are three inputs that affect the state: vDEB, µDEB,
//! and VP that indicates if a visible peak is identified." (§IV.A)
//!
//! The initial-state truth table and the transition arrows are implemented
//! exactly as Figure 9 draws them.
//!
//! Beyond the paper's three physical inputs, the FSM accepts a fourth
//! *evidence* channel from the streaming detection engine
//! ([`pad::detect`](crate::detect)): [`DetectionEvidence`]. Fused
//! detector verdicts escalate the policy on *statistical* evidence of an
//! attack — before the µDEB physically empties — and hold off recovery
//! while the evidence persists. With `DetectionEvidence::None` the FSM
//! behaves exactly as the paper's Figure 9.

/// PAD emergency level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SecurityLevel {
    /// Normal operation: shave visible peaks with vDEB.
    Normal,
    /// Minor incident: shave hidden spikes with µDEB, collect load info.
    MinorIncident,
    /// Emergency: load shedding / migration.
    Emergency,
}

impl SecurityLevel {
    /// Numeric level (1–3) as the paper labels them.
    pub fn number(self) -> u8 {
        match self {
            SecurityLevel::Normal => 1,
            SecurityLevel::MinorIncident => 2,
            SecurityLevel::Emergency => 3,
        }
    }

    /// Display label matching Figure 9.
    pub fn label(self) -> &'static str {
        match self {
            SecurityLevel::Normal => "Level 1 - Normal",
            SecurityLevel::MinorIncident => "Level 2 - Minor Incident",
            SecurityLevel::Emergency => "Level 3 - Emergency",
        }
    }
}

impl std::fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the organization resolves the two unstable input combinations
/// (`vDEB > 0, µDEB == 0`), for which Figure 9 leaves the initial level as
/// "(L1/L2)" — "depending on the level of security requirement of the
/// organization".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strictness {
    /// Treat an empty µDEB as Level 1 (the vDEB can recharge it).
    Lenient,
    /// Treat an empty µDEB as Level 2 (assume hidden spikes are coming).
    #[default]
    Strict,
}

/// Attack evidence from the streaming detector bank, graded by fused
/// verdict strength.
///
/// The ordering is meaningful: `None < Suspected < Confirmed`, so the
/// policy can compare with `>=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DetectionEvidence {
    /// No detector quorum is currently fired (or no bank is wired up).
    #[default]
    None,
    /// The fused verdict fired: enough detectors agree something is off.
    Suspected,
    /// A strong quorum concurs — treat the attack as confirmed.
    Confirmed,
}

/// Boolean-ish sensor inputs of Figure 9, plus the detector evidence
/// channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyInputs {
    /// Virtual DEB pool has usable energy.
    pub vdeb_available: bool,
    /// µDEB super-capacitors have usable energy.
    pub udeb_available: bool,
    /// A visible peak is currently identified.
    pub visible_peak: bool,
    /// Streaming-detector evidence of an ongoing attack
    /// ([`DetectionEvidence::None`] reproduces the paper's FSM exactly).
    pub detection: DetectionEvidence,
}

/// The PAD policy state machine.
///
/// # Example
///
/// ```
/// use pad::policy::{PolicyInputs, SecurityLevel, SecurityPolicy, Strictness};
///
/// let mut policy = SecurityPolicy::new(Strictness::Strict);
/// let level = policy.update(PolicyInputs {
///     vdeb_available: true,
///     udeb_available: true,
///     visible_peak: true,
///     detection: Default::default(),
/// });
/// assert_eq!(level, SecurityLevel::Normal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityPolicy {
    strictness: Strictness,
    level: SecurityLevel,
    transitions: u64,
    /// Minimum number of `update` calls the FSM must reside at a level
    /// before a *de-escalation* is allowed. `0` (the default) reproduces
    /// the paper's Figure 9 exactly.
    hold_down: u32,
    /// Completed `update` calls since the current level was entered.
    residency: u32,
}

impl SecurityPolicy {
    /// Creates a policy starting at Level 1.
    pub fn new(strictness: Strictness) -> Self {
        SecurityPolicy {
            strictness,
            level: SecurityLevel::Normal,
            transitions: 0,
            hold_down: 0,
            residency: 0,
        }
    }

    /// Sets a minimum-residency hold-down: after entering a level, at
    /// least `ticks` further `update` calls must elapse before the FSM
    /// may step *down* (L2 → L1, L3 → L2). Escalations are never delayed
    /// — the hold-down guards recovery only, so one faulted "all healthy"
    /// tick in the middle of an attack cannot flap the policy from
    /// Emergency back toward Normal. `0` disables the hold-down and
    /// reproduces the paper's FSM exactly.
    pub fn with_hold_down(mut self, ticks: u32) -> Self {
        self.hold_down = ticks;
        self
    }

    /// The configured minimum residency (in `update` calls) before a
    /// de-escalation.
    pub fn hold_down(&self) -> u32 {
        self.hold_down
    }

    /// The configured strictness.
    pub fn strictness(&self) -> Strictness {
        self.strictness
    }

    /// The current level.
    pub fn level(&self) -> SecurityLevel {
        self.level
    }

    /// How many level changes have occurred.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Figure 9's initial-state truth table.
    pub fn initial_level(strictness: Strictness, inputs: PolicyInputs) -> SecurityLevel {
        match (
            inputs.vdeb_available,
            inputs.udeb_available,
            inputs.visible_peak,
        ) {
            (false, false, _) => SecurityLevel::Emergency,
            (false, true, false) => SecurityLevel::MinorIncident,
            (false, true, true) => SecurityLevel::Emergency,
            (true, false, _) => match strictness {
                Strictness::Lenient => SecurityLevel::Normal,
                Strictness::Strict => SecurityLevel::MinorIncident,
            },
            (true, true, _) => SecurityLevel::Normal,
        }
    }

    /// Applies Figure 9's transition arrows to the current level,
    /// augmented by the detector evidence channel:
    ///
    /// * L1 → L2 when the vDEB pool empties *or* detectors suspect an
    ///   attack;
    /// * L2 → L3 when the µDEB also empties *or* detectors confirm the
    ///   attack — the escalation fires before the µDEB physically
    ///   empties;
    /// * L2 → L1 when the vDEB is recharged and no evidence remains;
    /// * L3 → L2 when the µDEB is recharged and the attack is no longer
    ///   confirmed.
    ///
    /// De-escalations are additionally gated by the minimum-residency
    /// hold-down (see [`SecurityPolicy::with_hold_down`]); escalations
    /// are applied immediately.
    ///
    /// Returns the (possibly unchanged) level.
    pub fn update(&mut self, inputs: PolicyInputs) -> SecurityLevel {
        let suspected = inputs.detection >= DetectionEvidence::Suspected;
        let confirmed = inputs.detection == DetectionEvidence::Confirmed;
        let next = match self.level {
            SecurityLevel::Normal => {
                if !inputs.vdeb_available || suspected {
                    SecurityLevel::MinorIncident
                } else {
                    SecurityLevel::Normal
                }
            }
            SecurityLevel::MinorIncident => {
                if (!inputs.udeb_available && !inputs.vdeb_available) || confirmed {
                    SecurityLevel::Emergency
                } else if inputs.vdeb_available && !suspected {
                    // vDEB recharged, detectors quiet: back to normal.
                    SecurityLevel::Normal
                } else {
                    SecurityLevel::MinorIncident
                }
            }
            SecurityLevel::Emergency => {
                if (inputs.udeb_available || inputs.vdeb_available) && !confirmed {
                    // µDEB (or the pool that recharges it) is back.
                    SecurityLevel::MinorIncident
                } else {
                    SecurityLevel::Emergency
                }
            }
        };
        // De-escalations wait out the hold-down; escalations never do.
        let next = if next < self.level && self.residency < self.hold_down {
            self.level
        } else {
            next
        };
        if next != self.level {
            self.transitions += 1;
            self.level = next;
            self.residency = 0;
        } else {
            self.residency = self.residency.saturating_add(1);
        }
        self.level
    }

    /// Resets to the Figure-9 initial state for the given inputs.
    pub fn reset(&mut self, inputs: PolicyInputs) {
        self.level = Self::initial_level(self.strictness, inputs);
        self.transitions = 0;
        self.residency = 0;
    }
}

impl Default for SecurityPolicy {
    fn default() -> Self {
        SecurityPolicy::new(Strictness::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(v: bool, u: bool, p: bool) -> PolicyInputs {
        PolicyInputs {
            vdeb_available: v,
            udeb_available: u,
            visible_peak: p,
            detection: DetectionEvidence::None,
        }
    }

    fn evidence(v: bool, u: bool, d: DetectionEvidence) -> PolicyInputs {
        PolicyInputs {
            vdeb_available: v,
            udeb_available: u,
            visible_peak: false,
            detection: d,
        }
    }

    #[test]
    fn figure9_truth_table_strict() {
        use SecurityLevel::*;
        let cases = [
            (inputs(false, false, false), Emergency),
            (inputs(false, false, true), Emergency),
            (inputs(false, true, false), MinorIncident),
            (inputs(false, true, true), Emergency),
            (inputs(true, false, false), MinorIncident),
            (inputs(true, false, true), MinorIncident),
            (inputs(true, true, false), Normal),
            (inputs(true, true, true), Normal),
        ];
        for (i, expected) in cases {
            assert_eq!(
                SecurityPolicy::initial_level(Strictness::Strict, i),
                expected,
                "inputs {i:?}"
            );
        }
    }

    #[test]
    fn unstable_states_depend_on_strictness() {
        let i = inputs(true, false, true);
        assert_eq!(
            SecurityPolicy::initial_level(Strictness::Lenient, i),
            SecurityLevel::Normal
        );
        assert_eq!(
            SecurityPolicy::initial_level(Strictness::Strict, i),
            SecurityLevel::MinorIncident
        );
    }

    #[test]
    fn escalation_path_l1_l2_l3() {
        let mut p = SecurityPolicy::default();
        assert_eq!(p.level(), SecurityLevel::Normal);
        // vDEB empties: L1 → L2.
        assert_eq!(
            p.update(inputs(false, true, true)),
            SecurityLevel::MinorIncident
        );
        // µDEB also empties: L2 → L3.
        assert_eq!(
            p.update(inputs(false, false, true)),
            SecurityLevel::Emergency
        );
        assert_eq!(p.transitions(), 2);
    }

    #[test]
    fn recovery_path_l3_l2_l1() {
        let mut p = SecurityPolicy::default();
        p.update(inputs(false, true, false));
        p.update(inputs(false, false, false));
        assert_eq!(p.level(), SecurityLevel::Emergency);
        // µDEB recharged: L3 → L2.
        assert_eq!(
            p.update(inputs(false, true, false)),
            SecurityLevel::MinorIncident
        );
        // vDEB recharged: L2 → L1.
        assert_eq!(p.update(inputs(true, true, false)), SecurityLevel::Normal);
    }

    #[test]
    fn stable_inputs_do_not_transition() {
        let mut p = SecurityPolicy::default();
        for _ in 0..10 {
            p.update(inputs(true, true, false));
        }
        assert_eq!(p.transitions(), 0);
    }

    #[test]
    fn no_level_skipping_on_recovery() {
        let mut p = SecurityPolicy::default();
        p.update(inputs(false, true, false));
        p.update(inputs(false, false, false));
        assert_eq!(p.level(), SecurityLevel::Emergency);
        // Everything comes back at once: still must pass through L2.
        assert_eq!(
            p.update(inputs(true, true, false)),
            SecurityLevel::MinorIncident
        );
        assert_eq!(p.update(inputs(true, true, false)), SecurityLevel::Normal);
    }

    #[test]
    fn reset_applies_initial_table() {
        let mut p = SecurityPolicy::new(Strictness::Strict);
        p.update(inputs(false, false, false));
        p.reset(inputs(true, false, false));
        assert_eq!(p.level(), SecurityLevel::MinorIncident);
        assert_eq!(p.transitions(), 0);
    }

    #[test]
    fn suspicion_escalates_with_healthy_batteries() {
        // Both backup layers are full, but the detector bank fired: the
        // policy must move to L2 on statistical evidence alone.
        let mut p = SecurityPolicy::default();
        assert_eq!(
            p.update(evidence(true, true, DetectionEvidence::Suspected)),
            SecurityLevel::MinorIncident
        );
        // Evidence persists: no premature recovery despite a full vDEB.
        assert_eq!(
            p.update(evidence(true, true, DetectionEvidence::Suspected)),
            SecurityLevel::MinorIncident
        );
        // Evidence clears: ordinary recovery.
        assert_eq!(
            p.update(evidence(true, true, DetectionEvidence::None)),
            SecurityLevel::Normal
        );
    }

    #[test]
    fn confirmation_reaches_emergency_before_udeb_empties() {
        let mut p = SecurityPolicy::default();
        p.update(evidence(true, true, DetectionEvidence::Suspected));
        assert_eq!(p.level(), SecurityLevel::MinorIncident);
        // µDEB still holds charge, but the quorum confirmed the attack:
        // L3 fires on evidence, not on physical exhaustion.
        assert_eq!(
            p.update(evidence(true, true, DetectionEvidence::Confirmed)),
            SecurityLevel::Emergency
        );
        // Still confirmed: recovery is held off.
        assert_eq!(
            p.update(evidence(true, true, DetectionEvidence::Confirmed)),
            SecurityLevel::Emergency
        );
        // Downgraded to Suspected: one step down, no further.
        assert_eq!(
            p.update(evidence(true, true, DetectionEvidence::Suspected)),
            SecurityLevel::MinorIncident
        );
        assert_eq!(
            p.update(evidence(true, true, DetectionEvidence::Suspected)),
            SecurityLevel::MinorIncident
        );
    }

    #[test]
    fn no_evidence_reproduces_paper_fsm() {
        // With DetectionEvidence::None, every transition must match the
        // paper's original Figure-9 arrows, spelled out here verbatim.
        fn paper_next(level: SecurityLevel, i: PolicyInputs) -> SecurityLevel {
            match level {
                SecurityLevel::Normal if !i.vdeb_available => SecurityLevel::MinorIncident,
                SecurityLevel::Normal => SecurityLevel::Normal,
                SecurityLevel::MinorIncident if !i.udeb_available && !i.vdeb_available => {
                    SecurityLevel::Emergency
                }
                SecurityLevel::MinorIncident if i.vdeb_available => SecurityLevel::Normal,
                SecurityLevel::MinorIncident => SecurityLevel::MinorIncident,
                SecurityLevel::Emergency if i.udeb_available || i.vdeb_available => {
                    SecurityLevel::MinorIncident
                }
                SecurityLevel::Emergency => SecurityLevel::Emergency,
            }
        }
        let combos: Vec<PolicyInputs> = (0..8)
            .map(|i| inputs(i & 1 != 0, i & 2 != 0, i & 4 != 0))
            .collect();
        let mut p = SecurityPolicy::default();
        for &a in &combos {
            for &b in &combos {
                for step in [a, b] {
                    let expected = paper_next(p.level(), step);
                    assert_eq!(p.update(step), expected, "inputs {step:?}");
                }
            }
        }
    }

    #[test]
    fn hold_down_blocks_single_tick_deescalation() {
        // One faulted "all healthy" tick must not walk the FSM back from
        // Emergency while the hold-down is in force.
        let mut p = SecurityPolicy::default().with_hold_down(3);
        p.update(inputs(false, true, false));
        p.update(inputs(false, false, false));
        assert_eq!(p.level(), SecurityLevel::Emergency);
        // A single healthy tick right after entering L3: held.
        assert_eq!(
            p.update(inputs(true, true, false)),
            SecurityLevel::Emergency
        );
        // Residency still short: held.
        assert_eq!(
            p.update(inputs(true, true, false)),
            SecurityLevel::Emergency
        );
        assert_eq!(
            p.update(inputs(true, true, false)),
            SecurityLevel::Emergency
        );
        // Hold-down satisfied: one step down per residency period.
        assert_eq!(
            p.update(inputs(true, true, false)),
            SecurityLevel::MinorIncident
        );
        // And the L2 residency restarts before L2 → L1 is allowed.
        assert_eq!(
            p.update(inputs(true, true, false)),
            SecurityLevel::MinorIncident
        );
    }

    #[test]
    fn hold_down_never_delays_escalation() {
        let mut p = SecurityPolicy::default().with_hold_down(100);
        assert_eq!(p.hold_down(), 100);
        assert_eq!(
            p.update(inputs(false, true, false)),
            SecurityLevel::MinorIncident
        );
        assert_eq!(
            p.update(inputs(false, false, false)),
            SecurityLevel::Emergency
        );
        assert_eq!(p.transitions(), 2);
    }

    #[test]
    fn zero_hold_down_recovers_immediately() {
        // The default (hold-down 0) keeps the paper's one-tick recovery.
        let mut p = SecurityPolicy::default();
        assert_eq!(p.hold_down(), 0);
        p.update(inputs(false, true, false));
        assert_eq!(p.update(inputs(true, true, false)), SecurityLevel::Normal);
    }

    #[test]
    fn evidence_ordering_is_graded() {
        use DetectionEvidence::*;
        assert!(None < Suspected);
        assert!(Suspected < Confirmed);
        assert_eq!(DetectionEvidence::default(), None);
    }

    #[test]
    fn labels_and_numbers() {
        assert_eq!(SecurityLevel::Normal.number(), 1);
        assert_eq!(SecurityLevel::MinorIncident.number(), 2);
        assert_eq!(SecurityLevel::Emergency.number(), 3);
        assert!(SecurityLevel::Emergency.to_string().contains("Emergency"));
        assert!(SecurityLevel::Normal < SecurityLevel::Emergency);
    }
}
