//! Causal sim-time span tracing for the cluster simulator.
//!
//! [`SimTracer`] turns the simulator's per-tick state into the span
//! vocabulary the incident reconstructor understands: attack phases
//! open `attack.drain` / `attack.spike` spans, per-rack defense
//! episodes (battery discharge, µDEB shaving, DVFS capping, breaker
//! excursions) open spans *parented under the attack span that caused
//! them*, and the security policy's level residencies are recorded as a
//! contiguous chain of `policy.*` spans. The result is a recorded
//! [`TraceDump`] from which `padsim incident` can answer "what caused
//! what, and when" after the fact.
//!
//! Episodes are edge-triggered: a span opens on the tick a quantity
//! first becomes active (discharge watts > 0, cap factor < 1, breaker
//! margin below [`BREAKER_EXCURSION_MARGIN`]) and closes on the tick it
//! returns to rest, carrying summary attributes (energy shaved, extreme
//! value reached) set at close time. A simulator that does not trace
//! holds no `SimTracer` and skips every call.

use attack::phases::AttackPhase;
use simkit::time::SimTime;
use simkit::trace::{SpanId, SpanNameId, TraceDump, Tracer};

use crate::policy::SecurityLevel;

/// Span name: Phase-I sustained drain of one attack.
pub const SPAN_ATTACK_DRAIN: &str = "attack.drain";
/// Span name: Phase-II hidden spike train of one attack.
pub const SPAN_ATTACK_SPIKE: &str = "attack.spike";
/// Span name: one contiguous battery-discharge episode on one rack.
pub const SPAN_BATT_DISCHARGE: &str = "batt.discharge";
/// Span name: one contiguous µDEB shave burst on one rack.
pub const SPAN_UDEB_SHAVE: &str = "udeb.shave";
/// Span name: one contiguous DVFS-capping episode on one rack.
pub const SPAN_CAP_ENGAGE: &str = "cap.engage";
/// Span name: one excursion of a rack breaker below its comfort margin.
pub const SPAN_BREAKER_EXCURSION: &str = "breaker.excursion";
/// Span name: residency at policy Level 1 (Normal).
pub const SPAN_POLICY_NORMAL: &str = "policy.normal";
/// Span name: residency at policy Level 2 (Minor Incident).
pub const SPAN_POLICY_MINOR: &str = "policy.minor";
/// Span name: residency at policy Level 3 (Emergency).
pub const SPAN_POLICY_EMERGENCY: &str = "policy.emergency";
/// Span name: one active window of one injected fault spec.
pub const SPAN_FAULT_WINDOW: &str = "fault.window";
/// Span name: one contiguous stay of one rack in watchdog fallback
/// (degraded local control after coordinator-plan staleness).
pub const SPAN_FAULT_FALLBACK: &str = "fault.fallback";

/// Breaker thermal-headroom fraction below which an excursion span
/// opens. 0.5 marks "half way to a trip" — early enough to be a useful
/// leading indicator, late enough that routine load never triggers it.
pub const BREAKER_EXCURSION_MARGIN: f64 = 0.5;

/// The wire schema of every span the simulator can emit: one line per
/// span name, `name` followed by its attribute keys, both sorted.
/// `padsim incident --names` prints this; CI diffs it against
/// `crates/core/tests/data/trace_schema.txt` to catch accidental drift.
pub fn trace_schema() -> String {
    let mut lines = [
        (SPAN_ATTACK_DRAIN, vec!["attack", "nodes", "rack"]),
        (SPAN_ATTACK_SPIKE, vec!["attack", "nodes", "rack"]),
        (SPAN_BATT_DISCHARGE, vec!["energy_j", "max_w", "rack"]),
        (SPAN_BREAKER_EXCURSION, vec!["min_margin", "rack"]),
        (SPAN_CAP_ENGAGE, vec!["min_factor", "rack"]),
        (SPAN_FAULT_FALLBACK, vec!["rack"]),
        (SPAN_FAULT_WINDOW, vec!["kind", "rack", "spec"]),
        (SPAN_POLICY_EMERGENCY, vec!["level"]),
        (SPAN_POLICY_MINOR, vec!["level"]),
        (SPAN_POLICY_NORMAL, vec!["level"]),
        (SPAN_UDEB_SHAVE, vec!["energy_j", "max_w", "rack"]),
    ];
    lines.sort_by_key(|(name, _)| *name);
    let mut out = String::new();
    for (name, keys) in lines {
        out.push_str(name);
        for key in keys {
            out.push(' ');
            out.push_str(key);
        }
        out.push('\n');
    }
    out
}

/// Interned ids for the fixed span vocabulary.
#[derive(Debug, Clone, PartialEq)]
struct NameIds {
    attack_drain: SpanNameId,
    attack_spike: SpanNameId,
    batt_discharge: SpanNameId,
    udeb_shave: SpanNameId,
    cap_engage: SpanNameId,
    breaker_excursion: SpanNameId,
    policy: [SpanNameId; 3],
    fault_window: SpanNameId,
    fault_fallback: SpanNameId,
}

/// Per-attack span state: which phase spans are open/have existed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct AttackSpans {
    rack: usize,
    drain: Option<SpanId>,
    drain_open: bool,
    spike: Option<SpanId>,
}

/// One edge-triggered episode accumulating an energy integral.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EnergyEpisode {
    id: SpanId,
    energy_j: f64,
    max_w: f64,
}

/// One edge-triggered episode tracking an extreme value.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ExtremeEpisode {
    id: SpanId,
    extreme: f64,
}

/// The simulator-side tracer: owns the span vocabulary and the
/// edge-detection state that opens and closes spans as the simulation
/// steps (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct SimTracer {
    tracer: Tracer,
    names: NameIds,
    attacks: Vec<AttackSpans>,
    discharge: Vec<Option<EnergyEpisode>>,
    /// Most recently *closed* discharge episode per rack — the causal
    /// parent of a cap episode that engages just after the battery gives
    /// out.
    last_discharge: Vec<Option<SpanId>>,
    shave: Vec<Option<EnergyEpisode>>,
    cap: Vec<Option<ExtremeEpisode>>,
    breaker: Vec<Option<ExtremeEpisode>>,
    policy_level: SecurityLevel,
    policy_span: SpanId,
    /// Open `fault.window` span per plan spec (grown on demand).
    fault_windows: Vec<Option<SpanId>>,
    /// Open `fault.fallback` span per rack.
    fault_fallbacks: Vec<Option<SpanId>>,
}

impl SimTracer {
    /// Creates a tracer for `n_racks` racks that keeps the newest
    /// `capacity` finished spans, opening the initial `policy.normal`
    /// residency span at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(n_racks: usize, capacity: usize, now: SimTime) -> Self {
        let mut tracer = Tracer::new(capacity);
        let names = NameIds {
            attack_drain: tracer.intern(SPAN_ATTACK_DRAIN),
            attack_spike: tracer.intern(SPAN_ATTACK_SPIKE),
            batt_discharge: tracer.intern(SPAN_BATT_DISCHARGE),
            udeb_shave: tracer.intern(SPAN_UDEB_SHAVE),
            cap_engage: tracer.intern(SPAN_CAP_ENGAGE),
            breaker_excursion: tracer.intern(SPAN_BREAKER_EXCURSION),
            policy: [
                tracer.intern(SPAN_POLICY_NORMAL),
                tracer.intern(SPAN_POLICY_MINOR),
                tracer.intern(SPAN_POLICY_EMERGENCY),
            ],
            fault_window: tracer.intern(SPAN_FAULT_WINDOW),
            fault_fallback: tracer.intern(SPAN_FAULT_FALLBACK),
        };
        let policy_span = tracer.start(now, names.policy[0], None);
        tracer.set_attr(policy_span, "level", 1.0);
        SimTracer {
            tracer,
            names,
            attacks: Vec::new(),
            discharge: vec![None; n_racks],
            last_discharge: vec![None; n_racks],
            shave: vec![None; n_racks],
            cap: vec![None; n_racks],
            breaker: vec![None; n_racks],
            policy_level: SecurityLevel::Normal,
            policy_span,
            fault_windows: Vec::new(),
            fault_fallbacks: vec![None; n_racks],
        }
    }

    /// Number of spans currently open.
    pub fn open_count(&self) -> usize {
        self.tracer.open_count()
    }

    /// Records attack `idx` (its victim `rack`, current compromised
    /// `nodes`) being in `phase` at `now`. Phase *edges* open and close
    /// spans: entering `Draining` opens `attack.drain`; entering
    /// `Spiking` closes the drain span (if any) and opens `attack.spike`
    /// parented under it — the causal link between the two phases.
    pub fn attack_phase(
        &mut self,
        now: SimTime,
        idx: usize,
        rack: usize,
        nodes: usize,
        phase: AttackPhase,
    ) {
        while self.attacks.len() <= idx {
            self.attacks.push(AttackSpans::default());
        }
        self.attacks[idx].rack = rack;
        match phase {
            AttackPhase::Dormant => {}
            AttackPhase::Draining => {
                if self.attacks[idx].drain.is_none() {
                    let id = self.tracer.start(now, self.names.attack_drain, None);
                    self.tracer.set_attr(id, "attack", idx as f64);
                    self.tracer.set_attr(id, "rack", rack as f64);
                    self.attacks[idx].drain = Some(id);
                    self.attacks[idx].drain_open = true;
                }
                if let Some(id) = self.attacks[idx].drain {
                    self.tracer.set_attr(id, "nodes", nodes as f64);
                }
            }
            AttackPhase::Spiking => {
                if self.attacks[idx].drain_open {
                    if let Some(id) = self.attacks[idx].drain {
                        self.tracer.end(now, id);
                    }
                    self.attacks[idx].drain_open = false;
                }
                if self.attacks[idx].spike.is_none() {
                    let id =
                        self.tracer
                            .start(now, self.names.attack_spike, self.attacks[idx].drain);
                    self.tracer.set_attr(id, "attack", idx as f64);
                    self.tracer.set_attr(id, "rack", rack as f64);
                    self.attacks[idx].spike = Some(id);
                }
                if let Some(id) = self.attacks[idx].spike {
                    self.tracer.set_attr(id, "nodes", nodes as f64);
                }
            }
        }
    }

    /// The open attack span targeting `rack` (Phase II preferred), the
    /// causal parent for that rack's defense episodes.
    fn attack_parent_for_rack(&self, rack: usize) -> Option<SpanId> {
        self.attacks
            .iter()
            .filter(|a| a.rack == rack)
            .find_map(|a| a.spike.or(if a.drain_open { a.drain } else { None }))
    }

    /// The first attack with any span open (Phase II preferred) — the
    /// causal parent for a cluster-wide policy escalation.
    fn any_attack_parent(&self) -> Option<SpanId> {
        self.attacks
            .iter()
            .find_map(|a| a.spike.or(if a.drain_open { a.drain } else { None }))
    }

    /// Feeds one rack's per-tick defense readings, opening and closing
    /// episode spans on value edges.
    #[allow(clippy::too_many_arguments)]
    pub fn rack_tick(
        &mut self,
        now: SimTime,
        rack: usize,
        batt_discharge_w: f64,
        udeb_shave_w: f64,
        cap_factor: f64,
        breaker_margin: f64,
        dt_secs: f64,
    ) {
        // Battery discharge episode.
        if batt_discharge_w > 0.0 {
            let ep = self.discharge[rack].get_or_insert_with(|| {
                let parent = self
                    .attacks
                    .iter()
                    .filter(|a| a.rack == rack)
                    .find_map(|a| a.spike.or(if a.drain_open { a.drain } else { None }));
                let id = self.tracer.start(now, self.names.batt_discharge, parent);
                EnergyEpisode {
                    id,
                    energy_j: 0.0,
                    max_w: 0.0,
                }
            });
            ep.energy_j += batt_discharge_w * dt_secs;
            ep.max_w = ep.max_w.max(batt_discharge_w);
        } else if let Some(ep) = self.discharge[rack].take() {
            self.close_energy(now, rack, ep);
            self.last_discharge[rack] = Some(ep.id);
        }
        // µDEB shave burst.
        if udeb_shave_w > 0.0 {
            let ep = self.shave[rack].get_or_insert_with(|| {
                let parent = self
                    .attacks
                    .iter()
                    .filter(|a| a.rack == rack)
                    .find_map(|a| a.spike.or(if a.drain_open { a.drain } else { None }));
                let id = self.tracer.start(now, self.names.udeb_shave, parent);
                EnergyEpisode {
                    id,
                    energy_j: 0.0,
                    max_w: 0.0,
                }
            });
            ep.energy_j += udeb_shave_w * dt_secs;
            ep.max_w = ep.max_w.max(udeb_shave_w);
        } else if let Some(ep) = self.shave[rack].take() {
            self.close_energy(now, rack, ep);
        }
        // DVFS cap episode: engaged whenever the effective factor is
        // below nominal. A cap that engages right as the battery gives
        // out is parented under that discharge episode — the
        // drain → discharge → cap causal chain.
        if cap_factor < 1.0 - 1e-9 {
            if self.cap[rack].is_none() {
                let parent = self.discharge[rack]
                    .map(|ep| ep.id)
                    .or(self.last_discharge[rack])
                    .or_else(|| self.attack_parent_for_rack(rack));
                let id = self.tracer.start(now, self.names.cap_engage, parent);
                self.cap[rack] = Some(ExtremeEpisode {
                    id,
                    extreme: cap_factor,
                });
            }
            if let Some(ep) = &mut self.cap[rack] {
                ep.extreme = ep.extreme.min(cap_factor);
            }
        } else if let Some(ep) = self.cap[rack].take() {
            self.tracer.set_attr(ep.id, "rack", rack as f64);
            self.tracer.set_attr(ep.id, "min_factor", ep.extreme);
            self.tracer.end(now, ep.id);
        }
        // Breaker-margin excursion.
        if breaker_margin < BREAKER_EXCURSION_MARGIN {
            if self.breaker[rack].is_none() {
                let parent = self.attack_parent_for_rack(rack);
                let id = self.tracer.start(now, self.names.breaker_excursion, parent);
                self.breaker[rack] = Some(ExtremeEpisode {
                    id,
                    extreme: breaker_margin,
                });
            }
            if let Some(ep) = &mut self.breaker[rack] {
                ep.extreme = ep.extreme.min(breaker_margin);
            }
        } else if let Some(ep) = self.breaker[rack].take() {
            self.tracer.set_attr(ep.id, "rack", rack as f64);
            self.tracer.set_attr(ep.id, "min_margin", ep.extreme);
            self.tracer.end(now, ep.id);
        }
    }

    fn close_energy(&mut self, now: SimTime, rack: usize, ep: EnergyEpisode) {
        self.tracer.set_attr(ep.id, "rack", rack as f64);
        self.tracer.set_attr(ep.id, "energy_j", ep.energy_j);
        self.tracer.set_attr(ep.id, "max_w", ep.max_w);
        self.tracer.end(now, ep.id);
    }

    /// Records the policy level at `now`. A level *change* closes the
    /// current residency span and opens the next; escalations (Level 2
    /// and up) are parented under the first open attack span, tying the
    /// cluster's defensive posture to its cause.
    pub fn policy_level(&mut self, now: SimTime, level: SecurityLevel) {
        if level == self.policy_level {
            return;
        }
        self.tracer.end(now, self.policy_span);
        let name = self.names.policy[(level.number() - 1) as usize];
        let parent = if level > SecurityLevel::Normal {
            self.any_attack_parent()
        } else {
            None
        };
        let id = self.tracer.start(now, name, parent);
        self.tracer.set_attr(id, "level", level.number() as f64);
        self.policy_level = level;
        self.policy_span = id;
    }

    /// Records a fault-window edge for plan spec `spec` at `now`:
    /// `injected = true` opens a `fault.window` span carrying the spec
    /// index, the fault-kind index, and the targeted rack (−1 for a
    /// cluster-wide fault); `injected = false` closes it. Duplicate
    /// edges are ignored.
    pub fn fault_window(
        &mut self,
        now: SimTime,
        spec: usize,
        kind: usize,
        rack: f64,
        injected: bool,
    ) {
        while self.fault_windows.len() <= spec {
            self.fault_windows.push(None);
        }
        if injected {
            if self.fault_windows[spec].is_none() {
                let id = self.tracer.start(now, self.names.fault_window, None);
                self.tracer.set_attr(id, "spec", spec as f64);
                self.tracer.set_attr(id, "kind", kind as f64);
                self.tracer.set_attr(id, "rack", rack);
                self.fault_windows[spec] = Some(id);
            }
        } else if let Some(id) = self.fault_windows[spec].take() {
            self.tracer.end(now, id);
        }
    }

    /// Records a watchdog-fallback edge for `rack` at `now`:
    /// `active = true` opens a `fault.fallback` span (parented under the
    /// first open `fault.window`, the staleness the watchdog reacted
    /// to); `active = false` closes it. Duplicate edges are ignored.
    pub fn fault_fallback(&mut self, now: SimTime, rack: usize, active: bool) {
        if rack >= self.fault_fallbacks.len() {
            return;
        }
        if active {
            if self.fault_fallbacks[rack].is_none() {
                let parent = self.fault_windows.iter().find_map(|w| *w);
                let id = self.tracer.start(now, self.names.fault_fallback, parent);
                self.tracer.set_attr(id, "rack", rack as f64);
                self.fault_fallbacks[rack] = Some(id);
            }
        } else if let Some(id) = self.fault_fallbacks[rack].take() {
            self.tracer.end(now, id);
        }
    }

    /// Finishes the trace at `now`: episodes still in flight get their
    /// summary attributes, every open span is closed, and the spans come
    /// back in canonical order.
    pub fn into_dump(mut self, now: SimTime) -> TraceDump {
        for rack in 0..self.discharge.len() {
            if let Some(ep) = self.discharge[rack].take() {
                self.close_energy(now, rack, ep);
            }
            if let Some(ep) = self.shave[rack].take() {
                self.close_energy(now, rack, ep);
            }
            if let Some(ep) = self.cap[rack].take() {
                self.tracer.set_attr(ep.id, "rack", rack as f64);
                self.tracer.set_attr(ep.id, "min_factor", ep.extreme);
                self.tracer.end(now, ep.id);
            }
            if let Some(ep) = self.breaker[rack].take() {
                self.tracer.set_attr(ep.id, "rack", rack as f64);
                self.tracer.set_attr(ep.id, "min_margin", ep.extreme);
                self.tracer.end(now, ep.id);
            }
        }
        for slot in self
            .fault_fallbacks
            .iter_mut()
            .chain(self.fault_windows.iter_mut())
        {
            if let Some(id) = slot.take() {
                self.tracer.end(now, id);
            }
        }
        self.tracer.into_dump(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> SimTracer {
        SimTracer::new(2, 256, SimTime::ZERO)
    }

    fn name_of(dump: &TraceDump, i: usize) -> &str {
        dump.names.name(dump.spans[i].name)
    }

    #[test]
    fn spike_span_is_child_of_drain_span() {
        let mut tr = tracer();
        tr.attack_phase(SimTime::from_secs(30), 0, 1, 4, AttackPhase::Draining);
        tr.attack_phase(SimTime::from_secs(90), 0, 1, 4, AttackPhase::Spiking);
        let dump = tr.into_dump(SimTime::from_secs(120));
        // policy.normal opens first, then drain, then spike.
        assert_eq!(name_of(&dump, 1), SPAN_ATTACK_DRAIN);
        assert_eq!(name_of(&dump, 2), SPAN_ATTACK_SPIKE);
        assert_eq!(dump.spans[2].parent, Some(dump.spans[1].id));
        assert_eq!(dump.spans[1].end, SimTime::from_secs(90));
        assert_eq!(dump.spans[1].attr("rack"), Some(1.0));
    }

    #[test]
    fn discharge_episode_accumulates_energy_and_parents_cap() {
        let mut tr = tracer();
        tr.attack_phase(SimTime::from_secs(10), 0, 0, 2, AttackPhase::Draining);
        // Two ticks of 100 W discharge, then the battery gives out and
        // the cap engages.
        tr.rack_tick(SimTime::from_secs(10), 0, 100.0, 0.0, 1.0, 1.0, 1.0);
        tr.rack_tick(SimTime::from_secs(11), 0, 100.0, 0.0, 1.0, 1.0, 1.0);
        tr.rack_tick(SimTime::from_secs(12), 0, 0.0, 0.0, 0.8, 1.0, 1.0);
        tr.rack_tick(SimTime::from_secs(13), 0, 0.0, 0.0, 1.0, 1.0, 1.0);
        let dump = tr.into_dump(SimTime::from_secs(20));
        let discharge = dump
            .spans
            .iter()
            .find(|s| dump.names.name(s.name) == SPAN_BATT_DISCHARGE)
            .expect("discharge span");
        let drain = dump
            .spans
            .iter()
            .find(|s| dump.names.name(s.name) == SPAN_ATTACK_DRAIN)
            .expect("drain span");
        let cap = dump
            .spans
            .iter()
            .find(|s| dump.names.name(s.name) == SPAN_CAP_ENGAGE)
            .expect("cap span");
        assert_eq!(discharge.parent, Some(drain.id));
        assert_eq!(discharge.attr("energy_j"), Some(200.0));
        assert_eq!(discharge.attr("max_w"), Some(100.0));
        assert_eq!(cap.parent, Some(discharge.id), "cap caused by discharge");
        assert_eq!(cap.attr("min_factor"), Some(0.8));
        assert_eq!(cap.end, SimTime::from_secs(13));
    }

    #[test]
    fn policy_residency_is_contiguous_and_escalation_is_parented() {
        let mut tr = tracer();
        tr.attack_phase(SimTime::from_secs(5), 0, 0, 1, AttackPhase::Draining);
        tr.policy_level(SimTime::from_secs(5), SecurityLevel::Normal);
        tr.policy_level(SimTime::from_secs(9), SecurityLevel::MinorIncident);
        tr.policy_level(SimTime::from_secs(15), SecurityLevel::Normal);
        let dump = tr.into_dump(SimTime::from_secs(20));
        let policy: Vec<_> = dump
            .spans
            .iter()
            .filter(|s| dump.names.name(s.name).starts_with("policy."))
            .collect();
        assert_eq!(policy.len(), 3);
        assert_eq!(policy[0].end, policy[1].start, "contiguous residencies");
        assert_eq!(policy[1].end, policy[2].start);
        assert_eq!(policy[1].attr("level"), Some(2.0));
        let drain = dump
            .spans
            .iter()
            .find(|s| dump.names.name(s.name) == SPAN_ATTACK_DRAIN)
            .unwrap();
        assert_eq!(policy[1].parent, Some(drain.id));
        assert_eq!(policy[2].parent, None, "de-escalation is unparented");
    }

    #[test]
    fn breaker_excursion_tracks_min_margin() {
        let mut tr = tracer();
        tr.rack_tick(SimTime::from_secs(1), 1, 0.0, 0.0, 1.0, 0.4, 1.0);
        tr.rack_tick(SimTime::from_secs(2), 1, 0.0, 0.0, 1.0, 0.2, 1.0);
        tr.rack_tick(SimTime::from_secs(3), 1, 0.0, 0.0, 1.0, 0.9, 1.0);
        let dump = tr.into_dump(SimTime::from_secs(5));
        let exc = dump
            .spans
            .iter()
            .find(|s| dump.names.name(s.name) == SPAN_BREAKER_EXCURSION)
            .expect("excursion span");
        assert_eq!(exc.attr("min_margin"), Some(0.2));
        assert_eq!(exc.attr("rack"), Some(1.0));
        assert_eq!(exc.end, SimTime::from_secs(3));
    }

    #[test]
    fn schema_lists_every_span_name_sorted() {
        let schema = trace_schema();
        let names: Vec<&str> = schema
            .lines()
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "schema lines sorted by span name");
        for name in [
            SPAN_ATTACK_DRAIN,
            SPAN_ATTACK_SPIKE,
            SPAN_BATT_DISCHARGE,
            SPAN_UDEB_SHAVE,
            SPAN_CAP_ENGAGE,
            SPAN_BREAKER_EXCURSION,
            SPAN_POLICY_NORMAL,
            SPAN_POLICY_MINOR,
            SPAN_POLICY_EMERGENCY,
            SPAN_FAULT_WINDOW,
            SPAN_FAULT_FALLBACK,
        ] {
            assert!(names.contains(&name), "{name} missing from schema");
        }
    }

    #[test]
    fn fault_fallback_is_parented_under_open_window() {
        let mut tr = tracer();
        tr.fault_window(SimTime::from_secs(5), 1, 5, -1.0, true);
        tr.fault_fallback(SimTime::from_secs(12), 0, true);
        tr.fault_fallback(SimTime::from_secs(18), 0, false);
        tr.fault_window(SimTime::from_secs(20), 1, 5, -1.0, false);
        let dump = tr.into_dump(SimTime::from_secs(30));
        let window = dump
            .spans
            .iter()
            .find(|s| dump.names.name(s.name) == SPAN_FAULT_WINDOW)
            .expect("window span");
        let fb = dump
            .spans
            .iter()
            .find(|s| dump.names.name(s.name) == SPAN_FAULT_FALLBACK)
            .expect("fallback span");
        assert_eq!(window.attr("spec"), Some(1.0));
        assert_eq!(window.attr("kind"), Some(5.0));
        assert_eq!(window.attr("rack"), Some(-1.0));
        assert_eq!(window.end, SimTime::from_secs(20));
        assert_eq!(fb.parent, Some(window.id), "fallback caused by fault");
        assert_eq!(fb.attr("rack"), Some(0.0));
        assert_eq!(fb.end, SimTime::from_secs(18));
    }

    #[test]
    fn open_fault_spans_closed_at_dump_time() {
        let mut tr = tracer();
        tr.fault_window(SimTime::from_secs(2), 0, 0, 1.0, true);
        tr.fault_fallback(SimTime::from_secs(3), 1, true);
        let dump = tr.into_dump(SimTime::from_secs(10));
        for span in &dump.spans {
            assert!(
                span.end >= span.start,
                "span {} left open",
                dump.names.name(span.name)
            );
        }
        assert_eq!(
            dump.spans
                .iter()
                .filter(|s| s.end == SimTime::from_secs(10))
                .count(),
            3
        );
    }
}
