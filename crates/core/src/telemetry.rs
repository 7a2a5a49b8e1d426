//! Simulator-side telemetry wiring.
//!
//! [`SimTelemetry`] binds [`ClusterSim`](crate::sim::ClusterSim) to the
//! generic [`simkit::telemetry`] layer: it registers the cluster's
//! metric set once (registration order fixes the [`MetricId`] order, and
//! the per-tick emission loop walks racks in the same order, so recorded
//! streams are already in the canonical sort order), holds the interned
//! ids, and owns the bounded ring the records are kept in. A simulator
//! that does not record holds no `SimTelemetry` at all.
//!
//! # Metric naming
//!
//! Names follow `<scope>.<quantity>[_<unit>]`:
//!
//! | scope       | metrics |
//! |-------------|---------|
//! | `rack-NN`   | `draw_w`, `soc`, `batt_discharge_w`, `batt_charge_w`, `udeb_energy_j`, `udeb_shave_w`, `cap_duty`, `breaker_margin` |
//! | `cluster`   | `draw_w` (gauge); `overloads`, `breaker_trips`, `level_changes`, `shed_events` (counters) |
//! | `policy`    | `level` (gauge, 1–3) |
//! | `rack`      | `draw_w.hist` (histogram of every per-rack draw sample) |
//!
//! Typed events ([`EventKind`]) carry the emitting component as their
//! source (`rack-NN`, `pdu`, `policy`, `shedder`, `migrator`,
//! `operator`).

use simkit::ring::BoundedRing;
use simkit::telemetry::{
    EventKind, EventRecord, MetricId, MetricRegistry, Record, Sample, TelemetryDump,
};
use simkit::time::SimTime;

/// The interned per-rack gauge ids, one struct per rack.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RackMetrics {
    draw: MetricId,
    soc: MetricId,
    batt_discharge: MetricId,
    batt_charge: MetricId,
    udeb_energy: MetricId,
    udeb_shave: MetricId,
    cap_duty: MetricId,
    breaker_margin: MetricId,
}

/// One rack's per-tick gauge readings, in engineering units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RackTick {
    /// Utility draw after shaving, watts.
    pub draw_w: f64,
    /// Battery cabinet state of charge, `[0, 1]`.
    pub soc: f64,
    /// Battery discharge power delivered this tick, watts.
    pub batt_discharge_w: f64,
    /// Battery recharge power drawn this tick, watts.
    pub batt_charge_w: f64,
    /// Energy stored in the µDEB super-capacitor, joules (0 when the
    /// scheme deploys no µDEB).
    pub udeb_energy_j: f64,
    /// µDEB shave power delivered this tick, watts.
    pub udeb_shave_w: f64,
    /// DVFS factor currently in force (1.0 = uncapped).
    pub cap_duty: f64,
    /// Breaker thermal margin, 1.0 cold → 0.0 tripping.
    pub breaker_margin: f64,
}

/// The interned metric ids of one cluster shape.
#[derive(Debug, Clone, PartialEq)]
struct SimMetrics {
    racks: Vec<RackMetrics>,
    cluster_draw: MetricId,
    policy_level: MetricId,
    overloads: MetricId,
    breaker_trips: MetricId,
    level_changes: MetricId,
    shed_events: MetricId,
    draw_hist: MetricId,
}

impl SimMetrics {
    /// Registers the full metric set for a cluster of `racks` racks whose
    /// per-rack draw ranges up to `rack_nameplate_w` (histogram bounds).
    fn register(registry: &mut MetricRegistry, racks: usize, rack_nameplate_w: f64) -> Self {
        let rack_ids = (0..racks)
            .map(|r| RackMetrics {
                draw: registry.register_gauge(&format!("rack-{r:02}.draw_w")),
                soc: registry.register_gauge(&format!("rack-{r:02}.soc")),
                batt_discharge: registry.register_gauge(&format!("rack-{r:02}.batt_discharge_w")),
                batt_charge: registry.register_gauge(&format!("rack-{r:02}.batt_charge_w")),
                udeb_energy: registry.register_gauge(&format!("rack-{r:02}.udeb_energy_j")),
                udeb_shave: registry.register_gauge(&format!("rack-{r:02}.udeb_shave_w")),
                cap_duty: registry.register_gauge(&format!("rack-{r:02}.cap_duty")),
                breaker_margin: registry.register_gauge(&format!("rack-{r:02}.breaker_margin")),
            })
            .collect();
        let hi = (rack_nameplate_w * 1.25).max(1.0);
        SimMetrics {
            racks: rack_ids,
            cluster_draw: registry.register_gauge("cluster.draw_w"),
            policy_level: registry.register_gauge("policy.level"),
            overloads: registry.register_counter("cluster.overloads"),
            breaker_trips: registry.register_counter("cluster.breaker_trips"),
            level_changes: registry.register_counter("cluster.level_changes"),
            shed_events: registry.register_counter("cluster.shed_events"),
            draw_hist: registry.register_histogram("rack.draw_w.hist", 0.0, hi, 50),
        }
    }
}

/// The cluster simulator's telemetry state: registry, interned ids, and
/// the ring of recorded records.
///
/// Construction registers every metric; the registry is immutable
/// afterwards, which is what makes `MetricId` order (and therefore
/// serialized output) a pure function of the topology.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTelemetry {
    registry: MetricRegistry,
    ids: SimMetrics,
    records: BoundedRing<Record>,
}

impl SimTelemetry {
    /// Registers the full metric set for a cluster of `racks` racks whose
    /// per-rack draw ranges up to `rack_nameplate_w` (histogram bounds),
    /// keeping the newest `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(racks: usize, rack_nameplate_w: f64, capacity: usize) -> Self {
        let mut registry = MetricRegistry::new();
        let ids = SimMetrics::register(&mut registry, racks, rack_nameplate_w);
        SimTelemetry {
            registry,
            ids,
            records: BoundedRing::new(capacity),
        }
    }

    /// The metric registry (aggregates and the name table).
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    fn sample(&mut self, time: SimTime, metric: MetricId, value: f64) {
        self.records.push(Record::Sample(Sample {
            time,
            metric,
            value,
        }));
    }

    /// Records one rack's per-tick gauges (and feeds the draw histogram).
    pub fn record_rack(&mut self, now: SimTime, rack: usize, tick: RackTick) {
        let ids = self.ids.racks[rack];
        self.registry.set_gauge(ids.draw, tick.draw_w);
        self.registry.set_gauge(ids.soc, tick.soc);
        self.registry
            .set_gauge(ids.batt_discharge, tick.batt_discharge_w);
        self.registry.set_gauge(ids.batt_charge, tick.batt_charge_w);
        self.registry.set_gauge(ids.udeb_energy, tick.udeb_energy_j);
        self.registry.set_gauge(ids.udeb_shave, tick.udeb_shave_w);
        self.registry.set_gauge(ids.cap_duty, tick.cap_duty);
        self.registry
            .set_gauge(ids.breaker_margin, tick.breaker_margin);
        self.registry.observe(self.ids.draw_hist, tick.draw_w);
        self.sample(now, ids.draw, tick.draw_w);
        self.sample(now, ids.soc, tick.soc);
        self.sample(now, ids.batt_discharge, tick.batt_discharge_w);
        self.sample(now, ids.batt_charge, tick.batt_charge_w);
        self.sample(now, ids.udeb_energy, tick.udeb_energy_j);
        self.sample(now, ids.udeb_shave, tick.udeb_shave_w);
        self.sample(now, ids.cap_duty, tick.cap_duty);
        self.sample(now, ids.breaker_margin, tick.breaker_margin);
    }

    /// Records the cluster-scope per-tick gauges.
    pub fn record_cluster(&mut self, now: SimTime, cluster_draw_w: f64, policy_level: u8) {
        let (cluster_draw, policy) = (self.ids.cluster_draw, self.ids.policy_level);
        self.registry.set_gauge(cluster_draw, cluster_draw_w);
        self.registry.set_gauge(policy, policy_level as f64);
        self.sample(now, cluster_draw, cluster_draw_w);
        self.sample(now, policy, policy_level as f64);
    }

    /// Records one typed event, bumping the matching cluster counter.
    pub fn event(&mut self, now: SimTime, kind: EventKind, source: &str, value: f64) {
        match kind {
            EventKind::Overload => self.registry.inc(self.ids.overloads, 1),
            EventKind::BreakerTrip => self.registry.inc(self.ids.breaker_trips, 1),
            EventKind::LevelChange => self.registry.inc(self.ids.level_changes, 1),
            EventKind::Shed => self.registry.inc(self.ids.shed_events, 1),
            _ => {}
        }
        self.records.push(Record::Event(EventRecord {
            time: now,
            kind,
            source: source.to_string(),
            value,
        }));
    }

    /// Consumes the state into a serializable [`TelemetryDump`].
    pub fn into_dump(self) -> TelemetryDump {
        let dropped = self.records.evicted();
        TelemetryDump::new(self.registry, self.records.into_vec(), dropped)
    }

    /// The metric names this cluster shape registers, in id order — the
    /// schema the CI drift check pins down.
    pub fn schema(racks: usize) -> Vec<String> {
        let mut registry = MetricRegistry::new();
        SimMetrics::register(&mut registry, racks, 1.0);
        registry.names().map(str::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_is_registration_ordered() {
        let names = SimTelemetry::schema(2);
        assert_eq!(names[0], "rack-00.draw_w");
        assert_eq!(names[7], "rack-00.breaker_margin");
        assert_eq!(names[8], "rack-01.draw_w");
        assert_eq!(names[16], "cluster.draw_w");
        assert_eq!(names.last().unwrap(), "rack.draw_w.hist");
        assert_eq!(names.len(), 2 * 8 + 7);
    }

    #[test]
    fn rack_tick_feeds_gauges_histogram_and_sink() {
        let mut t = SimTelemetry::new(1, 1000.0, 64);
        let tick = RackTick {
            draw_w: 800.0,
            soc: 0.9,
            cap_duty: 1.0,
            breaker_margin: 1.0,
            ..RackTick::default()
        };
        t.record_rack(SimTime::from_millis(100), 0, tick);
        t.record_cluster(SimTime::from_millis(100), 800.0, 1);
        let reg = t.registry();
        let draw = reg.id("rack-00.draw_w").unwrap();
        assert_eq!(reg.gauge(draw), 800.0);
        assert_eq!(reg.stats(draw).count(), 1);
        let hist = reg.id("rack.draw_w.hist").unwrap();
        assert_eq!(reg.histogram(hist).unwrap().counts().iter().sum::<u64>(), 1);
        let dump = t.into_dump();
        assert_eq!(dump.records.len(), 10, "8 rack + 2 cluster samples");
        let jsonl = dump.to_jsonl();
        assert!(jsonl.starts_with("{\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":800}"));
    }

    #[test]
    fn events_bump_matching_counters() {
        let mut t = SimTelemetry::new(1, 1000.0, 64);
        t.event(SimTime::ZERO, EventKind::Overload, "rack-00", 900.0);
        t.event(SimTime::ZERO, EventKind::BreakerTrip, "pdu", 1.0);
        t.event(SimTime::ZERO, EventKind::LvdIsolation, "rack-00", 1.0);
        let reg = t.registry();
        assert_eq!(reg.counter(reg.id("cluster.overloads").unwrap()), 1);
        assert_eq!(reg.counter(reg.id("cluster.breaker_trips").unwrap()), 1);
        assert_eq!(reg.counter(reg.id("cluster.shed_events").unwrap()), 0);
        assert_eq!(t.into_dump().records.len(), 3);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = SimTelemetry::new(1, 1000.0, 3);
        for i in 0..5u64 {
            t.event(
                SimTime::from_millis(i),
                EventKind::Shed,
                "shedder",
                i as f64,
            );
        }
        let reg = t.registry();
        assert_eq!(
            reg.counter(reg.id("cluster.shed_events").unwrap()),
            5,
            "counters see every event, evicted or not"
        );
        let dump = t.into_dump();
        assert_eq!(dump.records.len(), 3);
        assert_eq!(dump.dropped, 2);
        let first = dump.records[0].time().as_millis();
        assert_eq!(first, 2, "oldest two records were evicted");
    }
}
