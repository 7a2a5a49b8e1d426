//! Server racks.
//!
//! A [`Rack`] bundles what the paper's Figure 10 places in one "rack power
//! zone": the servers, the DEB battery cabinet, the rack-feed circuit
//! breaker, and the (initially empty) µDEB slot a PAD deployment
//! populates. Power-flow *policy* — who shaves what — lives in the `pad`
//! crate; the rack provides the components and local accounting.
//!
//! The servers are stored as columns rather than one object each: a
//! utilization per slot, plus the two actuator states that only ever
//! change rack-wide — the DVFS factor (capping is per rack) and how many
//! servers are asleep (shedding always sleeps the highest slots).
//! [`Rack::server`] rebuilds a [`Server`] value from them. The rack's
//! totals are re-summed only when a setter actually changes a column, so
//! a rack whose load did not move costs nothing to read.

use battery::pack::BatteryCabinet;
use battery::units::Watts;

use crate::breaker::CircuitBreaker;
use crate::server::{Server, ServerSpec, ServerState};
use crate::topology::RackId;

/// A rack: servers + battery cabinet + feed breaker.
///
/// # Example
///
/// ```
/// use powerinfra::rack::Rack;
/// use powerinfra::server::ServerSpec;
/// use powerinfra::topology::RackId;
/// use powerinfra::units::Watts;
///
/// let rack = Rack::paper_rack(RackId(0), 0.65);
/// assert_eq!(rack.nameplate_power(), Watts(5210.0));
/// assert_eq!(rack.breaker().rated(), Watts(5210.0 * 0.65));
/// ```
#[derive(Debug, Clone)]
pub struct Rack {
    id: RackId,
    spec: ServerSpec,
    /// Offered utilization per server slot, each in `[0, 1]`.
    utilization: Vec<f64>,
    /// DVFS factor in `[0.1, 1]` that every server runs at.
    dvfs: f64,
    /// Servers asleep: always the highest `asleep` slots.
    asleep: usize,
    /// The sums of the three columns above, refreshed by every setter
    /// that changes one of them.
    totals: RackTotals,
    cabinet: BatteryCabinet,
    breaker: CircuitBreaker,
}

/// A rack's server totals, from one pass over its slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackTotals {
    /// Offered load: the sum of utilizations, before capping and
    /// shedding.
    pub offered: f64,
    /// Delivered work (for the throughput metric).
    pub delivered: f64,
    /// Aggregate power demand.
    pub demand: Watts,
}

impl Rack {
    /// Creates a rack.
    ///
    /// # Panics
    ///
    /// Panics if `server_count` is zero.
    pub fn new(
        id: RackId,
        server_count: usize,
        spec: ServerSpec,
        cabinet: BatteryCabinet,
        breaker_rating: Watts,
    ) -> Self {
        assert!(server_count > 0, "rack needs at least one server");
        let mut rack = Rack {
            id,
            spec,
            utilization: vec![0.0; server_count],
            dvfs: 1.0,
            asleep: 0,
            totals: RackTotals {
                offered: 0.0,
                delivered: 0.0,
                demand: Watts::ZERO,
            },
            cabinet,
            breaker: CircuitBreaker::new(breaker_rating),
        };
        rack.refresh_totals();
        rack
    }

    /// The paper's standard rack: 10× HP DL585 G5, a Facebook-V1 cabinet
    /// (50 s at full load), feed breaker rated at `budget_fraction` of
    /// nameplate.
    pub fn paper_rack(id: RackId, budget_fraction: f64) -> Self {
        let spec = ServerSpec::hp_proliant_dl585_g5();
        let nameplate = spec.peak * 10.0;
        Rack::new(
            id,
            10,
            spec,
            BatteryCabinet::facebook_v1(nameplate),
            nameplate * budget_fraction,
        )
    }

    /// This rack's id.
    pub fn id(&self) -> RackId {
        self.id
    }

    /// Number of servers mounted.
    pub fn server_count(&self) -> usize {
        self.utilization.len()
    }

    /// The server in `slot`, as a value.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn server(&self, slot: usize) -> Server {
        let state = if self.is_asleep(slot) {
            ServerState::Asleep
        } else {
            ServerState::Active
        };
        Server::from_parts(self.spec, self.utilization[slot], self.dvfs, state)
    }

    /// Every server, in slot order.
    pub fn servers(&self) -> impl ExactSizeIterator<Item = Server> + '_ {
        (0..self.server_count()).map(|slot| self.server(slot))
    }

    /// Offered utilization of every slot.
    pub fn utilizations(&self) -> &[f64] {
        &self.utilization
    }

    /// The battery cabinet.
    pub fn cabinet(&self) -> &BatteryCabinet {
        &self.cabinet
    }

    /// Mutable access to the cabinet.
    pub fn cabinet_mut(&mut self) -> &mut BatteryCabinet {
        &mut self.cabinet
    }

    /// The rack feed breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Mutable access to the feed breaker.
    pub fn breaker_mut(&mut self) -> &mut CircuitBreaker {
        &mut self.breaker
    }

    /// Sum of server nameplate peaks (`Pr` in the paper).
    pub fn nameplate_power(&self) -> Watts {
        std::iter::repeat_n(self.spec.peak, self.server_count()).sum()
    }

    /// Power drawn with every server active-idle.
    pub fn idle_power(&self) -> Watts {
        std::iter::repeat_n(self.spec.idle, self.server_count()).sum()
    }

    /// Present aggregate power demand of the servers.
    pub fn demand(&self) -> Watts {
        self.totals().demand
    }

    /// Present aggregate delivered work (for the throughput metric).
    pub fn delivered_work(&self) -> f64 {
        self.totals().delivered
    }

    /// Offered load, delivered work and power demand. Each total is
    /// summed in slot order from `-0.0`, as the standard library's float
    /// `Sum` does, so it is bit-identical to summing the per-server values
    /// of [`Rack::servers`].
    pub fn totals(&self) -> RackTotals {
        self.totals
    }

    /// Re-sums the totals from the columns, in one pass.
    fn refresh_totals(&mut self) {
        let mut totals = RackTotals {
            offered: -0.0,
            delivered: -0.0,
            demand: Watts(-0.0),
        };
        let awake = self.server_count() - self.asleep;
        for &u in &self.utilization[..awake] {
            let work = u * self.dvfs;
            totals.offered += u;
            totals.delivered += work;
            totals.demand += self.spec.power_at(work);
        }
        for &u in &self.utilization[awake..] {
            totals.offered += u;
            // Not a no-op: it turns a `-0.0` sum into `+0.0`, as adding
            // a sleeping server's zero work does.
            totals.delivered += 0.0;
            totals.demand += self.spec.sleep_power();
        }
        self.totals = totals;
    }

    /// Sets each server's offered utilization, in slot order (clamped to
    /// `[0, 1]`; extra entries ignored, missing entries leave servers
    /// unchanged).
    pub fn set_utilizations(&mut self, utilizations: impl IntoIterator<Item = f64>) {
        let mut changed = false;
        for (slot, u) in self.utilization.iter_mut().zip(utilizations) {
            let u = u.clamp(0.0, 1.0);
            changed |= u.to_bits() != slot.to_bits();
            *slot = u;
        }
        if changed {
            self.refresh_totals();
        }
    }

    /// Raises the utilization of the servers in slots `0..count` to at
    /// least `floor` (clamped to `[0, 1]`): load overlaid on the lowest
    /// slots, such as a power virus on the servers it runs on.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the server count.
    pub fn raise_utilizations(&mut self, count: usize, floor: f64) {
        let mut changed = false;
        for slot in &mut self.utilization[..count] {
            let u = slot.max(floor).clamp(0.0, 1.0);
            changed |= u.to_bits() != slot.to_bits();
            *slot = u;
        }
        if changed {
            self.refresh_totals();
        }
    }

    /// Applies one DVFS factor to every server (rack-level capping),
    /// clamped to `[0.1, 1]`.
    pub fn set_dvfs_all(&mut self, factor: f64) {
        let dvfs = factor.clamp(0.1, 1.0);
        if dvfs.to_bits() != self.dvfs.to_bits() {
            self.dvfs = dvfs;
            self.refresh_totals();
        }
    }

    /// Puts `count` servers (from the highest slot down) to sleep, waking
    /// the rest — the Level-3 load-shedding actuator. Returns how many are
    /// now asleep.
    pub fn shed_servers(&mut self, count: usize) -> usize {
        let asleep = count.min(self.server_count());
        if asleep != self.asleep {
            self.asleep = asleep;
            self.refresh_totals();
        }
        asleep
    }

    /// How many servers are currently asleep.
    pub fn asleep_count(&self) -> usize {
        self.asleep
    }

    /// Whether the server in `slot` is asleep.
    fn is_asleep(&self, slot: usize) -> bool {
        slot >= self.server_count() - self.asleep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use battery::model::EnergyStorage;
    use simkit::time::SimDuration;

    fn rack() -> Rack {
        Rack::paper_rack(RackId(3), 0.65)
    }

    #[test]
    fn nameplate_and_idle_totals() {
        let r = rack();
        assert_eq!(r.nameplate_power(), Watts(5210.0));
        assert_eq!(r.idle_power(), Watts(2990.0));
        assert_eq!(r.server_count(), 10);
        assert_eq!(r.id(), RackId(3));
    }

    #[test]
    fn demand_tracks_utilization() {
        let mut r = rack();
        assert_eq!(r.demand(), Watts(2990.0));
        r.set_utilizations([1.0; 10]);
        assert_eq!(r.demand(), Watts(5210.0));
        r.set_utilizations([0.5; 10]);
        assert_eq!(r.demand(), Watts(4100.0));
    }

    #[test]
    fn partial_utilization_slice() {
        let mut r = rack();
        r.set_utilizations([1.0, 1.0]); // only first two servers
        assert_eq!(r.demand(), Watts(2990.0 + 2.0 * 222.0));
    }

    #[test]
    fn dvfs_all_caps_power_and_work() {
        let mut r = rack();
        r.set_utilizations([1.0; 10]);
        r.set_dvfs_all(0.8);
        assert_eq!(r.demand(), Watts(2990.0 + 2220.0 * 0.8));
        assert!((r.delivered_work() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn shedding_sleeps_highest_slots_first() {
        let mut r = rack();
        r.set_utilizations([1.0; 10]);
        assert_eq!(r.shed_servers(3), 3);
        assert_eq!(r.asleep_count(), 3);
        assert!(r.server(9).is_asleep());
        assert!(r.server(7).is_asleep());
        assert!(!r.server(6).is_asleep());
        assert!(!r.server(0).is_asleep());
        // Shedding 0 wakes everyone.
        assert_eq!(r.shed_servers(0), 0);
        assert_eq!(r.asleep_count(), 0);
    }

    /// The rack's totals equal the per-server sums, bit for bit.
    fn assert_totals_fresh(r: &Rack) {
        let totals = r.totals();
        let offered: f64 = r.servers().map(|s| s.utilization()).sum();
        let delivered: f64 = r.servers().map(|s| s.delivered_work()).sum();
        let demand: Watts = r.servers().map(|s| s.power()).sum();
        assert_eq!(totals.offered.to_bits(), offered.to_bits());
        assert_eq!(totals.delivered.to_bits(), delivered.to_bits());
        assert_eq!(totals.demand.0.to_bits(), demand.0.to_bits());
    }

    #[test]
    fn every_setter_keeps_totals_bit_identical_to_per_server_sums() {
        let mut r = rack();
        assert_totals_fresh(&r);
        r.set_utilizations((0..10).map(|slot| 0.1 + 0.087 * slot as f64));
        assert_totals_fresh(&r);
        r.raise_utilizations(4, 0.55);
        assert_totals_fresh(&r);
        r.set_dvfs_all(0.83);
        assert_totals_fresh(&r);
        r.shed_servers(3);
        assert_totals_fresh(&r);
        r.set_utilizations([0.9, 0.05]);
        assert_totals_fresh(&r);
        assert_eq!(r.demand(), r.totals().demand);
        assert_eq!(r.delivered_work(), r.totals().delivered);
        // All asleep: the delivered sum is positive zero, as std's is.
        r.shed_servers(10);
        assert_totals_fresh(&r);
        r.shed_servers(0);
        r.set_dvfs_all(1.0);
        assert_totals_fresh(&r);
    }

    #[test]
    fn raising_utilization_only_lifts_the_lowest_slots() {
        let mut r = rack();
        r.set_utilizations([0.2, 0.9, 0.2, 0.2]);
        r.raise_utilizations(3, 0.5);
        assert_eq!(&r.utilizations()[..5], &[0.5, 0.9, 0.5, 0.2, 0.0]);
        r.raise_utilizations(1, 7.0);
        assert_eq!(r.utilizations()[0], 1.0);
    }

    #[test]
    fn server_values_reflect_the_columns() {
        let mut r = rack();
        r.set_utilizations([0.0, 0.0, 0.0, 0.0, 1.5]);
        r.set_dvfs_all(0.05);
        assert_eq!(r.utilizations()[4], 1.0);
        let s = r.server(4);
        assert_eq!(s.utilization(), 1.0);
        assert_eq!(s.dvfs(), 0.1);
        assert_eq!(s.spec(), ServerSpec::hp_proliant_dl585_g5());
        assert_eq!(r.servers().len(), 10);
    }

    #[test]
    fn shedding_clamps_to_server_count() {
        let mut r = rack();
        assert_eq!(r.shed_servers(99), 10);
        assert_eq!(r.asleep_count(), 10);
        assert_eq!(r.delivered_work(), 0.0);
    }

    #[test]
    fn cabinet_shaves_rack_scale_power() {
        let mut r = rack();
        let delivered = r
            .cabinet_mut()
            .discharge(Watts(2000.0), SimDuration::from_secs(5));
        assert_eq!(delivered, Watts(2000.0));
        assert!(r.cabinet().soc() < 1.0);
    }
}
