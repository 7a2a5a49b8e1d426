//! Server power model.
//!
//! The paper assumes "a HP high-performance ProLiant DL585 G5 server
//! system (2.70 GHz, AMD Opteron 8384), which has an active idle power of
//! 299 W and a peak power of 521 W" (§V, SPECpower_ssj2008). Power scales
//! linearly with utilization between those endpoints — the standard
//! proportional model — and DVFS capping scales the dynamic part.

use battery::units::Watts;

/// The static power curve of a server model.
///
/// # Example
///
/// ```
/// use powerinfra::server::ServerSpec;
/// use powerinfra::units::Watts;
///
/// let spec = ServerSpec::hp_proliant_dl585_g5();
/// assert_eq!(spec.power_at(0.5), Watts(410.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Power drawn at zero utilization (active idle).
    pub idle: Watts,
    /// Power drawn at 100% utilization (nameplate peak).
    pub peak: Watts,
}

impl ServerSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < idle <= peak`.
    pub fn new(idle: Watts, peak: Watts) -> Self {
        assert!(
            idle.0 > 0.0 && idle.0 <= peak.0,
            "need 0 < idle <= peak, got {idle} / {peak}"
        );
        ServerSpec { idle, peak }
    }

    /// The paper's evaluation server: 299 W idle, 521 W peak.
    pub fn hp_proliant_dl585_g5() -> Self {
        ServerSpec::new(Watts(299.0), Watts(521.0))
    }

    /// Power at a utilization in `[0, 1]` (clamped).
    pub fn power_at(&self, utilization: f64) -> Watts {
        let u = utilization.clamp(0.0, 1.0);
        self.idle + (self.peak - self.idle) * u
    }

    /// Dynamic power range (peak − idle).
    pub fn dynamic_range(&self) -> Watts {
        self.peak - self.idle
    }

    /// Standby power of a sleeping server.
    pub(crate) fn sleep_power(&self) -> Watts {
        self.idle * SLEEP_POWER_FRACTION_OF_IDLE
    }
}

/// Power/performance state of one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerState {
    /// Serving load normally.
    Active,
    /// Put to deep sleep by emergency load shedding (Level 3). Draws a
    /// trickle (5% of idle) and performs no work.
    Asleep,
}

/// A server instance: spec + live utilization, DVFS factor and sleep
/// state.
///
/// Throughput accounting follows the paper's performance metric: delivered
/// work is `utilization × dvfs` while active and zero while asleep, so
/// capping and shedding both show up as throughput loss (Figure 16).
///
/// # Example
///
/// ```
/// use powerinfra::server::{Server, ServerSpec};
/// use powerinfra::units::Watts;
///
/// let mut s = Server::new(ServerSpec::hp_proliant_dl585_g5());
/// s.set_utilization(1.0);
/// assert_eq!(s.power(), Watts(521.0));
///
/// // A 20% DVFS cap (the paper's PSPC scheme) cuts dynamic power and work.
/// s.set_dvfs(0.8);
/// assert_eq!(s.power(), Watts(299.0 + 222.0 * 0.8));
/// assert_eq!(s.delivered_work(), 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Server {
    spec: ServerSpec,
    utilization: f64,
    dvfs: f64,
    state: ServerState,
}

/// Sleeping servers still draw a trickle of standby power.
const SLEEP_POWER_FRACTION_OF_IDLE: f64 = 0.05;

impl Server {
    /// Creates an idle, uncapped, active server.
    pub fn new(spec: ServerSpec) -> Self {
        Server {
            spec,
            utilization: 0.0,
            dvfs: 1.0,
            state: ServerState::Active,
        }
    }

    /// A server in a given state; `utilization` and `dvfs` are taken as
    /// already clamped (a rack stores them that way).
    pub(crate) fn from_parts(
        spec: ServerSpec,
        utilization: f64,
        dvfs: f64,
        state: ServerState,
    ) -> Self {
        Server {
            spec,
            utilization,
            dvfs,
            state,
        }
    }

    /// The server's power curve.
    pub fn spec(&self) -> ServerSpec {
        self.spec
    }

    /// Offered load in `[0, 1]` (what the workload wants to run).
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Sets offered load (clamped to `[0, 1]`).
    pub fn set_utilization(&mut self, utilization: f64) {
        self.utilization = utilization.clamp(0.0, 1.0);
    }

    /// Current DVFS frequency factor in `(0, 1]`.
    pub fn dvfs(&self) -> f64 {
        self.dvfs
    }

    /// Sets the DVFS factor (clamped to `[0.1, 1]` — processors cannot
    /// scale to zero).
    pub fn set_dvfs(&mut self, factor: f64) {
        self.dvfs = factor.clamp(0.1, 1.0);
    }

    /// Current sleep state.
    pub fn state(&self) -> ServerState {
        self.state
    }

    /// Puts the server to deep sleep (load shedding) or wakes it.
    pub fn set_state(&mut self, state: ServerState) {
        self.state = state;
    }

    /// `true` while the server is asleep.
    pub fn is_asleep(&self) -> bool {
        self.state == ServerState::Asleep
    }

    /// Instantaneous power draw.
    pub fn power(&self) -> Watts {
        match self.state {
            ServerState::Asleep => self.spec.sleep_power(),
            ServerState::Active => self.spec.power_at(self.utilization * self.dvfs),
        }
    }

    /// Work delivered this instant, normalized so an uncapped fully
    /// utilized server delivers 1.0.
    pub fn delivered_work(&self) -> f64 {
        match self.state {
            ServerState::Asleep => 0.0,
            ServerState::Active => self.utilization * self.dvfs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_curve_endpoints() {
        let spec = ServerSpec::hp_proliant_dl585_g5();
        assert_eq!(spec.power_at(0.0), Watts(299.0));
        assert_eq!(spec.power_at(1.0), Watts(521.0));
        assert_eq!(spec.dynamic_range(), Watts(222.0));
    }

    #[test]
    fn power_curve_clamps_utilization() {
        let spec = ServerSpec::hp_proliant_dl585_g5();
        assert_eq!(spec.power_at(-1.0), spec.power_at(0.0));
        assert_eq!(spec.power_at(2.0), spec.power_at(1.0));
    }

    #[test]
    fn dvfs_scales_dynamic_power_only() {
        let mut s = Server::new(ServerSpec::hp_proliant_dl585_g5());
        s.set_utilization(1.0);
        s.set_dvfs(0.5);
        // idle + 222·(1.0·0.5)
        assert_eq!(s.power(), Watts(299.0 + 111.0));
        // Idle power unaffected by DVFS.
        s.set_utilization(0.0);
        assert_eq!(s.power(), Watts(299.0));
    }

    #[test]
    fn dvfs_floor_is_ten_percent() {
        let mut s = Server::new(ServerSpec::hp_proliant_dl585_g5());
        s.set_dvfs(0.0);
        assert_eq!(s.dvfs(), 0.1);
        s.set_dvfs(5.0);
        assert_eq!(s.dvfs(), 1.0);
    }

    #[test]
    fn sleep_draws_trickle_and_does_no_work() {
        let mut s = Server::new(ServerSpec::hp_proliant_dl585_g5());
        s.set_utilization(0.9);
        s.set_state(ServerState::Asleep);
        assert!(s.is_asleep());
        assert_eq!(s.power(), Watts(299.0 * 0.05));
        assert_eq!(s.delivered_work(), 0.0);
        s.set_state(ServerState::Active);
        assert!((s.delivered_work() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn delivered_work_combines_load_and_dvfs() {
        let mut s = Server::new(ServerSpec::hp_proliant_dl585_g5());
        s.set_utilization(0.5);
        s.set_dvfs(0.8);
        assert!((s.delivered_work() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "idle <= peak")]
    fn inverted_spec_rejected() {
        ServerSpec::new(Watts(500.0), Watts(100.0));
    }
}
