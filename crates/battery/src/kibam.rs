//! Kinetic Battery Model (KiBaM).
//!
//! KiBaM (Manwell & McGowan; recommended for lead-acid in Jongerden &
//! Haverkort, *Which battery model to use?* — the paper's reference \[32\])
//! splits the charge into an **available** well, drained directly by the
//! load, and a **bound** well that replenishes the available well through a
//! valve with rate constant `k'`. This captures the two effects the
//! paper's threat model turns on:
//!
//! * **rate-capacity effect** — sustained high power empties the available
//!   well well before the nominal capacity is gone, so an aggressively
//!   discharged cabinet becomes *temporarily unavailable* (Phase I);
//! * **recovery effect** — resting lets bound charge diffuse back, which
//!   is why timely recharge windows matter (Figure 5, online vs offline).
//!
//! We use the standard closed-form step solution (exact for constant power
//! over a step), with power standing in for current at the nominal DC bus
//! voltage.

use simkit::time::SimDuration;

use crate::model::EnergyStorage;
use crate::units::{Joules, Watts};

/// KiBaM shape parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KibamParams {
    /// Fraction of total capacity held in the available well, `0 < c < 1`.
    /// Lead-acid literature value: 0.625.
    pub c: f64,
    /// Valve rate constant `k'` in 1/s (already normalized by `c(1−c)`),
    /// governing how fast bound charge becomes available.
    pub k_prime: f64,
    /// Charge efficiency in `(0, 1]`: fraction of accepted energy actually
    /// stored (lead-acid ≈ 0.85).
    pub charge_efficiency: f64,
}

impl KibamParams {
    /// Lead-acid defaults (c = 0.625, k' = 0.0045 s⁻¹, η = 0.85).
    pub fn lead_acid() -> Self {
        KibamParams {
            c: 0.625,
            k_prime: 0.0045,
            charge_efficiency: 0.85,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.c > 0.0 && self.c < 1.0) {
            return Err(format!("capacity ratio c must be in (0,1), got {}", self.c));
        }
        if !(self.k_prime > 0.0 && self.k_prime.is_finite()) {
            return Err(format!(
                "rate constant k' must be positive, got {}",
                self.k_prime
            ));
        }
        if !(self.charge_efficiency > 0.0 && self.charge_efficiency <= 1.0) {
            return Err(format!(
                "charge efficiency must be in (0,1], got {}",
                self.charge_efficiency
            ));
        }
        Ok(())
    }
}

impl Default for KibamParams {
    fn default() -> Self {
        KibamParams::lead_acid()
    }
}

/// A battery following the Kinetic Battery Model.
///
/// # Example
///
/// ```
/// use battery::kibam::{KibamBattery, KibamParams};
/// use battery::model::EnergyStorage;
/// use battery::units::{Joules, Watts};
/// use simkit::time::SimDuration;
///
/// let mut b = KibamBattery::new(Joules(100_000.0), KibamParams::lead_acid(), Watts(5_000.0));
/// let delivered = b.discharge(Watts(2_000.0), SimDuration::from_secs(10));
/// assert_eq!(delivered, Watts(2_000.0));
/// assert!((b.stored().0 - 80_000.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KibamBattery {
    params: KibamParams,
    capacity: Joules,
    /// Available well (energy the load can draw directly).
    available: Joules,
    /// Bound well (energy that must diffuse through the valve first).
    bound: Joules,
    /// Hard power cap from the cell chemistry / wiring (e.g. 48 A limit).
    rate_limit: Watts,
    /// Lifetime discharge throughput, for aging accounting.
    discharged_total: Joules,
    /// Well-decay factor and discharge coefficient for
    /// [`NOMINAL_STEP`]: they depend only on `params`, so they are
    /// computed once instead of on every step of that length.
    nominal: (f64, f64),
}

/// Reference step used when quoting an instantaneous max power.
const NOMINAL_STEP: SimDuration = SimDuration::from_millis(100);

impl KibamBattery {
    /// Creates a fully charged battery.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid, `capacity` is not positive, or
    /// `rate_limit` is not positive.
    pub fn new(capacity: Joules, params: KibamParams, rate_limit: Watts) -> Self {
        params.validate().expect("invalid KiBaM parameters");
        assert!(capacity.0 > 0.0, "capacity must be positive");
        assert!(rate_limit.0 > 0.0, "rate limit must be positive");
        KibamBattery {
            params,
            capacity,
            available: capacity * params.c,
            bound: capacity * (1.0 - params.c),
            rate_limit,
            discharged_total: Joules::ZERO,
            nominal: Self::decay(params, NOMINAL_STEP),
        }
    }

    /// Sizes a battery so it can sustain `power` for at least `duration`
    /// from a full charge (binary search over capacity, honouring the
    /// paper's "fully charged battery can sustain 50 seconds under full
    /// load" spec exactly under KiBaM dynamics).
    ///
    /// # Panics
    ///
    /// Panics if `power` or `duration` is zero/non-positive.
    pub fn sized_for(power: Watts, duration: SimDuration, params: KibamParams) -> Self {
        assert!(power.0 > 0.0, "power must be positive");
        assert!(!duration.is_zero(), "duration must be non-zero");
        let naive = power * duration;
        let mut lo = naive.0; // can never need less than E = P·t
        let mut hi = naive.0 / params.c; // upper bound: available well alone suffices
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if Self::sustains(Joules(mid), params, power, duration) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        // Always return the feasible end of the bracket.
        KibamBattery::new(Joules(hi), params, power * 4.0)
    }

    /// Whether a battery of `capacity` sustains `power` for `duration`.
    fn sustains(
        capacity: Joules,
        params: KibamParams,
        power: Watts,
        duration: SimDuration,
    ) -> bool {
        let mut b = KibamBattery::new(capacity, params, power * 4.0);
        let step = SimDuration::from_millis(250);
        let mut elapsed = SimDuration::ZERO;
        while elapsed < duration {
            let dt = step.min(duration - elapsed);
            let got = b.discharge(power, dt);
            if got.0 < power.0 * (1.0 - 1e-9) {
                return false;
            }
            elapsed += dt;
        }
        true
    }

    /// The model parameters.
    pub fn params(&self) -> KibamParams {
        self.params
    }

    /// Energy in the available well.
    pub fn available(&self) -> Joules {
        self.available
    }

    /// Energy in the bound well.
    pub fn bound(&self) -> Joules {
        self.bound
    }

    /// Lifetime discharge throughput (for aging/cycle accounting).
    pub fn discharged_total(&self) -> Joules {
        self.discharged_total
    }

    /// Sets the state of charge directly (testing / scenario setup),
    /// distributing energy between wells in equilibrium proportions.
    ///
    /// # Panics
    ///
    /// Panics if `soc` is outside `[0, 1]`.
    pub fn set_soc(&mut self, soc: f64) {
        assert!(
            (0.0..=1.0).contains(&soc),
            "SOC must be in [0,1], got {soc}"
        );
        let total = self.capacity * soc;
        self.available = total * self.params.c;
        self.bound = total * (1.0 - self.params.c);
    }

    /// Lets the battery rest for `dt` with no terminal flow: the valve
    /// still equalizes the wells, modelling the *recovery effect*.
    pub fn rest(&mut self, dt: SimDuration) {
        if !dt.is_zero() {
            let coefs = self.step_coefficients(dt);
            self.apply_step(0.0, dt, coefs);
        }
    }

    /// The state-independent part of a step of length `dt`: the
    /// well-decay factor `e = exp(−k'·dt)` and the discharge coefficient
    /// `b_coef`.
    fn decay(params: KibamParams, dt: SimDuration) -> (f64, f64) {
        let t = dt.as_secs_f64();
        let k = params.k_prime;
        let c = params.c;
        let e = (-k * t).exp();
        let b_coef = ((1.0 - e) + c * (k * t - 1.0 + e)) / k;
        (e, b_coef)
    }

    /// Closed-form KiBaM step coefficients for a step of length `dt`:
    /// after the step, `available' = a_coef − i·b_coef` where `i` is the
    /// (constant) discharge power, and the well total drops by `i·dt`.
    fn step_coefficients(&self, dt: SimDuration) -> (f64, f64) {
        let (e, b_coef) = if dt == NOMINAL_STEP {
            self.nominal
        } else {
            Self::decay(self.params, dt)
        };
        let c = self.params.c;
        let y0 = self.available.0 + self.bound.0;
        let a_coef = self.available.0 * e + y0 * c * (1.0 - e);
        (a_coef, b_coef)
    }

    /// Applies the closed-form update for constant power `i` (positive =
    /// discharge, negative = charge *into* the available well), given the
    /// step's coefficients for the current wells.
    fn apply_step(&mut self, i: f64, dt: SimDuration, (a_coef, b_coef): (f64, f64)) {
        let t = dt.as_secs_f64();
        let y0 = self.available.0 + self.bound.0;
        let new_available = (a_coef - i * b_coef).max(0.0);
        let new_total = (y0 - i * t).clamp(0.0, self.capacity.0);
        self.available = Joules(new_available.min(new_total));
        self.bound = Joules((new_total - self.available.0).max(0.0));
    }
}

impl EnergyStorage for KibamBattery {
    fn capacity(&self) -> Joules {
        self.capacity
    }

    fn stored(&self) -> Joules {
        self.available + self.bound
    }

    fn max_discharge_power(&self) -> Watts {
        let (a_coef, b_coef) = self.step_coefficients(NOMINAL_STEP);
        if b_coef <= 0.0 {
            return Watts::ZERO;
        }
        Watts((a_coef / b_coef).max(0.0)).min(self.rate_limit)
    }

    fn max_charge_power(&self) -> Watts {
        // Charging is limited by the headroom of the available well over
        // the nominal step (the valve then redistributes), by the total
        // capacity headroom, and by the wiring rate limit. The well
        // headrooms are internal (post-efficiency) rates, so convert to
        // terminal power before applying the terminal-side rate limit —
        // mirroring exactly what `charge` will accept.
        let (a_coef, b_coef) = self.step_coefficients(NOMINAL_STEP);
        if b_coef <= 0.0 {
            return Watts::ZERO;
        }
        let headroom = (self.params.c * self.capacity.0 - a_coef) / b_coef;
        let total_headroom = (self.capacity.0 - self.stored().0) / NOMINAL_STEP.as_secs_f64();
        let internal = headroom.min(total_headroom).max(0.0);
        Watts(internal / self.params.charge_efficiency).min(self.rate_limit)
    }

    fn discharge(&mut self, power: Watts, dt: SimDuration) -> Watts {
        if power.0 <= 0.0 || dt.is_zero() {
            return Watts::ZERO;
        }
        let coefs = self.step_coefficients(dt);
        let (a_coef, b_coef) = coefs;
        let i_max = if b_coef > 0.0 {
            (a_coef / b_coef).max(0.0)
        } else {
            0.0
        };
        let i = power.0.min(i_max).min(self.rate_limit.0);
        if i <= 0.0 {
            return Watts::ZERO;
        }
        self.apply_step(i, dt, coefs);
        self.discharged_total += Watts(i) * dt;
        Watts(i)
    }

    fn charge(&mut self, power: Watts, dt: SimDuration) -> Watts {
        if power.0 <= 0.0 || dt.is_zero() {
            return Watts::ZERO;
        }
        let eta = self.params.charge_efficiency;
        let rate = power.0.min(self.rate_limit.0);
        // Power stored internally after conversion loss.
        let internal = rate * eta;
        let coefs = self.step_coefficients(dt);
        let (a_coef, b_coef) = coefs;
        // Keep the available well within its own capacity...
        let well_cap = self.params.c * self.capacity.0;
        let i_well = if b_coef > 0.0 {
            ((well_cap - a_coef) / b_coef).max(0.0)
        } else {
            0.0
        };
        // ...and the total within the battery capacity.
        let t = dt.as_secs_f64();
        let i_total = ((self.capacity.0 - self.stored().0) / t).max(0.0);
        let i = internal.min(i_well).min(i_total);
        if i <= 0.0 {
            return Watts::ZERO;
        }
        self.apply_step(-i, dt, coefs);
        // Report the terminal power corresponding to what was stored.
        Watts(i / eta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn battery() -> KibamBattery {
        KibamBattery::new(Joules(100_000.0), KibamParams::lead_acid(), Watts(10_000.0))
    }

    #[test]
    fn starts_full_in_equilibrium() {
        let b = battery();
        assert_eq!(b.soc(), 1.0);
        assert!((b.available().0 - 62_500.0).abs() < 1e-9);
        assert!((b.bound().0 - 37_500.0).abs() < 1e-9);
    }

    #[test]
    fn discharge_conserves_energy_exactly() {
        let mut b = battery();
        let before = b.stored();
        let p = b.discharge(Watts(1_000.0), SimDuration::from_secs(20));
        assert_eq!(p, Watts(1_000.0));
        let spent = before - b.stored();
        assert!((spent.0 - 20_000.0).abs() < 1e-6, "spent {spent:?}");
    }

    #[test]
    fn never_delivers_more_than_available_well_allows() {
        let mut b = battery();
        // Ask for absurd power: delivery is clamped by the rate limit.
        let p = b.discharge(Watts(1e9), SimDuration::from_secs(1));
        assert!(p <= Watts(10_000.0));
        assert!(b.stored().0 >= 0.0);
    }

    #[test]
    fn rate_capacity_effect_sustained_load_depletes_early() {
        // Battery nominally holds 100 kJ; at 5 kW that's 20 s. But the
        // available well is only 62.5 kJ, so sustained 5 kW cannot run the
        // full 20 s at rated power.
        let mut b = battery();
        let mut sustained = 0.0;
        for _ in 0..2000 {
            let got = b.discharge(Watts(5_000.0), SimDuration::from_millis(100));
            if got.0 < 5_000.0 - 1e-6 {
                break;
            }
            sustained += 0.1;
        }
        assert!(
            sustained < 20.0,
            "rate-capacity effect missing: sustained {sustained}s"
        );
        assert!(sustained > 10.0, "available well too small: {sustained}s");
        // Energy remains bound in the battery even though delivery sagged.
        assert!(b.stored().0 > 1_000.0);
    }

    #[test]
    fn recovery_effect_rest_restores_deliverable_power() {
        let mut b = battery();
        // Hammer the battery until it sags.
        while b.discharge(Watts(5_000.0), SimDuration::from_millis(100)).0 >= 5_000.0 - 1e-6 {}
        let sagged = b.max_discharge_power();
        // Rest for 5 minutes (zero load): bound charge diffuses back.
        b.rest(SimDuration::from_secs(300));
        assert!(
            b.max_discharge_power() > sagged,
            "no recovery: sagged {sagged:?}, rested {:?}",
            b.max_discharge_power()
        );
    }

    #[test]
    fn charge_refills_and_respects_capacity() {
        let mut b = battery();
        b.set_soc(0.2);
        let before = b.stored();
        let accepted = b.charge(Watts(2_000.0), SimDuration::from_secs(10));
        assert!(accepted.0 > 0.0);
        assert!(b.stored() > before);
        // Stored gain equals accepted × efficiency × time.
        let gain = b.stored() - before;
        assert!(
            (gain.0 - accepted.0 * 0.85 * 10.0).abs() < 1e-6,
            "gain {gain:?} vs accepted {accepted:?}"
        );
    }

    #[test]
    fn charge_stops_at_full() {
        let mut b = battery();
        b.set_soc(0.999);
        for _ in 0..100 {
            b.charge(Watts(10_000.0), SimDuration::from_secs(10));
        }
        assert!(b.soc() <= 1.0 + 1e-9);
        let accepted = b.charge(Watts(10_000.0), SimDuration::from_secs(10));
        assert!(accepted.0 < 1.0, "full battery kept accepting {accepted:?}");
    }

    #[test]
    fn empty_battery_delivers_nothing() {
        let mut b = battery();
        b.set_soc(0.0);
        assert_eq!(b.discharge(Watts(100.0), SimDuration::SECOND), Watts::ZERO);
        assert!(b.is_depleted());
    }

    #[test]
    fn sized_for_honours_autonomy_spec() {
        // The paper's cabinet: 5210 W for 50 s.
        let b = KibamBattery::sized_for(
            Watts(5210.0),
            SimDuration::from_secs(50),
            KibamParams::lead_acid(),
        );
        assert!(KibamBattery::sustains(
            b.capacity(),
            b.params(),
            Watts(5210.0),
            SimDuration::from_secs(50)
        ));
        // And it should not be grossly oversized (< 1/c × naive).
        let naive = 5210.0 * 50.0;
        assert!(b.capacity().0 < naive / 0.625 + 1.0);
        assert!(b.capacity().0 >= naive);
    }

    #[test]
    fn closed_form_matches_fine_euler_integration() {
        // Integrate the ODE with tiny Euler steps and compare.
        let mut exact = battery();
        let step = SimDuration::from_secs(10);
        exact.apply_step(3_000.0, step, exact.step_coefficients(step));

        let p = KibamParams::lead_acid();
        let (mut y1, mut y2) = (62_500.0f64, 37_500.0f64);
        let dt = 1e-4;
        let steps = (10.0 / dt) as usize;
        for _ in 0..steps {
            let h1 = y1 / p.c;
            let h2 = y2 / (1.0 - p.c);
            // dy1 = (-i + k'(h2-h1)·c(1-c)/...) — with the normalized k'
            // formulation the flow term is k'·c(1−c)(h2−h1).
            let flow = p.k_prime * p.c * (1.0 - p.c) * (h2 - h1);
            y1 += (-3_000.0 + flow) * dt;
            y2 += -flow * dt;
        }
        assert!(
            (exact.available().0 - y1).abs() < 5.0,
            "closed form {} vs euler {}",
            exact.available().0,
            y1
        );
        assert!((exact.bound().0 - y2).abs() < 5.0);
    }

    #[test]
    fn zero_requests_are_noops() {
        let mut b = battery();
        assert_eq!(b.discharge(Watts::ZERO, SimDuration::SECOND), Watts::ZERO);
        assert_eq!(b.charge(Watts::ZERO, SimDuration::SECOND), Watts::ZERO);
        assert_eq!(b.discharge(Watts(10.0), SimDuration::ZERO), Watts::ZERO);
        assert_eq!(b.soc(), 1.0);
    }

    #[test]
    fn throughput_accounting_accumulates() {
        let mut b = battery();
        b.discharge(Watts(1_000.0), SimDuration::from_secs(5));
        b.discharge(Watts(2_000.0), SimDuration::from_secs(5));
        assert!((b.discharged_total().0 - 15_000.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(KibamParams {
            c: 0.0,
            ..KibamParams::lead_acid()
        }
        .validate()
        .is_err());
        assert!(KibamParams {
            c: 1.0,
            ..KibamParams::lead_acid()
        }
        .validate()
        .is_err());
        assert!(KibamParams {
            k_prime: 0.0,
            ..KibamParams::lead_acid()
        }
        .validate()
        .is_err());
        assert!(KibamParams {
            charge_efficiency: 0.0,
            ..KibamParams::lead_acid()
        }
        .validate()
        .is_err());
        assert!(KibamParams {
            charge_efficiency: 1.5,
            ..KibamParams::lead_acid()
        }
        .validate()
        .is_err());
        assert!(KibamParams::lead_acid().validate().is_ok());
    }
}
