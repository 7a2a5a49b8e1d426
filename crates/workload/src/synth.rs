//! Synthetic Google-like trace generation.
//!
//! The real May-2010 Google trace is not redistributable, so experiments
//! run on synthetic traces that match the statistics the simulator
//! actually consumes: per-machine CPU-rate series at 5-minute steps with a
//! diurnal/weekly pattern, heavy-tailed task durations and realistic
//! machine-to-machine variation (DESIGN.md documents this substitution).
//!
//! Two generation paths are provided:
//!
//! * [`SynthConfig::generate`] — the *faithful* pipeline: Poisson job
//!   arrivals (rate modulated by the diurnal curve) → heavy-tailed task
//!   fan-out → least-loaded dispatch ([`Scheduler`]) → rasterization,
//!   mirroring how the paper processes the real trace;
//! * [`SynthConfig::generate_direct`] — a fast statistical path (diurnal
//!   baseline + per-machine AR(1) noise) for month-long sweeps where the
//!   job pipeline would dominate run time. Both paths produce the same
//!   [`ClusterTrace`] type and similar aggregate statistics.

use simkit::rng::RngStream;
use simkit::series::TimeSeries;
use simkit::time::{SimDuration, SimTime};

use crate::job::{Job, JobId, TaskSpec};
use crate::scheduler::Scheduler;
use crate::trace::ClusterTrace;

/// Parameters of the synthetic trace.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SynthConfig {
    /// Number of machines (the paper's cluster: ~220).
    pub machines: usize,
    /// Covered interval.
    pub horizon: SimTime,
    /// Sampling step (the paper's trace: 5 minutes).
    pub step: SimDuration,
    /// Target long-run mean utilization per machine, in `(0, 1)`.
    pub mean_utilization: f64,
    /// Relative amplitude of the daily cycle, in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Relative dip of weekend load, in `[0, 1)`.
    pub weekend_dip: f64,
    /// Task CPU-rate range `(min, max)` per task.
    pub task_cpu: (f64, f64),
    /// Minimum task duration (Pareto scale).
    pub task_duration_min: SimDuration,
    /// Pareto shape for task durations (lower = heavier tail).
    pub task_duration_alpha: f64,
    /// Cap on task durations.
    pub task_duration_cap: SimDuration,
    /// Mean number of tasks per job (geometric distribution).
    pub tasks_per_job_mean: f64,
    /// Standard deviation of the persistent per-machine utilization bias
    /// in the direct path (some machines host hot services).
    pub machine_bias_std: f64,
}

impl SynthConfig {
    /// The most samples (machines × steps) a trace may hold: 10^8, or
    /// 800 MB of values. A month of the paper's 220-machine cluster at
    /// 5-minute steps is 1.9 million. [`validate`](Self::validate)
    /// refuses a larger trace, so a size from the command line fails
    /// cleanly instead of aborting on an allocation.
    pub const MAX_SAMPLES: u64 = 100_000_000;

    /// The paper-scale configuration: 220 machines, 1 month at 5-minute
    /// steps, ~45% mean utilization.
    pub fn google_may2010() -> Self {
        SynthConfig {
            machines: 220,
            horizon: SimTime::from_hours(30 * 24),
            step: SimDuration::from_mins(5),
            mean_utilization: 0.45,
            diurnal_amplitude: 0.35,
            weekend_dip: 0.2,
            task_cpu: (0.05, 0.35),
            task_duration_min: SimDuration::from_mins(5),
            task_duration_alpha: 1.5,
            task_duration_cap: SimDuration::from_hours(6),
            tasks_per_job_mean: 2.0,
            machine_bias_std: 0.08,
        }
    }

    /// A small fast configuration for tests: 20 machines, 1 day.
    pub fn small_test() -> Self {
        SynthConfig {
            machines: 20,
            horizon: SimTime::from_hours(24),
            ..SynthConfig::google_may2010()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines == 0 {
            return Err("machines must be positive".into());
        }
        if self.step.is_zero() || self.horizon <= SimTime::ZERO + self.step {
            return Err("horizon must cover at least one step".into());
        }
        if self.samples() > Self::MAX_SAMPLES {
            return Err(format!(
                "{} machines x {} samples is above the cap of {} samples",
                self.machines,
                self.steps(),
                Self::MAX_SAMPLES
            ));
        }
        if !(0.0 < self.mean_utilization && self.mean_utilization < 1.0) {
            return Err(format!(
                "mean utilization must be in (0,1), got {}",
                self.mean_utilization
            ));
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) || !(0.0..1.0).contains(&self.weekend_dip)
        {
            return Err("diurnal amplitude and weekend dip must be in [0,1)".into());
        }
        let (lo, hi) = self.task_cpu;
        if !(0.0 < lo && lo <= hi && hi <= 1.0) {
            return Err(format!("task cpu range invalid: ({lo}, {hi})"));
        }
        if self.task_duration_min.is_zero() || self.task_duration_alpha <= 1.0 {
            return Err("task duration scale/shape invalid (alpha must exceed 1)".into());
        }
        if self.tasks_per_job_mean < 1.0 {
            return Err("jobs must average at least one task".into());
        }
        if !(0.0..0.5).contains(&self.machine_bias_std) {
            return Err(format!(
                "machine bias std {} must be in [0, 0.5)",
                self.machine_bias_std
            ));
        }
        Ok(())
    }

    /// Samples per machine: the whole steps in the horizon.
    fn steps(&self) -> u64 {
        self.horizon.saturating_since(SimTime::ZERO) / self.step
    }

    /// Samples in the whole trace, machines × steps (saturating), the
    /// size [`MAX_SAMPLES`](Self::MAX_SAMPLES) caps.
    ///
    /// # Panics
    ///
    /// Panics if the step is zero.
    pub fn samples(&self) -> u64 {
        (self.machines as u64).saturating_mul(self.steps())
    }

    /// Relative load multiplier at time `t`: daily sine + weekend dip,
    /// normalized to average ≈ 1 over a week.
    pub fn diurnal_factor(&self, t: SimTime) -> f64 {
        let hours = t.as_secs_f64() / 3600.0;
        let day_phase = (hours % 24.0) / 24.0;
        // Peak mid-afternoon (~15:00 — sine maximum at phase 0.625),
        // trough in the small hours.
        let daily =
            1.0 + self.diurnal_amplitude * (std::f64::consts::TAU * (day_phase - 0.375)).sin();
        let day_index = (hours / 24.0) as u64 % 7;
        let weekly = if day_index >= 5 {
            1.0 - self.weekend_dip
        } else {
            1.0 + self.weekend_dip * 2.0 / 5.0
        };
        daily * weekly
    }

    /// Mean task duration implied by the (capped) Pareto parameters.
    fn mean_task_duration_secs(&self) -> f64 {
        // Uncapped Pareto mean: α·x_min/(α−1); the cap shortens it a bit,
        // which the calibration constant below absorbs.
        let a = self.task_duration_alpha;
        (a * self.task_duration_min.as_secs_f64() / (a - 1.0))
            .min(self.task_duration_cap.as_secs_f64())
    }

    /// Job arrival rate (jobs/second) that yields the target mean
    /// utilization in steady state.
    fn arrival_rate_per_sec(&self) -> f64 {
        let mean_cpu = 0.5 * (self.task_cpu.0 + self.task_cpu.1);
        let work_per_job = self.tasks_per_job_mean * mean_cpu * self.mean_task_duration_secs();
        self.mean_utilization * self.machines as f64 / work_per_job
    }

    /// Generates the job stream (the faithful pipeline's first stage).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn generate_jobs(&self, seed: u64) -> Vec<Job> {
        self.validate().expect("invalid synth config");
        let root = RngStream::new(seed);
        let mut arrivals = root.fork("arrivals");
        let mut shape = root.fork("job-shape");
        let rate = self.arrival_rate_per_sec();

        let mut jobs = Vec::new();
        let mut id = 0u64;
        let tick = SimDuration::from_mins(1);
        let mut t = SimTime::ZERO;
        while t < self.horizon {
            let expected = rate * tick.as_secs_f64() * self.diurnal_factor(t);
            let count = arrivals.poisson(expected);
            for _ in 0..count {
                let offset = SimDuration::from_secs_f64(shape.uniform(0.0, tick.as_secs_f64()));
                let arrival = t + offset;
                let tasks = self.sample_tasks(&mut shape);
                jobs.push(Job::new(JobId(id), arrival, tasks));
                id += 1;
            }
            t += tick;
        }
        jobs
    }

    fn sample_tasks(&self, rng: &mut RngStream) -> Vec<TaskSpec> {
        // Geometric task count with the configured mean (≥ 1).
        let p = 1.0 / self.tasks_per_job_mean;
        let mut count = 1;
        while !rng.chance(p) && count < 64 {
            count += 1;
        }
        (0..count)
            .map(|_| {
                let cpu = rng.uniform(self.task_cpu.0, self.task_cpu.1);
                let dur_secs = rng
                    .pareto(
                        self.task_duration_min.as_secs_f64(),
                        self.task_duration_alpha,
                    )
                    .min(self.task_duration_cap.as_secs_f64());
                TaskSpec::new(cpu, SimDuration::from_secs_f64(dur_secs))
            })
            .collect()
    }

    /// The faithful pipeline: jobs → dispatch → rasterized trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn generate(&self, seed: u64) -> ClusterTrace {
        let jobs = self.generate_jobs(seed);
        let outcome = Scheduler::new(self.machines).run(jobs, self.horizon);
        ClusterTrace::from_records(&outcome.records, self.machines, self.step, self.horizon)
    }

    /// The fast statistical path: per-machine diurnal baseline + AR(1)
    /// noise + per-machine bias, producing the same trace shape.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn generate_direct(&self, seed: u64) -> ClusterTrace {
        self.validate().expect("invalid synth config");
        let root = RngStream::new(seed);
        let steps = self.steps() as usize;
        let mut series = Vec::with_capacity(self.machines);
        for m in 0..self.machines {
            let mut rng = root.fork_indexed("machine", m);
            // Persistent per-machine bias: some machines host hot services.
            let bias = rng.normal_with(0.0, self.machine_bias_std);
            let rho = 0.9; // AR(1) persistence across 5-min steps
            let sigma = 0.05;
            let mut ar = 0.0;
            let mut values = Vec::with_capacity(steps);
            for i in 0..steps {
                let t = SimTime::from_millis(i as u64 * self.step.as_millis());
                let base = self.mean_utilization * self.diurnal_factor(t);
                ar = rho * ar + rng.normal_with(0.0, sigma);
                values.push((base + bias + ar).clamp(0.0, 1.0));
            }
            series.push(TimeSeries::new(SimTime::ZERO, self.step, values));
        }
        ClusterTrace::from_series(series)
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig::google_may2010()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pipeline_hits_target_utilization_roughly() {
        let cfg = SynthConfig {
            machines: 10,
            horizon: SimTime::from_hours(12),
            ..SynthConfig::small_test()
        };
        let trace = cfg.generate(7);
        // Discard the first 2 hours of warm-up, then check the mean.
        let mean_series = trace.cluster_mean();
        let warm: Vec<f64> = mean_series.values().iter().copied().skip(24).collect();
        let mean: f64 = warm.iter().sum::<f64>() / warm.len() as f64;
        assert!(
            (0.2..=0.8).contains(&mean),
            "steady-state mean utilization {mean} far from target {}",
            cfg.mean_utilization
        );
    }

    #[test]
    fn direct_path_hits_target_utilization() {
        let cfg = SynthConfig::small_test();
        let trace = cfg.generate_direct(11);
        let mean: f64 = trace.cluster_mean().values().iter().sum::<f64>() / trace.steps() as f64;
        assert!(
            (mean - cfg.mean_utilization).abs() < 0.12,
            "direct mean {mean} vs target {}",
            cfg.mean_utilization
        );
    }

    #[test]
    fn diurnal_factor_peaks_in_afternoon() {
        let cfg = SynthConfig::google_may2010();
        let afternoon = cfg.diurnal_factor(SimTime::from_hours(15));
        let night = cfg.diurnal_factor(SimTime::from_hours(3));
        assert!(afternoon > night, "afternoon {afternoon} vs night {night}");
    }

    #[test]
    fn weekend_loads_are_lower() {
        let cfg = SynthConfig::google_may2010();
        // Same hour of day, weekday (day 2) vs weekend (day 5).
        let weekday = cfg.diurnal_factor(SimTime::from_hours(2 * 24 + 12));
        let weekend = cfg.diurnal_factor(SimTime::from_hours(5 * 24 + 12));
        assert!(weekday > weekend);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SynthConfig {
            machines: 5,
            horizon: SimTime::from_hours(3),
            ..SynthConfig::small_test()
        };
        assert_eq!(cfg.generate(3), cfg.generate(3));
        assert_ne!(cfg.generate(3), cfg.generate(4));
        assert_eq!(cfg.generate_direct(3), cfg.generate_direct(3));
        assert_ne!(cfg.generate_direct(3), cfg.generate_direct(4));
    }

    #[test]
    fn validate_refuses_a_trace_above_the_sample_cap() {
        // Two 5-minute steps: a trace of 2 × machines samples.
        let two_steps = |machines: usize| SynthConfig {
            machines,
            horizon: SimTime::from_mins(10),
            ..SynthConfig::google_may2010()
        };
        let at_cap = two_steps(50_000_000);
        assert_eq!(at_cap.samples(), SynthConfig::MAX_SAMPLES);
        assert_eq!(at_cap.validate(), Ok(()));
        assert_eq!(
            two_steps(50_000_001).validate(),
            Err("50000001 machines x 2 samples is above the cap of 100000000 samples".into())
        );
        let endless = SynthConfig {
            horizon: SimTime::MAX,
            ..SynthConfig::google_may2010()
        };
        assert!(endless.samples() > SynthConfig::MAX_SAMPLES);
        assert!(endless.validate().is_err());
        assert_eq!(two_steps(usize::MAX).samples(), u64::MAX, "saturates");
    }

    #[test]
    fn all_utilizations_in_unit_range() {
        let cfg = SynthConfig {
            machines: 8,
            horizon: SimTime::from_hours(6),
            ..SynthConfig::small_test()
        };
        for trace in [cfg.generate(5), cfg.generate_direct(5)] {
            for m in 0..trace.machines() {
                assert!(trace
                    .machine_series(m)
                    .values()
                    .iter()
                    .all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    #[test]
    fn machines_differ_from_each_other() {
        let trace = SynthConfig::small_test().generate_direct(9);
        assert_ne!(
            trace.machine_series(0).values(),
            trace.machine_series(1).values()
        );
    }

    #[test]
    fn task_durations_are_heavy_tailed() {
        let cfg = SynthConfig::small_test();
        let jobs = cfg.generate_jobs(13);
        let durations: Vec<f64> = jobs
            .iter()
            .flat_map(|j| j.tasks().iter().map(|t| t.duration.as_secs_f64()))
            .collect();
        assert!(durations.len() > 100, "too few tasks to judge tail");
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        let max = durations.iter().copied().fold(0.0, f64::max);
        // Heavy tail: the max should dwarf the mean.
        assert!(max > 5.0 * mean, "max {max} vs mean {mean}");
        // And the cap must hold.
        assert!(max <= cfg.task_duration_cap.as_secs_f64() + 1.0);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut cfg = SynthConfig::small_test();
        cfg.mean_utilization = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = SynthConfig::small_test();
        cfg.machines = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SynthConfig::small_test();
        cfg.task_duration_alpha = 0.9;
        assert!(cfg.validate().is_err());
        assert!(SynthConfig::google_may2010().validate().is_ok());
    }
}
