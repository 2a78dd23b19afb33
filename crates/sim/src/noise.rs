//! Environmental noise: the stand-in for *real-machine* non-determinism.
//!
//! Sections 2.2 and Figures 2–3 of the paper measure a physical Sun E5000,
//! where variability needs no artificial perturbation — timer interrupts,
//! kernel daemons and background activity supply it. This module models that
//! environment so the "real system" experiments can run on the simulator:
//!
//! * periodic timer interrupts stealing a fixed cost per tick,
//! * randomly phased background-activity *bursts* (a cron job, a page-out
//!   daemon) that inflate every op's cost while active.
//!
//! Noise is seeded independently of the §3.3 perturbation; runs on the
//! simulated "real machine" differ because the environment differs, exactly
//! as on hardware.

use crate::ids::{Cycle, Nanos};
use crate::rng::Xoshiro256StarStar;
use crate::SimError;

/// Configuration of the environmental noise source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseConfig {
    /// Timer-interrupt period per CPU (ns). Solaris ticks at 100 Hz; scaled
    /// simulations shrink this proportionally.
    pub timer_interval_ns: Nanos,
    /// Cost of one timer interrupt (ns).
    pub timer_cost_ns: Nanos,
    /// Mean interval between background-activity bursts (ns).
    pub burst_interval_ns: Nanos,
    /// Duration of one burst (ns).
    pub burst_duration_ns: Nanos,
    /// Slowdown during a burst, in permille of each op's busy time
    /// (e.g. 300 = ops run 30% slower).
    pub burst_slowdown_permille: u32,
    /// Seed for burst phase jitter — vary per run to model a live machine.
    pub seed: u64,
}

impl NoiseConfig {
    /// A default calibrated to produce E5000-like interval variability.
    pub fn default_with_seed(seed: u64) -> Self {
        NoiseConfig {
            timer_interval_ns: 100_000,
            timer_cost_ns: 900,
            burst_interval_ns: 12_000_000,
            burst_duration_ns: 2_500_000,
            burst_slowdown_permille: 450,
            seed,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if an interval is zero.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.timer_interval_ns == 0 || self.burst_interval_ns == 0 {
            return Err(SimError::InvalidConfig {
                what: "noise intervals must be > 0".into(),
            });
        }
        Ok(())
    }
}

/// Live noise state for one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoiseState {
    config: NoiseConfig,
    rng: Xoshiro256StarStar,
    next_timer: Vec<Cycle>,
    burst_start: Cycle,
    burst_end: Cycle,
    /// Total ns of noise injected (diagnostics).
    injected_ns: u64,
}

impl NoiseState {
    /// Creates noise state for `cpus` processors.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: NoiseConfig, cpus: usize) -> Result<Self, SimError> {
        config.validate()?;
        let mut rng = Xoshiro256StarStar::new(config.seed ^ 0x0B5E_55ED_0015_EDAB);
        // Stagger per-CPU timer phases like real hardware.
        let next_timer = (0..cpus)
            .map(|_| rng.next_below(config.timer_interval_ns.max(1)))
            .collect();
        let first_burst = rng.next_below(config.burst_interval_ns);
        Ok(NoiseState {
            config,
            rng,
            next_timer,
            burst_start: first_burst,
            burst_end: first_burst + config.burst_duration_ns,
            injected_ns: 0,
        })
    }

    /// Extra ns charged to an op on `cpu` that runs `[now, now + busy)`.
    pub fn overhead(&mut self, cpu: usize, now: Cycle, busy: Nanos) -> Nanos {
        let mut extra = 0;
        // Timer interrupts that land inside the op's window.
        let end = now + busy;
        while self.next_timer[cpu] <= end {
            extra += self.config.timer_cost_ns;
            self.next_timer[cpu] += self.config.timer_interval_ns;
        }
        // Background burst slowdown.
        if now >= self.burst_end {
            // Schedule the next burst with ±50% jitter.
            let jitter = self.rng.next_range(
                self.config.burst_interval_ns / 2,
                self.config.burst_interval_ns + self.config.burst_interval_ns / 2,
            );
            self.burst_start = self.burst_end + jitter;
            self.burst_end = self.burst_start + self.config.burst_duration_ns;
        }
        if now >= self.burst_start && now < self.burst_end {
            extra += busy * u64::from(self.config.burst_slowdown_permille) / 1000;
        }
        self.injected_ns += extra;
        extra
    }

    /// Total noise injected so far (ns).
    pub fn injected_ns(&self) -> u64 {
        self.injected_ns
    }
}

crate::impl_snap!(NoiseConfig {
    timer_interval_ns,
    timer_cost_ns,
    burst_interval_ns,
    burst_duration_ns,
    burst_slowdown_permille,
    seed,
});
crate::impl_snap!(NoiseState {
    config,
    rng,
    next_timer,
    burst_start,
    burst_end,
    injected_ns,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> NoiseConfig {
        NoiseConfig::default_with_seed(seed)
    }

    #[test]
    fn timer_ticks_charged_per_interval() {
        let mut n = NoiseState::new(cfg(1), 1).unwrap();
        // Run one op spanning many timer periods.
        let span = 10 * n.config.timer_interval_ns;
        let extra = n.overhead(0, 0, span);
        assert!(extra >= 9 * n.config.timer_cost_ns);
        assert!(n.injected_ns() > 0);
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let mut a = NoiseState::new(cfg(1), 2).unwrap();
        let mut b = NoiseState::new(cfg(2), 2).unwrap();
        let sa: Vec<u64> = (0..200u64)
            .map(|i| a.overhead(0, i * 50_000, 10_000))
            .collect();
        let sb: Vec<u64> = (0..200u64)
            .map(|i| b.overhead(0, i * 50_000, 10_000))
            .collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let mut a = NoiseState::new(cfg(5), 2).unwrap();
        let mut b = NoiseState::new(cfg(5), 2).unwrap();
        for i in 0..500u64 {
            assert_eq!(
                a.overhead((i % 2) as usize, i * 10_000, 4_000),
                b.overhead((i % 2) as usize, i * 10_000, 4_000)
            );
        }
    }

    #[test]
    fn bursts_inflate_ops_inside_window() {
        let mut n = NoiseState::new(cfg(3), 1).unwrap();
        // Probe forward until we are inside a burst.
        let mut t = 0u64;
        let mut saw_inflation = false;
        for _ in 0..20_000 {
            let base = 10_000;
            let e = n.overhead(0, t, base);
            // Subtract timer costs: anything beyond them is burst slowdown.
            if e > 2 * n.config.timer_cost_ns + 1 {
                saw_inflation = true;
                break;
            }
            t += base;
        }
        assert!(saw_inflation, "never observed a burst in 200 ms");
    }

    #[test]
    fn validation_rejects_zero_intervals() {
        let mut c = cfg(0);
        c.timer_interval_ns = 0;
        assert!(NoiseState::new(c, 1).is_err());
    }
}
