//! Intermittent ignition kernels: the short-lived, advected features
//! whose temporal length-scale motivates concurrent analysis (Fig. 1).

use crate::modes::ModeBank;
use crate::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// One ignition kernel: a localized Gaussian temperature excursion that
/// ramps up, peaks, and dissipates over `lifetime` steps while being
/// advected by the flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IgnitionKernel {
    /// Step at which the kernel was born.
    pub birth_step: u64,
    /// Total lifetime in steps.
    pub lifetime: u64,
    /// Current center position (grid units).
    pub center: [f64; 3],
    /// Peak temperature excursion (K) at mid-life.
    pub amplitude: f64,
    /// Gaussian radius (grid units).
    pub radius: f64,
}

impl IgnitionKernel {
    /// Age in steps at `step`.
    pub fn age(&self, step: u64) -> u64 {
        step.saturating_sub(self.birth_step)
    }

    /// True if the kernel still exists at `step`.
    pub fn alive(&self, step: u64) -> bool {
        step >= self.birth_step && self.age(step) < self.lifetime
    }

    /// Life-cycle envelope in [0, 1]: 0 at birth and death, 1 at mid-life.
    pub fn envelope(&self, step: u64) -> f64 {
        if !self.alive(step) {
            return 0.0;
        }
        let t = (self.age(step) as f64 + 0.5) / self.lifetime as f64;
        (std::f64::consts::PI * t).sin()
    }

    /// Temperature contribution at a position.
    pub fn contribution(&self, pos: [f64; 3], step: u64) -> f64 {
        let e = self.envelope(step);
        if e == 0.0 {
            return 0.0;
        }
        let mut r2 = 0.0;
        for (p, c) in pos.iter().zip(&self.center) {
            let d = p - c;
            r2 += d * d;
        }
        self.amplitude * e * (-r2 / (2.0 * self.radius * self.radius)).exp()
    }
}

/// Manages the kernel population: stochastic spawning near the flame
/// base, advection by the resolved velocity, and removal at end of life.
#[derive(Debug, Clone)]
pub struct KernelPopulation {
    kernels: Vec<IgnitionKernel>,
    rng: SplitMix64,
    /// Expected spawns per step.
    spawn_rate: f64,
    lifetime: u64,
    amplitude: f64,
    radius: f64,
    /// Region in which kernels are born (fractions of the domain).
    spawn_lo: [f64; 3],
    spawn_hi: [f64; 3],
    domain_dims: [f64; 3],
    total_spawned: u64,
}

impl KernelPopulation {
    /// Create an empty population.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        spawn_rate: f64,
        lifetime: u64,
        amplitude: f64,
        radius: f64,
        domain_dims: [usize; 3],
        spawn_lo: [f64; 3],
        spawn_hi: [f64; 3],
    ) -> Self {
        assert!(lifetime > 0);
        Self {
            kernels: Vec::new(),
            rng: SplitMix64::new(seed ^ 0xEE6B_2800),
            spawn_rate,
            lifetime,
            amplitude,
            radius,
            spawn_lo,
            spawn_hi,
            domain_dims: [
                domain_dims[0] as f64,
                domain_dims[1] as f64,
                domain_dims[2] as f64,
            ],
            total_spawned: 0,
        }
    }

    /// Currently alive kernels.
    pub fn kernels(&self) -> &[IgnitionKernel] {
        &self.kernels
    }

    /// Total kernels ever spawned.
    pub fn total_spawned(&self) -> u64 {
        self.total_spawned
    }

    /// Advance one step: spawn, advect (forward Euler on the resolved
    /// velocity), retire the dead.
    pub fn advance(&mut self, step: u64, dt: f64, modes: &ModeBank, mean_flow: [f64; 3]) {
        // Retire.
        self.kernels.retain(|k| k.alive(step));
        // Advect the survivors.
        let t = step as f64 * dt;
        for k in &mut self.kernels {
            let v = modes.velocity(k.center, t);
            for a in 0..3 {
                k.center[a] += (v[a] + mean_flow[a]) * dt;
                // Keep centers inside the domain (clamp; kernels dying at
                // walls is fine, leaving the array is not).
                k.center[a] = k.center[a].clamp(0.0, self.domain_dims[a] - 1.0);
            }
        }
        // Spawn: Bernoulli per sub-attempt approximating a Poisson rate.
        let attempts = self.spawn_rate.ceil().max(1.0) as usize;
        let p = self.spawn_rate / attempts as f64;
        for _ in 0..attempts {
            if self.rng.next_f64() < p {
                let mut center = [0.0; 3];
                for (a, c) in center.iter_mut().enumerate() {
                    let lo = self.spawn_lo[a] * self.domain_dims[a];
                    let hi = self.spawn_hi[a] * self.domain_dims[a];
                    *c = lo + self.rng.next_f64() * (hi - lo).max(1e-9);
                }
                let jitter = 0.75 + 0.5 * self.rng.next_f64();
                self.kernels.push(IgnitionKernel {
                    birth_step: step,
                    lifetime: self.lifetime,
                    center,
                    amplitude: self.amplitude * jitter,
                    radius: self.radius * jitter,
                });
                self.total_spawned += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(seed: u64, rate: f64) -> KernelPopulation {
        KernelPopulation::new(
            seed,
            rate,
            10,
            800.0,
            3.0,
            [32, 32, 32],
            [0.1, 0.2, 0.2],
            [0.4, 0.8, 0.8],
        )
    }

    #[test]
    fn lifecycle_envelope_shape() {
        let k = IgnitionKernel {
            birth_step: 100,
            lifetime: 10,
            center: [0.0; 3],
            amplitude: 500.0,
            radius: 2.0,
        };
        assert!(!k.alive(99));
        assert!(k.alive(100));
        assert!(k.alive(109));
        assert!(!k.alive(110));
        assert_eq!(k.envelope(99), 0.0);
        assert_eq!(k.envelope(110), 0.0);
        // Mid-life peak.
        assert!(k.envelope(105) > k.envelope(100));
        assert!(k.envelope(105) > k.envelope(109));
        // Contribution decays with distance.
        let near = k.contribution([1.0, 0.0, 0.0], 105);
        let far = k.contribution([8.0, 0.0, 0.0], 105);
        assert!(near > far);
        assert!(far >= 0.0);
    }

    #[test]
    fn population_spawns_and_retires() {
        let modes = ModeBank::new(1, 8, 4.0, 16.0);
        let mut p = pop(42, 1.0);
        for step in 0..50 {
            p.advance(step, 0.5, &modes, [1.0, 0.0, 0.0]);
        }
        assert!(p.total_spawned() > 10, "spawned {}", p.total_spawned());
        // Every live kernel is within its lifetime.
        for k in p.kernels() {
            assert!(k.alive(49));
            assert!(k.age(49) < 10);
        }
        // After a long quiet period with rate 0... kernels all die.
        let mut p2 = pop(42, 1.0);
        for step in 0..20 {
            p2.advance(step, 0.5, &modes, [0.0; 3]);
        }
        p2.spawn_rate = 0.0;
        for step in 20..40 {
            p2.advance(step, 0.5, &modes, [0.0; 3]);
        }
        assert!(p2.kernels().is_empty());
    }

    #[test]
    fn kernels_are_advected() {
        let modes = ModeBank::new(1, 8, 4.0, 16.0);
        let mut p = pop(7, 5.0);
        p.advance(0, 0.5, &modes, [2.0, 0.0, 0.0]);
        assert!(!p.kernels().is_empty());
        let before: Vec<[f64; 3]> = p.kernels().iter().map(|k| k.center).collect();
        p.spawn_rate = 0.0;
        p.advance(1, 0.5, &modes, [2.0, 0.0, 0.0]);
        for (k, b) in p.kernels().iter().zip(&before) {
            assert!(k.center[0] > b[0], "kernel not advected downstream");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let modes = ModeBank::new(1, 8, 4.0, 16.0);
        let mut a = pop(5, 2.0);
        let mut b = pop(5, 2.0);
        for step in 0..10 {
            a.advance(step, 0.5, &modes, [1.0, 0.0, 0.0]);
            b.advance(step, 0.5, &modes, [1.0, 0.0, 0.0]);
        }
        assert_eq!(a.kernels(), b.kernels());
    }

    #[test]
    fn centers_stay_in_domain() {
        let modes = ModeBank::new(3, 8, 4.0, 16.0);
        let mut p = pop(9, 3.0);
        for step in 0..200 {
            p.advance(step, 1.0, &modes, [5.0, 0.0, 0.0]);
            for k in p.kernels() {
                for a in 0..3 {
                    assert!(k.center[a] >= 0.0 && k.center[a] <= 31.0);
                }
            }
        }
    }
}
