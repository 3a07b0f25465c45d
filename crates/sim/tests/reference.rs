//! The per-point field formulas the evaluator replaced, kept as its
//! oracle: `Reference::sample` is the old `Simulation::sample` body
//! (with `mixture_fraction`, `progress` and `turbulence`), evaluating the
//! 16-mode sum and the kernel sum afresh for every variable at every
//! point. `Simulation::block_field` and `Simulation::sample` must
//! reproduce it **bit for bit** — `to_bits` equality, no tolerance — for
//! all 14 variables, on every box shape, at every step.

use proptest::prelude::*;
use sitra_mesh::{BBox3, Decomposition};
use sitra_sim::chemistry::species_mass_fractions;
use sitra_sim::modes::ModeBank;
use sitra_sim::{SimConfig, Simulation, Variable, ALL_VARIABLES};

/// The old per-point evaluation of one simulation's current step.
struct Reference<'a> {
    sim: &'a Simulation,
    modes: ModeBank,
}

impl<'a> Reference<'a> {
    fn new(sim: &'a Simulation) -> Self {
        let cfg = sim.config();
        Self {
            sim,
            modes: ModeBank::new(
                cfg.seed,
                cfg.n_modes,
                cfg.min_wavelength,
                cfg.max_wavelength,
            ),
        }
    }

    /// The old `ModeBank::scalar`.
    fn scalar(&self, pos: [f64; 3], t: f64) -> f64 {
        let mut s = 0.0;
        for m in self.modes.modes() {
            let arg = m.k[0] * pos[0] + m.k[1] * pos[1] + m.k[2] * pos[2] + m.omega * t + m.phase;
            s += m.amp * arg.sin();
        }
        s
    }

    /// The old `KernelPopulation::contribution`.
    fn contribution(&self, pos: [f64; 3], step: u64) -> f64 {
        self.sim
            .kernels()
            .kernels()
            .iter()
            .map(|k| k.contribution(pos, step))
            .sum()
    }

    fn mixture_fraction(&self, pos: [f64; 3], t: f64) -> f64 {
        let d = self.sim.config().dims;
        let cy = d[1] as f64 / 2.0;
        let cz = d[2] as f64 / 2.0;
        let r2 = (pos[1] - cy).powi(2) + (pos[2] - cz).powi(2);
        let xfrac = (pos[0] / d[0] as f64).clamp(0.0, 1.0);
        let r_jet = d[1] as f64 * (0.12 + 0.18 * xfrac);
        let decay = 1.0 / (1.0 + 2.0 * xfrac);
        let base = decay * (-r2 / (2.0 * r_jet * r_jet)).exp();
        let wrinkle = 0.08 * self.scalar(pos, t) / self.modes.rms();
        (base + wrinkle).clamp(0.0, 1.0)
    }

    fn progress(&self, pos: [f64; 3]) -> f64 {
        let cfg = self.sim.config();
        let xfrac = (pos[0] / cfg.dims[0] as f64).clamp(0.0, 1.0);
        let downstream = 1.0 / (1.0 + (-(xfrac - 0.4) * 20.0).exp());
        let kernel_boost = self.contribution(pos, self.sim.step()) / cfg.kernel_amplitude;
        (downstream + kernel_boost).clamp(0.0, 1.0)
    }

    fn turbulence(&self, pos: [f64; 3], t: f64) -> [f64; 3] {
        let v = self.modes.velocity(pos, t);
        let scale = 0.3 * self.sim.config().mean_flow[0].abs().max(0.5) / self.modes.rms();
        [v[0] * scale, v[1] * scale, v[2] * scale]
    }

    fn sample(&self, var: Variable, pos: [f64; 3]) -> f64 {
        let t = self.sim.time();
        let mean_flow = self.sim.config().mean_flow;
        match var {
            Variable::Temperature => {
                let z = self.mixture_fraction(pos, t);
                let c = self.progress(pos);
                let zst = 0.15;
                let w = 0.12;
                let flame = (-((z - zst) / w).powi(2)).exp();
                let coflow = 1100.0;
                let jet = 300.0;
                let unburnt = jet * z + coflow * (1.0 - z);
                let burnt = unburnt + 1300.0 * flame;
                let base = unburnt + (burnt - unburnt) * c;
                base + self.contribution(pos, self.sim.step())
                    + 15.0 * self.scalar(pos, t) / self.modes.rms()
            }
            Variable::Pressure => 1.0 + 0.002 * self.scalar(pos, t * 1.3) / self.modes.rms(),
            Variable::VelU => mean_flow[0] + self.turbulence(pos, t)[0],
            Variable::VelV => mean_flow[1] + self.turbulence(pos, t)[1],
            Variable::VelW => mean_flow[2] + self.turbulence(pos, t)[2],
            Variable::Species(i) => {
                let z = self.mixture_fraction(pos, t);
                let c = self.progress(pos);
                species_mass_fractions(z, c)[i]
            }
        }
    }

    /// The old `block_field`: every grid point sampled on its own.
    fn block_bits(&self, var: Variable, bbox: &BBox3) -> Vec<u64> {
        bbox.iter()
            .map(|p| {
                let pos = [p[0] as f64, p[1] as f64, p[2] as f64];
                self.sample(var, pos).to_bits()
            })
            .collect()
    }
}

fn block_bits(sim: &Simulation, var: Variable, bbox: &BBox3) -> Vec<u64> {
    let f = sim.block_field(var, bbox);
    f.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A sub-box of `dims` from unit fractions: off-origin, any extent, and
/// one point thin along `thin` (3 = none).
fn sub_box(dims: [usize; 3], lo: [f64; 3], size: [f64; 3], thin: usize) -> BBox3 {
    let mut b = BBox3::from_dims(dims);
    for a in 0..3 {
        b.lo[a] = ((lo[a] * dims[a] as f64) as usize).min(dims[a] - 1);
        let room = dims[a] - b.lo[a];
        let extent = if a == thin {
            1
        } else {
            1 + (size[a] * room as f64) as usize
        };
        b.hi[a] = b.lo[a] + extent;
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn evaluator_is_the_per_point_reference_bit_for_bit(
        seed in any::<u64>(),
        dims in prop::array::uniform3(2usize..13),
        rate_halves in 0u32..=6,
        lifetime in prop_oneof![Just(3u64), Just(5u64), Just(10u64)],
        parts in prop::array::uniform3(1usize..4),
        // One box per step: lo fractions, size fractions, and a thin
        // axis (half the boxes are one point thin along some axis).
        picks in prop::collection::vec(
            (
                prop::array::uniform3(0.0..1.0f64),
                prop::array::uniform3(0.0..1.0f64),
                0usize..6,
            ),
            21,
        ),
        probe in prop::array::uniform3(0.0..1.0f64),
    ) {
        // Spawn rates 0, 0.5, …, 3: steps with no live kernel and steps
        // with many, run over at least two kernel lifetimes.
        let mut sim = Simulation::new(SimConfig {
            kernel_spawn_rate: rate_halves as f64 / 2.0,
            kernel_lifetime: lifetime,
            ..SimConfig::small(dims, seed)
        });
        let d = Decomposition::new(sim.global(), [0, 1, 2].map(|a| parts[a].min(dims[a])));
        for (step, &(lo, size, thin)) in picks.iter().enumerate().take(2 * lifetime as usize + 1) {
            let reference = Reference::new(&sim);
            let b = sub_box(dims, lo, size, thin.min(3));
            for var in ALL_VARIABLES {
                prop_assert_eq!(
                    block_bits(&sim, var, &b),
                    reference.block_bits(var, &b),
                    "{:?} over {:?} at step {}", var, b, step
                );
            }
            let rotating = ALL_VARIABLES[step % ALL_VARIABLES.len()];
            for r in 0..d.rank_count() {
                for var in [Variable::Temperature, rotating] {
                    prop_assert_eq!(
                        block_bits(&sim, var, &d.block(r)),
                        reference.block_bits(var, &d.block(r)),
                        "{:?} on rank {} of {:?} at step {}", var, r, d.block(r), step
                    );
                }
            }
            // Off-grid points: every live kernel's centre, and one probe
            // anywhere in the domain.
            let probe = [0, 1, 2].map(|a| probe[a] * (dims[a] - 1) as f64);
            let centres = sim.kernels().kernels().iter().map(|k| k.center);
            for pos in centres.chain([probe]) {
                for var in ALL_VARIABLES {
                    prop_assert_eq!(
                        sim.sample(var, pos).to_bits(),
                        reference.sample(var, pos).to_bits(),
                        "{:?} at {:?}, step {}", var, pos, step
                    );
                }
            }
            sim.advance();
        }
    }
}

/// The `e2e` decomposition (2×2×1 ranks) of a default-configured field,
/// Temperature on every rank block, over two kernel lifetimes.
#[test]
fn rank_blocks_of_the_default_field_are_the_reference() {
    let mut sim = Simulation::new(SimConfig::small([20, 18, 12], 1));
    let d = Decomposition::new(sim.global(), [2, 2, 1]);
    let mut saw_kernels = false;
    for _ in 0..21 {
        sim.advance();
        saw_kernels |= !sim.kernels().kernels().is_empty();
        let reference = Reference::new(&sim);
        for r in 0..d.rank_count() {
            assert_eq!(
                block_bits(&sim, Variable::Temperature, &d.block(r)),
                reference.block_bits(Variable::Temperature, &d.block(r)),
                "rank {r} at step {}",
                sim.step()
            );
        }
    }
    assert!(
        saw_kernels,
        "no kernel spawned: the kernel sum went untested"
    );
}
