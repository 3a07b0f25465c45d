//! The simulation proxy proper: configuration, time stepping, and
//! per-block field generation.

use crate::chemistry::species_mass_fractions;
use crate::kernels::KernelPopulation;
use crate::modes::ModeBank;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use sitra_mesh::{BBox3, ScalarField};

/// The 14 simulation variables, in storage order (matching the paper's
/// variable count for the lifted H2 flame).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variable {
    /// Temperature (K).
    Temperature,
    /// Pressure (atm).
    Pressure,
    /// Velocity x.
    VelU,
    /// Velocity y.
    VelV,
    /// Velocity z.
    VelW,
    /// Species mass fraction by index into
    /// [`crate::chemistry::SPECIES_NAMES`].
    Species(usize),
}

/// All 14 variables in canonical order.
pub const ALL_VARIABLES: [Variable; 14] = [
    Variable::Temperature,
    Variable::Pressure,
    Variable::VelU,
    Variable::VelV,
    Variable::VelW,
    Variable::Species(0),
    Variable::Species(1),
    Variable::Species(2),
    Variable::Species(3),
    Variable::Species(4),
    Variable::Species(5),
    Variable::Species(6),
    Variable::Species(7),
    Variable::Species(8),
];

impl Variable {
    /// Canonical variable name (S3D-style).
    pub fn name(self) -> &'static str {
        match self {
            Variable::Temperature => "T",
            Variable::Pressure => "P",
            Variable::VelU => "U",
            Variable::VelV => "V",
            Variable::VelW => "W",
            Variable::Species(i) => crate::chemistry::SPECIES_NAMES[i],
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Global grid dimensions.
    pub dims: [usize; 3],
    /// RNG seed: two runs with the same seed produce identical fields.
    pub seed: u64,
    /// Number of turbulence modes.
    pub n_modes: usize,
    /// Smallest resolved turbulent wavelength (grid units).
    pub min_wavelength: f64,
    /// Largest turbulent wavelength (grid units).
    pub max_wavelength: f64,
    /// Expected ignition-kernel spawns per step.
    pub kernel_spawn_rate: f64,
    /// Kernel lifetime in steps (the paper's intermittent features live
    /// ~10 steps).
    pub kernel_lifetime: u64,
    /// Kernel peak temperature excursion (K).
    pub kernel_amplitude: f64,
    /// Kernel Gaussian radius (grid units).
    pub kernel_radius: f64,
    /// Time step.
    pub dt: f64,
    /// Mean (jet) flow velocity.
    pub mean_flow: [f64; 3],
}

impl SimConfig {
    /// A small default suitable for tests and examples.
    pub fn small(dims: [usize; 3], seed: u64) -> Self {
        let maxdim = dims[0].max(dims[1]).max(dims[2]) as f64;
        // DNS resolves the smallest structures over many grid points;
        // keep the finest mode well above the grid spacing so gradients
        // (and hence the topological feature density) are grid-resolved.
        // Tiny test domains scale the band down so it stays non-empty.
        let min_wavelength = (maxdim / 4.0).clamp(4.0, 12.0);
        Self {
            dims,
            seed,
            n_modes: 16,
            min_wavelength,
            max_wavelength: maxdim.max(2.0 * min_wavelength),
            kernel_spawn_rate: 0.5,
            kernel_lifetime: 10,
            kernel_amplitude: 800.0,
            kernel_radius: dims[0].max(8) as f64 * 0.06,
            dt: 0.5,
            mean_flow: [0.8, 0.0, 0.0],
        }
    }
}

/// The lifted-jet-flame proxy simulation.
///
/// Only the ignition-kernel population is stateful; every field is an
/// analytic function of (position, time, kernels), so any block of any
/// variable can be generated independently on any rank.
#[derive(Debug, Clone)]
pub struct Simulation {
    cfg: SimConfig,
    modes: ModeBank,
    kernels: KernelPopulation,
    step: u64,
}

impl Simulation {
    /// Create a simulation at step 0.
    pub fn new(cfg: SimConfig) -> Self {
        let modes = ModeBank::new(
            cfg.seed,
            cfg.n_modes,
            cfg.min_wavelength,
            cfg.max_wavelength,
        );
        let kernels = KernelPopulation::new(
            cfg.seed,
            cfg.kernel_spawn_rate,
            cfg.kernel_lifetime,
            cfg.kernel_amplitude,
            cfg.kernel_radius,
            cfg.dims,
            // Kernels form near the flame base: upstream third of x, in
            // the shear layer annulus of the jet.
            [0.05, 0.25, 0.25],
            [0.35, 0.75, 0.75],
        );
        Self {
            cfg,
            modes,
            kernels,
            step: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current step number.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Current simulated time.
    pub fn time(&self) -> f64 {
        self.step as f64 * self.cfg.dt
    }

    /// The live ignition kernels.
    pub fn kernels(&self) -> &crate::kernels::KernelPopulation {
        &self.kernels
    }

    /// The global domain box.
    pub fn global(&self) -> BBox3 {
        BBox3::from_dims(self.cfg.dims)
    }

    /// Advance one time step.
    pub fn advance(&mut self) {
        self.step += 1;
        self.kernels
            .advance(self.step, self.cfg.dt, &self.modes, self.cfg.mean_flow);
    }

    /// Point sample of one variable at the current step: the 1×1×1 case
    /// of [`Simulation::block_field`]'s evaluator.
    pub fn sample(&self, var: Variable, pos: [f64; 3]) -> f64 {
        Evaluator::new(self, var, pos.map(|p| vec![p])).at(0, 0, 0)
    }

    /// Fill a block of one variable (grid-point samples), one z-plane per
    /// parallel chunk.
    pub fn block_field(&self, var: Variable, bbox: &BBox3) -> ScalarField {
        let axes = std::array::from_fn(|a| (bbox.lo[a]..bbox.hi[a]).map(|c| c as f64).collect());
        let ev = Evaluator::new(self, var, axes);
        let [nx, ny, _] = bbox.dims();
        let mut data = vec![0.0; bbox.count()];
        // `max(1)`: an empty box has no planes, but the chunk size must be
        // positive.
        data.par_chunks_mut((nx * ny).max(1))
            .enumerate()
            .for_each(|(k, plane)| {
                for (j, row) in plane.chunks_mut(nx).enumerate() {
                    for (i, v) in row.iter_mut().enumerate() {
                        *v = ev.at(i, j, k);
                    }
                }
            });
        ScalarField::from_vec(*bbox, data)
    }

    /// Bytes of one full snapshot (all variables over the whole domain) —
    /// the quantity Table I calls "data size".
    pub fn snapshot_bytes(&self) -> usize {
        self.global().count() * ALL_VARIABLES.len() * sitra_mesh::BYTES_PER_VALUE
    }
}

/// The field evaluator of one variable over a grid of points at the
/// current step. It builds the per-step constants and the per-axis tables
/// once, so each point sums its modes once and its kernels once.
///
/// Every value is bit-identical to evaluating the analytic formulas point
/// by point: the tables hold exactly the products those formulas form,
/// and each sum keeps their association, e.g. the mode argument is
/// `(((k₀x + k₁y) + k₂z) + ωt) + φ`.
struct Evaluator<'a> {
    sim: &'a Simulation,
    var: Variable,
    /// The velocity component built (a `cos·pol` mode sum), or `None`.
    component: Option<usize>,
    /// Per mode: `ω·t`.
    omega_t: Vec<f64>,
    /// Per live kernel: center, `amplitude·envelope(step)` and `2·r·r`.
    kernels: Vec<([f64; 3], f64, f64)>,
    /// Per axis: the point coordinates.
    pos: [Vec<f64>; 3],
    /// Per axis: `k[axis]·coordinate` per mode, one row per coordinate.
    kp: [Vec<f64>; 3],
    /// Per x: centerline decay, `2·r_jet·r_jet` and lift-off logistic.
    jet_x: Vec<[f64; 3]>,
    /// Per y and per z: the squared distance from the jet axis.
    jet_r2: [Vec<f64>; 2],
}

impl<'a> Evaluator<'a> {
    fn new(sim: &'a Simulation, var: Variable, pos: [Vec<f64>; 3]) -> Self {
        let t = if var == Variable::Pressure {
            sim.time() * 1.3
        } else {
            sim.time()
        };
        let component = [Variable::VelU, Variable::VelV, Variable::VelW]
            .iter()
            .position(|&v| v == var);
        let modes = sim.modes.modes();
        let d = sim.cfg.dims;
        let (cy, cz) = (d[1] as f64 / 2.0, d[2] as f64 / 2.0);
        Self {
            omega_t: modes.iter().map(|m| m.omega * t).collect(),
            kernels: sim
                .kernels
                .kernels()
                .iter()
                .filter_map(|k| {
                    let e = k.envelope(sim.step);
                    (e != 0.0).then_some((k.center, k.amplitude * e, 2.0 * k.radius * k.radius))
                })
                .collect(),
            kp: std::array::from_fn(|a| {
                pos[a]
                    .iter()
                    .flat_map(|&p| modes.iter().map(move |m| m.k[a] * p))
                    .collect()
            }),
            jet_x: pos[0]
                .iter()
                .map(|&x| {
                    // Jet core radius grows downstream; centerline value
                    // decays. The flame lifts off smoothly at 40% of the
                    // domain.
                    let xfrac = (x / d[0] as f64).clamp(0.0, 1.0);
                    let r_jet = d[1] as f64 * (0.12 + 0.18 * xfrac);
                    [
                        1.0 / (1.0 + 2.0 * xfrac),
                        2.0 * r_jet * r_jet,
                        1.0 / (1.0 + (-(xfrac - 0.4) * 20.0).exp()),
                    ]
                })
                .collect(),
            jet_r2: [
                pos[1].iter().map(|&y| (y - cy).powi(2)).collect(),
                pos[2].iter().map(|&z| (z - cz).powi(2)).collect(),
            ],
            pos,
            sim,
            var,
            component,
        }
    }

    /// The variable at point `(i, j, k)` of the axis tables.
    fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        let cfg = &self.sim.cfg;
        let rms = self.sim.modes.rms();
        let s = self.mode_sum(i, j, k);
        if let Some(a) = self.component {
            // Velocity fluctuation scaled to ~30% turbulence intensity of
            // the mean flow.
            let scale = 0.3 * cfg.mean_flow[0].abs().max(0.5) / rms;
            return cfg.mean_flow[a] + s * scale;
        }
        if self.var == Variable::Pressure {
            return 1.0 + 0.002 * s / rms;
        }
        // Mixture fraction: a round jet along x with a shear layer
        // thickening downstream, wrinkled ±8% of the profile at one RMS,
        // so the flame surface stays grid-resolved regardless of mode
        // bandwidth.
        let [decay, two_rj2, downstream] = self.jet_x[i];
        let r2 = self.jet_r2[0][j] + self.jet_r2[1][k];
        let z = (decay * (-r2 / two_rj2).exp() + 0.08 * s / rms).clamp(0.0, 1.0);
        // Reaction progress: the lifted flame burns downstream of the
        // lift-off height, and ignition kernels ignite pockets upstream.
        let kc = self.kernel_sum(i, j, k);
        let c = (downstream + kc / cfg.kernel_amplitude).clamp(0.0, 1.0);
        if let Variable::Species(n) = self.var {
            return species_mass_fractions(z, c)[n];
        }
        // Temperature. Flame temperature peaks near a stoichiometric
        // mixture fraction. The profile width is chosen so the front spans
        // several grid cells — DNS data is grid-resolved by definition,
        // and an under-resolved kink would alias into spurious topological
        // features. (Physical H2 has z_st ≈ 0.028; the proxy uses a wider
        // effective value.)
        let zst = 0.15;
        let w = 0.12;
        let flame = (-((z - zst) / w).powi(2)).exp();
        let coflow = 1100.0; // heated coflow
        let jet = 300.0;
        let unburnt = jet * z + coflow * (1.0 - z);
        let burnt = unburnt + 1300.0 * flame;
        let base = unburnt + (burnt - unburnt) * c;
        base + kc + 15.0 * s / rms
    }

    /// `Σ amp·sin(arg)` over the modes, or `Σ (amp·cos(arg))·pol` for a
    /// velocity component.
    fn mode_sum(&self, i: usize, j: usize, k: usize) -> f64 {
        let n = self.omega_t.len();
        let row = |a: usize, p: usize| &self.kp[a][p * n..(p + 1) * n];
        let args = row(0, i)
            .iter()
            .zip(row(1, j))
            .zip(row(2, k))
            .zip(&self.omega_t)
            .zip(self.sim.modes.modes())
            .map(|((((kx, ky), kz), wt), m)| (kx + ky + kz + wt + m.phase, m));
        let mut s = 0.0;
        match self.component {
            Some(a) => args.for_each(|(arg, m)| s += m.amp * arg.cos() * m.pol[a]),
            None => args.for_each(|(arg, m)| s += m.amp * arg.sin()),
        }
        s
    }

    /// `Σ (amplitude·e)·exp(−r²/(2·r·r))` over the live kernels.
    fn kernel_sum(&self, i: usize, j: usize, k: usize) -> f64 {
        let p = [self.pos[0][i], self.pos[1][j], self.pos[2][k]];
        self.kernels
            .iter()
            .map(|(c, peak, two_r2)| {
                let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
                peak * (-(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) / two_r2).exp()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(dims: [usize; 3], seed: u64) -> Simulation {
        Simulation::new(SimConfig::small(dims, seed))
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = sim([16, 16, 16], 11);
        let mut b = sim([16, 16, 16], 11);
        for _ in 0..5 {
            a.advance();
            b.advance();
        }
        let g = a.global();
        for var in [Variable::Temperature, Variable::VelU, Variable::Species(2)] {
            assert_eq!(a.block_field(var, &g), b.block_field(var, &g));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = sim([12, 12, 12], 1);
        let b = sim([12, 12, 12], 2);
        let g = a.global();
        assert_ne!(
            a.block_field(Variable::Temperature, &g),
            b.block_field(Variable::Temperature, &g)
        );
    }

    #[test]
    fn temperature_in_physical_range() {
        let mut s = sim([20, 16, 16], 3);
        for _ in 0..12 {
            s.advance();
        }
        let f = s.block_field(Variable::Temperature, &s.global());
        let (mn, mx) = f.min_max().unwrap();
        assert!(mn > 150.0, "min temperature {mn}");
        assert!(mx < 3500.0, "max temperature {mx}");
        // The flame must actually be hot somewhere.
        assert!(mx > 1200.0, "no flame? max {mx}");
    }

    #[test]
    fn species_bounded_and_conservative() {
        let s = sim([10, 10, 10], 5);
        let g = s.global();
        let fields: Vec<ScalarField> = (0..9)
            .map(|i| s.block_field(Variable::Species(i), &g))
            .collect();
        for idx in 0..g.count() {
            let sum: f64 = fields.iter().map(|f| f.get_linear(idx)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "mass not conserved: {sum}");
            for f in &fields {
                let v = f.get_linear(idx);
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn blocks_agree_with_global_field() {
        // Per-rank block generation must equal extracting from the global
        // field — ranks are independent.
        let s = sim([12, 10, 8], 7);
        let g = s.global();
        let whole = s.block_field(Variable::Temperature, &g);
        let d = sitra_mesh::Decomposition::new(g, [2, 2, 2]);
        for r in 0..d.rank_count() {
            let blk = s.block_field(Variable::Temperature, &d.block(r));
            assert_eq!(blk, whole.extract(&d.block(r)));
        }
    }

    #[test]
    fn fields_evolve_in_time() {
        let mut s = sim([12, 12, 12], 9);
        let g = s.global();
        let before = s.block_field(Variable::Temperature, &g);
        s.advance();
        let after = s.block_field(Variable::Temperature, &g);
        assert_ne!(before, after);
        assert_eq!(s.step(), 1);
    }

    #[test]
    fn kernels_create_transient_hotspots() {
        let mut s = Simulation::new(SimConfig {
            kernel_spawn_rate: 3.0,
            kernel_amplitude: 900.0,
            ..SimConfig::small([24, 24, 24], 13)
        });
        let mut saw_kernels = false;
        for _ in 0..15 {
            s.advance();
            if !s.kernels().kernels().is_empty() {
                saw_kernels = true;
                let k = s.kernels().kernels()[0];
                // The hotspot is visible in the temperature field.
                let at_center = s.sample(Variable::Temperature, k.center);
                assert!(at_center > 300.0);
            }
        }
        assert!(saw_kernels, "no kernels spawned in 15 steps at rate 3");
    }

    #[test]
    fn snapshot_bytes_matches_paper_formula() {
        // At paper scale: 1600×1372×430 × 14 vars × 8 B ≈ 98.5 GB.
        let s = Simulation::new(SimConfig::small([16, 16, 16], 1));
        assert_eq!(s.snapshot_bytes(), 16 * 16 * 16 * 14 * 8);
        let paper_points: usize = 1600 * 1372 * 430;
        let gb = (paper_points * 14 * 8) as f64 / 1e9;
        assert!((gb - 105.7).abs() < 1.0 || (98.0..107.0).contains(&gb));
    }

    #[test]
    fn smoothness_of_temperature() {
        // Neighboring grid points differ by a bounded amount (no noise).
        // Sharp jumps are allowed only at the (physical) flame front; the
        // bulk of the field must be smooth — i.e. this is structure, not
        // white noise.
        let s = sim([16, 16, 16], 21);
        let f = s.block_field(Variable::Temperature, &s.global());
        let b = f.bbox();
        let (mn, mx) = f.min_max().unwrap();
        let range = mx - mn;
        let mut jumps: Vec<f64> = Vec::new();
        for p in b.iter() {
            if p[0] + 1 < b.hi[0] {
                jumps.push((f.get(p) - f.get([p[0] + 1, p[1], p[2]])).abs());
            }
        }
        jumps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = jumps[jumps.len() / 2];
        let max = *jumps.last().unwrap();
        assert!(
            median < 0.05 * range,
            "median jump {median} vs range {range}"
        );
        assert!(
            max < range,
            "max jump {max} exceeds the field range {range}"
        );
    }

    #[test]
    fn variable_names_and_count() {
        assert_eq!(ALL_VARIABLES.len(), 14);
        let names: Vec<&str> = ALL_VARIABLES.iter().map(|v| v.name()).collect();
        assert_eq!(names[0], "T");
        assert_eq!(names[5], "Y_H2");
        assert_eq!(names[13], "Y_N2");
        // Names are unique.
        let set: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(set.len(), 14);
    }
}
