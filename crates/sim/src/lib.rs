//! # sitra-sim
//!
//! A synthetic turbulent-combustion simulation proxy standing in for S3D
//! (the massively parallel DNS code of the paper's case study: a lifted
//! hydrogen jet flame in heated coflow).
//!
//! The proxy is *not* a Navier–Stokes solver — the analyses under study
//! never look at the solver, only at the fields it produces. What the
//! analyses do care about, and what this crate reproduces faithfully, is
//! the *structure* of the data:
//!
//! * **14 double-precision variables** on a block-decomposed structured
//!   grid (temperature, pressure, three velocity components, and nine
//!   H2/air species mass fractions), matching the paper's variable count
//!   and data volume per grid point.
//! * **Multi-scale smooth turbulence**: a superposition of solenoidal
//!   Fourier modes with a k^(-5/6) amplitude spectrum advected in time.
//! * **Intermittent, short-lived, advected features**: ignition kernels
//!   spawn stochastically near the flame base, are advected by the local
//!   velocity, grow and dissipate within ~10 simulation steps — the Fig. 1
//!   phenomenology that motivates high-frequency concurrent analysis.
//!
//! Any block of any variable at the current step can be generated
//! directly and deterministically (given the seed), so ranks fill their
//! blocks independently and in parallel exactly as S3D ranks own their
//! sub-domains.
//!
//! One evaluator fills every block ([`Simulation::sample`] is its 1×1×1
//! case): per-step constants and per-axis tables are built once per call,
//! so a grid point sums its modes once and its kernels once. Its rule is
//! **bit-identity** with the per-point formulas, which
//! `tests/reference.rs` keeps as the oracle: tabulate only products they
//! form, and keep every sum's association.

#![forbid(unsafe_code)]

pub mod chemistry;
pub mod kernels;
pub mod modes;
pub mod rng;
pub mod sim;

pub use chemistry::{species_mass_fractions, SPECIES_NAMES};
pub use kernels::IgnitionKernel;
pub use sim::{SimConfig, Simulation, Variable, ALL_VARIABLES};
