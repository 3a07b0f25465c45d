//! # sitra-testkit
//!
//! Deterministic fault-injection harness for the staging pipeline, in
//! the deterministic-simulation-testing tradition: every failure is
//! replayable from a seed.
//!
//! The pieces:
//!
//! * [`FaultPlan`] — a seeded, self-describing plan of drops, delays,
//!   duplicates, reorders, link cuts, partitions, and server crashes.
//!   Every per-frame decision is a pure function of
//!   `(plan, connection, frame index)`; the plan round-trips through a
//!   compact spec string (`seed=0x2a,drop=8,…`) that shrink reports
//!   print and the chaos binary's `--plan` accepts. Plans run only
//!   in-process, through [`scenario`]: no product binary takes one.
//! * [`PlanInjector`] — executes a plan through the
//!   [`sitra_net::FaultInjector`] seam, on a virtual clock of observed
//!   frames, recording the schedule it actually ran.
//! * [`scenario`] — one runner drives a seeded simulation through any
//!   [`Backend`] under a plan and checks the invariant oracles
//!   (conservation, no-loss, golden-output, replay-identity), for the
//!   chaos, tenant and [`matrix`] runs alike.
//! * [`shrink`] — greedy plan minimization plus the failure report
//!   with a paste-ready reproduction command.
//! * [`fixture`] — the canonical seeded-simulation setup shared with
//!   the workspace integration tests.
//!
//! The chaos binary (`cargo run -p sitra-testkit --bin chaos`) runs
//! the pinned corpus or fresh random seeds from the command line;
//! `tests/chaos.rs` runs the corpus in CI.

pub mod fixture;
pub mod injector;
pub mod matrix;
pub mod plan;
pub mod scenario;
pub mod shrink;

pub use injector::{PlanInjector, ScheduleEntry};
pub use matrix::{
    admission_policies, matrix_config, matrix_specs, pinned_fault_subset, scenario_matrix,
    MatrixCell, MatrixReport,
};
pub use plan::{arb_fault_plan, CrashPlan, FaultPlan, InstanceLoss, PartitionWindow, ScaleEvent};
pub use scenario::{
    run_scenario, run_tenanted_scenario, Backend, ScenarioOutcome, RIVAL_TENANT, SIM_TENANT,
};

/// The pinned regression corpus: seeds that once exercised interesting
/// schedules (every fault class, partitions, crashes with and without
/// restart) and must keep passing every oracle on all three backends.
/// When a chaos run finds a failing seed, fix the bug and append the
/// seed here.
pub const PINNED_SEEDS: [u64; 7] = [
    1,
    42,
    97,
    1234,
    4242,
    0xC0FFEE,
    // Found a duplicated-Put frame appending a same-region piece that
    // panicked the streaming merge tree; fixed by idempotent
    // DataSpaces::put.
    0xCDD2_C7A7_A2C3_7BE5,
];
