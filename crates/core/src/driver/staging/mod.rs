//! The staging seam: one trait, three aggregation placements.
//!
//! The paper's core claim is that a two-stage analysis decomposition
//! (data-parallel in-situ stage, then an aggregation over the small
//! intermediates) runs **unchanged** wherever the aggregation happens.
//! [`StagingBackend`] is that claim as an interface: the step loop
//! hands every due analysis to a backend as one [`StagedTask`] and
//! never looks at placement again.
//!
//! * [`InSituBackend`] aggregates synchronously on the caller — the
//!   fully in-situ formulation. No data leaves the simulation.
//! * [`LocalBackend`] exports payloads through the DART fabric and lets
//!   in-process staging-bucket threads pull and aggregate them — the
//!   paper's in-transit formulation on shared staging cores.
//! * [`RemoteBackend`] ships intermediates to a remote staging service
//!   (`sitra-staged`) over the socket transport, with a bounded
//!   in-flight window, admission handling, and reconnect.
//!
//! Every backend retires tasks through the shared [`RetireCtx`] (the
//! private `retire` module): completions, remote collections, degradations,
//! and drops all flow through one function, which is what keeps the
//! outputs byte-identical and the replay accounting bit-identical
//! across placements.
//!
//! To add a fourth backend, implement [`StagingBackend`], call
//! [`RetireCtx::record_insitu`] exactly once per submitted task, and
//! report every task's fate through [`RetireCtx::retire`] — the metrics
//! rows, journal events, and degradation counters then come for free.

mod insitu;
mod local;
mod remote;

pub use insitu::InSituBackend;
pub use local::LocalBackend;
pub use remote::RemoteBackend;

pub use super::retire::{RetireCtx, Retired};

use bytes::Bytes;
use std::time::Instant;

/// One due analysis at one step, ready for aggregation: the in-situ
/// intermediates plus the already-measured in-situ stage costs. This is
/// everything a backend needs — backends never see fields, ranks, or
/// the simulation.
pub struct StagedTask {
    /// Index into the analysis roster ([`RetireCtx::analyses`]).
    pub analysis_idx: usize,
    /// Simulation step.
    pub step: u64,
    /// Submission time, for completion-latency accounting.
    pub issued: Instant,
    /// Per-rank in-situ intermediates, in rank order. `Bytes` clones
    /// share the underlying buffers, so retaining them for degradation
    /// fallback is cheap.
    pub parts: Vec<(usize, Bytes)>,
    /// In-situ stage wall seconds (max over ranks — ranks run
    /// concurrently on the real machine).
    pub insitu_secs: f64,
    /// In-situ stage core seconds (sum over ranks).
    pub insitu_core_secs: f64,
    /// Total intermediate bytes, charged as data movement only by
    /// backends that actually ship them ([`BackendCaps::ships_data`]).
    pub movement_bytes: u64,
    /// Simulated network seconds for moving the intermediates under the
    /// configured network model.
    pub movement_sim_secs: f64,
}

/// What a backend is, for metrics and journal labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCaps {
    /// Short backend name (`"insitu"`, `"local"`, `"remote"`).
    pub name: &'static str,
    /// Placement label journaled with `analysis.insitu` events
    /// (`"insitu"`, `"hybrid"`, `"hybrid-remote"`).
    pub placement: &'static str,
    /// Tasks aggregate in transit (metrics rows start with
    /// `aggregated_in_transit` set; degradation clears it).
    pub in_transit: bool,
    /// Submitting moves the intermediates off the caller, so movement
    /// bytes/time are charged when the ship succeeds.
    pub ships_data: bool,
}

/// Lifetime accounting a backend reports when it closes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Tasks submitted to this backend.
    pub submitted: usize,
    /// High-water mark of the backend's task queue (0 for backends
    /// without one).
    pub max_queue_depth: usize,
}

/// Where the aggregation stage of staged analyses runs.
///
/// The driver calls, per step, [`submit`](Self::submit) for each due
/// analysis; and at end of run [`drain`](Self::drain) then [`close`](Self::close). Each
/// blocking call returns the wall seconds the *simulation* spent
/// blocked on it, which the driver charges to the step.
pub trait StagingBackend {
    /// What this backend is (stable over its lifetime).
    fn caps(&self) -> BackendCaps;

    /// Accept one task. The backend must record the task's in-situ
    /// metrics row ([`RetireCtx::record_insitu`]) before the task can
    /// reach any consumer, and must eventually retire it. Returns
    /// seconds the caller was blocked beyond the in-situ stage itself
    /// (synchronous aggregation, back-pressure waits, degradation
    /// fallbacks).
    fn submit(&mut self, task: StagedTask) -> f64;

    /// Block until every submitted task has retired (completed,
    /// collected, degraded, or dropped).
    fn drain(&mut self) -> f64;

    /// Release the backend's resources (join workers, evict remote
    /// state) and report lifetime stats. Called exactly once, after
    /// [`drain`](Self::drain).
    fn close(&mut self) -> BackendStats;
}

#[cfg(test)]
mod tests {
    use super::{RetireCtx, StagedTask};
    use crate::analysis::InSituCtx;
    use sitra_mesh::{BBox3, Decomposition, ScalarField};
    use std::time::Instant;

    /// One `ranks`-rank task of `ctx`'s first analysis at `step`, on a
    /// `4·ranks × 4 × 4` grid split along x.
    pub(super) fn task_of(ctx: &RetireCtx, step: u64, ranks: usize) -> StagedTask {
        let g = BBox3::from_dims([4 * ranks, 4, 4]);
        let decomp = Decomposition::new(g, [ranks, 1, 1]);
        let whole = ScalarField::from_fn(g, |p| p[0] as f64 * 0.25 + step as f64);
        let parts = (0..ranks)
            .map(|rank| {
                let block = whole.extract(&decomp.block(rank));
                let vars = vec![("T".to_string(), block.clone())];
                let payload = ctx.analyses()[0].analysis.in_situ(&InSituCtx {
                    rank,
                    step,
                    decomp: &decomp,
                    ghosted: &block,
                    vars: &vars,
                });
                (rank, payload)
            })
            .collect();
        StagedTask {
            analysis_idx: 0,
            step,
            issued: Instant::now(),
            parts,
            insitu_secs: 0.0,
            insitu_core_secs: 0.0,
            movement_bytes: 0,
            movement_sim_secs: 0.0,
        }
    }
}
