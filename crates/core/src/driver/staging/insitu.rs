//! The fully in-situ backend: aggregate synchronously on the caller.

use super::{BackendCaps, BackendStats, RetireCtx, Retired, StagedTask, StagingBackend};
use std::time::Instant;

const CAPS: BackendCaps = BackendCaps {
    name: "insitu",
    placement: "insitu",
    in_transit: false,
    ships_data: false,
};

/// Runs every aggregation immediately, on the submitting thread — the
/// paper's fully in-situ formulation applied to the same two-stage
/// decomposition. The simulation pays the whole analysis cost inline
/// and no data ever leaves the caller, so movement is never charged.
///
/// Also serves `Placement::InSitu` analyses in every staging mode: the
/// driver keeps one instance of this backend alongside whichever
/// backend handles hybrid work.
pub struct InSituBackend {
    ctx: RetireCtx,
    submitted: usize,
}

impl InSituBackend {
    /// An in-situ backend retiring into `ctx`.
    pub fn new(ctx: RetireCtx) -> Self {
        InSituBackend { ctx, submitted: 0 }
    }
}

impl StagingBackend for InSituBackend {
    fn caps(&self) -> BackendCaps {
        CAPS
    }

    fn submit(&mut self, task: StagedTask) -> f64 {
        self.submitted += 1;
        self.ctx.record_insitu(&task, &CAPS, false);
        let spec = &self.ctx.analyses()[task.analysis_idx];
        let t_agg = Instant::now();
        let output = spec.analysis.aggregate(task.step, &task.parts);
        let aggregate_secs = t_agg.elapsed().as_secs_f64();
        self.ctx.retire(Retired::Completed {
            analysis_idx: task.analysis_idx,
            step: task.step,
            output,
            aggregate_secs,
            bucket: None,
            streamed: false,
            latency_secs: 0.0,
            movement_sim_secs: 0.0,
            in_transit: false,
        });
        aggregate_secs
    }

    fn drain(&mut self) -> f64 {
        0.0
    }

    fn close(&mut self) -> BackendStats {
        BackendStats {
            submitted: self.submitted,
            max_queue_depth: 0,
        }
    }
}
