//! The single retirement path every staging backend reports through.
//!
//! A staged task can end four ways — aggregated by an in-process bucket
//! or synchronously on the caller ([`Retired::Completed`]), collected
//! from a remote staging area ([`Retired::Collected`]), re-aggregated
//! in-situ after a staging failure ([`Retired::Degraded`]), or dropped
//! on a back-pressure overrun ([`Retired::Dropped`]). All four funnel
//! into [`RetireCtx::retire`], which owns the bookkeeping the rest of
//! the system depends on: the [`AnalysisMetrics`] row, the
//! `analysis.aggregate` / `analysis.degraded` / `step.degraded` journal
//! events that `sitra_bench::replay` folds back into the paper-style
//! tables, the output recording, and the degraded/dropped counters.
//! Backends never touch those surfaces directly, so every backend keeps
//! byte-identical outputs and bit-identical replay accounting.

use crate::analysis::AnalysisOutput;
use crate::driver::staging::{BackendCaps, StagedTask};
use crate::metrics::AnalysisMetrics;
use crate::placement::AnalysisSpec;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How one staged task ended.
pub enum Retired {
    /// The aggregation ran inside this process (in-process bucket or
    /// synchronously on the caller): fill the row's aggregation half,
    /// journal `analysis.aggregate`, record the output.
    Completed {
        /// Index into the analysis roster.
        analysis_idx: usize,
        /// Simulation step.
        step: u64,
        /// The aggregated output.
        output: AnalysisOutput,
        /// Wall seconds of the aggregation stage.
        aggregate_secs: f64,
        /// Which bucket aggregated (None when synchronous).
        bucket: Option<u32>,
        /// Streaming aggregation was used.
        streamed: bool,
        /// Submission → output availability.
        latency_secs: f64,
        /// Simulated network seconds measured on the consuming side
        /// (merged into the row with `max`, like the replay does).
        movement_sim_secs: f64,
        /// Whether the row being completed is an in-transit row.
        in_transit: bool,
    },
    /// The aggregation ran on an *external* worker and the driver
    /// collected the encoded output: record it. The worker journals its
    /// own `analysis.aggregate` half (component `worker`), so the
    /// driver-side row keeps its aggregation fields zero.
    Collected {
        /// Index into the analysis roster.
        analysis_idx: usize,
        /// Simulation step.
        step: u64,
        /// The collected output.
        output: AnalysisOutput,
    },
    /// The staging path failed this task (deadline missed, admission
    /// refused, endpoint lost, task shed): re-run the aggregation
    /// in-situ from the retained intermediates — the paper's fully
    /// in-situ formulation as a degradation path. A degraded task is
    /// never a lost task.
    Degraded {
        /// Index into the analysis roster.
        analysis_idx: usize,
        /// Simulation step.
        step: u64,
        /// When the task was submitted (for completion latency).
        issued: Instant,
        /// The retained in-situ intermediates, in rank order.
        parts: Vec<(usize, Bytes)>,
        /// Failure label journaled with the `analysis.degraded` event.
        reason: &'static str,
    },
    /// The producers withdrew the payloads before the staging area got
    /// to them (back-pressure overrun): count the drop.
    Dropped,
}

/// Observes every output as it is recorded, regardless of which
/// backend or thread retired it (the steering publisher hangs off
/// this seam).
pub(crate) type OutputObserver = Arc<dyn Fn(&str, u64, &AnalysisOutput) + Send + Sync>;

/// Shared pipeline state every backend retires into. Cheap to clone
/// (one `Arc`); worker threads hold their own handle.
#[derive(Clone)]
pub struct RetireCtx {
    inner: Arc<Shared>,
}

struct Shared {
    analyses: Vec<AnalysisSpec>,
    metrics: Mutex<Vec<AnalysisMetrics>>,
    outputs: Mutex<Vec<(String, u64, AnalysisOutput)>>,
    dropped: AtomicUsize,
    degraded_tasks: AtomicUsize,
    degraded_steps: Mutex<BTreeSet<u64>>,
    observer: Option<OutputObserver>,
}

impl RetireCtx {
    pub(crate) fn new(analyses: Vec<AnalysisSpec>, observer: Option<OutputObserver>) -> Self {
        RetireCtx {
            inner: Arc::new(Shared {
                analyses,
                metrics: Mutex::new(Vec::new()),
                outputs: Mutex::new(Vec::new()),
                dropped: AtomicUsize::new(0),
                degraded_tasks: AtomicUsize::new(0),
                degraded_steps: Mutex::new(BTreeSet::new()),
                observer,
            }),
        }
    }

    /// The analysis roster, shared by the driver and every backend.
    pub fn analyses(&self) -> &[AnalysisSpec] {
        &self.inner.analyses
    }

    /// Record the in-situ half of a task's metrics row and journal the
    /// `analysis.insitu` event, using the backend's placement label.
    /// Data movement is only charged when the backend actually shipped
    /// the intermediates (`caps.ships_data` and the ship succeeded).
    ///
    /// Backends must call this *before* the task becomes visible to any
    /// consumer: whoever completes the task updates this row in place
    /// and must find it even when it wins the race with the submitter.
    pub fn record_insitu(&self, task: &StagedTask, caps: &BackendCaps, shipped: bool) {
        let moved = caps.ships_data && shipped;
        let row = AnalysisMetrics {
            analysis: self.label(task.analysis_idx).to_string(),
            step: task.step,
            insitu_secs: task.insitu_secs,
            insitu_core_secs: task.insitu_core_secs,
            movement_bytes: if moved { task.movement_bytes } else { 0 },
            movement_sim_secs: if moved { task.movement_sim_secs } else { 0.0 },
            aggregate_secs: 0.0,
            aggregated_in_transit: caps.in_transit,
            bucket: None,
            streamed: false,
            completion_latency_secs: 0.0,
            degraded: false,
        };
        emit_insitu(&row, caps.placement);
        self.inner.metrics.lock().push(row);
    }

    /// Retire one task. Returns the wall seconds burned locally (the
    /// degraded re-aggregation; 0.0 otherwise) so the backend can charge
    /// them to the simulation's blocked time.
    pub fn retire(&self, retired: Retired) -> f64 {
        match retired {
            Retired::Completed {
                analysis_idx,
                step,
                output,
                aggregate_secs,
                bucket,
                streamed,
                latency_secs,
                movement_sim_secs,
                in_transit,
            } => {
                let label = self.label(analysis_idx);
                emit_aggregate(
                    "driver",
                    label,
                    step,
                    aggregate_secs,
                    bucket,
                    streamed,
                    latency_secs,
                    movement_sim_secs,
                );
                {
                    let mut m = self.inner.metrics.lock();
                    if let Some(row) = m.iter_mut().find(|r| {
                        r.analysis == label
                            && r.step == step
                            && r.aggregated_in_transit == in_transit
                    }) {
                        row.aggregate_secs = aggregate_secs;
                        row.bucket = bucket;
                        row.streamed = streamed;
                        row.completion_latency_secs = latency_secs;
                        row.movement_sim_secs = row.movement_sim_secs.max(movement_sim_secs);
                    }
                }
                self.push_output(analysis_idx, step, output);
                0.0
            }
            Retired::Collected {
                analysis_idx,
                step,
                output,
            } => {
                sitra_obs::counter("driver.staging.outputs_collected").inc();
                self.push_output(analysis_idx, step, output);
                0.0
            }
            Retired::Degraded {
                analysis_idx,
                step,
                issued,
                parts,
                reason,
            } => {
                let spec = &self.inner.analyses[analysis_idx];
                let t = Instant::now();
                let output = spec.analysis.aggregate(step, &parts);
                let aggregate_secs = t.elapsed().as_secs_f64();
                let latency_secs = issued.elapsed().as_secs_f64();
                self.inner.degraded_tasks.fetch_add(1, Ordering::Relaxed);
                sitra_obs::counter("driver.tasks.degraded").inc();
                sitra_obs::emit(
                    "driver",
                    "analysis.degraded",
                    &[
                        ("analysis", spec.label.clone()),
                        ("step", step.to_string()),
                        ("reason", reason.to_string()),
                        ("aggregate_secs", aggregate_secs.to_string()),
                        ("latency_secs", latency_secs.to_string()),
                    ],
                );
                if self.inner.degraded_steps.lock().insert(step) {
                    sitra_obs::counter("driver.steps.degraded").inc();
                    sitra_obs::emit("driver", "step.degraded", &[("step", step.to_string())]);
                }
                {
                    let mut m = self.inner.metrics.lock();
                    if let Some(row) = m
                        .iter_mut()
                        .find(|r| r.analysis == spec.label && r.step == step)
                    {
                        row.aggregate_secs = aggregate_secs;
                        row.aggregated_in_transit = false;
                        row.degraded = true;
                        row.completion_latency_secs = latency_secs;
                    }
                }
                self.push_output(analysis_idx, step, output);
                aggregate_secs
            }
            Retired::Dropped => {
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
                0.0
            }
        }
    }

    fn label(&self, analysis_idx: usize) -> &str {
        &self.inner.analyses[analysis_idx].label
    }

    fn push_output(&self, analysis_idx: usize, step: u64, output: AnalysisOutput) {
        if let Some(observer) = &self.inner.observer {
            observer(self.label(analysis_idx), step, &output);
        }
        self.inner
            .outputs
            .lock()
            .push((self.label(analysis_idx).to_string(), step, output));
    }

    pub(crate) fn metrics_snapshot(&self) -> Vec<AnalysisMetrics> {
        self.inner.metrics.lock().clone()
    }

    pub(crate) fn take_outputs(&self) -> Vec<(String, u64, AnalysisOutput)> {
        std::mem::take(&mut *self.inner.outputs.lock())
    }

    pub(crate) fn dropped_tasks(&self) -> usize {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn degraded_tasks(&self) -> usize {
        self.inner.degraded_tasks.load(Ordering::Relaxed)
    }

    pub(crate) fn step_degraded(&self, step: u64) -> bool {
        self.inner.degraded_steps.lock().contains(&step)
    }
}

/// Journal the in-situ half of an analysis row. The kv payload mirrors
/// [`AnalysisMetrics`] field-for-field (f64s via `Display`, which
/// round-trips exactly) so `obs_report` can rebuild the paper-style
/// per-stage table from the journal alone.
fn emit_insitu(m: &AnalysisMetrics, placement: &str) {
    sitra_obs::emit(
        "driver",
        "analysis.insitu",
        &[
            ("analysis", m.analysis.clone()),
            ("step", m.step.to_string()),
            ("placement", placement.to_string()),
            ("insitu_secs", m.insitu_secs.to_string()),
            ("insitu_core_secs", m.insitu_core_secs.to_string()),
            ("movement_bytes", m.movement_bytes.to_string()),
            ("movement_sim_secs", m.movement_sim_secs.to_string()),
        ],
    );
}

/// Journal the aggregation half of an analysis row (either placement).
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_aggregate(
    component: &str,
    analysis: &str,
    step: u64,
    aggregate_secs: f64,
    bucket: Option<u32>,
    streamed: bool,
    latency_secs: f64,
    movement_sim_secs: f64,
) {
    sitra_obs::emit(
        component,
        "analysis.aggregate",
        &[
            ("analysis", analysis.to_string()),
            ("step", step.to_string()),
            ("aggregate_secs", aggregate_secs.to_string()),
            (
                "bucket",
                bucket.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
            ),
            ("streamed", streamed.to_string()),
            ("latency_secs", latency_secs.to_string()),
            // The bucket-measured movement time; the live run merges it
            // into the row with max(), and so does the replay.
            ("movement_sim_secs", movement_sim_secs.to_string()),
        ],
    );
}
