//! The live pipeline driver: simulation ranks, in-situ stages, and a
//! pluggable staging backend aggregating the in-transit stage.
//!
//! This is the paper's Fig. 5 running for real (at laptop scale):
//!
//! 1. Each step, the simulation ranks produce their blocks and exchange
//!    ghosts; due analyses run their in-situ stage data-parallel across
//!    ranks.
//! 2. The in-situ intermediates of every due analysis are handed to a
//!    [`staging::StagingBackend`] as one [`staging::StagedTask`]. The
//!    paper's core claim — one analysis decomposition runs unchanged
//!    wherever the aggregation happens — is that seam:
//!    [`staging::InSituBackend`] aggregates synchronously on the caller
//!    (the fully in-situ formulation), [`staging::LocalBackend`] exports
//!    payloads through the DART fabric and lets in-process
//!    staging-bucket threads pull and aggregate them, and
//!    [`staging::RemoteBackend`] ships them to a remote staging service
//!    (`sitra-staged`) over the socket transport.
//! 3. However a task ends — aggregated on a bucket, collected from the
//!    remote space, degraded to a local re-aggregation, or dropped on
//!    back-pressure overrun — it retires through one shared path
//!    ([`staging::RetireCtx::retire`]) that owns the metrics row, the
//!    journal events, the output recording, and the degradation
//!    counters, so every backend produces byte-identical outputs and
//!    bit-identical replay accounting.
//! 4. Back-pressure is a backend concern: the local backend's producers
//!    retain a bounded ring of exported payloads
//!    ([`PipelineConfig::staging_buffer_depth`]) and count overruns as
//!    dropped tasks; the remote backend bounds its in-flight window
//!    ([`PipelineConfig::staging_max_inflight`]), honours the server's
//!    admission verdicts, and *degrades* any task the staging path
//!    fails — the aggregation re-runs in-situ from the retained
//!    intermediates and the run continues with zero lost steps.

pub mod staging;

mod pipeline;
mod retire;

pub use pipeline::run_pipeline;
pub(crate) use retire::emit_aggregate;

use crate::analysis::AnalysisOutput;
use crate::metrics::PipelineMetrics;
use sitra_dart::NetworkModel;
use sitra_sim::Variable;
use std::sync::Arc;
use std::time::Duration;

/// Callback invoked after each remotely staged output is collected,
/// with the analysis label and step — on the driver's collector thread,
/// the moment the output lands in the staging area, and under the lock
/// of the in-flight window: the driver sees the retirement only once
/// the hook has returned. An observation seam for streaming consumers —
/// and for tests, which use it to inject faults at exact pipeline
/// moments.
pub type StagingOutputHook = Arc<dyn Fn(&str, u64) + Send + Sync>;

/// Which [`staging::StagingBackend`] aggregates `Placement::Hybrid`
/// analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StagingMode {
    /// Aggregate on the simulation ranks, synchronously — the paper's
    /// fully in-situ formulation applied to the same two-stage
    /// decomposition. No data leaves the caller.
    InSitu,
    /// In-process staging-bucket threads fed through the scheduler and
    /// the DART fabric (the default).
    Local,
    /// A remote staging service (`"tcp://host:port"` or
    /// `"inproc://name"`):
    /// intermediates are put into the addressed
    /// [`SpaceServer`](sitra_dataspaces::SpaceServer) (e.g. a
    /// `sitra-staged` process) and tasks are queued in its scheduler for
    /// external bucket workers ([`crate::remote::run_bucket_worker`]).
    /// Exactly [`StagingMode::Cluster`] with this one endpoint as the
    /// member list — the driver has a single remote client path.
    Remote(String),
    /// A staging service of one or more members: the listed endpoints
    /// are `sitra-staged` instances (bound by `sitra-cluster`
    /// membership when there are several). Intermediates are routed to
    /// their consistent-hash ring owner, outputs are collected by
    /// fanning gets out to every member, and task descriptors are
    /// routed with fail-over
    /// ([`crate::remote::run_cluster_bucket_worker`] is the matching
    /// worker loop). The journal placement label is `hybrid-remote`
    /// however many members there are.
    Cluster(Vec<String>),
}

/// A rejected [`PipelineConfig`], reported before the run starts instead
/// of panicking mid-flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Two analyses share a label; use [`crate::AnalysisSpec::with_label`].
    DuplicateLabel(String),
    /// The staging endpoint does not parse as a transport address.
    InvalidEndpoint {
        /// The offending endpoint string.
        endpoint: String,
        /// Why it failed to parse.
        reason: String,
    },
    /// [`StagingMode::Cluster`] was selected with an empty member list.
    EmptyCluster,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::DuplicateLabel(label) => write!(
                f,
                "duplicate analysis label `{label}`; use AnalysisSpec::with_label"
            ),
            ConfigError::InvalidEndpoint { endpoint, reason } => {
                write!(f, "invalid staging endpoint `{endpoint}`: {reason}")
            }
            ConfigError::EmptyCluster => {
                write!(f, "cluster staging requires at least one member endpoint")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a live pipeline run.
pub struct PipelineConfig {
    /// Rank grid (must evenly cover the simulation domain).
    pub parts: [usize; 3],
    /// Number of staging-bucket worker threads (local staging mode).
    pub staging_buckets: usize,
    /// Registered analyses.
    pub analyses: Vec<crate::placement::AnalysisSpec>,
    /// Simulation steps to run.
    pub steps: usize,
    /// The variable fed to single-variable analyses (viz, topology).
    pub analysis_variable: Variable,
    /// Additional variables materialized per block (for statistics).
    pub extra_variables: Vec<Variable>,
    /// How many steps of exported payloads each producer retains before
    /// withdrawing the oldest (staging back-pressure horizon; local
    /// staging mode).
    pub staging_buffer_depth: u64,
    /// Network model used for simulated-time accounting.
    pub network: NetworkModel,
    /// Where hybrid analyses aggregate; see [`StagingMode`].
    pub staging: StagingMode,
    /// Per-output deadline when awaiting a remotely staged aggregation.
    /// An output that misses it is re-aggregated in-situ and the step is
    /// marked degraded.
    pub staging_deadline: Duration,
    /// How many hybrid tasks may be in flight at the remote staging
    /// area before the driver blocks collecting the oldest (producer-
    /// side backpressure; also bounds the memory retained for in-situ
    /// fallback).
    pub staging_max_inflight: usize,
    /// Called after each remotely staged output is collected.
    pub staging_output_hook: Option<StagingOutputHook>,
    /// Tenant this pipeline runs as against a shared staging service
    /// (remote and cluster modes): every connection declares it before
    /// any traffic, so the service's weighted-fair scheduler and quotas
    /// attribute this pipeline's puts and tasks to it. `None` (the
    /// default) runs under the unscoped default tenant, byte-compatible
    /// with pre-tenancy deployments.
    pub staging_tenant: Option<sitra_dataspaces::TenantSpec>,
    /// Elastic bucket capacity (local staging mode): when set, the
    /// backend starts `min_buckets` workers and a controller thread
    /// grows the pool under sustained backlog / drains it back when the
    /// queue-wait p99 is comfortably inside the SLO, instead of pinning
    /// [`PipelineConfig::staging_buckets`] threads for the whole run.
    /// `None` (the default) keeps the fixed pool — byte-identical
    /// scheduling to the pre-elastic driver.
    pub bucket_autoscale: Option<sitra_dataspaces::AutoscaleConfig>,
    /// Serve steerable visualization on this endpoint: the driver runs
    /// a [`SteerServer`](crate::steer::SteerServer) there and publishes every
    /// collected [`AnalysisOutput::Image`] as a versioned frame, so
    /// subscribers can pull reduced frames and steer their downsample
    /// rate while the pipeline runs. Every [`StagingMode`] publishes,
    /// [`StagingMode::InSitu`] included: in-situ and staged outputs
    /// retire through the same seam. `None` (the default) disables it.
    pub steering: Option<String>,
}

impl PipelineConfig {
    /// A minimal configuration.
    pub fn new(parts: [usize; 3], staging_buckets: usize, steps: usize) -> Self {
        Self {
            parts,
            staging_buckets,
            analyses: Vec::new(),
            steps,
            analysis_variable: Variable::Temperature,
            extra_variables: Vec::new(),
            staging_buffer_depth: 16,
            network: NetworkModel::gemini(),
            staging: StagingMode::Local,
            staging_deadline: Duration::from_secs(60),
            staging_max_inflight: 4,
            staging_output_hook: None,
            staging_tenant: None,
            bucket_autoscale: None,
            steering: None,
        }
    }

    /// Select the staging backend aggregating hybrid analyses.
    pub fn with_staging_mode(mut self, mode: StagingMode) -> Self {
        self.staging = mode;
        self
    }

    /// Stage hybrid analyses through a remote space server at `endpoint`.
    pub fn with_staging_endpoint(mut self, endpoint: impl Into<String>) -> Self {
        self.staging = StagingMode::Remote(endpoint.into());
        self
    }

    /// Stage hybrid analyses through a multi-member staging cluster.
    pub fn with_staging_cluster<I, S>(mut self, endpoints: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.staging = StagingMode::Cluster(endpoints.into_iter().map(Into::into).collect());
        self
    }

    /// Per-output deadline for remotely staged aggregations.
    pub fn with_staging_deadline(mut self, deadline: Duration) -> Self {
        self.staging_deadline = deadline;
        self
    }

    /// Bound on remotely staged tasks in flight.
    pub fn with_staging_max_inflight(mut self, max_inflight: usize) -> Self {
        self.staging_max_inflight = max_inflight;
        self
    }

    /// Observe every remotely collected output.
    pub fn with_staging_output_hook(mut self, hook: StagingOutputHook) -> Self {
        self.staging_output_hook = Some(hook);
        self
    }

    /// Run this pipeline as `tenant` against the staging service
    /// (remote and cluster modes; ignored by in-process backends, which
    /// are single-tenant by construction).
    pub fn with_tenant(mut self, tenant: sitra_dataspaces::TenantSpec) -> Self {
        self.staging_tenant = Some(tenant);
        self
    }

    /// Serve steerable visualization frames to subscribers on
    /// `endpoint` while the pipeline runs.
    pub fn with_steering_endpoint(mut self, endpoint: impl Into<String>) -> Self {
        self.steering = Some(endpoint.into());
        self
    }

    /// Autoscale the local staging-bucket pool between `min` and `max`
    /// workers, growing under sustained backlog and draining idle
    /// buckets once the queue-wait p99 is comfortably inside `slo`.
    pub fn with_bucket_autoscale(mut self, min: usize, max: usize, slo: Duration) -> Self {
        self.bucket_autoscale = Some(sitra_dataspaces::AutoscaleConfig::new(min, max, slo));
        self
    }
}

/// Result of a pipeline run: metrics plus every analysis output.
#[derive(Debug)]
pub struct PipelineResult {
    /// Per-stage measurements.
    pub metrics: PipelineMetrics,
    /// `(analysis name, step, output)` for every completed aggregation.
    pub outputs: Vec<(String, u64, AnalysisOutput)>,
    /// Tasks submitted to the staging backend selected by
    /// [`StagingMode`] (in-situ placed tasks are not counted). Every
    /// one of these retires exactly once — completed, collected,
    /// degraded, or dropped — which is the conservation law the chaos
    /// harness checks.
    pub staged_tasks: usize,
    /// Tasks dropped because the staging area fell behind the
    /// back-pressure horizon.
    pub dropped_tasks: usize,
    /// Staged tasks whose staging path failed (deadline missed,
    /// admission refused, endpoint lost) and whose aggregation the
    /// driver re-ran in-situ. Their outputs are still present — a
    /// degraded task is never a lost task.
    pub degraded_tasks: usize,
}

impl PipelineResult {
    /// Output of one analysis at one step.
    pub fn output(&self, name: &str, step: u64) -> Option<&AnalysisOutput> {
        self.outputs
            .iter()
            .find(|(n, s, _)| n == name && *s == step)
            .map(|(_, _, o)| o)
    }
}
