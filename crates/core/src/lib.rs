//! # sitra-core
//!
//! The hybrid in-situ/in-transit analysis framework — the paper's primary
//! contribution, assembled from the workspace substrates:
//!
//! * [`analysis`] — the two-stage [`analysis::Analysis`] abstraction
//!   (a data-parallel in-situ stage producing small intermediates, and
//!   an aggregation stage) plus the five concrete configurations the
//!   paper evaluates: fully in-situ visualization and statistics, hybrid
//!   visualization (down-sample + in-transit render), hybrid statistics
//!   (in-situ learn + in-transit derive), and hybrid topology (in-situ
//!   subtrees + in-transit streaming merge).
//! * [`placement`] — where the aggregation stage runs: synchronously on
//!   the primary resources ([`placement::Placement::InSitu`]) or
//!   asynchronously on staging buckets ([`placement::Placement::Hybrid`]).
//! * [`wire`] — compact binary codecs for the intermediates (what
//!   actually crosses the transport, so data-movement accounting is
//!   honest).
//! * [`steer`] — the driver's steering endpoint: live viewers pull each
//!   image output and steer the rate it is downsampled at.
//! * [`driver`] — the live pipeline: a simulation proxy stepping on the
//!   primary ranks, in-situ stages run data-parallel per rank, and every
//!   due analysis handed to a pluggable
//!   [`driver::staging::StagingBackend`] (synchronous in-situ, in-process
//!   staging buckets over the DART fabric, or a remote staging service),
//!   with per-stage metrics and retirement accounting shared across all
//!   backends.

pub mod analysis;
pub mod driver;
pub mod metrics;
pub mod placement;
pub mod remote;
pub mod steer;
pub mod wire;

pub use analysis::{
    Aggregator, Analysis, AnalysisOutput, AutoCorrelation, FeatureStats, HybridStats,
    HybridTopology, HybridViz, InSituCtx, InSituViz, LagrangianFlowMap,
};
pub use driver::{run_pipeline, ConfigError, PipelineConfig, PipelineResult, StagingMode};
pub use metrics::{AnalysisMetrics, PipelineMetrics, StepMetrics};
pub use placement::{AnalysisSpec, Placement};
pub use remote::{run_bucket_worker, run_cluster_bucket_worker, BucketWorkerOpts, RemoteTask};
