//! The step loop: advance the simulation, run in-situ stages, and hand
//! staged tasks to the configured backends.
//!
//! This file knows nothing about *where* aggregation happens — it
//! builds one [`StagedTask`] per due analysis and routes it either to
//! the always-present [`InSituBackend`] (for `Placement::InSitu`
//! analyses) or to the backend selected by
//! [`StagingMode`](crate::StagingMode) (for `Placement::Hybrid`).

use super::retire::OutputObserver;
use super::staging::{
    InSituBackend, LocalBackend, RemoteBackend, RetireCtx, StagedTask, StagingBackend,
};
use super::{ConfigError, PipelineConfig, PipelineResult, StagingMode};
use crate::analysis::{AnalysisOutput, InSituCtx};
use crate::metrics::{PipelineMetrics, StepMetrics};
use crate::placement::Placement;
use crate::steer::SteerServer;
use bytes::Bytes;
use rayon::prelude::*;
use sitra_dart::Fabric;
use sitra_mesh::{exchange_ghosts, Decomposition, ScalarField};
use sitra_sim::Simulation;
use std::sync::Arc;
use std::time::Instant;

/// The error for an endpoint `reason` keeps the driver from using.
fn invalid_endpoint(endpoint: &str, reason: impl std::fmt::Display) -> ConfigError {
    ConfigError::InvalidEndpoint {
        endpoint: endpoint.to_string(),
        reason: reason.to_string(),
    }
}

/// Run the hybrid pipeline live. See [`super`] module docs for the
/// flow. Returns [`ConfigError`] for a configuration that cannot run
/// (duplicate analysis labels, unparseable staging endpoint) instead of
/// panicking mid-flight.
pub fn run_pipeline(
    sim: &mut Simulation,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, ConfigError> {
    let decomp = Decomposition::new(sim.global(), cfg.parts);
    let n_ranks = decomp.rank_count();

    {
        let mut labels: Vec<&str> = cfg.analyses.iter().map(|s| s.label.as_str()).collect();
        labels.sort_unstable();
        if let Some(w) = labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(ConfigError::DuplicateLabel(w[0].to_string()));
        }
    }
    // One client path for every remote deployment: a single server is
    // a member list of one.
    let staging_endpoints: Vec<String> = match &cfg.staging {
        StagingMode::Remote(endpoint) => vec![endpoint.clone()],
        StagingMode::Cluster(endpoints) if endpoints.is_empty() => {
            return Err(ConfigError::EmptyCluster)
        }
        StagingMode::Cluster(endpoints) => endpoints.clone(),
        StagingMode::InSitu | StagingMode::Local => Vec::new(),
    };
    for endpoint in &staging_endpoints {
        endpoint
            .parse::<sitra_net::Addr>()
            .map_err(|e| invalid_endpoint(endpoint, e))?;
    }

    // Steerable visualization: bind the steering endpoint before any
    // work runs, and publish every collected image output through the
    // retirement seam so subscribers see frames as they retire.
    let steer = match &cfg.steering {
        Some(endpoint) => {
            let addr = endpoint
                .parse()
                .map_err(|e| invalid_endpoint(endpoint, e))?;
            Some(SteerServer::start(&addr).map_err(|e| invalid_endpoint(endpoint, e))?)
        }
        None => None,
    };
    let observer = steer.as_ref().map(|server| {
        let publisher = server.publisher();
        Arc::new(move |_label: &str, _step, output: &AnalysisOutput| {
            if let AnalysisOutput::Image(img) = output {
                publisher.publish(img);
            }
        }) as OutputObserver
    });

    let fabric = Fabric::new(cfg.network);
    let ctx = RetireCtx::new(cfg.analyses.clone(), observer);

    // `Placement::InSitu` analyses always aggregate synchronously;
    // hybrid analyses go to the configured staging backend.
    let mut insitu = InSituBackend::new(ctx.clone());
    let mut staging: Box<dyn StagingBackend> = match &cfg.staging {
        StagingMode::InSitu => Box::new(InSituBackend::new(ctx.clone())),
        StagingMode::Local => Box::new(LocalBackend::new(
            ctx.clone(),
            &fabric,
            n_ranks,
            cfg.staging_buckets,
            cfg.staging_buffer_depth,
            cfg.bucket_autoscale,
        )),
        StagingMode::Remote(_) | StagingMode::Cluster(_) => Box::new(RemoteBackend::new(
            ctx.clone(),
            staging_endpoints,
            cfg.staging_deadline,
            cfg.staging_max_inflight,
            n_ranks as u32,
            cfg.staging_output_hook.clone(),
            cfg.staging_tenant.clone(),
        )),
    };

    let mut steps_metrics = Vec::with_capacity(cfg.steps);
    let run_start = Instant::now();

    for _ in 0..cfg.steps {
        let t_step = Instant::now();
        sim.advance();
        let step = sim.step();

        // Generate per-rank blocks of the analysis variable and of the
        // extra variables, in one parallel call across ranks.
        let per_rank: Vec<(ScalarField, Vec<(String, ScalarField)>)> = (0..n_ranks)
            .into_par_iter()
            .map(|r| {
                let block = sim.block_field(cfg.analysis_variable, &decomp.block(r));
                let mut v = Vec::with_capacity(1 + cfg.extra_variables.len());
                for var in &cfg.extra_variables {
                    if *var != cfg.analysis_variable {
                        v.push((
                            var.name().to_string(),
                            sim.block_field(*var, &decomp.block(r)),
                        ));
                    }
                }
                (block, v)
            })
            .collect();
        let (blocks, mut extra): (Vec<ScalarField>, Vec<_>) = per_rank.into_iter().unzip();
        let mut sim_secs = t_step.elapsed().as_secs_f64();

        let t_ghost = Instant::now();
        let (ghosted, _) = exchange_ghosts(&decomp, &blocks, 1);
        let ghost_secs = t_ghost.elapsed().as_secs_f64();

        // Per-rank variable lists: the already-materialized block
        // serves as the analysis variable's entry (moved in, not
        // re-generated or cloned), ahead of the extra variables.
        let t_vars = Instant::now();
        let name = cfg.analysis_variable.name();
        for (v, block) in extra.iter_mut().zip(blocks) {
            v.insert(0, (name.to_string(), block));
        }
        sim_secs += t_vars.elapsed().as_secs_f64();

        // Run this step's due analyses.
        let mut blocked_secs = 0.0;
        for (ai, spec) in cfg.analyses.iter().enumerate() {
            if !spec.due(step) {
                continue;
            }
            // In-situ stage, data-parallel over ranks; wall time of the
            // stage is the max per-rank time (ranks run concurrently on
            // the real machine), core time is the sum.
            let t0 = Instant::now();
            let timed: Vec<(usize, Bytes, f64)> = (0..n_ranks)
                .into_par_iter()
                .map(|r| {
                    let ctx = InSituCtx {
                        rank: r,
                        step,
                        decomp: &decomp,
                        ghosted: &ghosted[r],
                        vars: &extra[r],
                    };
                    let t = Instant::now();
                    let payload = spec.analysis.in_situ(&ctx);
                    (r, payload, t.elapsed().as_secs_f64())
                })
                .collect();
            let insitu_wall = t0.elapsed().as_secs_f64();
            let insitu_secs = timed.iter().map(|(_, _, t)| *t).fold(0.0, f64::max);
            let insitu_core_secs: f64 = timed.iter().map(|(_, _, t)| *t).sum();
            let movement_bytes: u64 = timed.iter().map(|(_, b, _)| b.len() as u64).sum();
            let movement_sim_secs: f64 = timed
                .iter()
                .map(|(_, b, _)| cfg.network.auto_transfer_time(b.len()))
                .sum();
            let parts: Vec<(usize, Bytes)> = timed.into_iter().map(|(r, b, _)| (r, b)).collect();

            let task = StagedTask {
                analysis_idx: ai,
                step,
                issued: Instant::now(),
                parts,
                insitu_secs,
                insitu_core_secs,
                movement_bytes,
                movement_sim_secs,
            };
            let backend: &mut dyn StagingBackend = match spec.placement {
                Placement::InSitu => &mut insitu,
                Placement::Hybrid => staging.as_mut(),
            };
            blocked_secs += insitu_wall + backend.submit(task);
        }

        sitra_obs::emit(
            "driver",
            "step",
            &[
                ("step", step.to_string()),
                ("sim_secs", sim_secs.to_string()),
                ("ghost_secs", ghost_secs.to_string()),
                ("blocked_secs", blocked_secs.to_string()),
            ],
        );
        steps_metrics.push(StepMetrics {
            step,
            sim_secs,
            ghost_secs,
            blocked_secs,
            degraded: false,
        });
    }

    // Drain both backends (every submitted task retires — completed,
    // collected, degraded, or dropped), then close them.
    insitu.drain();
    staging.drain();
    let _ = insitu.close();
    let staging_stats = staging.close();
    let total_secs = run_start.elapsed().as_secs_f64();

    let fstats = fabric.stats();
    fabric.shutdown();

    // Every output has retired, so no more frames are coming: drain
    // blocked subscribers and stop serving.
    if let Some(server) = steer {
        server.shutdown();
    }

    // Degradations surface per-step only after the drain: a task can
    // degrade during collection long after its step ended.
    for sm in steps_metrics.iter_mut() {
        sm.degraded = ctx.step_degraded(sm.step);
    }

    let metrics = PipelineMetrics {
        steps: steps_metrics,
        analyses: ctx.metrics_snapshot(),
        total_secs,
        smsg_messages: fstats.smsg_messages,
        smsg_bytes: fstats.smsg_bytes,
        bte_transfers: fstats.bte_transfers,
        bte_bytes: fstats.bte_bytes,
        max_queue_depth: staging_stats.max_queue_depth,
    };
    Ok(PipelineResult {
        metrics,
        outputs: ctx.take_outputs(),
        staged_tasks: staging_stats.submitted,
        dropped_tasks: ctx.dropped_tasks(),
        degraded_tasks: ctx.degraded_tasks(),
    })
}
