//! The in-process staging backend: DART exports, the DataSpaces
//! scheduler, and staging-bucket worker threads.
//!
//! Submission exports each rank's intermediate as an RDMA-able region
//! on that rank's DART endpoint and pushes a *data-ready* descriptor
//! into the scheduler; the simulation moves on immediately — it pays
//! only the (cheap) send initiation. Bucket threads issue
//! *bucket-ready* requests, receive descriptors FCFS, pull every rank's
//! payload directly from the producers' exported memory via `rdma_get`,
//! aggregate, and retire the task. Successive steps naturally land on
//! different buckets (temporal multiplexing).
//!
//! Release and back-pressure: a rank frees a payload once a bucket has
//! pulled it — at its next submission it reads the pull's source-side
//! completion (DART's `GetServed`) and unexports the region. What no
//! bucket has pulled stays in a bounded ring per analysis
//! ([`crate::PipelineConfig::staging_buffer_depth`] of its due steps,
//! whatever its interval); if the staging area falls that far behind,
//! the oldest payloads are withdrawn and the overrun tasks retire as
//! dropped — the same signal a real staging deployment must watch.

use super::{BackendCaps, BackendStats, RetireCtx, Retired, StagedTask, StagingBackend};
use bytes::Bytes;
use sitra_dart::{Endpoint, EndpointId, Event, Fabric, RegionKey};
use sitra_dataspaces::{AutoscaleConfig, AutoscaleHandle, BucketHandle, Scheduler};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CAPS: BackendCaps = BackendCaps {
    name: "local",
    placement: "hybrid",
    in_transit: true,
    ships_data: true,
};

/// One in-transit task: which analysis, which step, where the payloads
/// live.
struct TaskDesc {
    analysis_idx: usize,
    step: u64,
    issued: Instant,
    parts: Vec<(usize, EndpointId, RegionKey)>,
}

fn region_key(analysis_idx: usize, step: u64) -> RegionKey {
    ((analysis_idx as u64 + 1) << 40) | (step & ((1 << 40) - 1))
}

/// The worker fleet shared between the backend and the grow callback
/// of its capacity controller: spawned bucket threads (joined at
/// close) and the next fresh bucket id.
struct Fleet {
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: u32,
}

/// In-process staging buckets fed through the scheduler and the DART
/// fabric (the default hybrid backend). With
/// [`crate::PipelineConfig::with_bucket_autoscale`] the pool is
/// elastic: the scheduler's capacity controller
/// ([`Scheduler::autoscale`]) grows it under sustained backlog — its
/// grow callback spawns bucket threads into the fleet — and
/// drains-then-retires idle buckets inside the SLO.
pub struct LocalBackend {
    ctx: RetireCtx,
    scheduler: Scheduler<TaskDesc>,
    rank_endpoints: Vec<Endpoint>,
    fleet: Arc<Mutex<Fleet>>,
    /// The capacity controller, if the pool is elastic; dropped (which
    /// joins it) before the scheduler closes.
    autoscale: Option<AutoscaleHandle>,
    /// Buckets signal here once per task retired (completed or
    /// dropped), so [`drain`](StagingBackend::drain) blocks instead of
    /// polling. Every sender lives in a bucket or in the grow
    /// callback, so it disconnects once the whole fleet has exited.
    done_rx: crossbeam::channel::Receiver<()>,
    /// Per analysis, the regions its last due steps exported on every
    /// rank, oldest first: the back-pressure ring. A key stays here
    /// after a pull released its region.
    exported: Vec<VecDeque<RegionKey>>,
    buffer_depth: u64,
    outstanding: usize,
    submitted: usize,
}

/// Spawn one staging-bucket thread.
fn spawn_bucket(
    scheduler: &Scheduler<TaskDesc>,
    fabric: &Arc<Fabric>,
    ctx: &RetireCtx,
    done_tx: &crossbeam::channel::Sender<()>,
    b: u32,
) -> std::thread::JoinHandle<()> {
    let bucket = scheduler.register_bucket(b);
    let ep = fabric.register();
    let ctx = ctx.clone();
    let done = done_tx.clone();
    std::thread::Builder::new()
        .name(format!("bucket-{b}"))
        .spawn(move || bucket_loop(bucket, ep, b, &ctx, &done))
        .expect("spawn bucket")
}

impl LocalBackend {
    /// Spawn `buckets.max(1)` staging-bucket threads against `fabric`
    /// and register one producer endpoint per rank. With `autoscale`
    /// set, `min_buckets` threads start instead and a controller grows
    /// and shrinks the fleet between the configured bounds.
    pub fn new(
        ctx: RetireCtx,
        fabric: &Arc<Fabric>,
        n_ranks: usize,
        buckets: usize,
        buffer_depth: u64,
        autoscale: Option<AutoscaleConfig>,
    ) -> Self {
        let scheduler: Scheduler<TaskDesc> = Scheduler::new();
        let rank_endpoints: Vec<Endpoint> = (0..n_ranks).map(|_| fabric.register()).collect();
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<()>();
        let initial = match &autoscale {
            Some(cfg) => cfg.min_buckets,
            None => buckets.max(1),
        };
        let workers: Vec<_> = (0..initial)
            .map(|b| spawn_bucket(&scheduler, fabric, &ctx, &done_tx, b as u32))
            .collect();
        let fleet = Arc::new(Mutex::new(Fleet {
            workers,
            next_id: initial as u32,
        }));
        let autoscale = autoscale.map(|cfg| {
            let sched = scheduler.clone();
            let (fabric, ctx, done_tx) = (Arc::clone(fabric), ctx.clone(), done_tx.clone());
            let fleet = Arc::clone(&fleet);
            scheduler.autoscale(cfg, move |k| {
                let mut f = fleet.lock().expect("fleet lock");
                for _ in 0..k {
                    let b = f.next_id;
                    f.next_id += 1;
                    let h = spawn_bucket(&sched, &fabric, &ctx, &done_tx, b);
                    f.workers.push(h);
                }
            })
        });
        LocalBackend {
            exported: vec![VecDeque::new(); ctx.analyses().len()],
            ctx,
            scheduler,
            rank_endpoints,
            fleet,
            autoscale,
            done_rx,
            buffer_depth,
            outstanding: 0,
            submitted: 0,
        }
    }
}

impl StagingBackend for LocalBackend {
    fn caps(&self) -> BackendCaps {
        CAPS
    }

    fn submit(&mut self, task: StagedTask) -> f64 {
        // Stash the in-situ half of the metrics before the task becomes
        // visible: the bucket that completes it fills in the rest and
        // must find the row even when it wins the race with this
        // thread.
        self.ctx.record_insitu(&task, &CAPS, true);
        // Release every payload a bucket has pulled: DART's source-side
        // completion (`GetServed`) tells a rank its region is free. A
        // region the ring already withdrew unexports as a no-op.
        for ep in &self.rank_endpoints {
            while let Some(ev) = ep.try_event() {
                if let Event::GetServed { key, .. } = ev {
                    ep.unexport(key);
                }
            }
        }
        // Export payloads and withdraw the analysis's oldest once its
        // ring holds more than the buffer depth: the back-pressure ring,
        // which frees what no bucket has pulled.
        let key = region_key(task.analysis_idx, task.step);
        let ring = &mut self.exported[task.analysis_idx];
        ring.push_back(key);
        let stale = if ring.len() as u64 > self.buffer_depth {
            ring.pop_front()
        } else {
            None
        };
        let mut parts = Vec::with_capacity(task.parts.len());
        for (r, payload) in &task.parts {
            let ep = &self.rank_endpoints[*r];
            ep.export(key, payload.clone());
            if let Some(stale) = stale {
                ep.unexport(stale);
            }
            parts.push((*r, ep.id(), key));
        }
        self.scheduler
            .submit(TaskDesc {
                analysis_idx: task.analysis_idx,
                step: task.step,
                issued: task.issued,
                parts,
            })
            .seq()
            .expect("the local scheduler admits every task");
        self.outstanding += 1;
        self.submitted += 1;
        0.0
    }

    fn drain(&mut self) -> f64 {
        let t0 = Instant::now();
        // Block until every submitted task was either completed or
        // dropped; each retirement sends exactly one token. A
        // disconnect means every bucket exited early, in which case
        // nothing further can arrive.
        for _ in 0..self.outstanding {
            if self.done_rx.recv().is_err() {
                break;
            }
        }
        self.outstanding = 0;
        t0.elapsed().as_secs_f64()
    }

    fn close(&mut self) -> BackendStats {
        // Controller first, so no new buckets spawn under the closing
        // scheduler; then close (which unparks every idle bucket) and
        // join the whole fleet, dynamically spawned threads included.
        self.autoscale = None;
        self.scheduler.close();
        let workers = std::mem::take(&mut self.fleet.lock().expect("fleet lock").workers);
        for w in workers {
            let _ = w.join();
        }
        let stats = self.scheduler.stats();
        BackendStats {
            submitted: self.submitted,
            max_queue_depth: stats.max_queue_depth,
        }
    }
}

fn bucket_loop(
    bucket: BucketHandle<TaskDesc>,
    ep: Endpoint,
    bucket_id: u32,
    ctx: &RetireCtx,
    done: &crossbeam::channel::Sender<()>,
) {
    while let Some((_seq, task)) = bucket.request_task() {
        let spec = &ctx.analyses()[task.analysis_idx];
        // Pull every payload from the producers' memory. A get is served
        // before `rdma_get` returns, so its completion is already the
        // next event on this bucket's queue. Streaming aggregation, when
        // the analysis supports it, combines each payload as it lands;
        // otherwise all parts are buffered and aggregated at once.
        let mut streaming = spec.analysis.streaming_aggregator(task.step);
        let streamed = streaming.is_some();
        let mut parts: Vec<(usize, Bytes)> = Vec::with_capacity(task.parts.len());
        let mut movement_sim = 0.0;
        let mut aggregate_secs = 0.0;
        let mut overrun = false;
        for (rank, peer, key) in &task.parts {
            if ep.rdma_get(*peer, *key).is_err() {
                // Producer already withdrew this step (back-pressure).
                overrun = true;
                break;
            }
            let Some(Event::GetComplete { data, sim_time, .. }) = ep.try_event() else {
                panic!("bucket {bucket_id}: an issued get left no completion");
            };
            movement_sim += sim_time;
            match &mut streaming {
                Some(agg) => {
                    let t = Instant::now();
                    agg.feed(*rank, data);
                    aggregate_secs += t.elapsed().as_secs_f64();
                }
                None => parts.push((*rank, data)),
            }
        }
        if overrun {
            ctx.retire(Retired::Dropped);
            let _ = done.send(());
            continue;
        }
        let t_agg = Instant::now();
        let output = match streaming {
            Some(agg) => agg.finish(),
            None => {
                parts.sort_by_key(|(r, _)| *r);
                spec.analysis.aggregate(task.step, &parts)
            }
        };
        aggregate_secs += t_agg.elapsed().as_secs_f64();
        ctx.retire(Retired::Completed {
            analysis_idx: task.analysis_idx,
            step: task.step,
            output,
            aggregate_secs,
            bucket: Some(bucket_id),
            streamed,
            latency_secs: task.issued.elapsed().as_secs_f64(),
            movement_sim_secs: movement_sim,
            in_transit: true,
        });
        let _ = done.send(());
    }
    ep.unregister();
}

#[cfg(test)]
mod tests {
    use super::super::tests::task_of;
    use super::*;
    use crate::analysis::HybridStats;
    use crate::placement::{AnalysisSpec, Placement};
    use sitra_dart::NetworkModel;

    const RANKS: usize = 4;

    #[test]
    fn producer_endpoints_hold_at_most_one_window_of_events() {
        const DEPTH: u64 = 4;
        let ctx = RetireCtx::new(
            vec![AnalysisSpec::new(
                Arc::new(HybridStats::default()),
                Placement::Hybrid,
                1,
            )],
            None,
        );
        let fabric = Fabric::new(NetworkModel::gemini());
        let mut backend = LocalBackend::new(ctx.clone(), &fabric, RANKS, 2, DEPTH, None);
        // Retiring each step before the next one is submitted completes
        // every task, so each one leaves a `GetServed` on every rank.
        for step in 1..=200 {
            backend.submit(task_of(&ctx, step, RANKS));
            backend.drain();
        }
        assert_eq!(ctx.dropped_tasks(), 0);
        for ep in &backend.rank_endpoints {
            let mut held = 0;
            while let Some(ev) = ep.try_event() {
                assert!(matches!(ev, Event::GetServed { .. }), "{ev:?}");
                held += 1;
            }
            assert!(
                held <= DEPTH,
                "rank endpoint {} held {held} events",
                ep.id()
            );
        }
        assert_eq!(backend.close().submitted, 200);
        assert_eq!(ctx.take_outputs().len(), 200);
    }

    #[test]
    fn a_pulled_payload_is_released_at_the_next_submit() {
        // Every task retires before the next submit, so all that is
        // still exported after a submit is the step it just exported;
        // the ring alone would keep min(step, depth).
        const DEPTH: u64 = 16;
        let ctx = RetireCtx::new(
            vec![AnalysisSpec::new(
                Arc::new(HybridStats::default()),
                Placement::Hybrid,
                1,
            )],
            None,
        );
        let fabric = Fabric::new(NetworkModel::gemini());
        let mut backend = LocalBackend::new(ctx.clone(), &fabric, RANKS, 2, DEPTH, None);
        for step in 1..=40 {
            backend.submit(task_of(&ctx, step, RANKS));
            for ep in &backend.rank_endpoints {
                let held = (1..=step)
                    .filter(|&s| ep.read_region(region_key(0, s)).is_some())
                    .count();
                assert_eq!(held, 1, "rank endpoint {} at step {step}", ep.id());
            }
            backend.drain();
        }
        assert_eq!(ctx.dropped_tasks(), 0);
        assert_eq!(backend.close().submitted, 40);
        assert_eq!(ctx.take_outputs().len(), 40);
    }

    #[test]
    fn an_interval_that_does_not_divide_the_depth_still_withdraws() {
        // Interval 3 against depth 4: `step - depth` is never a due
        // step, so only a ring of the analysis's own exports bounds it.
        const DEPTH: u64 = 4;
        let ctx = RetireCtx::new(
            vec![AnalysisSpec::new(
                Arc::new(HybridStats::default()),
                Placement::Hybrid,
                3,
            )],
            None,
        );
        let fabric = Fabric::new(NetworkModel::gemini());
        let mut backend = LocalBackend::new(ctx.clone(), &fabric, RANKS, 2, DEPTH, None);
        let steps: Vec<u64> = (1..=100).map(|k| 3 * k).collect();
        for (i, &step) in steps.iter().enumerate() {
            backend.submit(task_of(&ctx, step, RANKS));
            for ep in &backend.rank_endpoints {
                let held = steps[..=i]
                    .iter()
                    .filter(|&&s| ep.read_region(region_key(0, s)).is_some())
                    .count();
                assert!(
                    held as u64 <= DEPTH,
                    "rank endpoint {} holds {held} regions at step {step}",
                    ep.id()
                );
            }
            backend.drain();
        }
        assert_eq!(ctx.dropped_tasks(), 0);
        assert_eq!(backend.close().submitted, 100);
        let mut got: Vec<u64> = ctx.take_outputs().iter().map(|o| o.1).collect();
        got.sort_unstable();
        assert_eq!(got, steps);
    }
}
