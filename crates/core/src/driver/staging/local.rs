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
//! Back-pressure: producers retain a bounded ring of exported step
//! payloads ([`crate::PipelineConfig::staging_buffer_depth`]); if the
//! staging area falls that far behind, the oldest payloads are
//! withdrawn and the overrun tasks retire as dropped — the same signal
//! a real staging deployment must watch.

use super::{BackendCaps, BackendStats, RetireCtx, Retired, StagedTask, StagingBackend};
use bytes::Bytes;
use sitra_dart::{Endpoint, EndpointId, Event, Fabric, RegionKey};
use sitra_dataspaces::{AutoscaleConfig, Autoscaler, BucketHandle, ScaleDecision, Scheduler};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

/// How often the capacity controller re-evaluates the pool. Short
/// enough that a backlog burst is answered within a few SLO windows at
/// laptop scale; the [`Autoscaler`]'s sustain hysteresis keeps the
/// short tick from thrashing.
const AUTOSCALE_TICK: Duration = Duration::from_millis(20);

/// The worker fleet shared between the backend and its capacity
/// controller: spawned bucket threads (joined at close) and the next
/// fresh bucket id.
struct Fleet {
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: u32,
}

/// In-process staging buckets fed through the scheduler and the DART
/// fabric (the default hybrid backend). With
/// [`crate::PipelineConfig::with_bucket_autoscale`] the pool is
/// elastic: a controller thread grows it under sustained backlog and
/// drains-then-retires idle buckets inside the SLO.
pub struct LocalBackend {
    ctx: RetireCtx,
    scheduler: Scheduler<TaskDesc>,
    rank_endpoints: Vec<Endpoint>,
    fleet: Arc<Mutex<Fleet>>,
    controller: Option<std::thread::JoinHandle<()>>,
    /// Dropped to stop the controller: its tick is a timed wait on the
    /// other end.
    controller_stop: Option<crossbeam::channel::Sender<()>>,
    /// Buckets signal here once per task retired (completed or
    /// dropped), so [`drain`](StagingBackend::drain) blocks instead of
    /// polling.
    done_rx: crossbeam::channel::Receiver<()>,
    /// Kept open for the controller to hand to freshly spawned buckets;
    /// dropped at close so `done_rx` disconnects when the fleet exits.
    done_tx: Option<crossbeam::channel::Sender<()>>,
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
        let (controller_stop, stop) = crossbeam::channel::bounded::<()>(1);
        let controller = autoscale.map(|cfg| {
            scheduler.set_pool_target(Some(cfg.min_buckets));
            let scheduler = scheduler.clone();
            let fabric = Arc::clone(fabric);
            let ctx = ctx.clone();
            let done_tx = done_tx.clone();
            let fleet = Arc::clone(&fleet);
            std::thread::Builder::new()
                .name("bucket-autoscaler".into())
                .spawn(move || {
                    controller_loop(cfg, &scheduler, &fabric, &ctx, &done_tx, &fleet, &stop)
                })
                .expect("spawn autoscaler")
        });
        // Fixed pool: drop the sender now so `done_rx` disconnects if
        // every bucket exits early (the pre-elastic safety valve in
        // `drain`). Elastic pool: the controller needs it to equip
        // freshly spawned buckets, so it lives until close.
        let done_tx = controller.is_some().then_some(done_tx);
        LocalBackend {
            ctx,
            scheduler,
            rank_endpoints,
            fleet,
            controller,
            controller_stop: Some(controller_stop),
            done_rx,
            done_tx,
            buffer_depth,
            outstanding: 0,
            submitted: 0,
        }
    }
}

/// The capacity controller: tick, snapshot the pool, apply the
/// [`Autoscaler`]'s verdict. Growth spawns fresh bucket threads;
/// shrinkage drains the most dispensable bucket (idle preferred) and
/// lets its thread retire itself on the next lease. Every scale action
/// lands in the journal as a `pool.scale` event so `sitra-bench` replay
/// can reconstruct the capacity timeline.
fn controller_loop(
    cfg: AutoscaleConfig,
    scheduler: &Scheduler<TaskDesc>,
    fabric: &Arc<Fabric>,
    ctx: &RetireCtx,
    done_tx: &crossbeam::channel::Sender<()>,
    fleet: &Arc<Mutex<Fleet>>,
    stop: &crossbeam::channel::Receiver<()>,
) {
    let mut scaler = Autoscaler::new(cfg);
    // One tick per timeout; the backend dropping its end is the stop.
    while let Err(crossbeam::channel::RecvTimeoutError::Timeout) = stop.recv_timeout(AUTOSCALE_TICK)
    {
        let snap = scheduler.pool_snapshot();
        match scaler.decide(&snap) {
            ScaleDecision::Hold => {}
            ScaleDecision::Grow(k) => {
                let mut f = fleet.lock().expect("fleet lock");
                for _ in 0..k {
                    let b = f.next_id;
                    f.next_id += 1;
                    let h = spawn_bucket(scheduler, fabric, ctx, done_tx, b);
                    f.workers.push(h);
                }
                scheduler.set_pool_target(Some(snap.buckets + k));
                sitra_obs::emit(
                    "sched",
                    "pool.scale",
                    &[
                        ("action", "grow".to_string()),
                        ("delta", k.to_string()),
                        ("buckets", (snap.buckets + k).to_string()),
                        ("queue_depth", snap.queue_depth.to_string()),
                        ("p99_us", snap.p99_wait.as_micros().to_string()),
                    ],
                );
            }
            ScaleDecision::Shrink(k) => {
                let mut drained = 0usize;
                for _ in 0..k {
                    if scheduler.drain_one_bucket().is_some() {
                        drained += 1;
                    }
                }
                if drained > 0 {
                    scheduler.set_pool_target(Some(snap.buckets.saturating_sub(drained)));
                    sitra_obs::emit(
                        "sched",
                        "pool.scale",
                        &[
                            ("action", "shrink".to_string()),
                            ("delta", drained.to_string()),
                            ("buckets", snap.buckets.saturating_sub(drained).to_string()),
                            ("queue_depth", snap.queue_depth.to_string()),
                            ("p99_us", snap.p99_wait.as_micros().to_string()),
                        ],
                    );
                }
            }
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
        // Export payloads and withdraw stale ones (the back-pressure
        // ring).
        let key = region_key(task.analysis_idx, task.step);
        let mut parts = Vec::with_capacity(task.parts.len());
        for (r, payload) in &task.parts {
            self.rank_endpoints[*r].export(key, payload.clone());
            if task.step > self.buffer_depth {
                self.rank_endpoints[*r]
                    .unexport(region_key(task.analysis_idx, task.step - self.buffer_depth));
            }
            parts.push((*r, self.rank_endpoints[*r].id(), key));
        }
        self.scheduler.submit(TaskDesc {
            analysis_idx: task.analysis_idx,
            step: task.step,
            issued: task.issued,
            parts,
        });
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
        self.controller_stop = None;
        if let Some(c) = self.controller.take() {
            let _ = c.join();
        }
        self.scheduler.close();
        self.done_tx = None;
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
        // Pull every payload from the producers' memory.
        let mut pending = std::collections::HashMap::new();
        let mut overrun = false;
        for (rank, peer, key) in &task.parts {
            match ep.rdma_get(*peer, *key) {
                Ok(id) => {
                    pending.insert(id, *rank);
                }
                Err(_) => {
                    // Producer already withdrew this step (back-pressure).
                    overrun = true;
                    break;
                }
            }
        }
        if overrun {
            ctx.retire(Retired::Dropped);
            let _ = done.send(());
            continue;
        }
        // Streaming aggregation when the analysis supports it: payloads
        // are combined the moment each pull completes, overlapping the
        // aggregation with the remaining transfers. Otherwise buffer all
        // parts and aggregate at once.
        let mut streaming = spec.analysis.streaming_aggregator(task.step);
        let streamed = streaming.is_some();
        let mut parts: Vec<(usize, Bytes)> = Vec::with_capacity(pending.len());
        let mut movement_sim = 0.0;
        let mut aggregate_secs = 0.0;
        let mut failed_mid_pull = false;
        while !pending.is_empty() {
            match ep.poll_event(Duration::from_secs(30)) {
                Some(Event::GetComplete {
                    id, data, sim_time, ..
                }) => {
                    if let Some(rank) = pending.remove(&id) {
                        movement_sim += sim_time;
                        match &mut streaming {
                            Some(agg) => {
                                let t = Instant::now();
                                agg.feed(rank, data);
                                aggregate_secs += t.elapsed().as_secs_f64();
                            }
                            None => parts.push((rank, data)),
                        }
                    }
                }
                Some(Event::GetFailed { id, .. }) => {
                    // A producer withdrew the region mid-pull: the task is
                    // a staging overrun.
                    if pending.remove(&id).is_some() {
                        failed_mid_pull = true;
                    }
                    if pending.is_empty() {
                        break;
                    }
                }
                Some(_) => {}
                None => panic!("bucket {bucket_id}: transfer timed out"),
            }
        }
        if failed_mid_pull {
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
