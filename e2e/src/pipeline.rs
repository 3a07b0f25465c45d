//! The four pipeline workloads: rosters, staging services, and one
//! pass — set-up, `run_pipeline`, tear-down — with its checks.

use crate::probe::{Board, Entry, Probe};
use bytes::Bytes;
use sitra_cluster::{Bootstrap, ClusterNode, ClusterNodeOpts};
use sitra_core::remote::{run_bucket_worker, run_cluster_bucket_worker, BucketWorkerOpts};
use sitra_core::wire::{self, encode_analysis_output};
use sitra_core::{
    run_pipeline, Analysis, AnalysisSpec, HybridStats, HybridTopology, HybridViz, InSituViz,
    PipelineConfig, PipelineResult, Placement, StagingMode,
};
use sitra_dataspaces::{SchedStats, SpaceServer};
use sitra_mesh::BBox3;
use sitra_net::Addr;
use sitra_sim::{SimConfig, Simulation};
use sitra_viz::{TransferFunction, View, ViewAxis};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rank grid of every pipeline workload.
pub const PARTS: [usize; 3] = [2, 2, 1];
/// Steps re-run fully in-situ and compared byte for byte.
pub const GOLDEN_STEPS: usize = 8;

/// Where the hybrid analyses of a workload aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One `SpaceServer` on `tcp://127.0.0.1:0` and this many bucket
    /// workers.
    Tcp { workers: usize },
    /// `StagingMode::Local` with this many in-process buckets.
    Local { buckets: usize },
    /// Three `ClusterNode`s over `inproc://` and one cluster worker.
    Cluster3,
}

/// Which analyses a workload registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    Stats,
    Topology,
    Viz,
    /// The five-analysis roster of `benches/pipeline.rs`.
    Mixed,
}

/// A closed-loop pipeline workload: one simulation driver whose next
/// step waits on the in-situ stages, the ship and the in-flight window.
#[derive(Debug, Clone, Copy)]
pub struct PipelineWorkload {
    pub dims: [usize; 3],
    pub roster: Roster,
    pub backend: Backend,
    /// Steps of the same `run_pipeline` call whose stamps are discarded.
    pub warmup: usize,
    /// Timed steps per second of `--seconds` on the 2-core reference
    /// box. A constant, so that every commit is measured on the same
    /// amount of work and a faster commit simply finishes sooner.
    pub steps_per_second: f64,
}

/// One roster entry with what the hand-stepped replay needs to know
/// about it.
pub struct RosterEntry {
    pub spec: AnalysisSpec,
    /// The kernel crate its stages run in.
    pub layer: &'static str,
    /// Decoder of its intermediate (the worker-side half of the codec).
    pub decode_part: fn(Bytes),
}

impl PipelineWorkload {
    pub fn timed_steps(&self, seconds: f64) -> usize {
        ((seconds * self.steps_per_second).round() as usize).max(20)
    }

    pub fn roster(&self) -> Vec<RosterEntry> {
        let view = || View::full_res(BBox3::from_dims(self.dims), ViewAxis::Z, false);
        let tf = || TransferFunction::hot(250.0, 2500.0);
        let entry =
            |analysis: Arc<dyn Analysis>, placement, label: &str, layer, decode_part: fn(Bytes)| {
                RosterEntry {
                    spec: AnalysisSpec::new(analysis, placement, 1).with_label(label),
                    layer,
                    decode_part,
                }
            };
        let stats = |placement, label| {
            entry(
                Arc::new(HybridStats::default()),
                placement,
                label,
                "stats",
                |b| drop(wire::decode_multimodel(b)),
            )
        };
        let topology = || {
            entry(
                Arc::new(HybridTopology::default()),
                Placement::Hybrid,
                "topology",
                "topology",
                |b| drop(wire::decode_subtree(b)),
            )
        };
        let viz_hybrid = || {
            entry(
                Arc::new(HybridViz {
                    stride: 2,
                    view: view(),
                    tf: tf(),
                }),
                Placement::Hybrid,
                "viz-hybrid",
                "viz",
                |b| drop(wire::decode_sampled_block(b)),
            )
        };
        match self.roster {
            Roster::Stats => vec![stats(Placement::Hybrid, "stats")],
            Roster::Topology => vec![topology()],
            Roster::Viz => vec![viz_hybrid()],
            Roster::Mixed => vec![
                entry(
                    Arc::new(InSituViz {
                        view: view(),
                        tf: tf(),
                    }),
                    Placement::InSitu,
                    "viz-insitu",
                    "viz",
                    |b| drop(wire::decode_partial_image(b)),
                ),
                viz_hybrid(),
                stats(Placement::InSitu, "stats-insitu"),
                stats(Placement::Hybrid, "stats-hybrid"),
                topology(),
            ],
        }
    }

    /// Threads this workload runs beside the driver and its rayon pool.
    pub fn staging_threads(&self) -> usize {
        match self.backend {
            Backend::Tcp { workers } => workers,
            Backend::Local { buckets } => buckets,
            Backend::Cluster3 => 1,
        }
    }

    /// Client connections the driver and the workers hold open.
    pub fn connections(&self) -> usize {
        match self.backend {
            Backend::Tcp { workers } => 1 + workers,
            Backend::Local { .. } => 0,
            Backend::Cluster3 => 2 * 3,
        }
    }
}

/// A fresh `inproc://` name: unique in this process and, through the
/// pid, on the host.
pub fn inproc_addr(tag: &str) -> Addr {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("inproc://e2e-{}-{tag}-{n}", std::process::id())
        .parse()
        .expect("a well-formed inproc address")
}

pub fn tcp_any() -> Addr {
    "tcp://127.0.0.1:0"
        .parse()
        .expect("a well-formed tcp address")
}

/// Three cluster members seeded with each other over `inproc://`.
pub fn start_cluster3() -> Result<Vec<ClusterNode>, String> {
    let listens: Vec<Addr> = (0..3).map(|_| inproc_addr("member")).collect();
    let seeds: Vec<String> = listens.iter().map(Addr::to_string).collect();
    let nodes = listens
        .iter()
        .map(|l| {
            ClusterNode::start(
                l,
                Bootstrap::Seeds(seeds.clone()),
                ClusterNodeOpts::default(),
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cluster start: {e}"))?;
    // Seeded members agree from the start; wait until each reports it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while nodes.iter().any(|n| n.view().members.len() != 3) {
        if Instant::now() > deadline {
            return Err("cluster view did not converge on three members".into());
        }
        std::thread::yield_now();
    }
    Ok(nodes)
}

/// The cluster worker polls its members in turn and splits one
/// `request_timeout` among them, so the default 500 ms parks it for
/// 167 ms on a member with nothing queued while tasks wait on the
/// others, and task latency then scatters over hundreds of
/// milliseconds. 60 ms — 20 ms per member, below the step period — is
/// what `cluster_scenario` runs its worker with.
fn cluster_worker_opts() -> BucketWorkerOpts {
    BucketWorkerOpts {
        request_timeout: Duration::from_millis(60),
        ..BucketWorkerOpts::default()
    }
}

/// The staging service of one pass, with its workers.
enum Service {
    None,
    Single(SpaceServer),
    Cluster(Vec<ClusterNode>),
}

/// What one `run_pipeline` call produced.
pub struct Pass {
    pub board: Arc<Board>,
    pub result: PipelineResult,
    /// Pass start to the first timed step.
    pub setup: Duration,
    pub wall: Duration,
    /// Scheduler counters of the staging service(s), summed.
    pub requeued: u64,
    pub max_queue_depth: usize,
}

/// Run `steps` steps of `wl` through its backend, stamped on a board.
pub fn run_pass(
    wl: &PipelineWorkload,
    seed: u64,
    steps: usize,
    traced: bool,
) -> Result<Pass, String> {
    let start = Instant::now();
    let roster = wl.roster();
    let entries: Vec<Entry> = roster
        .iter()
        .map(|r| Entry {
            label: r.spec.label.clone(),
            layer: r.layer,
            hybrid: r.spec.placement == Placement::Hybrid,
            interval: r.spec.interval,
        })
        .collect();
    let local = matches!(wl.backend, Backend::Local { .. });
    let board = Board::new(entries, steps, local, traced);
    let specs: Vec<AnalysisSpec> = roster
        .into_iter()
        .enumerate()
        .map(|(index, r)| AnalysisSpec {
            analysis: Arc::new(Probe {
                inner: r.spec.analysis,
                index,
                board: Arc::clone(&board),
            }),
            ..r.spec
        })
        .collect();

    let mut cfg = PipelineConfig::new(PARTS, wl.staging_threads(), steps);
    cfg.analyses = specs.clone();
    let hook_board = Arc::clone(&board);
    cfg = cfg.with_staging_output_hook(Arc::new(move |label, step| {
        hook_board.delivered(label, step)
    }));
    type Worker = std::thread::JoinHandle<Result<usize, String>>;
    let (service, workers): (Service, Vec<Worker>) = match wl.backend {
        Backend::Local { .. } => (Service::None, Vec::new()),
        Backend::Tcp { workers } => {
            let server = SpaceServer::start(&tcp_any(), 1).map_err(|e| e.to_string())?;
            let addr = server.addr();
            cfg.staging = StagingMode::Remote(addr.to_string());
            let handles = (0..workers as u32)
                .map(|id| {
                    let (addr, specs) = (addr.clone(), specs.clone());
                    std::thread::spawn(move || {
                        run_bucket_worker(&addr, &specs, id, &BucketWorkerOpts::default())
                            .map_err(|e| e.to_string())
                    })
                })
                .collect();
            (Service::Single(server), handles)
        }
        Backend::Cluster3 => {
            let nodes = start_cluster3()?;
            let endpoints: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
            cfg.staging = StagingMode::Cluster(endpoints.clone());
            let specs = specs.clone();
            let handle = std::thread::spawn(move || {
                run_cluster_bucket_worker(&endpoints, &specs, 0, &cluster_worker_opts())
                    .map_err(|e| e.to_string())
            });
            (Service::Cluster(nodes), vec![handle])
        }
    };

    let mut sim = Simulation::new(SimConfig::small(wl.dims, seed));
    let result = run_pipeline(&mut sim, &cfg).map_err(|e| e.to_string());

    // The driver closed the scheduler(s), which retires the workers.
    let sched: Vec<SchedStats> = match &service {
        Service::None => Vec::new(),
        Service::Single(s) => vec![s.sched_stats()],
        Service::Cluster(nodes) => nodes.iter().map(ClusterNode::sched_stats).collect(),
    };
    match service {
        Service::None => {}
        Service::Single(s) => s.shutdown(),
        Service::Cluster(nodes) => nodes.into_iter().for_each(ClusterNode::shutdown),
    }
    let mut worker_error = None;
    for w in workers {
        match w.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => worker_error = Some(format!("bucket worker: {e}")),
            Err(_) => worker_error = Some("bucket worker panicked".to_string()),
        }
    }
    let result = result?;
    if let Some(e) = worker_error {
        return Err(e);
    }
    let first_timed = board
        .step_entry(wl.warmup as u64 + 1)
        .ok_or("the first timed step was never stamped")?;
    let setup = board.epoch().duration_since(start) + Duration::from_nanos(first_timed);
    let max_queue_depth = match wl.backend {
        Backend::Local { .. } => result.metrics.max_queue_depth,
        _ => sched.iter().map(|s| s.max_queue_depth).max().unwrap_or(0),
    };
    Ok(Pass {
        board,
        result,
        setup,
        wall: start.elapsed(),
        requeued: sched.iter().map(|s| s.tasks_requeued).sum(),
        max_queue_depth,
    })
}

/// Outcome of checking one pass's outputs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Staged (hybrid) tasks submitted.
    pub attempted: usize,
    /// Staged tasks that were degraded, dropped, never delivered, or
    /// whose output is missing or differs from the in-situ run; plus
    /// in-situ-placed outputs that are missing or differ.
    pub failed: usize,
    pub degraded: usize,
    pub dropped: usize,
    /// Outputs of the first steps compared byte for byte.
    pub golden_compared: usize,
    pub golden_mismatches: usize,
    /// Every due `(label, step)` produced exactly one output.
    pub output_count_ok: bool,
}

impl Verdict {
    /// Add the counts of another segment of the same run.
    pub fn absorb(&mut self, other: &Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.degraded += other.degraded;
        self.dropped += other.dropped;
        self.golden_compared += other.golden_compared;
        self.golden_mismatches += other.golden_mismatches;
        self.output_count_ok &= other.output_count_ok;
    }
}

/// Check a pass: every due output present once, every staged task
/// delivered and aggregated once, and — with `golden` — the first
/// [`GOLDEN_STEPS`] steps byte-identical to the fully in-situ run of
/// the same seed.
pub fn verify(
    wl: &PipelineWorkload,
    seed: u64,
    pass: &Pass,
    golden: bool,
) -> Result<Verdict, String> {
    let board = &pass.board;
    let steps = board.steps() as u64;
    let golden_outputs = if golden {
        let golden_steps = GOLDEN_STEPS.min(board.steps());
        let mut cfg =
            PipelineConfig::new(PARTS, 1, golden_steps).with_staging_mode(StagingMode::InSitu);
        cfg.analyses = wl.roster().into_iter().map(|r| r.spec).collect();
        let mut sim = Simulation::new(SimConfig::small(wl.dims, seed));
        run_pipeline(&mut sim, &cfg)
            .map_err(|e| e.to_string())?
            .outputs
    } else {
        Vec::new()
    };

    let have: HashSet<(&str, u64)> = pass
        .result
        .outputs
        .iter()
        .map(|(l, s, _)| (l.as_str(), *s))
        .collect();
    let mut mismatched: HashSet<(&str, u64)> = HashSet::new();
    for (label, step, want) in &golden_outputs {
        let same = pass
            .result
            .output(label, *step)
            .is_some_and(|got| encode_analysis_output(got) == encode_analysis_output(want));
        if !same {
            mismatched.insert((label.as_str(), *step));
        }
    }

    let mut v = Verdict {
        degraded: pass.result.degraded_tasks,
        dropped: pass.result.dropped_tasks,
        golden_compared: golden_outputs.len(),
        golden_mismatches: mismatched.len(),
        ..Verdict::default()
    };
    let mut due = 0;
    for (a, e) in board.entries().iter().enumerate() {
        for step in (1..=steps).filter(|&s| board.due(a, s)) {
            due += 1;
            let label = e.label.as_str();
            let output_ok = have.contains(&(label, step)) && !mismatched.contains(&(label, step));
            let ok = if e.hybrid {
                v.attempted += 1;
                output_ok
                    && board.insight_ns(a, step).is_some()
                    && board.aggregate_calls(a, step) <= 1
            } else {
                output_ok
            };
            if !ok {
                v.failed += 1;
            }
        }
    }
    v.output_count_ok = pass.result.outputs.len() == due && have.len() == due;
    if !v.output_count_ok {
        v.failed = v.failed.max(1);
    }
    v.failed = v.failed.max(v.degraded + v.dropped);
    if pass.result.staged_tasks != v.attempted {
        return Err(format!(
            "the pipeline staged {} tasks where {} were due",
            pass.result.staged_tasks, v.attempted
        ));
    }
    Ok(v)
}
