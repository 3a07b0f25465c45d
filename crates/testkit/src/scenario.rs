//! The scenario runner: one seeded simulation, one staging backend,
//! one fault plan — and four invariant oracles checked afterwards.
//!
//! Every scenario follows the same shape:
//!
//! 1. A **golden run** (fully in-situ, fault-free, before any injector
//!    is installed) establishes the reference output set.
//! 2. The [`PlanInjector`] and a private journal sink are installed and
//!    the same seeded simulation is run through the backend under test
//!    — for `Remote` and `Cluster`, against live staging members (one or
//!    three) with an external bucket-worker thread and, when the plan
//!    says so, a scheduled member crash (optionally restarted on the
//!    same endpoint), instance loss, or pool resize.
//! 3. The oracles:
//!    * **conservation** — every due hybrid task was submitted exactly
//!      once and retired exactly once (`submitted == outputs + dropped`,
//!      no duplicate `(label, step)`, nothing staged off-schedule);
//!    * **no-loss** — nothing was dropped, and under
//!      `AdmissionPolicy::Block` nothing was shed either;
//!    * **golden-output** — when nothing was dropped, the output set is
//!      byte-identical to the fault-free golden run (degraded tasks are
//!      re-aggregated in-situ from the retained parts, so faults may
//!      slow a run down but never change what it computes);
//!    * **replay-identity** — an `obs_report`-style journal replay
//!      reproduces the live run's accounting bit-identically.

use crate::fixture;
use crate::injector::{PlanInjector, ScheduleEntry};
use crate::plan::{splitmix64, CrashPlan, FaultPlan};
use bytes::Bytes;
use parking_lot::Mutex;
use sitra_cluster::{Bootstrap, ClusterClient, ClusterNode, ClusterNodeOpts};
use sitra_core::{
    run_cluster_bucket_worker, run_pipeline, AnalysisSpec, BucketWorkerOpts, PipelineResult,
    Placement, StagingMode,
};
use sitra_dataspaces::{AdmissionPolicy, Scheduler, TenantRow, TenantSpec};
use sitra_net::{Addr, Backoff};
use sitra_obs::{ObsEvent, VecSink};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which `StagingBackend` a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Synchronous in-situ aggregation (`StagingMode::InSitu`).
    InSitu,
    /// In-process staging buckets (`StagingMode::Local`).
    Local,
    /// One staging member over the socket transport.
    Remote,
    /// A three-member `sitra-cluster` of staging instances, with shard
    /// routing and handoff.
    Cluster,
}

impl Backend {
    /// The backends with at most one staging member, in the order the
    /// chaos suite runs them. `Cluster` stays out of this list on
    /// purpose: the pinned chaos corpus predates it, and its seeds must
    /// keep mapping to the exact same `(backend, plan)` pairs. Cluster
    /// scenarios opt in explicitly (`--backend cluster`,
    /// `tests/cluster.rs`).
    pub const ALL: [Backend; 3] = [Backend::InSitu, Backend::Local, Backend::Remote];

    /// Stable name (CLI `--backend` values, artifact file names).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::InSitu => "insitu",
            Backend::Local => "local",
            Backend::Remote => "remote",
            Backend::Cluster => "cluster",
        }
    }

    /// Parse a `--backend` value.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "insitu" => Some(Backend::InSitu),
            "local" => Some(Backend::Local),
            "remote" => Some(Backend::Remote),
            "cluster" => Some(Backend::Cluster),
            _ => None,
        }
    }

    /// Staging members the backend runs; 0 for the in-process ones.
    pub(crate) fn members(&self) -> usize {
        match self {
            Backend::InSitu | Backend::Local => 0,
            Backend::Remote => 1,
            Backend::Cluster => 3,
        }
    }
}

/// Everything a scenario run produced, oracles included.
pub struct ScenarioOutcome {
    /// Backend the scenario drove.
    pub backend: Backend,
    /// Plan it executed.
    pub plan: FaultPlan,
    /// Oracle violations — empty means the scenario passed.
    pub violations: Vec<String>,
    /// Tasks submitted to the staging backend.
    pub staged_tasks: usize,
    /// Tasks dropped (must stay 0 in this fixture).
    pub dropped_tasks: usize,
    /// Tasks that degraded to in-situ re-aggregation.
    pub degraded_tasks: usize,
    /// Total outputs produced.
    pub outputs: usize,
    /// The fault schedule the injector actually executed.
    pub schedule: Vec<ScheduleEntry>,
    /// The run's journal (for artifact upload on failure).
    pub events: Vec<ObsEvent>,
}

impl ScenarioOutcome {
    /// Did every oracle hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Process-unique suffix for remote endpoints, so concurrent or
/// repeated scenarios never collide on an inproc name.
pub(crate) fn unique_endpoint(seed: u64) -> Addr {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("inproc://chaos-{seed:x}-{n}")
        .parse()
        .expect("addr")
}

/// One resilient external bucket worker on `bucket_id` over the member
/// list `endpoints` (one entry for a lone member): it
/// round-robins task requests across members, reconnects through
/// transient faults while the scenario is live, and exits once every
/// surviving scheduler closes or any member retires the bucket.
///
/// `specs` must be the driver's analysis roster in the same order (task
/// descriptors index into it) — the scenario matrix runs a larger
/// roster than the frozen chaos fixture.
pub(crate) fn spawn_worker(
    endpoints: &[String],
    specs: Vec<AnalysisSpec>,
    bucket_id: u32,
    stop: &Arc<AtomicBool>,
) -> JoinHandle<usize> {
    let eps = endpoints.to_vec();
    let stop = Arc::clone(stop);
    std::thread::Builder::new()
        .name(format!("chaos-bucket-{bucket_id}"))
        .spawn(move || {
            let opts = BucketWorkerOpts {
                backoff: WORKER_BACKOFF,
                request_timeout: Duration::from_millis(100),
                location: None,
            };
            let mut completed = 0usize;
            loop {
                match run_cluster_bucket_worker(&eps, &specs, bucket_id, &opts) {
                    Ok(n) => {
                        completed += n;
                        break; // scheduler closed or bucket retired
                    }
                    Err(e) if e.is_retryable() && !stop.load(Ordering::SeqCst) => {
                        continue; // server crash/partition: redial
                    }
                    Err(_) => break,
                }
            }
            completed
        })
        .expect("spawn worker")
}

/// Reconnect policy of the scenario's workers and rival client: short,
/// so a crashed server is noticed within a fault plan's time scale.
const WORKER_BACKOFF: Backoff = Backoff {
    initial: Duration::from_millis(5),
    max: Duration::from_millis(40),
    attempts: 4,
};

/// Bucket ids for workers a [`ScaleEvent`](crate::ScaleEvent) spawns
/// mid-run, offset so they never collide with the scenario's primary
/// worker (bucket 0).
const SCALE_BUCKET_BASE: u32 = 100;

/// The admission policy a plan's seed selects for its staging members
/// (kept out of `FaultPlan` itself: admission is server configuration,
/// not a network fault — but varying it across seeds is free coverage).
pub fn admission_for(plan: &FaultPlan) -> (Option<usize>, AdmissionPolicy) {
    match splitmix64(plan.seed ^ 0xAD15_510A) % 3 {
        0 => (
            Some(4),
            AdmissionPolicy::Block {
                max_wait: Duration::from_millis(500),
            },
        ),
        1 => (Some(3), AdmissionPolicy::RejectNew),
        _ => (Some(3), AdmissionPolicy::ShedOldest),
    }
}

/// The staging service of one scenario: `members` [`ClusterNode`]s on
/// unique inproc endpoints, seeded with each other — one member for
/// `Backend::Remote`, three for `Backend::Cluster`. The seed list is
/// static: clients route over it regardless of how the live view
/// evolves, so a killed member degrades tasks but never mis-routes them.
pub(crate) struct Staging {
    endpoints: Vec<String>,
    opts: ClusterNodeOpts,
    nodes: Mutex<Vec<Option<ClusterNode>>>,
}

impl Staging {
    /// Start `members` members, each with `opts` (the plan's admission
    /// or the run's tenants) and a 10 ms heartbeat.
    pub(crate) fn start(seed: u64, members: usize, opts: ClusterNodeOpts) -> Arc<Staging> {
        let opts = ClusterNodeOpts {
            heartbeat_every: Duration::from_millis(10),
            ..opts
        };
        let addrs: Vec<Addr> = (0..members).map(|_| unique_endpoint(seed)).collect();
        let endpoints: Vec<String> = addrs.iter().map(Addr::to_string).collect();
        let nodes = addrs
            .iter()
            .map(|a| {
                let bootstrap = Bootstrap::Seeds(endpoints.clone());
                Some(ClusterNode::start(a, bootstrap, opts.clone()).expect("start staging member"))
            })
            .collect();
        Arc::new(Staging {
            endpoints,
            opts,
            nodes: Mutex::new(nodes),
        })
    }

    /// The static member list every client routes over.
    pub(crate) fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// Kill member `member % members` outright: no handoff, its queued
    /// tasks die with it.
    fn kill(&self, member: usize) {
        let victim = self.nodes.lock()[member % self.endpoints.len()].take();
        if let Some(n) = victim {
            n.kill();
        }
    }

    /// The plan's scheduled crash: kill member `1 % members` and, when
    /// `restart`, start it again on the same endpoint with the same
    /// options. With other members it rejoins through member 0, which
    /// re-shards the ring and hands its shards back; a lone member
    /// re-founds from its seed list of one.
    fn crash(&self, restart: bool) {
        let victim = 1 % self.endpoints.len();
        self.kill(victim);
        if !restart {
            return;
        }
        let bootstrap = match self.endpoints.len() {
            1 => Bootstrap::Seeds(self.endpoints.clone()),
            _ => Bootstrap::Join(self.endpoints[0].clone()),
        };
        let addr: Addr = self.endpoints[victim].parse().expect("member endpoint");
        if let Ok(n) = ClusterNode::start(&addr, bootstrap, self.opts.clone()) {
            self.nodes.lock()[victim] = Some(n);
        }
    }

    /// The first surviving member's scheduler.
    fn scheduler(&self) -> Option<Scheduler<Bytes>> {
        let nodes = self.nodes.lock();
        nodes.iter().flatten().next().map(|n| n.scheduler().clone())
    }

    /// Stop every surviving member; closing their schedulers retires
    /// the workers.
    pub(crate) fn shutdown(&self) {
        let nodes: Vec<ClusterNode> = self
            .nodes
            .lock()
            .iter_mut()
            .flat_map(Option::take)
            .collect();
        nodes.into_iter().for_each(ClusterNode::shutdown);
    }
}

/// Run `action` on a thread of its own once the injector's virtual
/// clock reaches `tick`; the thread gives up if `stop` is raised first.
fn at_tick(
    injector: &Arc<PlanInjector>,
    stop: &Arc<AtomicBool>,
    tick: u64,
    name: &str,
    action: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    let injector = Arc::clone(injector);
    let stop = Arc::clone(stop);
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if injector.tick() >= tick {
                    action();
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
        .expect("spawn watchdog")
}

/// Run one scenario: `sim(seed)` through `backend` under `plan`, then
/// check every oracle. Panics never encode oracle failures — those
/// come back in [`ScenarioOutcome::violations`].
pub fn run_scenario(seed: u64, plan: &FaultPlan, backend: Backend) -> ScenarioOutcome {
    let _obs = sitra_obs::isolate();

    // Golden run: fault-free, fully in-situ, before the injector or the
    // journal sink exist.
    let golden = run_pipeline(
        &mut fixture::sim(seed),
        &fixture::config(2).with_staging_mode(StagingMode::InSitu),
    )
    .expect("golden run config");
    let golden_outputs = fixture::sorted_encoded_outputs(&golden);

    // Arm the harness.
    let sink = Arc::new(VecSink::new());
    let prev_sink = sitra_obs::install_sink(Some(sink.clone()));
    let injector = Arc::new(PlanInjector::new(plan.clone()));
    let prev_injector = sitra_net::install_fault_injector(Some(injector.clone()));

    let mut violations = Vec::new();
    let (capacity, policy) = admission_for(plan);
    let result = match backend {
        Backend::InSitu => run_pipeline(
            &mut fixture::sim(seed),
            &fixture::config(2).with_staging_mode(StagingMode::InSitu),
        )
        .expect("insitu config"),
        Backend::Local => {
            run_pipeline(&mut fixture::sim(seed), &fixture::config(2)).expect("local config")
        }
        Backend::Remote | Backend::Cluster => {
            let staging = Staging::start(
                seed,
                backend.members(),
                ClusterNodeOpts {
                    capacity,
                    policy,
                    ..ClusterNodeOpts::default()
                },
            );
            let endpoints = staging.endpoints().to_vec();

            // One resilient external bucket worker over every member:
            // it reconnects through transient faults, writes a member
            // off after repeated connection failures, and retires once
            // every surviving scheduler closes.
            let stop = Arc::new(AtomicBool::new(false));
            let worker = spawn_worker(&endpoints, fixture::specs(), 0, &stop);

            // Scheduled pool resize: grow spawns extra resilient workers
            // on fresh bucket ids; shrink drains and retires live
            // buckets on the first surviving member — the same elastic
            // path the autoscaler drives. On a cluster one member's
            // Retire lease retires the whole round-robin worker.
            let extra_workers: Arc<Mutex<Vec<JoinHandle<usize>>>> = Arc::default();
            let scale = plan.scale.map(|ev| {
                let (staging, extras) = (Arc::clone(&staging), Arc::clone(&extra_workers));
                let (eps, workers_stop) = (endpoints.clone(), Arc::clone(&stop));
                at_tick(&injector, &stop, ev.at_tick, "chaos-scale", move || {
                    if ev.delta > 0 {
                        let mut handles = extras.lock();
                        for i in 0..ev.delta as u32 {
                            let bucket = SCALE_BUCKET_BASE + i;
                            handles.push(spawn_worker(
                                &eps,
                                fixture::specs(),
                                bucket,
                                &workers_stop,
                            ));
                        }
                    } else if let Some(sched) = staging.scheduler() {
                        for _ in 0..-ev.delta {
                            sched.drain_one_bucket();
                        }
                    }
                })
            });

            // Instance loss: an abrupt kill of the planned member at its
            // tick, not a graceful leave.
            let loss = plan.instance_loss.map(|loss| {
                let staging = Arc::clone(&staging);
                at_tick(
                    &injector,
                    &stop,
                    loss.at_tick,
                    "chaos-instance-loss",
                    move || staging.kill(loss.member as usize),
                )
            });

            // Scheduled crash, fired from inside the driver's
            // collection path after N collected outputs.
            let mut cfg = fixture::config(2)
                .with_staging_cluster(endpoints)
                .with_staging_deadline(Duration::from_millis(700))
                .with_staging_max_inflight(2);
            if let Some(CrashPlan::AfterOutputs { outputs, restart }) = plan.crash {
                let staging = Arc::clone(&staging);
                let collected = AtomicUsize::new(0);
                cfg = cfg.with_staging_output_hook(Arc::new(move |_label, _step| {
                    if collected.fetch_add(1, Ordering::SeqCst) + 1 == outputs {
                        staging.crash(restart);
                    }
                }));
            }

            let result = run_pipeline(&mut fixture::sim(seed), &cfg).expect("staging config");

            // Tear down: stop the watchdogs, shut every surviving member
            // down, then join the workers.
            stop.store(true, Ordering::SeqCst);
            for w in [scale, loss].into_iter().flatten() {
                let _ = w.join();
            }
            staging.shutdown();
            if worker.join().is_err() {
                violations.push(format!("{}: bucket worker panicked", backend.name()));
            }
            let extras: Vec<_> = extra_workers.lock().drain(..).collect();
            for w in extras {
                if w.join().is_err() {
                    violations.push(format!("{}: scale-up worker panicked", backend.name()));
                }
            }
            result
        }
    };

    // Disarm before judging.
    sitra_net::install_fault_injector(prev_injector);
    let events = sink.take();
    sitra_obs::install_sink(prev_sink);

    violations.extend(oracle_violations(
        backend,
        &fixture::specs(),
        policy,
        &golden_outputs,
        &result,
        &events,
    ));
    ScenarioOutcome {
        backend,
        plan: plan.clone(),
        violations,
        staged_tasks: result.staged_tasks,
        dropped_tasks: result.dropped_tasks,
        degraded_tasks: result.degraded_tasks,
        outputs: result.outputs.len(),
        schedule: injector.schedule(),
        events,
    }
}

/// Oracles 1–4 over one run of the roster `specs`, given the fault-free
/// golden outputs and the run's journal. `policy` is the staging
/// service's admission policy; only the staging backends have one.
pub(crate) fn oracle_violations(
    backend: Backend,
    specs: &[AnalysisSpec],
    policy: AdmissionPolicy,
    golden_outputs: &[(String, u64, Vec<u8>)],
    result: &PipelineResult,
    events: &[ObsEvent],
) -> Vec<String> {
    let mut violations = Vec::new();

    // Oracle 1 — conservation. Every due hybrid task is submitted to
    // the backend exactly once; every submitted task retires exactly
    // once, and every retirement except Dropped leaves exactly one
    // output behind.
    let expected: usize = specs
        .iter()
        .filter(|s| s.placement == Placement::Hybrid)
        .map(|s| {
            (1..=fixture::STEPS as u64)
                .filter(|&step| s.due(step))
                .count()
        })
        .sum();
    if result.staged_tasks != expected {
        violations.push(format!(
            "conservation: staged {} tasks, roster is due {expected}",
            result.staged_tasks
        ));
    }
    let mut hybrid_outputs = 0usize;
    let mut seen: Vec<(String, u64)> = Vec::new();
    for (label, step, _) in &result.outputs {
        if seen.contains(&(label.clone(), *step)) {
            violations.push(format!("conservation: duplicate output for {label}@{step}"));
        }
        seen.push((label.clone(), *step));
        let Some(spec) = specs.iter().find(|s| &s.label == label) else {
            violations.push(format!("conservation: output for unknown label `{label}`"));
            continue;
        };
        if !spec.due(*step) {
            violations.push(format!(
                "conservation: {label}@{step} is off the interval schedule"
            ));
        }
        if spec.placement == Placement::Hybrid {
            hybrid_outputs += 1;
        }
    }
    if hybrid_outputs + result.dropped_tasks != result.staged_tasks {
        violations.push(format!(
            "conservation: {} hybrid outputs + {} dropped != {} staged",
            hybrid_outputs, result.dropped_tasks, result.staged_tasks
        ));
    }
    if result.degraded_tasks > result.staged_tasks {
        violations.push(format!(
            "conservation: {} degraded > {} staged",
            result.degraded_tasks, result.staged_tasks
        ));
    }

    // Oracle 2 — no-loss. The fixture's buffers and queue bounds are
    // sized so nothing may ever be dropped; and when the staging service
    // admits under `Block`, nothing may be shed either.
    if result.dropped_tasks != 0 {
        violations.push(format!("no-loss: {} tasks dropped", result.dropped_tasks));
    }
    if backend.members() > 0 && matches!(policy, AdmissionPolicy::Block { .. }) {
        let shed = sitra_obs::global().snapshot().counter("sched.tasks.shed");
        if shed != 0 {
            violations.push(format!(
                "no-loss: {shed} tasks shed under AdmissionPolicy::Block"
            ));
        }
    }

    // Oracle 3 — golden output. When no task was dropped, the output
    // set must be byte-identical to the fault-free golden run: degraded
    // tasks re-aggregate in-situ from the retained parts, so the
    // answer cannot change, only its latency.
    if result.dropped_tasks == 0 {
        let got = fixture::sorted_encoded_outputs(result);
        if got != golden_outputs {
            let detail = golden_outputs
                .iter()
                .zip(&got)
                .find(|(g, r)| g != r)
                .map(|(g, _)| format!("first divergence at {}@{}", g.0, g.1))
                .unwrap_or_else(|| {
                    format!(
                        "output count {} != golden {}",
                        got.len(),
                        golden_outputs.len()
                    )
                });
            violations.push(format!("golden-output: outputs diverge ({detail})"));
        }
    }

    // Oracle 4 — replay identity.
    let (placement, driver_aggregates) = match backend {
        Backend::InSitu => ("insitu", true),
        Backend::Local => ("hybrid", true),
        Backend::Remote | Backend::Cluster => ("hybrid-remote", false),
    };
    violations.extend(fixture::replay_violations(
        backend.name(),
        result,
        events,
        placement,
        driver_aggregates,
    ));
    violations
}

/// The driver pipeline's tenant in a multi-tenant scenario.
pub const SIM_TENANT: &str = "sim";
/// The competing producer's tenant in a multi-tenant scenario.
pub const RIVAL_TENANT: &str = "rival";

/// The per-tenant conservation oracle: every tenant's counters must
/// satisfy `submitted + requeued - assigned - shed == queued` (the
/// identity every scheduler transition preserves atomically), the
/// driver's traffic must all be attributed to [`SIM_TENANT`], the
/// rival's to [`RIVAL_TENANT`], none to the default tenant, and the
/// configured DRR weights must survive the run.
fn tenant_violations(
    rows: &[TenantRow],
    sim_staged: usize,
    rival_staged: usize,
    violations: &mut Vec<String>,
) {
    for t in rows {
        let balance = t.tasks_submitted + t.tasks_requeued;
        let retired = t.tasks_assigned + t.tasks_shed + t.queued;
        if balance != retired {
            violations.push(format!(
                "tenant-conservation[{}]: {} submitted + {} requeued != {} assigned + {} shed + {} queued",
                t.name, t.tasks_submitted, t.tasks_requeued, t.tasks_assigned, t.tasks_shed, t.queued
            ));
        }
    }
    let find = |name: &str| rows.iter().find(|t| t.name == name);
    match find(SIM_TENANT) {
        Some(t) => {
            if t.tasks_submitted != sim_staged as u64 {
                violations.push(format!(
                    "tenant-attribution[{SIM_TENANT}]: {} submitted != {sim_staged} staged by driver",
                    t.tasks_submitted
                ));
            }
            if t.weight != 3 {
                violations.push(format!(
                    "tenant-attribution[{SIM_TENANT}]: weight {} != configured 3",
                    t.weight
                ));
            }
        }
        None => violations.push(format!("tenant-attribution: no `{SIM_TENANT}` row")),
    }
    match find(RIVAL_TENANT) {
        Some(t) => {
            if t.tasks_submitted != rival_staged as u64 {
                violations.push(format!(
                    "tenant-attribution[{RIVAL_TENANT}]: {} submitted != {rival_staged} staged",
                    t.tasks_submitted
                ));
            }
            if t.weight != 1 {
                violations.push(format!(
                    "tenant-attribution[{RIVAL_TENANT}]: weight {} != configured 1",
                    t.weight
                ));
            }
        }
        None => violations.push(format!("tenant-attribution: no `{RIVAL_TENANT}` row")),
    }
    if let Some(t) = find(sitra_dataspaces::DEFAULT_TENANT) {
        if t.tasks_submitted != 0 || t.queued != 0 {
            violations.push(format!(
                "tenant-attribution[default]: {} submitted / {} queued on the default tenant, all traffic is tenant-bound",
                t.tasks_submitted, t.queued
            ));
        }
    }
}

/// Run one **multi-tenant** scenario: the canonical driver pipeline
/// bound to [`SIM_TENANT`] (weight 3) shares the staging service with a
/// [`RIVAL_TENANT`] (weight 1) producer whose workload deliberately
/// reuses the sim tenant's labels and steps (see
/// [`fixture::stage_rival_workload`]). On top of the four standard
/// oracles this checks, per tenant: the conservation identity
/// `submitted + requeued == assigned + shed + queued`, traffic
/// attribution (driver → sim, rival → rival, nothing on default), DRR
/// weight survival, and byte-identity of the rival's outputs — which
/// doubles as the namespace-isolation proof, since a leak corrupts one
/// side or the other.
///
/// Only the staging backends carry tenants, and the scenario keeps the
/// scheduler unbounded (admission chaos is the untenanted corpus's
/// job), so: `backend` must be `Remote` or `Cluster`, and the plan
/// must not schedule crashes, instance loss, or pool resizes (a dead
/// member's counters would vanish from the attribution ledger).
pub fn run_tenanted_scenario(seed: u64, plan: &FaultPlan, backend: Backend) -> ScenarioOutcome {
    assert!(
        matches!(backend, Backend::Remote | Backend::Cluster),
        "tenancy is a staging-service concern; {backend:?} has no server to bind to"
    );
    assert!(
        plan.crash.is_none() && plan.instance_loss.is_none() && plan.scale.is_none(),
        "tenanted scenarios model network faults only"
    );
    let _obs = sitra_obs::isolate();

    let golden = run_pipeline(
        &mut fixture::sim(seed),
        &fixture::config(2).with_staging_mode(StagingMode::InSitu),
    )
    .expect("golden run config");
    let golden_outputs = fixture::sorted_encoded_outputs(&golden);

    let sim_spec = TenantSpec::new(SIM_TENANT).with_weight(3);
    let rival_spec = TenantSpec::new(RIVAL_TENANT);
    let mut violations = Vec::new();

    // Bring the staging service up and pre-stage the rival workload on
    // a clean network (the injector only arms for the run under test;
    // the rival's *competition* is scheduler-side, not network-side).
    let staging = Staging::start(
        seed,
        backend.members(),
        ClusterNodeOpts {
            tenants: vec![sim_spec.clone(), rival_spec.clone()],
            ..ClusterNodeOpts::default()
        },
    );
    let endpoints = staging.endpoints().to_vec();

    let rival = ClusterClient::new(
        sitra_cluster::DEFAULT_SEED,
        sitra_cluster::DEFAULT_VNODES,
        endpoints.iter().cloned(),
        WORKER_BACKOFF,
    )
    .expect("rival client")
    .with_tenant(rival_spec.clone());
    let rival_expected = fixture::stage_rival_workload(
        |var, step, bbox, data| rival.put(var, step, bbox, data).map_err(|e| e.to_string()),
        |data| {
            rival
                .submit_task_routed("rival-route", 0, data)
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
    )
    .expect("rival staging on a clean network");

    // Arm the harness and run the sim tenant's pipeline, with one
    // shared external worker serving both tenants' tasks.
    let sink = Arc::new(VecSink::new());
    let prev_sink = sitra_obs::install_sink(Some(sink.clone()));
    let injector = Arc::new(PlanInjector::new(plan.clone()));
    let prev_injector = sitra_net::install_fault_injector(Some(injector.clone()));

    let stop = Arc::new(AtomicBool::new(false));
    let worker = spawn_worker(&endpoints, fixture::specs(), 0, &stop);

    let cfg = fixture::config(2)
        .with_staging_cluster(endpoints)
        .with_tenant(sim_spec.clone())
        .with_staging_deadline(Duration::from_millis(700))
        .with_staging_max_inflight(2);
    let result = run_pipeline(&mut fixture::sim(seed), &cfg).expect("tenanted config");

    // Disarm before the rival collects: the competition we're judging
    // happened during the run; the collection is bookkeeping.
    sitra_net::install_fault_injector(prev_injector);
    let events = sink.take();
    sitra_obs::install_sink(prev_sink);

    // The rival's outputs must appear, byte-identical to its own
    // golden aggregation, in its own namespace.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let label = fixture::specs()[0].label.clone();
    for (step, expect) in &rival_expected {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        match sitra_core::remote::wait_output(&rival, &label, *step, left) {
            Ok(Some(out)) => {
                if sitra_core::wire::encode_analysis_output(&out).as_ref() != expect.as_slice() {
                    violations.push(format!(
                        "rival-output: {label}@{step} diverges from the rival's own aggregation"
                    ));
                }
            }
            Ok(None) => violations.push(format!("rival-output: {label}@{step} never appeared")),
            Err(e) => violations.push(format!("rival-output: {label}@{step} never appeared: {e}")),
        }
    }

    // Per-tenant ledger, snapshotted while the service is still up.
    let rows = rival.tenant_stats();
    tenant_violations(
        &rows,
        result.staged_tasks,
        rival_expected.len(),
        &mut violations,
    );

    // Tear down.
    stop.store(true, Ordering::SeqCst);
    staging.shutdown();
    if worker.join().is_err() {
        violations.push("tenanted: bucket worker panicked".into());
    }

    // The standard oracles on the sim tenant's run: the rival's
    // presence must not change what the pipeline computes.
    violations.extend(oracle_violations(
        backend,
        &fixture::specs(),
        AdmissionPolicy::RejectNew,
        &golden_outputs,
        &result,
        &events,
    ));

    ScenarioOutcome {
        backend,
        plan: plan.clone(),
        violations,
        staged_tasks: result.staged_tasks,
        dropped_tasks: result.dropped_tasks,
        degraded_tasks: result.degraded_tasks,
        outputs: result.outputs.len(),
        schedule: injector.schedule(),
        events,
    }
}
