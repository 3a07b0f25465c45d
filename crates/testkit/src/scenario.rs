//! The scenario runner: one seeded simulation, one staging backend,
//! one fault plan — and the invariant oracles checked afterwards.
//!
//! The chaos corpus ([`run_scenario`]), the multi-tenant runs
//! ([`run_tenanted_scenario`]) and the matrix cells
//! ([`scenario_matrix`](crate::scenario_matrix)) all go through one
//! runner, which does every step once, in one order:
//!
//! 1. A **golden run** (fully in-situ, fault-free, before any injector
//!    is installed) establishes the reference output set.
//! 2. The backend's staging members (none, one or three) come up, and a
//!    tenant run's rival pre-stages on a clean network.
//! 3. The [`PlanInjector`] and a private journal sink are installed and
//!    the same seeded simulation runs through the backend under test,
//!    with a bucket worker, the plan's crash, instance loss or pool
//!    resize, and a steering subscriber when the roster publishes to one.
//! 4. Disarmed, the rival's outputs and the tenant ledger are read from
//!    the live service; then it is torn down.
//! 5. The oracles:
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
//!      reproduces the live run's accounting bit-identically;
//!    * the flow-map and steer-ack oracles of [`crate::matrix`], when
//!      the roster registers those workloads.

use crate::fixture;
use crate::injector::{PlanInjector, ScheduleEntry};
use crate::matrix::{self, admission_policies, FLOWMAP_LABEL, STEER_LABEL};
use crate::plan::{splitmix64, CrashPlan, FaultPlan};
use bytes::Bytes;
use parking_lot::Mutex;
use sitra_cluster::{Bootstrap, ClusterClient, ClusterNode, ClusterNodeOpts};
use sitra_core::{
    run_cluster_bucket_worker, run_pipeline, AnalysisSpec, BucketWorkerOpts, PipelineConfig,
    PipelineResult, Placement, StagingMode,
};
use sitra_dataspaces::{AdmissionPolicy, Scheduler, TenantRow, TenantSpec};
use sitra_net::{Addr, Backoff};
use sitra_obs::{ObsEvent, VecSink};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
fn unique_endpoint(seed: u64) -> Addr {
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
fn spawn_worker(
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
/// It is one of the matrix's [`admission_policies`].
pub fn admission_for(plan: &FaultPlan) -> (Option<usize>, AdmissionPolicy) {
    let policies = admission_policies();
    let pick = splitmix64(plan.seed ^ 0xAD15_510A) % policies.len() as u64;
    let (_, capacity, policy) = policies[pick as usize];
    (capacity, policy)
}

/// The staging service of one scenario: `members` [`ClusterNode`]s on
/// unique inproc endpoints, seeded with each other — one member for
/// `Backend::Remote`, three for `Backend::Cluster`. The seed list is
/// static: clients route over it regardless of how the live view
/// evolves, so a killed member degrades tasks but never mis-routes them.
struct Staging {
    endpoints: Vec<String>,
    opts: ClusterNodeOpts,
    nodes: Mutex<Vec<Option<ClusterNode>>>,
}

impl Staging {
    /// Start `members` members, each with `opts` (the plan's admission
    /// or the run's tenants) and a 10 ms heartbeat.
    fn start(seed: u64, members: usize, opts: ClusterNodeOpts) -> Arc<Staging> {
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
    fn shutdown(&self) {
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
/// check its oracles. Everything that differs between a chaos run, a
/// tenant run and a matrix cell comes from the inputs:
///
/// * `config` makes a fresh copy of the run's pipeline configuration.
///   Its roster decides whether a steering subscriber rides along
///   ([`STEER_LABEL`]) and whether the flow-map oracle runs
///   ([`FLOWMAP_LABEL`]).
/// * `members` is what every staging member starts with: the admission
///   policy, or the tenants of a multi-tenant run. When they register
///   [`RIVAL_TENANT`], the rival stages its workload before the run and
///   the driver runs as [`SIM_TENANT`].
///
/// Panics never encode oracle failures — those come back in
/// [`ScenarioOutcome::violations`].
pub(crate) fn run(
    seed: u64,
    plan: &FaultPlan,
    backend: Backend,
    config: &dyn Fn() -> PipelineConfig,
    members: ClusterNodeOpts,
) -> (ScenarioOutcome, PipelineResult) {
    let _obs = sitra_obs::isolate();
    let specs = config().analyses;
    let registers = |label: &str| specs.iter().any(|s| s.label == label);
    let tenant = |name: &str| members.tenants.iter().find(|t| t.name == name).cloned();

    // Golden run: fault-free, fully in-situ, before the injector or the
    // journal sink exist.
    let golden = run_pipeline(
        &mut fixture::sim(seed),
        &config().with_staging_mode(StagingMode::InSitu),
    )
    .expect("golden run config");
    let golden_outputs = fixture::sorted_encoded_outputs(&golden);

    // Bring the staging members up. A lone seeded member dials no peer,
    // so no frame crosses its bring-up.
    let staging =
        (backend.members() > 0).then(|| Staging::start(seed, backend.members(), members.clone()));
    let endpoints = staging.as_ref().map_or(Vec::new(), |s| s.endpoints.clone());

    // A rival tenant pre-stages on a clean network: its competition is
    // scheduler-side, not network-side.
    let rival = tenant(RIVAL_TENANT).map(|spec| stage_rival(&endpoints, spec));

    // Arm the harness. The injector sits under every sitra-net
    // connection, the steering subscriber's included.
    let sink = Arc::new(VecSink::new());
    let prev_sink = sitra_obs::install_sink(Some(sink.clone()));
    let injector = Arc::new(PlanInjector::new(plan.clone()));
    let prev_injector = sitra_net::install_fault_injector(Some(injector.clone()));

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Arc<Mutex<Vec<JoinHandle<usize>>>> = Arc::default();
    let mut watchdogs = Vec::new();
    let mut cfg = match backend {
        Backend::InSitu => config().with_staging_mode(StagingMode::InSitu),
        Backend::Local => config(),
        Backend::Remote | Backend::Cluster => config()
            .with_staging_cluster(endpoints.clone())
            .with_staging_deadline(Duration::from_millis(700))
            .with_staging_max_inflight(2),
    };
    if let Some(sim) = tenant(SIM_TENANT) {
        cfg = cfg.with_tenant(sim);
    }
    if let Some(staging) = &staging {
        // One resilient external bucket worker over every member.
        workers
            .lock()
            .push(spawn_worker(&endpoints, specs.clone(), 0, &stop));

        // Scheduled pool resize: grow spawns extra resilient workers on
        // fresh bucket ids; shrink drains and retires live buckets on
        // the first surviving member — the same elastic path the
        // autoscaler drives. On a cluster one member's Retire lease
        // retires the whole round-robin worker.
        if let Some(ev) = plan.scale {
            let (staging, workers) = (Arc::clone(staging), Arc::clone(&workers));
            let (eps, specs, workers_stop) = (endpoints.clone(), specs.clone(), Arc::clone(&stop));
            let resize = move || {
                if ev.delta > 0 {
                    for i in 0..ev.delta as u32 {
                        let bucket = SCALE_BUCKET_BASE + i;
                        let w = spawn_worker(&eps, specs.clone(), bucket, &workers_stop);
                        workers.lock().push(w);
                    }
                } else if let Some(sched) = staging.scheduler() {
                    for _ in 0..-ev.delta {
                        sched.drain_one_bucket();
                    }
                }
            };
            watchdogs.push(at_tick(&injector, &stop, ev.at_tick, "chaos-scale", resize));
        }

        // Instance loss: an abrupt kill of the planned member at its
        // tick, not a graceful leave.
        if let Some(loss) = plan.instance_loss {
            let staging = Arc::clone(staging);
            watchdogs.push(at_tick(
                &injector,
                &stop,
                loss.at_tick,
                "chaos-instance-loss",
                move || staging.kill(loss.member as usize),
            ));
        }

        // Scheduled crash, fired from inside the driver's collection
        // path after N collected outputs.
        if let Some(CrashPlan::AfterOutputs { outputs, restart }) = plan.crash {
            let staging = Arc::clone(staging);
            let collected = AtomicUsize::new(0);
            cfg = cfg.with_staging_output_hook(Arc::new(move |_label, _step| {
                if collected.fetch_add(1, Ordering::SeqCst) + 1 == outputs {
                    staging.crash(restart);
                }
            }));
        }
    }

    // A steering subscriber rides along when the roster publishes to
    // one. A fully in-situ pipeline serves steering too, but runs
    // without a subscriber: it has no staging connection for a fault to
    // hit, and the staged runs already drive the steering path.
    let steer_stop = Arc::new(AtomicBool::new(false));
    let subscriber = (registers(STEER_LABEL) && backend != Backend::InSitu).then(|| {
        let addr = unique_endpoint(seed);
        cfg.steering = Some(addr.to_string());
        matrix::spawn_subscriber(addr, &steer_stop)
    });

    let result = run_pipeline(&mut fixture::sim(seed), &cfg).expect("scenario config");

    // Join the subscriber while the sink is still installed: the steer
    // server may journal a frame after the pipeline returns.
    steer_stop.store(true, Ordering::SeqCst);
    let steer = subscriber.map(|h| h.join().expect("join steering subscriber"));

    // Disarm before the post-run checks and the judging.
    sitra_net::install_fault_injector(prev_injector);
    let events = sink.take();
    sitra_obs::install_sink(prev_sink);

    // The rival's outputs and the per-tenant ledger, read while the
    // service is still up.
    let mut violations = rival.map_or(Vec::new(), |(client, expected)| {
        rival_violations(&client, &expected, result.staged_tasks)
    });

    // Tear down: stop the watchdogs, shut every surviving member down,
    // then join the workers.
    stop.store(true, Ordering::SeqCst);
    for w in watchdogs {
        let _ = w.join();
    }
    if let Some(staging) = &staging {
        staging.shutdown();
    }
    for w in std::mem::take(&mut *workers.lock()) {
        if w.join().is_err() {
            violations.push(format!("{}: bucket worker panicked", backend.name()));
        }
    }

    violations.extend(oracle_violations(
        backend,
        &specs,
        members.policy,
        &golden_outputs,
        &result,
        &events,
    ));
    if registers(FLOWMAP_LABEL) {
        violations.extend(matrix::flow_violations(
            &matrix::flow_records(&golden),
            &matrix::flow_records(&result),
        ));
    }
    if let Some(obs) = &steer {
        violations.extend(matrix::steer_violations(obs, &events));
    }
    let outcome = ScenarioOutcome {
        backend,
        plan: plan.clone(),
        violations,
        staged_tasks: result.staged_tasks,
        dropped_tasks: result.dropped_tasks,
        degraded_tasks: result.degraded_tasks,
        outputs: result.outputs.len(),
        schedule: injector.schedule(),
        events,
    };
    (outcome, result)
}

/// Run one scenario: `sim(seed)` through `backend` under `plan`, with
/// the staging members admitting under [`admission_for`]`(plan)`, then
/// check every oracle. Panics never encode oracle failures — those
/// come back in [`ScenarioOutcome::violations`].
pub fn run_scenario(seed: u64, plan: &FaultPlan, backend: Backend) -> ScenarioOutcome {
    let (capacity, policy) = admission_for(plan);
    let members = ClusterNodeOpts {
        capacity,
        policy,
        ..ClusterNodeOpts::default()
    };
    run(seed, plan, backend, &|| fixture::config(2), members).0
}

/// Oracles 1–4 over one run of the roster `specs`, given the fault-free
/// golden outputs and the run's journal. `policy` is the staging
/// service's admission policy; only the staging backends have one.
fn oracle_violations(
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
        &format!("replay-identity[{}]", backend.name()),
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

/// Pre-stage the rival tenant's workload
/// ([`fixture::stage_rival_workload`]) through a client bound to
/// `spec`, returning the client and the encoded output it expects per
/// step.
fn stage_rival(endpoints: &[String], spec: TenantSpec) -> (ClusterClient, Vec<(u64, Vec<u8>)>) {
    let rival = ClusterClient::new(
        sitra_cluster::DEFAULT_SEED,
        sitra_cluster::DEFAULT_VNODES,
        endpoints.iter().cloned(),
        WORKER_BACKOFF,
    )
    .expect("rival client")
    .with_tenant(spec);
    let expected = fixture::stage_rival_workload(
        |var, step, bbox, data| rival.put(var, step, bbox, data).map_err(|e| e.to_string()),
        |data| {
            rival
                .submit_task_routed("rival-route", 0, data)
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
    )
    .expect("rival staging on a clean network");
    (rival, expected)
}

/// The rival's outputs must appear, byte-identical to its own golden
/// aggregation, in its own namespace; then the per-tenant ledger
/// ([`tenant_violations`]) is read from the live service.
fn rival_violations(
    rival: &ClusterClient,
    expected: &[(u64, Vec<u8>)],
    sim_staged: usize,
) -> Vec<String> {
    let mut violations = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    let label = fixture::specs()[0].label.clone();
    for (step, expect) in expected {
        let left = deadline.saturating_duration_since(Instant::now());
        match sitra_core::remote::wait_output(rival, &label, *step, left) {
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
    violations.extend(tenant_violations(
        &rival.tenant_stats(),
        sim_staged,
        expected.len(),
    ));
    violations
}

/// The per-tenant conservation oracle: every tenant's counters must
/// satisfy `submitted + requeued - assigned - shed == queued` (the
/// identity every scheduler transition preserves atomically), the
/// driver's traffic must all be attributed to [`SIM_TENANT`], the
/// rival's to [`RIVAL_TENANT`], none to the default tenant, and the
/// configured DRR weights must survive the run.
fn tenant_violations(rows: &[TenantRow], sim_staged: usize, rival_staged: usize) -> Vec<String> {
    let mut violations = Vec::new();
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
    for (name, staged, weight) in [(SIM_TENANT, sim_staged, 3), (RIVAL_TENANT, rival_staged, 1)] {
        let Some(t) = find(name) else {
            violations.push(format!("tenant-attribution: no `{name}` row"));
            continue;
        };
        if t.tasks_submitted != staged as u64 {
            violations.push(format!(
                "tenant-attribution[{name}]: {} submitted != {staged} staged",
                t.tasks_submitted
            ));
        }
        if t.weight != weight {
            violations.push(format!(
                "tenant-attribution[{name}]: weight {} != configured {weight}",
                t.weight
            ));
        }
    }
    if let Some(t) = find(sitra_dataspaces::DEFAULT_TENANT) {
        if t.tasks_submitted != 0 || t.queued != 0 {
            violations.push(format!(
                "tenant-attribution[default]: {} submitted / {} queued on the default tenant, all traffic is tenant-bound",
                t.tasks_submitted, t.queued
            ));
        }
    }
    violations
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
    let members = ClusterNodeOpts {
        tenants: vec![
            TenantSpec::new(SIM_TENANT).with_weight(3),
            TenantSpec::new(RIVAL_TENANT),
        ],
        ..ClusterNodeOpts::default()
    };
    run(seed, plan, backend, &|| fixture::config(2), members).0
}

#[cfg(test)]
mod tests {
    use super::*;

    type Golden = Vec<(String, u64, Vec<u8>)>;

    /// A fault-free in-situ run, its journal, and its own outputs as the
    /// golden set: every oracle holds on it until a test doctors it.
    fn honest_run() -> (Golden, PipelineResult, Vec<ObsEvent>) {
        let _obs = sitra_obs::isolate();
        let cfg = fixture::config(2).with_staging_mode(StagingMode::InSitu);
        let (result, events) = fixture::run_journaled(5, cfg);
        (fixture::sorted_encoded_outputs(&result), result, events)
    }

    fn judge(golden: &Golden, result: &PipelineResult, events: &[ObsEvent]) -> Vec<String> {
        let policy = AdmissionPolicy::RejectNew;
        oracle_violations(
            Backend::InSitu,
            &fixture::specs(),
            policy,
            golden,
            result,
            events,
        )
    }

    fn names(violations: &[String], oracle: &str) -> bool {
        violations.iter().any(|v| v.starts_with(oracle))
    }

    #[test]
    fn an_honest_run_passes_every_oracle() {
        let (golden, result, events) = honest_run();
        assert_eq!(judge(&golden, &result, &events), Vec::<String>::new());
    }

    #[test]
    fn the_conservation_oracle_reports_a_duplicate_output() {
        let (golden, mut result, events) = honest_run();
        let twin = result.outputs[0].clone();
        result.outputs.push(twin);
        let v = judge(&golden, &result, &events);
        assert!(names(&v, "conservation: duplicate output"), "{v:?}");
    }

    #[test]
    fn the_no_loss_oracle_reports_a_dropped_task() {
        let (golden, mut result, events) = honest_run();
        let hybrid = fixture::specs()[0].label.clone();
        let at = result.outputs.iter().position(|o| o.0 == hybrid).unwrap();
        result.outputs.remove(at);
        result.dropped_tasks += 1;
        let v = judge(&golden, &result, &events);
        assert_eq!(v, ["no-loss: 1 tasks dropped"]);
    }

    #[test]
    fn the_golden_output_oracle_reports_a_flipped_byte() {
        let (mut golden, result, events) = honest_run();
        golden[0].2[0] ^= 1;
        let v = judge(&golden, &result, &events);
        assert!(names(&v, "golden-output"), "{v:?}");
    }

    #[test]
    fn the_replay_identity_oracle_reports_a_missing_journal_row() {
        let (golden, result, mut events) = honest_run();
        let at = events
            .iter()
            .position(|e| e.component == "driver" && e.name == "analysis.insitu")
            .unwrap();
        events.remove(at);
        let v = judge(&golden, &result, &events);
        assert!(names(&v, "replay-identity[insitu]"), "{v:?}");
    }

    #[test]
    fn the_tenant_ledger_reports_an_unbalanced_row() {
        let row = |name: &str, weight, tasks| TenantRow {
            name: name.into(),
            weight,
            tasks_submitted: tasks,
            tasks_assigned: tasks,
            ..TenantRow::default()
        };
        let mut rows = vec![row(SIM_TENANT, 3, 4), row(RIVAL_TENANT, 1, 2)];
        assert_eq!(tenant_violations(&rows, 4, 2), Vec::<String>::new());
        rows[0].tasks_assigned = 3;
        let v = tenant_violations(&rows, 4, 2);
        assert!(names(&v, "tenant-conservation[sim]"), "{v:?}");
    }
}
