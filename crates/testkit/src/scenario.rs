//! The scenario runner: one seeded simulation, one staging backend,
//! one fault plan — and four invariant oracles checked afterwards.
//!
//! Every scenario follows the same shape:
//!
//! 1. A **golden run** (fully in-situ, fault-free, before any injector
//!    is installed) establishes the reference output set.
//! 2. The [`PlanInjector`] and a private journal sink are installed and
//!    the same seeded simulation is run through the backend under test
//!    — for `Remote`, against a live [`SpaceServer`] with an external
//!    bucket-worker thread and (when the plan says so) a scheduled
//!    server crash, optionally with a restart on the same endpoint.
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
use sitra_cluster::{Bootstrap, ClusterClient, ClusterNode, ClusterNodeOpts};
use sitra_core::{run_cluster_bucket_worker, run_pipeline, BucketWorkerOpts, StagingMode};
use sitra_dataspaces::{AdmissionPolicy, SpaceServer, TenantRow, TenantSpec};
use sitra_net::{Addr, Backoff};
use sitra_obs::{ObsEvent, VecSink};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which `StagingBackend` a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Synchronous in-situ aggregation (`StagingMode::InSitu`).
    InSitu,
    /// In-process staging buckets (`StagingMode::Local`).
    Local,
    /// Remote staging over the socket transport (`StagingMode::Remote`).
    Remote,
    /// A three-member `sitra-cluster` of staging instances
    /// (`StagingMode::Cluster`), with shard routing and handoff.
    Cluster,
}

impl Backend {
    /// The three single-space backends, in the order the chaos suite
    /// runs them. `Cluster` stays out of this list on purpose: the
    /// pinned chaos corpus predates it, and its seeds must keep mapping
    /// to the exact same `(backend, plan)` pairs. Cluster scenarios opt
    /// in explicitly (`--backend cluster`, `tests/cluster.rs`).
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
/// list `endpoints` (one entry for a single staging server): it
/// round-robins task requests across members, reconnects through
/// transient faults while the scenario is live, and exits once every
/// surviving scheduler closes or any member retires the bucket.
///
/// `specs` must be the driver's analysis roster in the same order (task
/// descriptors index into it) — the scenario matrix runs a larger
/// roster than the frozen chaos fixture.
pub(crate) fn spawn_worker(
    endpoints: &[String],
    specs: Vec<sitra_core::AnalysisSpec>,
    bucket_id: u32,
    stop: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<usize> {
    let eps = endpoints.to_vec();
    let stop = Arc::clone(stop);
    std::thread::Builder::new()
        .name(format!("chaos-bucket-{bucket_id}"))
        .spawn(move || {
            let opts = BucketWorkerOpts {
                backoff: WORKER_BACKOFF,
                request_timeout: Duration::from_millis(100),
                drop_connection_after: None,
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

/// The admission policy a plan's seed selects for its `SpaceServer`
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

/// Run one scenario: `sim(seed)` through `backend` under `plan`, then
/// check every oracle. Panics never encode oracle failures — those
/// come back in [`ScenarioOutcome::violations`].
pub fn run_scenario(seed: u64, plan: &FaultPlan, backend: Backend) -> ScenarioOutcome {
    let obs = sitra_obs::isolate();

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
    let result = match backend {
        Backend::InSitu => run_pipeline(
            &mut fixture::sim(seed),
            &fixture::config(2).with_staging_mode(StagingMode::InSitu),
        )
        .expect("insitu config"),
        Backend::Local => {
            run_pipeline(&mut fixture::sim(seed), &fixture::config(2)).expect("local config")
        }
        Backend::Remote => {
            let addr = unique_endpoint(seed);
            let (capacity, policy) = admission_for(plan);
            let server =
                SpaceServer::start_with(&addr, 1, capacity, policy).expect("start staging server");
            let endpoints = vec![server.addr().to_string()];
            let server_slot = Arc::new(parking_lot::Mutex::new(Some(server)));

            // One resilient external bucket worker: reconnects through
            // transient faults, retires when the scheduler closes (or
            // on a protocol error, after which the driver degrades the
            // remainder).
            let stop = Arc::new(AtomicBool::new(false));
            let worker = spawn_worker(&endpoints, fixture::specs(), 0, &stop);

            // Scheduled pool resize: a watchdog polls the injector's
            // virtual clock and, at the planned tick, either spawns
            // extra resilient workers on fresh bucket ids or drains
            // and retires live buckets through the scheduler — the
            // same elastic path the autoscaler drives in production,
            // here exercised under fault injection.
            let extra_workers: Arc<parking_lot::Mutex<Vec<std::thread::JoinHandle<usize>>>> =
                Arc::new(parking_lot::Mutex::new(Vec::new()));
            let scale_watchdog = plan.scale.map(|ev| {
                let injector = Arc::clone(&injector);
                let slot = Arc::clone(&server_slot);
                let stop = Arc::clone(&stop);
                let extras = Arc::clone(&extra_workers);
                let eps = endpoints.clone();
                std::thread::Builder::new()
                    .name("chaos-scale".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            if injector.tick() >= ev.at_tick {
                                if ev.delta > 0 {
                                    let mut handles = extras.lock();
                                    for i in 0..ev.delta as u32 {
                                        handles.push(spawn_worker(
                                            &eps,
                                            fixture::specs(),
                                            SCALE_BUCKET_BASE + i,
                                            &stop,
                                        ));
                                    }
                                } else {
                                    let guard = slot.lock();
                                    if let Some(s) = guard.as_ref() {
                                        let sched = s.scheduler();
                                        for _ in 0..-ev.delta {
                                            sched.drain_one_bucket();
                                        }
                                    }
                                }
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    })
                    .expect("spawn scale watchdog")
            });

            // Scheduled crash: from inside the driver's collection path
            // after N collected outputs, kill the server — and when the
            // plan says restart, bring a fresh one up on the same
            // endpoint so the driver and worker reconnect to it.
            let mut cfg = fixture::config(2)
                .with_staging_endpoint(endpoints[0].clone())
                .with_staging_deadline(Duration::from_millis(700))
                .with_staging_max_inflight(2);
            if let Some(CrashPlan::AfterOutputs { outputs, restart }) = plan.crash {
                let slot = Arc::clone(&server_slot);
                let collected = Arc::new(AtomicUsize::new(0));
                let addr = addr.clone();
                cfg = cfg.with_staging_output_hook(Arc::new(move |_label, _step| {
                    if collected.fetch_add(1, Ordering::SeqCst) + 1 == outputs {
                        if let Some(s) = slot.lock().take() {
                            s.shutdown();
                        }
                        if restart {
                            let (capacity, policy) = (None, AdmissionPolicy::RejectNew);
                            if let Ok(s) = SpaceServer::start_with(&addr, 1, capacity, policy) {
                                *slot.lock() = Some(s);
                            }
                        }
                    }
                }));
            }

            let result = run_pipeline(&mut fixture::sim(seed), &cfg).expect("remote config");

            // Tear down: close whatever server is still alive (closing
            // its scheduler retires the workers), then join them.
            stop.store(true, Ordering::SeqCst);
            if let Some(w) = scale_watchdog {
                let _ = w.join();
            }
            if let Some(s) = server_slot.lock().take() {
                s.shutdown();
            }
            match worker.join() {
                Ok(_) => {}
                Err(_) => violations.push("remote: bucket worker panicked".into()),
            }
            let extras: Vec<_> = extra_workers.lock().drain(..).collect();
            for w in extras {
                if w.join().is_err() {
                    violations.push("remote: scale-up worker panicked".into());
                }
            }
            result
        }
        Backend::Cluster => {
            // A three-member cluster on unique inproc endpoints, every
            // member configured with the plan's admission policy. The
            // seed list is static: clients route over it regardless of
            // how the live view evolves, so a mid-run kill degrades
            // tasks but never mis-routes them.
            let addrs: Vec<Addr> = (0..3).map(|_| unique_endpoint(seed)).collect();
            let endpoints: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
            let (capacity, policy) = admission_for(plan);
            let node_opts = move || ClusterNodeOpts {
                capacity,
                policy,
                heartbeat_every: Duration::from_millis(10),
                suspect_after: 3,
                ..ClusterNodeOpts::default()
            };
            let nodes: Vec<Option<ClusterNode>> = addrs
                .iter()
                .map(|a| {
                    Some(
                        ClusterNode::start(a, Bootstrap::Seeds(endpoints.clone()), node_opts())
                            .expect("start cluster member"),
                    )
                })
                .collect();
            let node_slots = Arc::new(parking_lot::Mutex::new(nodes));

            // One resilient external bucket worker over the whole
            // cluster: it round-robins task requests across members,
            // writes a member off after repeated connection failures,
            // and retires once every surviving scheduler closes.
            let stop = Arc::new(AtomicBool::new(false));
            let worker = spawn_worker(&endpoints, fixture::specs(), 0, &stop);

            // Scheduled pool resize, cluster flavour: grow spawns
            // extra cluster-wide workers; shrink drains buckets on the
            // first surviving member — one member's Retire lease
            // retires the whole round-robin worker, exactly the
            // cross-member retirement path worth pinning under faults.
            let extra_workers: Arc<parking_lot::Mutex<Vec<std::thread::JoinHandle<usize>>>> =
                Arc::new(parking_lot::Mutex::new(Vec::new()));
            let scale_watchdog = plan.scale.map(|ev| {
                let injector = Arc::clone(&injector);
                let slots = Arc::clone(&node_slots);
                let stop = Arc::clone(&stop);
                let extras = Arc::clone(&extra_workers);
                let eps = endpoints.clone();
                std::thread::Builder::new()
                    .name("chaos-scale".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            if injector.tick() >= ev.at_tick {
                                if ev.delta > 0 {
                                    let mut handles = extras.lock();
                                    for i in 0..ev.delta as u32 {
                                        handles.push(spawn_worker(
                                            &eps,
                                            fixture::specs(),
                                            SCALE_BUCKET_BASE + i,
                                            &stop,
                                        ));
                                    }
                                } else {
                                    let sched = slots
                                        .lock()
                                        .iter()
                                        .flatten()
                                        .next()
                                        .map(|n| n.scheduler().clone());
                                    if let Some(sched) = sched {
                                        for _ in 0..-ev.delta {
                                            sched.drain_one_bucket();
                                        }
                                    }
                                }
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    })
                    .expect("spawn scale watchdog")
            });

            // Instance loss: a watchdog polls the injector's virtual
            // clock and kills the planned member at its tick — an
            // abrupt crash (queued tasks dropped on the floor), not a
            // graceful leave.
            let watchdog = plan.instance_loss.map(|loss| {
                let injector = Arc::clone(&injector);
                let slots = Arc::clone(&node_slots);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("chaos-instance-loss".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            if injector.tick() >= loss.at_tick {
                                if let Some(n) = slots.lock()[loss.member as usize % 3].take() {
                                    n.kill();
                                }
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    })
                    .expect("spawn watchdog")
            });

            let mut cfg = fixture::config(2)
                .with_staging_cluster(endpoints.clone())
                .with_staging_deadline(Duration::from_millis(700))
                .with_staging_max_inflight(2);
            // A scheduled crash maps onto member 1; a restart maps onto
            // a rejoin through member 0, which re-shards the ring and
            // hands the rejoiner its shards back.
            if let Some(CrashPlan::AfterOutputs { outputs, restart }) = plan.crash {
                let slots = Arc::clone(&node_slots);
                let collected = Arc::new(AtomicUsize::new(0));
                let victim = addrs[1].clone();
                let rejoin_via = endpoints[0].clone();
                cfg = cfg.with_staging_output_hook(Arc::new(move |_label, _step| {
                    if collected.fetch_add(1, Ordering::SeqCst) + 1 == outputs {
                        if let Some(n) = slots.lock()[1].take() {
                            n.kill();
                        }
                        if restart {
                            if let Ok(n) = ClusterNode::start(
                                &victim,
                                Bootstrap::Join(rejoin_via.clone()),
                                node_opts(),
                            ) {
                                slots.lock()[1] = Some(n);
                            }
                        }
                    }
                }));
            }

            let result = run_pipeline(&mut fixture::sim(seed), &cfg).expect("cluster config");

            // Tear down: stop the watchdog, shut every surviving member
            // down (closing their schedulers retires the worker), then
            // join the helper threads.
            stop.store(true, Ordering::SeqCst);
            if let Some(w) = watchdog {
                let _ = w.join();
            }
            if let Some(w) = scale_watchdog {
                let _ = w.join();
            }
            for slot in node_slots.lock().iter_mut() {
                if let Some(n) = slot.take() {
                    n.shutdown();
                }
            }
            match worker.join() {
                Ok(_) => {}
                Err(_) => violations.push("cluster: bucket worker panicked".into()),
            }
            let extras: Vec<_> = extra_workers.lock().drain(..).collect();
            for w in extras {
                if w.join().is_err() {
                    violations.push("cluster: scale-up worker panicked".into());
                }
            }
            result
        }
    };

    // Disarm before judging.
    sitra_net::install_fault_injector(prev_injector);
    let events = sink.take();
    sitra_obs::install_sink(prev_sink);

    // Oracle 1 — conservation. Every due hybrid task is submitted to
    // the backend exactly once; every submitted task retires exactly
    // once, and every retirement except Dropped leaves exactly one
    // output behind.
    let expected = fixture::expected_hybrid_tasks();
    if result.staged_tasks != expected {
        violations.push(format!(
            "conservation: staged {} tasks, roster is due {expected}",
            result.staged_tasks
        ));
    }
    let specs = fixture::specs();
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
        if spec.placement == sitra_core::Placement::Hybrid {
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

    // Oracle 2 — no-loss. This fixture's buffer depth exceeds anything
    // the run can queue, so nothing may ever be dropped; and when the
    // server admits under `Block`, nothing may be shed either.
    if result.dropped_tasks != 0 {
        violations.push(format!("no-loss: {} tasks dropped", result.dropped_tasks));
    }
    if backend == Backend::Remote || backend == Backend::Cluster {
        if let (_, AdmissionPolicy::Block { .. }) = admission_for(plan) {
            let shed = obs.registry().snapshot().counter("sched.tasks.shed");
            if shed != 0 {
                violations.push(format!(
                    "no-loss: {shed} tasks shed under AdmissionPolicy::Block"
                ));
            }
        }
    }

    // Oracle 3 — golden output. When no task was dropped, the output
    // set must be byte-identical to the fault-free golden run: degraded
    // tasks re-aggregate in-situ from the retained parts, so the
    // answer cannot change, only its latency.
    if result.dropped_tasks == 0 {
        let got = fixture::sorted_encoded_outputs(&result);
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
        &result,
        &events,
        placement,
        driver_aggregates,
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
    let obs = sitra_obs::isolate();
    let _keep = &obs;

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
    // Only bring-up and tear-down differ between the two deployments:
    // every client below is a `ClusterClient` over `endpoints`, with
    // one entry for the single server.
    enum Service {
        Remote(SpaceServer),
        Cluster(Vec<ClusterNode>),
    }
    let (service, endpoints) = match backend {
        Backend::Remote => {
            let addr = unique_endpoint(seed);
            let server =
                SpaceServer::start_with(&addr, 1, None, AdmissionPolicy::RejectNew).expect("start");
            server.scheduler().register_tenant(&sim_spec);
            server.scheduler().register_tenant(&rival_spec);
            let endpoints = vec![server.addr().to_string()];
            (Service::Remote(server), endpoints)
        }
        Backend::Cluster => {
            let addrs: Vec<Addr> = (0..3).map(|_| unique_endpoint(seed)).collect();
            let endpoints: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
            let nodes = addrs
                .iter()
                .map(|a| {
                    ClusterNode::start(
                        a,
                        Bootstrap::Seeds(endpoints.clone()),
                        ClusterNodeOpts {
                            heartbeat_every: Duration::from_millis(10),
                            suspect_after: 3,
                            tenants: vec![sim_spec.clone(), rival_spec.clone()],
                            ..ClusterNodeOpts::default()
                        },
                    )
                    .expect("start cluster member")
                })
                .collect();
            (Service::Cluster(nodes), endpoints)
        }
        _ => unreachable!(),
    };

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

    let cfg = match backend {
        Backend::Remote => fixture::config(2).with_staging_endpoint(endpoints[0].clone()),
        _ => fixture::config(2).with_staging_cluster(endpoints.clone()),
    }
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
    match service {
        Service::Remote(server) => server.shutdown(),
        Service::Cluster(nodes) => nodes.into_iter().for_each(ClusterNode::shutdown),
    }
    match worker.join() {
        Ok(_) => {}
        Err(_) => violations.push("tenanted: bucket worker panicked".into()),
    }

    // The standard oracles on the sim tenant's run: the rival's
    // presence must not change what the pipeline computes.
    let expected = fixture::expected_hybrid_tasks();
    if result.staged_tasks != expected {
        violations.push(format!(
            "conservation: staged {} tasks, roster is due {expected}",
            result.staged_tasks
        ));
    }
    if result.dropped_tasks != 0 {
        violations.push(format!("no-loss: {} tasks dropped", result.dropped_tasks));
    }
    if result.dropped_tasks == 0 {
        let got = fixture::sorted_encoded_outputs(&result);
        if got != golden_outputs {
            violations.push("golden-output: sim outputs diverge under rival load".into());
        }
    }
    violations.extend(fixture::replay_violations(
        backend.name(),
        &result,
        &events,
        "hybrid-remote",
        false,
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
