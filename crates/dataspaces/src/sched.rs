//! The in-transit task scheduler: data-ready / bucket-ready events, a
//! free-bucket list, and weighted-fair assignment over per-tenant
//! sub-queues.
//!
//! The model follows the paper's Fig. 5 exactly:
//!
//! 1. An in-situ computation finishing a timestep notifies the scheduler
//!    of a **data-ready** event by inserting a task descriptor (what to
//!    run, on which data regions) into the task queue.
//! 2. A staging-area bucket (one core of a staging node) with nothing to
//!    do sends a **bucket-ready** request and parks on its own channel.
//! 3. Whenever both a task and a free bucket exist, the scheduler pops
//!    both and hands the task to the bucket, which then *pulls* the data
//!    it needs directly from the producers.
//!
//! The pull-based design means a slow analysis simply keeps its bucket
//! busy longer while other buckets absorb subsequent timesteps — the
//! temporal multiplexing that decouples analysis latency from simulation
//! cadence.
//!
//! **Multi-tenancy.** The queue side is organized as one FCFS sub-queue
//! per [tenant](crate::tenant), served **deficit-round-robin**: each
//! tenant at the head of the active rotation receives a deficit of
//! `weight` task credits, is served up to that many tasks, and rotates
//! to the back. With a single tenant (every pre-tenancy caller lands in
//! [`crate::tenant::DEFAULT_TENANT`]) this degenerates to exactly the
//! original global FCFS order; with several backlogged tenants each
//! receives assignments in proportion to its weight, so one misbehaving
//! producer cannot starve the rest. Sequence numbers stay globally
//! monotonic across tenants.
//!
//! The queue can be **bounded**: the paper assumes the staging area
//! keeps up with the simulation, but a production deployment must
//! decide what happens when it does not. [`Scheduler::bounded`] attaches
//! a capacity and an [`AdmissionPolicy`] — block the producer (with a
//! deadline), shed the oldest queued task, or reject the new one — and
//! [`Scheduler::submit`] reports the verdict so producers can
//! degrade gracefully instead of growing an unbounded backlog. Tenants
//! additionally carry their own task quota and may override the policy
//! ([`TenantSpec`]), making the verdict per-tenant: a tenant over its
//! quota sheds *its own* oldest task, never a neighbour's.

use crate::pool::{BucketPool, PoolSnapshot, ResidencyHint};
use crate::tenant::{TenantSpec, DEFAULT_TENANT};
use crossbeam::channel::{bounded, Receiver};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies a staging bucket.
pub type BucketId = u32;

/// What a bounded scheduler does with a submission that finds the queue
/// at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Apply backpressure: block the submitter until space frees up, at
    /// most `max_wait`, then report [`Admission::TimedOut`]. An already
    /// elapsed deadline (`max_wait` = 0) reports [`Admission::TimedOut`]
    /// immediately without waiting.
    Block {
        /// Longest a submission may wait for queue space.
        max_wait: Duration,
    },
    /// Evict the oldest queued task to make room — freshest data wins,
    /// matching the driver's ring-buffer back-pressure semantics. Under
    /// tenancy the victim is the submitting tenant's own oldest task
    /// when it has one.
    ShedOldest,
    /// Refuse the new task and tell the producer, which can then run
    /// the aggregation in-situ instead.
    RejectNew,
}

/// The verdict of [`Scheduler::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enqueued (or handed straight to a parked bucket).
    Accepted {
        /// Sequence number of the admitted task.
        seq: u64,
    },
    /// Enqueued after evicting the oldest queued task
    /// ([`AdmissionPolicy::ShedOldest`]).
    AcceptedShed {
        /// Sequence number of the admitted task.
        seq: u64,
        /// Sequence number of the task that was shed to make room.
        shed_seq: u64,
    },
    /// Refused: the queue is full ([`AdmissionPolicy::RejectNew`]).
    Rejected,
    /// Refused: the queue stayed full past the blocking deadline
    /// ([`AdmissionPolicy::Block`]).
    TimedOut,
    /// Refused: the scheduler is closed.
    Closed,
}

impl Admission {
    /// The admitted task's sequence number, if it was admitted.
    pub fn seq(&self) -> Option<u64> {
        match self {
            Admission::Accepted { seq } | Admission::AcceptedShed { seq, .. } => Some(*seq),
            _ => None,
        }
    }
}

/// One data-ready event for [`Scheduler::submit`]: the task, the tenant
/// it is queued under, and where its input bytes live. A bare task
/// converts into a submission by the default tenant with no hint.
#[derive(Debug, Clone)]
pub struct Submission<'a, T> {
    /// The submitting tenant.
    pub tenant: &'a str,
    /// Where the task's input bytes live (empty = no placement hint).
    pub hint: ResidencyHint,
    /// The task payload.
    pub task: T,
}

impl<T> From<T> for Submission<'_, T> {
    fn from(task: T) -> Self {
        Submission {
            tenant: DEFAULT_TENANT,
            hint: ResidencyHint::default(),
            task,
        }
    }
}

/// Scheduler counters.
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// Tasks enqueued so far.
    pub tasks_submitted: u64,
    /// Tasks assigned so far (a requeued task counts once per
    /// assignment).
    pub tasks_assigned: u64,
    /// Tasks put back at the head of the queue after a failed hand-off
    /// (e.g. a remote bucket's connection died before acknowledging).
    pub tasks_requeued: u64,
    /// High-water mark of the task queue (backlog indicator: when this
    /// grows across timesteps, the staging area is undersized for the
    /// requested analysis frequency).
    pub max_queue_depth: usize,
    /// Queued tasks evicted to admit newer ones
    /// ([`AdmissionPolicy::ShedOldest`]).
    pub tasks_shed: u64,
    /// Submissions refused at capacity ([`AdmissionPolicy::RejectNew`],
    /// or [`AdmissionPolicy::Block`] deadlines that elapsed).
    pub tasks_rejected: u64,
    /// Input bytes placement avoided moving by assigning tasks to
    /// buckets co-located with their resident input shards. Always 0
    /// when no bucket registered a location. The counterpart of the
    /// driver's `movement_bytes`.
    pub locality_bytes_saved: u64,
}

/// Per-tenant scheduler counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantSchedStats {
    /// Tasks this tenant submitted that were admitted.
    pub tasks_submitted: u64,
    /// Assignments of this tenant's tasks to buckets.
    pub tasks_assigned: u64,
    /// This tenant's tasks requeued after a failed hand-off.
    pub tasks_requeued: u64,
    /// This tenant's queued tasks evicted under shedding.
    pub tasks_shed: u64,
    /// This tenant's submissions refused at capacity/quota.
    pub tasks_rejected: u64,
}

/// Snapshot of one tenant's scheduler state, for stats RPCs and the
/// fairness bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub name: String,
    /// DRR weight.
    pub weight: u32,
    /// Tasks currently queued (not yet assigned).
    pub queued: u64,
    /// Task quota, if bounded.
    pub task_quota: Option<u64>,
    /// Counters.
    pub stats: TenantSchedStats,
}

/// Live observability handles, resolved once from the global
/// [`sitra_obs`] registry. The queue-depth gauge is set at exactly the
/// same mutation points as `SchedStats::max_queue_depth`, so the
/// gauge's high-water mark and the stats field always agree.
struct SchedObs {
    queue_depth: sitra_obs::Gauge,
    submitted: sitra_obs::Counter,
    assigned: sitra_obs::Counter,
    requeued: sitra_obs::Counter,
    shed: sitra_obs::Counter,
    rejected: sitra_obs::Counter,
    locality_saved: sitra_obs::Counter,
    task_wait: sitra_obs::Histogram,
    bucket_idle: sitra_obs::Histogram,
    backpressure_wait: sitra_obs::Histogram,
}

impl SchedObs {
    fn resolve() -> Self {
        let reg = sitra_obs::global();
        SchedObs {
            queue_depth: reg.gauge("sched.queue.depth"),
            submitted: reg.counter("sched.tasks.submitted"),
            assigned: reg.counter("sched.tasks.assigned"),
            requeued: reg.counter("sched.tasks.requeued"),
            shed: reg.counter("sched.tasks.shed"),
            rejected: reg.counter("sched.tasks.rejected"),
            locality_saved: reg.counter("sched.locality.bytes_saved"),
            task_wait: reg.histogram("sched.task.wait_ns"),
            bucket_idle: reg.histogram("sched.bucket.idle_ns"),
            backpressure_wait: reg.histogram("sched.backpressure.wait_ns"),
        }
    }
}

/// Per-tenant observability handles (labelled metric names), resolved
/// once at tenant registration.
struct TenantObs {
    queued: sitra_obs::Gauge,
    submitted: sitra_obs::Counter,
    assigned: sitra_obs::Counter,
    shed: sitra_obs::Counter,
    rejected: sitra_obs::Counter,
}

impl TenantObs {
    fn resolve(tenant: &str) -> Self {
        let reg = sitra_obs::global();
        TenantObs {
            queued: reg.gauge(&format!("sched.tenant.queued{{tenant={tenant}}}")),
            submitted: reg.counter(&format!("sched.tenant.submitted{{tenant={tenant}}}")),
            assigned: reg.counter(&format!("sched.tenant.assigned{{tenant={tenant}}}")),
            shed: reg.counter(&format!("sched.tenant.shed{{tenant={tenant}}}")),
            rejected: reg.counter(&format!("sched.tenant.rejected{{tenant={tenant}}}")),
        }
    }
}

/// One tenant's FCFS sub-queue plus its DRR bookkeeping. Each entry in
/// `queue` remembers when it was (re)enqueued so assignment can record
/// the task's queue-wait latency.
struct TenantQ<T> {
    name: Arc<str>,
    queue: VecDeque<(u64, T, Instant)>,
    weight: u32,
    /// Task credits left in this tenant's current DRR turn.
    deficit: u32,
    /// Whether this tenant currently sits in the active rotation.
    in_rr: bool,
    task_quota: Option<usize>,
    policy: Option<AdmissionPolicy>,
    stats: TenantSchedStats,
    obs: TenantObs,
}

struct Inner<T> {
    tenants: Vec<TenantQ<T>>,
    by_name: HashMap<String, usize>,
    /// Active DRR rotation: indices of tenants with queued tasks.
    rr: VecDeque<usize>,
    total_queued: usize,
    /// Tenant of each assigned-but-unacknowledged task, so a requeue
    /// lands back in the right sub-queue. Entries are pruned on
    /// [`Scheduler::ack`] and on requeue.
    inflight: HashMap<u64, usize>,
    pool: BucketPool<T>,
    /// Residency hints for queued tasks, keyed by sequence number and
    /// consumed at first assignment. A requeued task carries no hint
    /// and falls back to FCFS order — correctness never depends on
    /// a hint surviving the two-phase hand-off.
    hints: HashMap<u64, ResidencyHint>,
    /// Recent task queue-wait samples (ns), a bounded ring feeding the
    /// autoscaler's p99 estimate.
    wait_samples: VecDeque<u64>,
    stats: SchedStats,
    next_seq: u64,
    closed: bool,
    capacity: Option<usize>,
    policy: AdmissionPolicy,
    obs: SchedObs,
}

/// How many queue-wait samples the p99 ring keeps.
const WAIT_SAMPLE_CAP: usize = 512;

impl<T> Inner<T> {
    /// Record one task's queue-wait at assignment: the latency
    /// histogram plus the bounded sample ring behind
    /// [`Scheduler::pool_snapshot`]'s p99.
    fn note_wait(&mut self, enqueued: Instant) {
        let waited = enqueued.elapsed();
        self.obs.task_wait.observe(waited);
        if self.wait_samples.len() == WAIT_SAMPLE_CAP {
            self.wait_samples.pop_front();
        }
        self.wait_samples.push_back(waited.as_nanos() as u64);
    }

    /// p99 of the recent queue-wait samples (zero with no samples).
    fn p99_wait(&self) -> Duration {
        if self.wait_samples.is_empty() {
            return Duration::ZERO;
        }
        let mut v: Vec<u64> = self.wait_samples.iter().copied().collect();
        v.sort_unstable();
        Duration::from_nanos(v[(v.len() * 99 / 100).min(v.len() - 1)])
    }

    /// Credit a placement save to stats, metric, and journal.
    fn note_locality_saved(&mut self, seq: u64, bucket: BucketId, saved: u64) {
        if saved == 0 {
            return;
        }
        self.stats.locality_bytes_saved += saved;
        self.obs.locality_saved.add(saved);
        sitra_obs::emit(
            "sched",
            "task.local",
            &[
                ("seq", seq.to_string()),
                ("bucket", bucket.to_string()),
                ("bytes", saved.to_string()),
            ],
        );
    }

    /// Index of `tenant`, registering a weight-1 unlimited tenant on
    /// first sight. Quotas and weights are opt-in via
    /// [`Scheduler::register_tenant`]; an unknown name must not be an
    /// error or old clients could never reach a tenancy-aware server.
    fn tenant_idx(&mut self, tenant: &str) -> usize {
        if let Some(&i) = self.by_name.get(tenant) {
            return i;
        }
        let i = self.tenants.len();
        self.tenants.push(TenantQ {
            name: Arc::from(tenant),
            queue: VecDeque::new(),
            weight: 1,
            deficit: 0,
            in_rr: false,
            task_quota: None,
            policy: None,
            stats: TenantSchedStats::default(),
            obs: TenantObs::resolve(tenant),
        });
        self.by_name.insert(tenant.to_string(), i);
        i
    }

    /// Whether a submission by `idx` is currently refused: the global
    /// queue is at capacity, or the tenant is at its own task quota.
    fn over_limit(&self, idx: usize) -> bool {
        let over_global = self.capacity.is_some_and(|cap| self.total_queued >= cap);
        let over_tenant = self.tenants[idx]
            .task_quota
            .is_some_and(|q| self.tenants[idx].queue.len() >= q);
        over_global || over_tenant
    }

    /// The policy governing `idx`'s submissions (tenant override, else
    /// global).
    fn policy_for(&self, idx: usize) -> AdmissionPolicy {
        self.tenants[idx].policy.unwrap_or(self.policy)
    }

    fn activate_back(&mut self, idx: usize) {
        if !self.tenants[idx].in_rr {
            self.tenants[idx].in_rr = true;
            self.rr.push_back(idx);
        }
    }

    /// Put `idx` at the front of the rotation with at least one credit,
    /// so a requeued task is the next assignment.
    fn activate_front(&mut self, idx: usize) {
        if self.tenants[idx].in_rr {
            if let Some(pos) = self.rr.iter().position(|&i| i == idx) {
                self.rr.remove(pos);
            }
        }
        self.tenants[idx].in_rr = true;
        self.rr.push_front(idx);
        if self.tenants[idx].deficit == 0 {
            self.tenants[idx].deficit = 1;
        }
    }

    fn enqueue_back(&mut self, idx: usize, seq: u64, task: T) {
        self.tenants[idx]
            .queue
            .push_back((seq, task, Instant::now()));
        self.total_queued += 1;
        self.activate_back(idx);
        self.note_depth(idx);
    }

    fn note_depth(&mut self, idx: usize) {
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.total_queued);
        self.obs.queue_depth.set(self.total_queued as i64);
        let tq = &self.tenants[idx];
        tq.obs.queued.set(tq.queue.len() as i64);
    }

    /// Deficit-round-robin pop: serve the tenant at the head of the
    /// rotation until its credits or queue run out, then rotate. With
    /// one tenant this is exactly global FCFS. The popped task is
    /// recorded in `inflight` so a failed hand-off can requeue it into
    /// the right sub-queue.
    fn pop_next(&mut self) -> Option<(u64, T, Instant)> {
        loop {
            let &idx = self.rr.front()?;
            if self.tenants[idx].queue.is_empty() {
                // Stale rotation entry (queue drained elsewhere).
                self.tenants[idx].deficit = 0;
                self.tenants[idx].in_rr = false;
                self.rr.pop_front();
                continue;
            }
            let tq = &mut self.tenants[idx];
            if tq.deficit == 0 {
                tq.deficit = tq.weight.max(1);
            }
            tq.deficit -= 1;
            let (seq, task, enqueued) = tq.queue.pop_front().unwrap();
            tq.stats.tasks_assigned += 1;
            tq.obs.assigned.inc();
            tq.obs.queued.set(tq.queue.len() as i64);
            let name = Arc::clone(&tq.name);
            sitra_obs::emit(
                "sched",
                "tenant.assign",
                &[("tenant", name.to_string()), ("seq", seq.to_string())],
            );
            self.total_queued -= 1;
            if self.tenants[idx].queue.is_empty() {
                self.tenants[idx].deficit = 0;
                self.tenants[idx].in_rr = false;
                self.rr.pop_front();
            } else if self.tenants[idx].deficit == 0 {
                self.rr.pop_front();
                self.rr.push_back(idx);
            }
            self.inflight.insert(seq, idx);
            return Some((seq, task, enqueued));
        }
    }

    /// Shed the oldest queued task to make room for a submission by
    /// `idx`: the submitting tenant's own oldest when it has one
    /// (quota pressure must not evict a neighbour), else the globally
    /// oldest by sequence number.
    fn shed_oldest_for(&mut self, idx: usize) -> Option<u64> {
        let victim = if !self.tenants[idx].queue.is_empty() {
            idx
        } else {
            self.tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.queue.is_empty())
                .min_by_key(|(_, t)| t.queue.front().unwrap().0)
                .map(|(i, _)| i)?
        };
        let tq = &mut self.tenants[victim];
        let (seq, _, _) = tq.queue.pop_front().unwrap();
        tq.stats.tasks_shed += 1;
        tq.obs.shed.inc();
        tq.obs.queued.set(tq.queue.len() as i64);
        self.total_queued -= 1;
        if tq.queue.is_empty() {
            self.tenants[victim].deficit = 0;
            if self.tenants[victim].in_rr {
                if let Some(pos) = self.rr.iter().position(|&i| i == victim) {
                    self.rr.remove(pos);
                }
                self.tenants[victim].in_rr = false;
            }
        }
        self.stats.tasks_shed += 1;
        self.obs.shed.inc();
        let name = Arc::clone(&self.tenants[victim].name);
        sitra_obs::emit(
            "sched",
            "task.shed",
            &[("seq", seq.to_string()), ("tenant", name.to_string())],
        );
        Some(seq)
    }
}

struct Shared<T> {
    mu: Mutex<Inner<T>>,
    // Signalled whenever queue space frees up (a task popped) or the
    // scheduler closes: Block-policy submitters and `wait_closed` wake.
    freed: Condvar,
}

/// A weighted-fair pull scheduler over task payloads `T` (FCFS within a
/// tenant, deficit-round-robin across tenants).
pub struct Scheduler<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Scheduler<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send + 'static> Default for Scheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + 'static> Scheduler<T> {
    /// An empty, unbounded scheduler.
    pub fn new() -> Self {
        Self::with_limit(None, AdmissionPolicy::RejectNew)
    }

    /// An empty scheduler whose queue holds at most `capacity` tasks;
    /// `policy` decides what a submission at capacity does.
    pub fn bounded(capacity: usize, policy: AdmissionPolicy) -> Self {
        Self::with_limit(Some(capacity.max(1)), policy)
    }

    fn with_limit(capacity: Option<usize>, policy: AdmissionPolicy) -> Self {
        let sched = Self {
            shared: Arc::new(Shared {
                mu: Mutex::new(Inner {
                    tenants: Vec::new(),
                    by_name: HashMap::new(),
                    rr: VecDeque::new(),
                    total_queued: 0,
                    inflight: HashMap::new(),
                    pool: BucketPool::new(),
                    hints: HashMap::new(),
                    wait_samples: VecDeque::new(),
                    stats: SchedStats::default(),
                    next_seq: 0,
                    closed: false,
                    capacity,
                    policy,
                    obs: SchedObs::resolve(),
                }),
                freed: Condvar::new(),
            }),
        };
        // The default tenant always exists at index 0.
        sched.shared.mu.lock().tenant_idx(DEFAULT_TENANT);
        sched
    }

    /// Register (or update) a tenant: weight, task quota, and policy
    /// override. Existing queued tasks keep their positions.
    pub fn register_tenant(&self, spec: &TenantSpec) {
        let mut g = self.shared.mu.lock();
        let idx = g.tenant_idx(&spec.name);
        let tq = &mut g.tenants[idx];
        tq.weight = spec.weight.max(1);
        tq.task_quota = spec.task_quota;
        tq.policy = spec.policy;
        sitra_obs::emit(
            "sched",
            "tenant.register",
            &[
                ("tenant", spec.name.clone()),
                ("weight", tq.weight.to_string()),
                (
                    "task_quota",
                    tq.task_quota.map_or("none".into(), |q| q.to_string()),
                ),
            ],
        );
    }

    /// Hand queued tasks to parked buckets while both exist — the only
    /// place a task meets a bucket. Every data-ready and bucket-ready
    /// event ends here, so a queued task and a parked bucket never
    /// coexist once the lock is released.
    fn drain(shared: &Shared<T>, g: &mut Inner<T>) {
        let mut popped = false;
        while g.total_queued > 0 && g.pool.has_parked() {
            let (seq, task, enqueued) = g.pop_next().expect("total_queued > 0");
            let hint = g.hints.remove(&seq);
            let (bucket, tx, saved) = g
                .pool
                .take_for(hint.as_ref())
                .expect("pool has a parked bucket");
            g.note_locality_saved(seq, bucket, saved);
            g.stats.tasks_assigned += 1;
            g.obs.assigned.inc();
            g.note_wait(enqueued);
            popped = true;
            // A dropped bucket loses the task; buckets park before
            // dropping only via close(), so this send always succeeds in
            // practice.
            let _ = tx.send((seq, task));
        }
        g.obs.queue_depth.set(g.total_queued as i64);
        if popped {
            shared.freed.notify_all();
        }
    }

    /// Data-ready: enqueue `s.task` under `s.tenant`, applying the
    /// tenant's [`AdmissionPolicy`] (or the scheduler's) when the global
    /// queue is at capacity or the tenant is at its task quota, and
    /// report the verdict — producers learn *why* a submission was
    /// refused (and which task was shed) instead of a bare failure. A
    /// bare task submits as the default tenant with no hint. If a
    /// bucket is parked, the task is handed over immediately.
    ///
    /// A non-empty [`ResidencyHint`] lets placement steer the
    /// assignment toward a co-located bucket. The hint is advisory:
    /// when no parked bucket's location holds any of its bytes the
    /// verdict, sequence number, and assignment order are those of an
    /// unhinted submission.
    pub fn submit<'a>(&self, s: impl Into<Submission<'a, T>>) -> Admission {
        let Submission { tenant, hint, task } = s.into();
        let mut g = self.shared.mu.lock();
        if g.closed {
            return Admission::Closed;
        }
        let idx = g.tenant_idx(tenant);
        let mut shed_seq = None;
        if g.over_limit(idx) {
            match g.policy_for(idx) {
                AdmissionPolicy::RejectNew => {
                    return Self::reject(&mut g, idx);
                }
                AdmissionPolicy::ShedOldest => {
                    shed_seq = g.shed_oldest_for(idx);
                    if shed_seq.is_none() {
                        // Nothing anywhere to shed (capacity consumed by
                        // in-flight hand-offs): refuse instead.
                        return Self::reject(&mut g, idx);
                    }
                }
                AdmissionPolicy::Block { max_wait } => {
                    let t0 = Instant::now();
                    // An already-elapsed deadline returns immediately:
                    // there is nothing to wait for, and entering the
                    // wait loop with a zero budget would re-check
                    // capacity on every spurious wakeup instead of
                    // reporting the timeout.
                    if !max_wait.is_zero() {
                        let deadline = t0 + max_wait;
                        while g.over_limit(idx) && !g.closed {
                            let left = deadline.saturating_duration_since(Instant::now());
                            if left.is_zero() {
                                break;
                            }
                            if self.shared.freed.wait_for(&mut g, left) {
                                // The deadline elapsed inside the wait:
                                // do not spin through ever-shorter
                                // re-waits, the verdict is final.
                                break;
                            }
                        }
                    }
                    g.obs.backpressure_wait.observe(t0.elapsed());
                    if g.closed {
                        return Admission::Closed;
                    }
                    if g.over_limit(idx) {
                        return Self::reject(&mut g, idx);
                    }
                }
            }
        }
        let seq = g.next_seq;
        g.next_seq += 1;
        g.stats.tasks_submitted += 1;
        g.obs.submitted.inc();
        g.tenants[idx].stats.tasks_submitted += 1;
        g.tenants[idx].obs.submitted.inc();
        if let Some(shed) = shed_seq {
            g.hints.remove(&shed);
        }
        if !hint.is_empty() {
            g.hints.insert(seq, hint);
        }
        Self::emit_admit(
            &g,
            idx,
            if shed_seq.is_some() {
                "shed"
            } else {
                "accepted"
            },
        );
        g.enqueue_back(idx, seq, task);
        Self::drain(&self.shared, &mut g);
        match shed_seq {
            Some(shed) => Admission::AcceptedShed {
                seq,
                shed_seq: shed,
            },
            None => Admission::Accepted { seq },
        }
    }

    fn reject(g: &mut Inner<T>, idx: usize) -> Admission {
        g.stats.tasks_rejected += 1;
        g.obs.rejected.inc();
        g.tenants[idx].stats.tasks_rejected += 1;
        g.tenants[idx].obs.rejected.inc();
        Self::emit_admit(g, idx, "rejected");
        match g.policy_for(idx) {
            AdmissionPolicy::Block { .. } => Admission::TimedOut,
            _ => Admission::Rejected,
        }
    }

    /// Journal one admission verdict with its tenant, so replay can
    /// rebuild the per-tenant admission table bit-identical to the live
    /// counters.
    fn emit_admit(g: &Inner<T>, idx: usize, verdict: &str) {
        sitra_obs::emit(
            "sched",
            "tenant.admit",
            &[
                ("tenant", g.tenants[idx].name.to_string()),
                ("verdict", verdict.to_string()),
            ],
        );
    }

    /// Whether [`Self::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.shared.mu.lock().closed
    }

    /// Block until [`Self::close`] is called.
    pub fn wait_closed(&self) {
        let mut g = self.shared.mu.lock();
        while !g.closed {
            self.shared.freed.wait(&mut g);
        }
    }

    /// Put a task back at the *head* of `tenant`'s queue, keeping its
    /// original sequence number: the hand-off to a bucket failed (its
    /// connection died before acknowledging receipt) and the task must
    /// go to the next free bucket instead of being lost. `tenant` is
    /// the owner the caller looked up with [`Self::tenant_of`], or the
    /// one [`Self::drain_queued`] labelled the task with. The tenant
    /// rotation is advanced so the requeued task is the next
    /// assignment. Works even after [`Self::close`] so in-flight tasks
    /// drain, and bypasses the admission policy — an in-flight task was
    /// already admitted once and must never be the one to lose out.
    pub fn requeue_front(&self, tenant: &str, seq: u64, task: T) {
        let mut g = self.shared.mu.lock();
        g.inflight.remove(&seq);
        let idx = g.tenant_idx(tenant);
        g.stats.tasks_requeued += 1;
        g.obs.requeued.inc();
        g.tenants[idx].stats.tasks_requeued += 1;
        sitra_obs::emit(
            "sched",
            "tenant.requeue",
            &[
                ("tenant", g.tenants[idx].name.to_string()),
                ("seq", seq.to_string()),
            ],
        );
        // The wait clock restarts: the latency being measured is
        // time-in-queue, and a requeued task re-enters the queue now.
        g.tenants[idx].queue.push_front((seq, task, Instant::now()));
        g.total_queued += 1;
        g.activate_front(idx);
        g.note_depth(idx);
        Self::drain(&self.shared, &mut g);
    }

    /// Acknowledge that an assigned task reached its consumer: the
    /// scheduler can forget which tenant owned the hand-off. (Purely
    /// bookkeeping — an unacknowledged entry only costs a map slot.)
    pub fn ack(&self, seq: u64) {
        self.shared.mu.lock().inflight.remove(&seq);
    }

    /// The tenant owning an in-flight (assigned, unacknowledged) task.
    /// Buckets are shared across tenants, so a consumer handed `seq`
    /// learns here which namespace the task's inputs live in.
    pub fn tenant_of(&self, seq: u64) -> Option<String> {
        let g = self.shared.mu.lock();
        g.inflight
            .get(&seq)
            .map(|&idx| g.tenants[idx].name.to_string())
    }

    /// Remove and return every queued (not yet assigned) task as
    /// `(tenant, seq, task)` in sequence order. This is the
    /// graceful-leave primitive: a cluster member shutting down drains
    /// its backlog and re-submits the tasks *under the same tenants* on
    /// the surviving members instead of stranding them behind a closed
    /// scheduler. In-flight (assigned but unacknowledged) tasks are not
    /// touched — their two-phase hand-off already guarantees requeue or
    /// completion.
    pub fn drain_queued(&self) -> Vec<(String, u64, T)> {
        let mut g = self.shared.mu.lock();
        let mut drained: Vec<(String, u64, T)> = Vec::with_capacity(g.total_queued);
        for tq in g.tenants.iter_mut() {
            let name = tq.name.to_string();
            for (seq, task, _) in tq.queue.drain(..) {
                drained.push((name.clone(), seq, task));
            }
            tq.deficit = 0;
            tq.in_rr = false;
            tq.obs.queued.set(0);
        }
        drained.sort_by_key(|(_, seq, _)| *seq);
        for (_, seq, _) in &drained {
            g.hints.remove(seq);
        }
        g.rr.clear();
        g.total_queued = 0;
        g.obs.queue_depth.set(0);
        // Queue space freed: wake any Block-policy submitters.
        self.shared.freed.notify_all();
        drained
    }

    /// Register a bucket and get its handle.
    pub fn register_bucket(&self, id: BucketId) -> BucketHandle<T> {
        self.register_bucket_at(id, None)
    }

    /// Register a bucket with a *location* label (the endpoint or
    /// cluster member it is co-resident with), so placement can match
    /// it against task residency hints.
    pub fn register_bucket_at(&self, id: BucketId, location: Option<&str>) -> BucketHandle<T> {
        {
            let mut g = self.shared.mu.lock();
            g.pool.note_busy(id);
            g.pool.set_location(id, location.map(str::to_string));
        }
        BucketHandle {
            id,
            sched: self.clone(),
        }
    }

    /// Pick one bucket to drain-then-retire — the most recently parked
    /// idle bucket when one exists (the longest-idle keep serving FCFS),
    /// else a busy one. Returns the chosen id.
    pub fn drain_one_bucket(&self) -> Option<BucketId> {
        let id = self.shared.mu.lock().pool.drain_one();
        if let Some(id) = id {
            sitra_obs::emit("sched", "bucket.drain", &[("bucket", id.to_string())]);
        }
        id
    }

    /// Snapshot of the bucket pool for the autoscaler: live buckets,
    /// parked-idle count, queue depth, and the p99 of recent task
    /// queue-waits.
    pub fn pool_snapshot(&self) -> PoolSnapshot {
        let g = self.shared.mu.lock();
        PoolSnapshot {
            buckets: g.pool.active_len(),
            idle: g.pool.parked_len(),
            queue_depth: g.total_queued,
            p99_wait: g.p99_wait(),
        }
    }

    /// The desired bucket count, if a capacity controller
    /// ([`Scheduler::autoscale`]) is running.
    pub fn pool_target(&self) -> Option<usize> {
        self.shared.mu.lock().pool.target()
    }

    /// Run `f` on the bucket pool under the scheduler lock.
    pub(crate) fn with_pool<R>(&self, f: impl FnOnce(&mut BucketPool<T>) -> R) -> R {
        f(&mut self.shared.mu.lock().pool)
    }

    /// Close the scheduler: no further submissions; parked and future
    /// bucket requests return `None` once the queue drains.
    pub fn close(&self) {
        let mut g = self.shared.mu.lock();
        // Drain *before* dropping the parked buckets' senders: a task
        // submitted just before close must reach a bucket that is
        // already parked rather than strand in the queue while that
        // bucket wakes empty-handed and gives up.
        Self::drain(&self.shared, &mut g);
        g.closed = true;
        // Wake remaining parked buckets with nothing: drop their senders.
        g.pool.clear_parked();
        // And wake Block-policy submitters so they observe the close.
        self.shared.freed.notify_all();
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> SchedStats {
        self.shared.mu.lock().stats.clone()
    }

    /// Snapshot of every tenant's scheduler state, in registration
    /// order (the default tenant first).
    pub fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        let g = self.shared.mu.lock();
        g.tenants
            .iter()
            .map(|t| TenantSnapshot {
                name: t.name.to_string(),
                weight: t.weight,
                queued: t.queue.len() as u64,
                task_quota: t.task_quota.map(|q| q as u64),
                stats: t.stats.clone(),
            })
            .collect()
    }

    /// Current queue depth (across all tenants).
    pub fn queue_depth(&self) -> usize {
        self.shared.mu.lock().total_queued
    }
}

/// The verdict of one bucket-ready poll ([`BucketHandle::poll_task`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lease<T> {
    /// A task was assigned to this bucket.
    Assigned {
        /// The task's sequence number.
        seq: u64,
        /// The task payload.
        task: T,
    },
    /// Nothing arrived within the timeout; poll again.
    Empty,
    /// The scheduler closed with an empty queue: exit.
    Closed,
    /// The capacity controller drained this bucket: deregister and
    /// exit. Fires only *between* tasks, never mid-assignment, so a
    /// retiring bucket has nothing in hand to lose.
    Retire,
}

/// A staging bucket's connection to the scheduler.
pub struct BucketHandle<T> {
    id: BucketId,
    sched: Scheduler<T>,
}

impl<T: Send + 'static> BucketHandle<T> {
    /// This bucket's id.
    pub fn id(&self) -> BucketId {
        self.id
    }

    /// Bucket-ready: one lease poll, the full lifecycle verb. Blocks
    /// until a task is assigned ([`Lease::Assigned`]), the scheduler
    /// closes ([`Lease::Closed`]), the bucket is drained
    /// ([`Lease::Retire`]), or — with a timeout — nothing arrives in
    /// time ([`Lease::Empty`]; the bucket is withdrawn from the free
    /// list, rescuing any task that raced in). FCFS within a tenant,
    /// weighted round-robin across tenants, the bucket chosen by the
    /// pool's placement rule.
    ///
    /// The request parks and then runs the same drain a submission
    /// runs: with a task queued no other bucket is parked, so this one
    /// takes it at once.
    pub fn poll_task(&self, timeout: Option<Duration>) -> Lease<T> {
        let t_ready = Instant::now();
        let rx: Receiver<(u64, T)> = {
            let mut g = self.sched.shared.mu.lock();
            if g.pool.take_retirement(self.id) {
                sitra_obs::emit("sched", "bucket.retire", &[("bucket", self.id.to_string())]);
                return Lease::Retire;
            }
            if g.closed && g.total_queued == 0 {
                return Lease::Closed;
            }
            let (tx, rx) = bounded(1);
            g.pool.park(self.id, tx);
            Scheduler::drain(&self.sched.shared, &mut g);
            rx
        };
        let got = match timeout {
            // Park until a task (sender dropped => closed or drained).
            None => rx.recv().ok(),
            Some(timeout) => match rx.recv_timeout(timeout) {
                Ok(t) => Some(t),
                Err(_) => {
                    // Withdraw (if still parked) so a future task is not
                    // sent into the void.
                    let mut g = self.sched.shared.mu.lock();
                    g.pool.withdraw(self.id);
                    // A task may have raced in between timeout and lock:
                    // it would already be in rx.
                    rx.try_recv().ok()
                }
            },
        };
        match got {
            Some((seq, task)) => {
                self.sched
                    .shared
                    .mu
                    .lock()
                    .obs
                    .bucket_idle
                    .observe(t_ready.elapsed());
                Lease::Assigned { seq, task }
            }
            None => {
                // Nothing received: a timeout, a close, or a drain that
                // dropped our parked sender. Classify under the lock.
                let mut g = self.sched.shared.mu.lock();
                if g.pool.take_retirement(self.id) {
                    sitra_obs::emit("sched", "bucket.retire", &[("bucket", self.id.to_string())]);
                    Lease::Retire
                } else if g.closed {
                    Lease::Closed
                } else {
                    Lease::Empty
                }
            }
        }
    }

    /// Bucket-ready: request the next task, blocking until one is
    /// assigned or the scheduler is closed (or this bucket drained)
    /// with nothing assigned — then `None`.
    pub fn request_task(&self) -> Option<(u64, T)> {
        match self.poll_task(None) {
            Lease::Assigned { seq, task } => Some((seq, task)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An unhinted submission by `tenant`.
    fn by<T>(tenant: &str, task: T) -> Submission<'_, T> {
        Submission {
            tenant,
            hint: ResidencyHint::default(),
            task,
        }
    }

    #[test]
    fn immediate_assignment_when_task_waiting() {
        let s: Scheduler<&'static str> = Scheduler::new();
        s.submit("t0");
        let b = s.register_bucket(1);
        assert_eq!(b.request_task(), Some((0, "t0")));
        let st = s.stats();
        assert_eq!(st.tasks_assigned, 1);
    }

    #[test]
    fn parked_bucket_gets_task_on_submit() {
        let s: Scheduler<u32> = Scheduler::new();
        let b = s.register_bucket(3);
        let s2 = s.clone();
        let h = std::thread::spawn(move || b.request_task());
        std::thread::sleep(Duration::from_millis(50));
        s2.submit(99);
        assert_eq!(h.join().unwrap(), Some((0, 99)));
    }

    #[test]
    fn fcfs_task_order() {
        let s: Scheduler<u64> = Scheduler::new();
        for i in 0..10 {
            s.submit(i);
        }
        let b = s.register_bucket(0);
        for i in 0..10 {
            let (seq, task) = b.request_task().unwrap();
            assert_eq!(seq, i);
            assert_eq!(task, i);
        }
    }

    #[test]
    fn fcfs_bucket_order() {
        // Buckets that parked first are served first.
        let s: Scheduler<u32> = Scheduler::new();
        let b1 = s.register_bucket(1);
        let b2 = s.register_bucket(2);
        let h1 = std::thread::spawn(move || b1.request_task());
        std::thread::sleep(Duration::from_millis(80));
        let h2 = std::thread::spawn(move || b2.request_task());
        std::thread::sleep(Duration::from_millis(80));
        s.submit(10);
        s.submit(20);
        assert_eq!(h1.join().unwrap(), Some((0, 10)));
        assert_eq!(h2.join().unwrap(), Some((1, 20)));
    }

    #[test]
    fn no_task_lost_under_contention() {
        let s: Scheduler<u64> = Scheduler::new();
        let n_tasks = 200u64;
        let n_buckets = 8;
        let done: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..n_buckets)
            .map(|i| {
                let b = s.register_bucket(i);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    while let Some((_, t)) = b.request_task() {
                        done.lock().push(t);
                    }
                })
            })
            .collect();
        for i in 0..n_tasks {
            s.submit(i);
        }
        // Wait for the queue to drain, then close.
        while s.stats().tasks_assigned < n_tasks {
            std::thread::sleep(Duration::from_millis(10));
        }
        s.close();
        for w in workers {
            w.join().unwrap();
        }
        let mut got = done.lock().clone();
        got.sort_unstable();
        assert_eq!(got, (0..n_tasks).collect::<Vec<_>>());
    }

    #[test]
    fn close_releases_parked_buckets() {
        let s: Scheduler<u32> = Scheduler::new();
        let b = s.register_bucket(1);
        let h = std::thread::spawn(move || b.request_task());
        std::thread::sleep(Duration::from_millis(50));
        s.close();
        assert_eq!(h.join().unwrap(), None);
        // Post-close requests return None immediately.
        let b2 = s.register_bucket(2);
        assert_eq!(b2.request_task(), None);
    }

    #[test]
    fn timeout_withdraws_bucket() {
        let s: Scheduler<u32> = Scheduler::new();
        let b = s.register_bucket(1);
        assert_eq!(b.poll_task(Some(Duration::from_millis(30))), Lease::Empty);
        // The bucket is no longer parked: a submitted task stays queued.
        s.submit(5);
        assert_eq!(s.queue_depth(), 1);
        // And can still be fetched later.
        assert_eq!(b.request_task(), Some((0, 5)));
    }

    #[test]
    fn queue_depth_high_water_mark() {
        let s: Scheduler<u32> = Scheduler::new();
        for i in 0..5 {
            s.submit(i);
        }
        let b = s.register_bucket(0);
        for _ in 0..5 {
            b.request_task().unwrap();
        }
        assert_eq!(s.stats().max_queue_depth, 5);
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn submit_after_close_is_refused() {
        let s: Scheduler<u32> = Scheduler::new();
        assert_eq!(s.submit(1), Admission::Accepted { seq: 0 });
        s.close();
        assert!(s.is_closed());
        assert_eq!(s.submit(2), Admission::Closed);
        // The pre-close task still drains.
        let b = s.register_bucket(0);
        assert_eq!(b.request_task(), Some((0, 1)));
        assert_eq!(b.request_task(), None);
        assert_eq!(s.stats().tasks_submitted, 1);
    }

    #[test]
    fn timeout_withdraw_never_loses_a_racing_task() {
        // Hammer the withdraw-vs-assign race: one thread polls with a
        // tiny timeout while another submits at adversarial moments. A
        // task sent into the bucket's channel in the window between the
        // recv timeout firing and the withdraw taking the lock must be
        // rescued, never dropped.
        let s: Scheduler<u64> = Scheduler::new();
        let n_tasks = 300u64;
        let consumer = {
            let b = s.register_bucket(0);
            let s = s.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match b.poll_task(Some(Duration::from_micros(50))) {
                        Lease::Assigned { task, .. } => got.push(task),
                        _ => {
                            if s.is_closed() {
                                // Rescue anything assigned during close.
                                while let Lease::Assigned { task, .. } =
                                    b.poll_task(Some(Duration::ZERO))
                                {
                                    got.push(task);
                                }
                                return got;
                            }
                        }
                    }
                }
            })
        };
        for i in 0..n_tasks {
            s.submit(i);
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_micros(30));
            }
        }
        while s.stats().tasks_assigned < n_tasks {
            std::thread::sleep(Duration::from_millis(5));
        }
        s.close();
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..n_tasks).collect::<Vec<_>>());
        // Every assignment went to the one bucket, exactly once each.
        assert_eq!(s.stats().tasks_assigned, n_tasks);
    }

    #[test]
    fn close_wakes_all_parked_buckets_promptly() {
        let s: Scheduler<u32> = Scheduler::new();
        let n_buckets = 16;
        let parked: Vec<_> = (0..n_buckets)
            .map(|i| {
                let b = s.register_bucket(i);
                std::thread::spawn(move || {
                    let t0 = std::time::Instant::now();
                    let got = b.request_task();
                    (got, t0.elapsed())
                })
            })
            .collect();
        // Let everyone park, then close.
        std::thread::sleep(Duration::from_millis(100));
        let t_close = std::time::Instant::now();
        s.close();
        for h in parked {
            let (got, _) = h.join().unwrap();
            assert_eq!(got, None);
        }
        // All 16 woke within a bound far below any polling interval.
        assert!(
            t_close.elapsed() < Duration::from_secs(2),
            "parked buckets took {:?} to observe close",
            t_close.elapsed()
        );
    }

    #[test]
    fn requeue_front_preserves_order_and_counts() {
        let s: Scheduler<&'static str> = Scheduler::new();
        s.submit("a");
        s.submit("b");
        let b = s.register_bucket(0);
        let (seq_a, task_a) = b.request_task().unwrap();
        assert_eq!((seq_a, task_a), (0, "a"));
        // Hand-off failed: "a" goes back to the head, ahead of "b".
        s.requeue_front(DEFAULT_TENANT, seq_a, task_a);
        assert_eq!(b.request_task(), Some((0, "a")));
        assert_eq!(b.request_task(), Some((1, "b")));
        let st = s.stats();
        assert_eq!(st.tasks_submitted, 2);
        assert_eq!(st.tasks_requeued, 1);
        assert_eq!(st.tasks_assigned, 3); // "a" twice, "b" once
    }

    #[test]
    fn requeue_after_close_still_drains() {
        let s: Scheduler<u32> = Scheduler::new();
        s.submit(7);
        let b = s.register_bucket(0);
        let (seq, task) = b.request_task().unwrap();
        s.close();
        // The in-flight task's hand-off fails after close; it must still
        // reach the next bucket request rather than vanish.
        s.requeue_front(DEFAULT_TENANT, seq, task);
        assert_eq!(b.request_task(), Some((0, 7)));
        assert_eq!(b.request_task(), None);
    }

    #[test]
    fn requeue_wakes_a_parked_bucket() {
        let s: Scheduler<u32> = Scheduler::new();
        s.submit(1);
        let b0 = s.register_bucket(0);
        let (seq, task) = b0.request_task().unwrap();
        // Another bucket parks with an empty queue...
        let b1 = s.register_bucket(1);
        let h = std::thread::spawn(move || b1.request_task());
        std::thread::sleep(Duration::from_millis(50));
        // ...and the failed hand-off's requeue reaches it directly.
        s.requeue_front(DEFAULT_TENANT, seq, task);
        assert_eq!(h.join().unwrap(), Some((0, 1)));
    }

    #[test]
    fn drain_queued_empties_the_backlog_in_fcfs_order() {
        let s: Scheduler<&'static str> = Scheduler::new();
        s.submit("a");
        s.submit("b");
        s.submit("c");
        let default = DEFAULT_TENANT.to_string();
        assert_eq!(
            s.drain_queued(),
            vec![
                (default.clone(), 0, "a"),
                (default.clone(), 1, "b"),
                (default, 2, "c")
            ]
        );
        assert_eq!(s.queue_depth(), 0);
        assert!(s.drain_queued().is_empty());
        // The scheduler stays usable: new submissions flow normally.
        s.submit("d");
        let b = s.register_bucket(0);
        assert_eq!(b.request_task(), Some((3, "d")));
    }

    #[test]
    fn reject_new_refuses_at_capacity() {
        let s: Scheduler<u32> = Scheduler::bounded(2, AdmissionPolicy::RejectNew);
        assert_eq!(s.submit(0), Admission::Accepted { seq: 0 });
        assert_eq!(s.submit(1), Admission::Accepted { seq: 1 });
        assert_eq!(s.submit(2), Admission::Rejected);
        assert_eq!(s.submit(3).seq(), None);
        assert_eq!(s.queue_depth(), 2);
        let st = s.stats();
        assert_eq!(st.tasks_submitted, 2);
        assert_eq!(st.tasks_rejected, 2);
        // Draining one frees a slot.
        let b = s.register_bucket(0);
        assert_eq!(b.request_task(), Some((0, 0)));
        assert_eq!(s.submit(4), Admission::Accepted { seq: 2 });
    }

    #[test]
    fn shed_oldest_evicts_queue_head() {
        let s: Scheduler<u32> = Scheduler::bounded(2, AdmissionPolicy::ShedOldest);
        s.submit(10);
        s.submit(11);
        assert_eq!(
            s.submit(12),
            Admission::AcceptedShed {
                seq: 2,
                shed_seq: 0
            }
        );
        assert_eq!(s.queue_depth(), 2);
        assert_eq!(s.stats().tasks_shed, 1);
        // The freshest two tasks survive, FCFS among them.
        let b = s.register_bucket(0);
        assert_eq!(b.request_task(), Some((1, 11)));
        assert_eq!(b.request_task(), Some((2, 12)));
    }

    #[test]
    fn block_policy_waits_for_space_then_times_out() {
        let s: Scheduler<u32> = Scheduler::bounded(
            1,
            AdmissionPolicy::Block {
                max_wait: Duration::from_millis(100),
            },
        );
        s.submit(1);
        // Nothing frees space: the submitter waits out the deadline.
        let t0 = Instant::now();
        assert_eq!(s.submit(2), Admission::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(80));
        assert_eq!(s.stats().tasks_rejected, 1);

        // With a consumer popping, the blocked submitter gets through.
        let s2: Scheduler<u32> = Scheduler::bounded(
            1,
            AdmissionPolicy::Block {
                max_wait: Duration::from_secs(10),
            },
        );
        s2.submit(1);
        let b = s2.register_bucket(0);
        let popper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            b.request_task()
        });
        assert_eq!(s2.submit(2), Admission::Accepted { seq: 1 });
        assert_eq!(popper.join().unwrap(), Some((0, 1)));
    }

    #[test]
    fn block_with_zero_max_wait_returns_immediately() {
        // Regression: an already-elapsed Block deadline must report
        // TimedOut at once — no condvar wait, no capacity re-check spin.
        let s: Scheduler<u32> = Scheduler::bounded(
            1,
            AdmissionPolicy::Block {
                max_wait: Duration::ZERO,
            },
        );
        s.submit(1);
        let t0 = Instant::now();
        assert_eq!(s.submit(2), Admission::TimedOut);
        assert!(
            t0.elapsed() < Duration::from_millis(20),
            "zero max_wait took {:?} to report TimedOut",
            t0.elapsed()
        );
        assert_eq!(s.stats().tasks_rejected, 1);
        // The queue itself is untouched and the scheduler stays usable.
        assert_eq!(s.queue_depth(), 1);
        let b = s.register_bucket(0);
        assert_eq!(b.request_task(), Some((0, 1)));
        assert_eq!(s.submit(3), Admission::Accepted { seq: 1 });
    }

    #[test]
    fn close_wakes_blocked_submitter() {
        let s: Scheduler<u32> = Scheduler::bounded(
            1,
            AdmissionPolicy::Block {
                max_wait: Duration::from_secs(30),
            },
        );
        s.submit(1);
        let s2 = s.clone();
        let h = std::thread::spawn(move || s2.submit(2));
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        s.close();
        assert_eq!(h.join().unwrap(), Admission::Closed);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn wait_closed_returns_on_close_not_on_assignments() {
        let s: Scheduler<u32> = Scheduler::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let s = s.clone();
            std::thread::spawn(move || {
                s.wait_closed();
                tx.send(()).unwrap();
            })
        };
        // An assignment notifies the same condvar; the waiter keeps
        // waiting through it.
        let b = s.register_bucket(0);
        s.submit(1);
        assert_eq!(b.request_task(), Some((0, 1)));
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        s.close();
        rx.recv_timeout(Duration::from_secs(5))
            .expect("wait_closed returns on close");
        waiter.join().unwrap();
        s.wait_closed(); // Already closed: returns at once.
    }

    #[test]
    fn bounded_queue_never_exceeds_capacity_under_load() {
        // Hammer a capacity-4 queue from many producers while consumers
        // pop slowly; the depth observed at every admission must stay
        // within the bound for both non-blocking policies.
        for policy in [AdmissionPolicy::ShedOldest, AdmissionPolicy::RejectNew] {
            let s: Scheduler<u64> = Scheduler::bounded(4, policy);
            let consumer = {
                let b = s.register_bucket(0);
                let s = s.clone();
                std::thread::spawn(move || loop {
                    match b.poll_task(Some(Duration::from_micros(200))) {
                        Lease::Assigned { .. } => {}
                        _ if s.is_closed() => return,
                        _ => {}
                    }
                })
            };
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let s = s.clone();
                    std::thread::spawn(move || {
                        let mut max_seen = 0;
                        for i in 0..200 {
                            s.submit(p * 1000 + i);
                            max_seen = max_seen.max(s.queue_depth());
                        }
                        max_seen
                    })
                })
                .collect();
            let max_seen = producers
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap();
            s.close();
            consumer.join().unwrap();
            assert!(
                max_seen <= 4,
                "{policy:?}: queue depth {max_seen} exceeded capacity 4"
            );
            let st = s.stats();
            assert!(
                st.max_queue_depth <= 4,
                "{policy:?}: high-water {} exceeded capacity 4",
                st.max_queue_depth
            );
            // Every submission was either admitted, shed, or rejected.
            assert_eq!(st.tasks_submitted + st.tasks_rejected, 800);
        }
    }

    #[test]
    fn close_vs_submit_race_strands_no_accepted_task() {
        // Regression for the close-ordering bug: close() used to drop
        // the parked buckets' senders *before* draining the queue, so a
        // task accepted just before close could strand while a parked
        // bucket woke empty-handed. Hammer the interleaving: every task
        // whose submission was *accepted* must end up either assigned to
        // a bucket or still drainable after close — never lost.
        for _ in 0..20 {
            let s: Scheduler<u64> = Scheduler::new();
            let consumer = {
                let b = s.register_bucket(0);
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match b.request_task() {
                            Some((_, t)) => got.push(t),
                            None => {
                                // Closed: rescue whatever close() handed
                                // to the queue but not to us.
                                while let Lease::Assigned { task, .. } =
                                    b.poll_task(Some(Duration::ZERO))
                                {
                                    got.push(task);
                                }
                                if s.queue_depth() == 0 {
                                    return got;
                                }
                            }
                        }
                    }
                })
            };
            let producer = {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut accepted = Vec::new();
                    for i in 0..50u64 {
                        match s.submit(i) {
                            Admission::Accepted { .. } => accepted.push(i),
                            _ => break, // closed under us
                        }
                        if i == 25 {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                    accepted
                })
            };
            // Close at an adversarial moment, mid-submission-burst.
            std::thread::sleep(Duration::from_micros(300));
            s.close();
            let accepted = producer.join().unwrap();
            let mut got = consumer.join().unwrap();
            got.sort_unstable();
            assert_eq!(got, accepted, "an accepted task was stranded by close()");
        }
    }

    // ---------------- tenancy ----------------

    #[test]
    fn drr_shares_follow_weights_under_backlog() {
        // Three backlogged tenants with weights 1:2:4; assignments must
        // interleave in weight proportion, not FCFS by submit order.
        let s: Scheduler<(&'static str, u64)> = Scheduler::new();
        s.register_tenant(&TenantSpec::new("a").with_weight(1));
        s.register_tenant(&TenantSpec::new("b").with_weight(2));
        s.register_tenant(&TenantSpec::new("c").with_weight(4));
        // Tenant a submits its whole backlog first — under plain FCFS it
        // would monopolize the first 70 assignments.
        for t in ["a", "b", "c"] {
            for i in 0..70u64 {
                assert!(s.submit(by(t, (t, i))).seq().is_some());
            }
        }
        let b = s.register_bucket(0);
        // Pop one full DRR cycle worth (1+2+4)*10 = 70 tasks while every
        // tenant still has backlog.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..70 {
            let (_, (t, _)) = b.request_task().unwrap();
            *counts.entry(t).or_insert(0u64) += 1;
        }
        assert_eq!(counts["a"], 10, "{counts:?}");
        assert_eq!(counts["b"], 20, "{counts:?}");
        assert_eq!(counts["c"], 40, "{counts:?}");
        // Within a tenant, order is FCFS.
        let snap = s.tenant_stats();
        let names: Vec<&str> = snap.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec![DEFAULT_TENANT, "a", "b", "c"]);
    }

    #[test]
    fn single_tenant_is_plain_fcfs() {
        // A registered-but-sole tenant behaves exactly like the default:
        // strict submit order.
        let s: Scheduler<u64> = Scheduler::new();
        s.register_tenant(&TenantSpec::new("only").with_weight(3));
        for i in 0..20 {
            s.submit(by("only", i));
        }
        let b = s.register_bucket(0);
        for i in 0..20 {
            assert_eq!(b.request_task().unwrap().1, i);
        }
    }

    #[test]
    fn task_quota_enforced_per_tenant() {
        let s: Scheduler<u64> = Scheduler::new();
        s.register_tenant(&TenantSpec::new("small").with_task_quota(2));
        assert!(s.submit(by("small", 0)).seq().is_some());
        assert!(s.submit(by("small", 1)).seq().is_some());
        // Over quota: global policy (RejectNew) refuses.
        assert_eq!(s.submit(by("small", 2)), Admission::Rejected);
        // An unrelated tenant is unaffected.
        assert!(s.submit(by("big", 3)).seq().is_some());
        let snap = s.tenant_stats();
        let small = snap.iter().find(|t| t.name == "small").unwrap();
        assert_eq!(small.stats.tasks_submitted, 2);
        assert_eq!(small.stats.tasks_rejected, 1);
        assert_eq!(small.queued, 2);
    }

    #[test]
    fn tenant_policy_override_sheds_own_oldest_only() {
        let s: Scheduler<(&'static str, u64)> = Scheduler::new();
        s.register_tenant(
            &TenantSpec::new("shedder")
                .with_task_quota(2)
                .with_policy(AdmissionPolicy::ShedOldest),
        );
        s.submit(by("victim?", ("victim?", 0)));
        let s0 = s.submit(by("shedder", ("shedder", 0))).seq().unwrap();
        s.submit(by("shedder", ("shedder", 1)));
        // Over its quota, the shedder evicts its OWN oldest (seq s0),
        // never the other tenant's task.
        match s.submit(by("shedder", ("shedder", 2))) {
            Admission::AcceptedShed { shed_seq, .. } => assert_eq!(shed_seq, s0),
            v => panic!("expected AcceptedShed, got {v:?}"),
        }
        assert_eq!(s.queue_depth(), 3);
        let snap = s.tenant_stats();
        assert_eq!(snap.iter().find(|t| t.name == "victim?").unwrap().queued, 1);
        assert_eq!(
            snap.iter()
                .find(|t| t.name == "shedder")
                .unwrap()
                .stats
                .tasks_shed,
            1
        );
    }

    #[test]
    fn tenant_block_quota_respects_deadline_and_release() {
        let s: Scheduler<u64> = Scheduler::new();
        s.register_tenant(&TenantSpec::new("blocked").with_task_quota(1).with_policy(
            AdmissionPolicy::Block {
                max_wait: Duration::from_millis(80),
            },
        ));
        s.submit(by("blocked", 0));
        // Deadline elapses: TimedOut.
        let t0 = Instant::now();
        assert_eq!(s.submit(by("blocked", 1)), Admission::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(60));
        // A consumer freeing the tenant's slot unblocks the submitter.
        let b = s.register_bucket(0);
        let h = std::thread::spawn({
            let s = s.clone();
            move || s.submit(by("blocked", 2))
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.request_task().is_some());
        assert!(h.join().unwrap().seq().is_some());
    }

    #[test]
    fn requeue_lands_back_in_its_tenant_queue_first() {
        let s: Scheduler<(&'static str, u64)> = Scheduler::new();
        s.register_tenant(&TenantSpec::new("x"));
        s.register_tenant(&TenantSpec::new("y"));
        s.submit(by("x", ("x", 0)));
        s.submit(by("y", ("y", 0)));
        let b = s.register_bucket(0);
        let (seq, task) = b.request_task().unwrap();
        assert_eq!(task.0, "x");
        // Failed hand-off: x's task must be the next assignment again,
        // ahead of y's, and still be attributed to tenant x.
        s.requeue_front(&s.tenant_of(seq).unwrap(), seq, task);
        let (seq2, task2) = b.request_task().unwrap();
        assert_eq!((seq2, task2.0), (seq, "x"));
        assert_eq!(b.request_task().unwrap().1 .0, "y");
        let snap = s.tenant_stats();
        assert_eq!(
            snap.iter()
                .find(|t| t.name == "x")
                .unwrap()
                .stats
                .tasks_requeued,
            1
        );
    }

    #[test]
    fn drain_queued_preserves_tenants() {
        let s: Scheduler<u64> = Scheduler::new();
        s.submit(by("p", 10));
        s.submit(by("q", 11));
        s.submit(by("p", 12));
        let drained = s.drain_queued();
        assert_eq!(
            drained,
            vec![
                ("p".into(), 0, 10),
                ("q".into(), 1, 11),
                ("p".into(), 2, 12)
            ]
        );
        assert_eq!(s.queue_depth(), 0);
        // Resubmission under the same tenants keeps the accounting.
        for (tenant, _, task) in drained {
            assert!(s.submit(by(&tenant, task)).seq().is_some());
        }
        let snap = s.tenant_stats();
        assert_eq!(
            snap.iter()
                .find(|t| t.name == "p")
                .unwrap()
                .stats
                .tasks_submitted,
            4
        );
    }

    #[test]
    fn tenant_conservation_under_churn() {
        // admitted − assigned-and-acked − shed = queued, per tenant, at
        // every quiescent point.
        let s: Scheduler<(usize, u64)> = Scheduler::new();
        for t in 0..4 {
            s.register_tenant(
                &TenantSpec::new(format!("t{t}"))
                    .with_weight(t as u32 + 1)
                    .with_task_quota(8)
                    .with_policy(AdmissionPolicy::ShedOldest),
            );
        }
        let mut admitted = [0u64; 4];
        let mut shed = [0u64; 4];
        for i in 0..200u64 {
            let t = (i % 4) as usize;
            match s.submit(by(&format!("t{t}"), (t, i))) {
                Admission::Accepted { .. } => admitted[t] += 1,
                Admission::AcceptedShed { .. } => {
                    admitted[t] += 1;
                    shed[t] += 1; // own-oldest shed: same tenant
                }
                _ => {}
            }
        }
        let b = s.register_bucket(0);
        let mut popped = [0u64; 4];
        while let Lease::Assigned { task: (t, _), .. } = b.poll_task(Some(Duration::ZERO)) {
            popped[t] += 1;
        }
        let snap = s.tenant_stats();
        for t in 0..4 {
            let row = snap.iter().find(|r| r.name == format!("t{t}")).unwrap();
            assert_eq!(row.stats.tasks_submitted, admitted[t], "t{t} admitted");
            assert_eq!(row.stats.tasks_shed, shed[t], "t{t} shed");
            assert_eq!(row.stats.tasks_assigned, popped[t], "t{t} assigned");
            assert_eq!(
                row.stats.tasks_submitted - row.stats.tasks_shed,
                row.stats.tasks_assigned,
                "t{t} conservation"
            );
            assert_eq!(row.queued, 0);
        }
    }

    // ---------------- bucket pool ----------------

    #[test]
    fn hint_naming_no_bucket_location_is_byte_identical() {
        // A residency hint that names no bucket's location must be a
        // pure no-op: same verdicts, same sequence numbers, same
        // assignment order as the unhinted verb, and no bytes credited.
        let s: Scheduler<u32> = Scheduler::new();
        let hint = ResidencyHint::single("somewhere", 1 << 20);
        assert_eq!(
            s.submit(Submission {
                tenant: DEFAULT_TENANT,
                hint: hint.clone(),
                task: 10
            }),
            Admission::Accepted { seq: 0 }
        );
        assert_eq!(
            s.submit(Submission {
                tenant: DEFAULT_TENANT,
                hint,
                task: 11
            }),
            Admission::Accepted { seq: 1 }
        );
        let b = s.register_bucket_at(4, Some("elsewhere"));
        assert_eq!(b.request_task(), Some((0, 10)));
        assert_eq!(b.request_task(), Some((1, 11)));
        let st = s.stats();
        assert_eq!(st.locality_bytes_saved, 0);
    }

    #[test]
    fn placement_steers_to_colocated_bucket() {
        let s: Scheduler<u32> = Scheduler::new();
        let b1 = s.register_bucket_at(1, Some("m0"));
        let b2 = s.register_bucket_at(2, Some("m1"));
        // Park bucket 1 first, bucket 2 second (FCFS order 1 then 2).
        let h1 = std::thread::spawn(move || b1.request_task());
        std::thread::sleep(Duration::from_millis(80));
        let h2 = std::thread::spawn(move || b2.request_task());
        std::thread::sleep(Duration::from_millis(80));
        // Hinted at m1: skips the free-list head (bucket 1 at m0) and
        // lands on the co-located bucket 2, crediting the saved bytes.
        let hint = ResidencyHint::single("m1", 4096);
        assert!(s
            .submit(Submission {
                tenant: DEFAULT_TENANT,
                hint,
                task: 7
            })
            .seq()
            .is_some());
        assert_eq!(h2.join().unwrap(), Some((0, 7)));
        // An unhinted task falls back to FCFS: bucket 1.
        s.submit(9);
        assert_eq!(h1.join().unwrap(), Some((1, 9)));
        let st = s.stats();
        assert_eq!(st.locality_bytes_saved, 4096);
    }

    #[test]
    fn drain_one_bucket_retires_parked_and_busy_buckets() {
        let s: Scheduler<u32> = Scheduler::new();
        // Parked bucket: wakes with Retire at once.
        let b = s.register_bucket(5);
        let h = std::thread::spawn(move || b.poll_task(None));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(s.drain_one_bucket(), Some(5));
        assert_eq!(h.join().unwrap(), Lease::Retire);
        // Busy bucket: finishes its task, retires on the next poll even
        // with work queued — the backlog goes to live buckets only.
        s.submit(1);
        let b2 = s.register_bucket(6);
        assert!(matches!(b2.poll_task(None), Lease::Assigned { .. }));
        assert_eq!(s.drain_one_bucket(), Some(6));
        s.submit(2);
        assert_eq!(b2.poll_task(Some(Duration::ZERO)), Lease::Retire);
        // With every bucket retired there is nothing left to drain.
        assert_eq!(s.drain_one_bucket(), None);
        // The queued task reaches a live bucket, not the retired one.
        let b3 = s.register_bucket(7);
        assert_eq!(b3.request_task(), Some((1, 2)));
        let snap = s.pool_snapshot();
        assert_eq!(snap.buckets, 1); // only bucket 7 remains live
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn pool_snapshot_tracks_depth_and_idle() {
        let s: Scheduler<u32> = Scheduler::new();
        for i in 0..3 {
            s.submit(i);
        }
        let snap = s.pool_snapshot();
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.idle, 0);
        assert_eq!(snap.buckets, 0);
        let b = s.register_bucket(0);
        for _ in 0..3 {
            b.request_task().unwrap();
        }
        let snap = s.pool_snapshot();
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.buckets, 1);
        // p99 of three near-instant assignments is tiny but recorded.
        assert!(snap.p99_wait < Duration::from_secs(1));
        // Target is plumbed through.
        assert_eq!(s.pool_target(), None);
        s.set_pool_target(Some(4));
        assert_eq!(s.pool_target(), Some(4));
    }

    #[test]
    fn drain_one_bucket_prefers_idle_and_spares_the_fcfs_head() {
        let s: Scheduler<u32> = Scheduler::new();
        let b1 = s.register_bucket(1);
        let b2 = s.register_bucket(2);
        let h1 = std::thread::spawn(move || b1.poll_task(None));
        std::thread::sleep(Duration::from_millis(80));
        let h2 = std::thread::spawn(move || b2.poll_task(None));
        std::thread::sleep(Duration::from_millis(80));
        // The most recently parked bucket (2) is drained; the head of
        // the FCFS list (1) keeps serving.
        assert_eq!(s.drain_one_bucket(), Some(2));
        assert_eq!(h2.join().unwrap(), Lease::Retire);
        s.submit(42);
        assert_eq!(h1.join().unwrap(), Lease::Assigned { seq: 0, task: 42 });
    }
}
