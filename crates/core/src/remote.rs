//! Remote staging for the pipeline: intermediates, tasks, and outputs
//! flow through one or more
//! [`SpaceServer`](sitra_dataspaces::SpaceServer)s (typically
//! `sitra-staged` processes) instead of the in-process scheduler and
//! DART fabric. Driver and workers reach them through one client, the
//! [`ClusterClient`]: a single server is a member list of one.
//!
//! Division of labour, mirroring the paper's deployment:
//!
//! * The **driver** (simulation side) puts each rank's in-situ
//!   intermediate into the space under `sitra.i/{label}` at
//!   `version = step`, region `[rank,0,0]`, then submits a *data-ready*
//!   task descriptor ([`RemoteTask`]) to the remote scheduler.
//! * **Bucket workers** ([`run_bucket_worker`],
//!   [`run_cluster_bucket_worker`]) — separate threads or separate
//!   processes, connected over `inproc://`, `shm://` or `tcp://` — pull
//!   tasks FCFS, fetch every rank's piece, run the aggregation stage,
//!   and put the encoded [`AnalysisOutput`] back under
//!   `sitra.o/{label}`.
//! * The driver collects outputs by polling the space, which keeps the
//!   simulation loop free of any consumer bookkeeping.
//!
//! A worker whose connection dies mid-assignment is harmless: the
//! server requeues the unacknowledged task and the worker reconnects
//! with bounded backoff ([`BucketWorkerOpts::backoff`]) — the
//! integration test injects exactly this failure. A task whose rank
//! pieces cannot all be fetched is skipped, never aggregated short; the
//! driver re-aggregates it in-situ at its deadline.

use crate::analysis::AnalysisOutput;
use crate::placement::AnalysisSpec;
use crate::wire::{decode_analysis_output, encode_analysis_output, WireError};
use bytes::{BufMut, Bytes, BytesMut};
use sitra_cluster::ClusterClient;
use sitra_dataspaces::remote::{RemoteError, TaskPoll};
use sitra_dataspaces::scoped_var;
use sitra_mesh::BBox3;
use sitra_net::{Addr, Backoff};
use std::time::Duration;

/// Variable prefix for in-situ intermediates in the remote space.
pub const INTERMEDIATE_PREFIX: &str = "sitra.i/";
/// Variable prefix for completed analysis outputs in the remote space.
pub const OUTPUT_PREFIX: &str = "sitra.o/";

/// The variable a rank's intermediate for `label` is stored under.
pub fn intermediate_var(label: &str) -> String {
    format!("{INTERMEDIATE_PREFIX}{label}")
}

/// The variable an analysis output for `label` is stored under.
pub fn output_var(label: &str) -> String {
    format!("{OUTPUT_PREFIX}{label}")
}

/// The unit region a rank's intermediate occupies: ranks are laid out
/// along the x axis so a whole-step query returns pieces in rank order
/// (the space sorts by `bbox.lo`).
pub fn rank_bbox(rank: usize) -> BBox3 {
    BBox3::new([rank, 0, 0], [rank + 1, 1, 1])
}

/// The unit region an analysis output occupies.
pub fn output_bbox() -> BBox3 {
    BBox3::new([0, 0, 0], [1, 1, 1])
}

/// A data-ready descriptor queued in the remote scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteTask {
    /// Index into the (shared) analysis list.
    pub analysis_idx: u32,
    /// Timestep, also the space version of the intermediates.
    pub step: u64,
    /// How many rank pieces make up the task's input.
    pub n_ranks: u32,
}

/// Encode a task descriptor (16 bytes, little-endian).
pub fn encode_task(t: &RemoteTask) -> Bytes {
    let mut buf = BytesMut::with_capacity(16);
    buf.put_u32_le(t.analysis_idx);
    buf.put_u64_le(t.step);
    buf.put_u32_le(t.n_ranks);
    buf.freeze()
}

/// Decode a task descriptor. Total: errors instead of panicking.
pub fn decode_task(b: &Bytes) -> Result<RemoteTask, WireError> {
    if b.len() != 16 {
        return Err(WireError::Truncated { field: "task" });
    }
    let le4 = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap());
    let le8 = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
    Ok(RemoteTask {
        analysis_idx: le4(0),
        step: le8(4),
        n_ranks: le4(12),
    })
}

/// Knobs of a remote bucket worker.
pub struct BucketWorkerOpts {
    /// Reconnect policy after a lost connection.
    pub backoff: Backoff,
    /// Server-side wait per bucket-ready request.
    pub request_timeout: Duration,
    /// Fault injection: after this many completed tasks, drop the
    /// connection once in the middle of a bucket-ready request to the
    /// member being polled (the worker then reconnects and carries on).
    /// The doomed request waits long enough server-side that a task
    /// **will** be assigned to the dead connection, forcing the requeue
    /// path. `None` disables it.
    pub drop_connection_after: Option<usize>,
    /// Where this bucket's results land (the worker's home endpoint):
    /// declared with every bucket-ready request so a locality-aware
    /// scheduler can steer co-resident tasks here. `None` leaves the
    /// bucket unlocated (an empty label on the wire).
    pub location: Option<String>,
}

impl Default for BucketWorkerOpts {
    fn default() -> Self {
        Self {
            backoff: Backoff::default(),
            request_timeout: Duration::from_millis(500),
            drop_connection_after: None,
            location: None,
        }
    }
}

/// Consecutive failed polls of one cluster member before the worker
/// writes that member off as net-dead. The member's own crash handling
/// (suspicion, handoff) and the driver's deadline degradation own
/// correctness; this bound only stops the worker from sleeping on a
/// corpse while the rest of the cluster has work.
const MEMBER_DEAD_STRIKES: u32 = 3;

/// How many round-robin visits to a net-dead member the worker skips
/// between revival probes. A written-off endpoint is not gone forever:
/// a crashed member may restart, and a joiner may come up on a seeded
/// endpoint mid-run — the occasional cheap probe picks either back up.
const MEMBER_REVIVE_EVERY: u32 = 4;

/// Liveness bookkeeping for the cluster worker's round-robin: which
/// members are closed (permanent), which are net-dead (re-probed for
/// revival), and how many consecutive failures each live member has
/// accumulated.
///
/// The transitions are deliberately explicit because the counters used
/// to be inlined in the poll loop and mis-accounted two edges: strikes
/// survived a death→revival→death flap (so a member flapping at exactly
/// [`MEMBER_DEAD_STRIKES`] was re-declared dead on its *first* failure
/// after revival, double-counting the pre-death strikes), and the poll
/// budget was split over the original membership instead of the live
/// one.
struct MemberHealth {
    /// Scheduler answered `Closed`: permanent, never polled again.
    closed: Vec<bool>,
    /// Net-unreachable after [`MEMBER_DEAD_STRIKES`] consecutive
    /// failures; skipped except for periodic revival probes.
    dead: Vec<bool>,
    /// Consecutive retryable failures while live. Reset on success and
    /// on *every* dead/alive transition, so each episode starts from a
    /// clean count.
    strikes: Vec<u32>,
    /// Round-robin visits while dead, for spacing revival probes.
    visits: Vec<u32>,
}

impl MemberHealth {
    fn new(n: usize) -> Self {
        MemberHealth {
            closed: vec![false; n],
            dead: vec![false; n],
            strikes: vec![0; n],
            visits: vec![0; n],
        }
    }

    fn closed(&self, m: usize) -> bool {
        self.closed[m]
    }

    /// Members worth polling at all (not closed, not written off).
    /// The idle-rotation poll budget is split over this count.
    fn live(&self) -> usize {
        self.closed
            .iter()
            .zip(&self.dead)
            .filter(|(c, d)| !**c && !**d)
            .count()
    }

    /// Keep polling while at least one member is live; once every
    /// member is closed or written off dead, the worker retires (a
    /// written-off member's own crash handling and the driver's
    /// deadline degradation own correctness past this point).
    fn any_pollable(&self) -> bool {
        self.live() > 0
    }

    /// Did any member's scheduler close (the run finished) — as opposed
    /// to every member merely being unreachable?
    fn any_closed(&self) -> bool {
        self.closed.contains(&true)
    }

    /// Should this visit actually poll `m`? Live members always poll;
    /// dead ones only on every [`MEMBER_REVIVE_EVERY`]-th visit.
    fn should_probe(&mut self, m: usize) -> bool {
        if !self.dead[m] {
            return true;
        }
        self.visits[m] += 1;
        self.visits[m].is_multiple_of(MEMBER_REVIVE_EVERY)
    }

    fn note_ok(&mut self, m: usize) {
        self.strikes[m] = 0;
        self.visits[m] = 0;
        self.dead[m] = false;
    }

    fn note_closed(&mut self, m: usize) {
        self.closed[m] = true;
        self.dead[m] = false;
    }

    /// Record a retryable failure. Returns whether the caller should
    /// back off briefly before the next poll (live member, not yet
    /// written off). A failed revival probe keeps the member dead
    /// without accumulating strikes — probes are free retries.
    fn note_err(&mut self, m: usize) -> bool {
        if self.dead[m] {
            return false;
        }
        self.strikes[m] += 1;
        if self.strikes[m] >= MEMBER_DEAD_STRIKES {
            self.dead[m] = true;
            // A fresh episode: the member must earn a full strike count
            // again after revival, and probe spacing restarts.
            self.strikes[m] = 0;
            self.visits[m] = 0;
            false
        } else {
            true
        }
    }
}

/// One poll of a [`BucketWorker`], transport noise already absorbed.
enum WorkerPoll {
    /// An assignment: the encoded [`RemoteTask`] and the tenant it
    /// belongs to.
    Task { data: Bytes, tenant: String },
    /// Nothing this round (timeout, skipped member, transient error
    /// already retried) — poll again.
    Idle,
    /// The worker is finished: every scheduler closed, or this bucket
    /// was drained and retired by the capacity controller.
    Done,
}

/// One staging bucket over a member list (a single server is a list of
/// one): polls every member's scheduler round-robin with
/// [`MemberHealth`] strike-out/revival bookkeeping, fetches with
/// fan-out gets, routes puts through the ring.
struct BucketWorker<'a> {
    client: ClusterClient,
    health: MemberHealth,
    member: usize,
    bucket_id: u32,
    opts: &'a BucketWorkerOpts,
    /// Pending [`BucketWorkerOpts::drop_connection_after`] injection.
    drop_budget: Option<usize>,
    /// The most recent retryable poll failure, reported if the worker
    /// ends because every member was written off.
    last_err: Option<RemoteError>,
}

impl BucketWorker<'_> {
    /// One bucket-ready poll. `completed` is the lifetime task count,
    /// which fault injection keys off. Transient transport failures are
    /// absorbed (reconnect, strike-out) and surface as
    /// [`WorkerPoll::Idle`]; only fatal errors propagate.
    fn poll(&mut self, completed: usize) -> Result<WorkerPoll, RemoteError> {
        // Once every member is closed or written off dead the worker
        // ends: a written-off member's own crash handling and the
        // driver's deadline degradation own correctness past this
        // point. A closed scheduler means the run finished; with none
        // closed the staging area was lost, and a supervisor must be
        // able to tell the two apart.
        if !self.health.any_pollable() {
            return match self.last_err.take() {
                Some(e) if !self.health.any_closed() => Err(e),
                _ => Ok(WorkerPoll::Done),
            };
        }
        let n = self.client.member_count();
        self.member = (self.member + 1) % n;
        let member = self.member;
        if self.health.closed(member) || !self.health.should_probe(member) {
            return Ok(WorkerPoll::Idle);
        }
        if self.drop_budget == Some(completed) {
            self.drop_budget = None;
            // Crash at the worst moment: mid-request, response unread.
            // The long timeout keeps the server-side bucket parked until
            // a task is assigned to the now-dead connection; the server
            // notices the missing ack, requeues, and the task is handed
            // to a healthy bucket. The poll below re-dials and we pick
            // up where we left off.
            self.client
                .fault_drop_during_request(member, self.bucket_id, Duration::from_secs(30));
        }
        // One task request blocks until the member has work or the
        // timeout lapses. Round-robin must not multiply that wait — the
        // budget is split so a full idle rotation costs one
        // `request_timeout` however many members there are. Re-derived
        // every poll over the *live* member count: once members die or
        // close, a stale full-membership split would shrink the
        // rotation far below the budget and the worker would hammer the
        // survivors with short polls.
        let poll_timeout = self.opts.request_timeout / self.health.live().max(1) as u32;
        let location = self.opts.location.as_deref().unwrap_or("");
        match self
            .client
            .request_task_located(member, self.bucket_id, poll_timeout, location)
        {
            Ok(p) => {
                self.health.note_ok(member);
                match p {
                    TaskPoll::Assigned { data, tenant, .. } => {
                        Ok(WorkerPoll::Task { data, tenant })
                    }
                    TaskPoll::Empty => Ok(WorkerPoll::Idle),
                    TaskPoll::Closed => {
                        self.health.note_closed(member);
                        Ok(WorkerPoll::Idle)
                    }
                    // One member draining this bucket retires the whole
                    // worker: the capacity controller targeted it, and a
                    // half-retired worker that keeps polling the other
                    // members would never actually shrink the fleet.
                    TaskPoll::Retire => Ok(WorkerPoll::Done),
                }
            }
            Err(e) if e.is_retryable() => {
                // The member may be mid-restart or partitioned; a few
                // more chances (the client already reconnected once),
                // then it is written off until a revival probe answers.
                if self.health.note_err(member) {
                    std::thread::sleep(self.opts.backoff.initial);
                }
                self.last_err = Some(e);
                Ok(WorkerPoll::Idle)
            }
            Err(e) => Err(e),
        }
    }

    /// The task lifecycle: lease, decode, assemble rank pieces,
    /// aggregate, store, account. Returns the number of tasks completed
    /// when [`Self::poll`] reports [`WorkerPoll::Done`].
    ///
    /// A task whose pieces cannot all be found — the get raced a shard
    /// handoff, a member crashed with pieces aboard, a rank's put never
    /// landed — is **skipped**, never aggregated short: a partial
    /// aggregation would put a wrong-but-present output that poisons
    /// the golden-output oracle, while a missing output merely trips
    /// the driver's deadline and degrades the task to an in-situ
    /// re-aggregation.
    fn run(&mut self, analyses: &[AnalysisSpec]) -> Result<usize, RemoteError> {
        let bucket_id = self.bucket_id;
        let reg = sitra_obs::global();
        let obs_completed = reg.counter(&format!("worker.tasks.completed{{bucket={bucket_id}}}"));
        let obs_skipped = reg.counter(&format!("worker.tasks.skipped{{bucket={bucket_id}}}"));
        let mut completed = 0usize;
        loop {
            // The bucket pool is shared across tenants, so the assignment
            // itself names the namespace: this worker's connections stay
            // unbound and every space access is scoped explicitly. For
            // the default tenant the scoped name is the bare name.
            let (data, tenant) = match self.poll(completed)? {
                WorkerPoll::Task { data, tenant } => (data, tenant),
                WorkerPoll::Idle => continue,
                WorkerPoll::Done => return Ok(completed),
            };
            let task = decode_task(&data)
                .map_err(|e| RemoteError::Proto(format!("bad task descriptor: {e}")))?;
            let spec = analyses.get(task.analysis_idx as usize).ok_or_else(|| {
                RemoteError::Proto(format!("task for unknown analysis {}", task.analysis_idx))
            })?;
            // All rank pieces of this step; the space returns them sorted
            // by bbox.lo, i.e. in rank order, so the aggregation sees the
            // byte-identical part list the in-process bucket would.
            let query = BBox3::new([0, 0, 0], [task.n_ranks.max(1) as usize, 1, 1]);
            let Ok(pieces) = self.client.get(
                &scoped_var(&tenant, &intermediate_var(&spec.label)),
                task.step,
                &query,
            ) else {
                // Every member failed the fan-out; the task's inputs are
                // unreachable right now. Skip — the driver degrades it.
                obs_skipped.inc();
                continue;
            };
            let mut parts: Vec<(usize, Bytes)> = pieces
                .into_iter()
                .map(|(bbox, data)| (bbox.lo[0], data))
                .collect();
            // The space stores at most one piece per (var, step, rank), but
            // aggregation is order-sensitive (the streaming merge tree
            // panics on a re-declared source), so a same-rank duplicate
            // must fail here as a protocol error instead. Identical
            // payloads — a benign re-delivery — are collapsed.
            parts.dedup();
            if let Some(w) = parts.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(RemoteError::Proto(format!(
                    "conflicting duplicate parts for rank {} of {}@{}",
                    w[0].0, spec.label, task.step
                )));
            }
            if parts.len() != task.n_ranks as usize {
                obs_skipped.inc();
                continue;
            }
            let t_agg = std::time::Instant::now();
            let out = spec.analysis.aggregate(task.step, &parts);
            let aggregate_secs = t_agg.elapsed().as_secs_f64();
            if self
                .client
                .put(
                    &scoped_var(&tenant, &output_var(&spec.label)),
                    task.step,
                    output_bbox(),
                    encode_analysis_output(&out),
                )
                .is_err()
            {
                // The output's ring owner is unreachable; without the put
                // the task is as good as skipped and the driver degrades it.
                obs_skipped.inc();
                continue;
            }
            completed += 1;
            obs_completed.inc();
            crate::driver::emit_aggregate(
                "worker",
                &spec.label,
                task.step,
                aggregate_secs,
                Some(bucket_id),
                false,
                0.0,
                0.0,
            );
        }
    }
}

/// Run one staging bucket against a single
/// [`SpaceServer`](sitra_dataspaces::SpaceServer): the one-member case
/// of [`run_cluster_bucket_worker`].
pub fn run_bucket_worker(
    endpoint: &Addr,
    analyses: &[AnalysisSpec],
    bucket_id: u32,
    opts: &BucketWorkerOpts,
) -> Result<usize, RemoteError> {
    run_cluster_bucket_worker(&[endpoint.to_string()], analyses, bucket_id, opts)
}

/// Run one staging bucket against a member list: poll every member's
/// scheduler round-robin, fetch each task's rank pieces with a fan-out
/// get (they may live on any member, or be mid-handoff), aggregate, and
/// route the output back through the ring.
///
/// Returns the number of tasks completed once a scheduler has closed
/// (or retired this bucket) and no member is left to poll. When every
/// member was written off unreachable and none ever closed, the staging
/// area was lost rather than finished: the last transport error is
/// returned so a supervisor can restart the worker.
///
/// `analyses` must be the same list (same order) the driver was
/// configured with — the task descriptor carries an index into it.
pub fn run_cluster_bucket_worker(
    endpoints: &[String],
    analyses: &[AnalysisSpec],
    bucket_id: u32,
    opts: &BucketWorkerOpts,
) -> Result<usize, RemoteError> {
    let client = ClusterClient::new(
        sitra_cluster::DEFAULT_SEED,
        sitra_cluster::DEFAULT_VNODES,
        endpoints.iter().cloned(),
        opts.backoff,
    )?;
    let health = MemberHealth::new(client.member_count());
    BucketWorker {
        client,
        health,
        member: 0,
        bucket_id,
        opts,
        drop_budget: opts.drop_connection_after,
        last_err: None,
    }
    .run(analyses)
}

/// Poll the staging area until the output of `(label, step)` appears,
/// decode it, or give up at `deadline` with [`RemoteError::Timeout`].
/// Each poll fans the get out to every member, so the output is found
/// wherever its worker put it — including mid-rebalance, when the
/// owning member just changed.
///
/// The poll interval backs off exponentially (capped) so a long wait
/// does not hammer the servers, and the final sleep is clamped to the
/// time remaining so the deadline is honoured instead of overslept.
pub fn await_output(
    client: &ClusterClient,
    label: &str,
    step: u64,
    deadline: std::time::Instant,
) -> Result<AnalysisOutput, RemoteError> {
    const FIRST_SLEEP: Duration = Duration::from_micros(500);
    const MAX_SLEEP: Duration = Duration::from_millis(20);
    let var = output_var(label);
    let q = output_bbox();
    let mut sleep = FIRST_SLEEP;
    loop {
        let pieces = client.get(&var, step, &q)?;
        if let Some((_, data)) = pieces.into_iter().next() {
            return decode_analysis_output(data)
                .map_err(|e| RemoteError::Proto(format!("bad output for {label}@{step}: {e}")));
        }
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return Err(RemoteError::Timeout(format!(
                "waiting for output {label}@{step}"
            )));
        }
        std::thread::sleep(sleep.min(left));
        sleep = (sleep * 2).min(MAX_SLEEP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::HybridStats;
    use crate::placement::Placement;
    use sitra_dataspaces::SpaceServer;
    use std::sync::Arc;

    #[test]
    fn task_codec_roundtrip_and_totality() {
        let t = RemoteTask {
            analysis_idx: 3,
            step: 91,
            n_ranks: 8,
        };
        assert_eq!(decode_task(&encode_task(&t)).unwrap(), t);
        assert!(decode_task(&Bytes::new()).is_err());
        assert!(decode_task(&Bytes::from(vec![0u8; 15])).is_err());
        assert!(decode_task(&Bytes::from(vec![0u8; 17])).is_err());
    }

    /// A one-member client against a bare server — the single-server
    /// deployment.
    fn client_of(server: &SpaceServer) -> ClusterClient {
        ClusterClient::new(
            sitra_cluster::DEFAULT_SEED,
            sitra_cluster::DEFAULT_VNODES,
            [server.addr().to_string()],
            Backoff::default(),
        )
        .unwrap()
    }

    #[test]
    fn await_output_deadline_returns_timeout_promptly() {
        let addr: Addr = "inproc://core-await-timeout".parse().unwrap();
        let server = SpaceServer::start(&addr, 1).unwrap();
        let client = client_of(&server);
        let t0 = std::time::Instant::now();
        let deadline = t0 + Duration::from_millis(60);
        let err = await_output(&client, "never", 1, deadline).unwrap_err();
        let elapsed = t0.elapsed();
        assert!(matches!(err, RemoteError::Timeout(_)), "got {err:?}");
        assert!(err.is_retryable());
        // The deadline is honoured: the final sleep is clamped to the
        // time remaining, so we return at the deadline, not after an
        // extra full poll interval.
        assert!(elapsed >= Duration::from_millis(60));
        assert!(
            elapsed < Duration::from_millis(500),
            "overslept the deadline: {elapsed:?}"
        );
        server.shutdown();
    }

    #[test]
    fn member_health_flap_at_threshold_needs_full_strike_count() {
        // The regression: a member that dies at exactly
        // MEMBER_DEAD_STRIKES, revives on a probe, then fails again used
        // to be re-declared dead on that *first* post-revival failure,
        // because the pre-death strikes survived the flap.
        let mut h = MemberHealth::new(2);
        for _ in 0..MEMBER_DEAD_STRIKES {
            h.note_err(0);
        }
        assert!(h.dead[0]);
        assert_eq!(h.live(), 1, "poll budget follows live membership");

        // Failed revival probes are free: no strikes accumulate while
        // dead, and the member stays dead.
        for _ in 0..10 {
            assert!(!h.note_err(0), "dead-member probe must not back off");
        }
        assert!(h.dead[0]);

        // A probe answers: fresh episode.
        h.note_ok(0);
        assert!(!h.dead[0]);
        assert_eq!(h.live(), 2);

        // The member must earn a full strike count again before being
        // written off — strictly fewer failures keep it live.
        for _ in 0..MEMBER_DEAD_STRIKES - 1 {
            assert!(h.note_err(0), "live member under threshold backs off");
            assert!(!h.dead[0], "flap must not double-count old strikes");
        }
        h.note_err(0);
        assert!(h.dead[0]);
    }

    #[test]
    fn member_health_probe_spacing_and_retirement() {
        let mut h = MemberHealth::new(1);
        for _ in 0..MEMBER_DEAD_STRIKES {
            h.note_err(0);
        }
        // Every member dead (none closed): the worker retires rather
        // than spinning on revival probes forever.
        assert!(!h.any_pollable());
        // Probes fire on every MEMBER_REVIVE_EVERY-th visit, not every
        // rotation.
        let probes = (0..MEMBER_REVIVE_EVERY * 3)
            .filter(|_| h.should_probe(0))
            .count();
        assert_eq!(probes as u32, 3);
        // Closing is permanent and distinct from death.
        h.note_ok(0);
        assert!(h.any_pollable());
        h.note_closed(0);
        assert!(h.closed(0));
        assert!(!h.any_pollable());
    }

    fn stats_roster() -> Vec<AnalysisSpec> {
        vec![AnalysisSpec::new(
            Arc::new(HybridStats::default()),
            Placement::Hybrid,
            1,
        )]
    }

    /// Producer side of one two-rank step: put the learned models of
    /// `ranks` under step 1, submit the (always two-rank) task, close
    /// the scheduler. Returns the parts that were put.
    fn stage_two_rank_task(
        producer: &ClusterClient,
        analyses: &[AnalysisSpec],
        ranks: std::ops::Range<usize>,
    ) -> Vec<(usize, Bytes)> {
        use crate::analysis::InSituCtx;
        use sitra_mesh::{Decomposition, ScalarField};
        let label = &analyses[0].label;
        let g = sitra_mesh::BBox3::from_dims([8, 4, 4]);
        let decomp = Decomposition::new(g, [2, 1, 1]);
        let whole = ScalarField::from_fn(g, |p| p[0] as f64 * 0.25);
        let mut local_parts = Vec::new();
        for r in ranks {
            let block = whole.extract(&decomp.block(r));
            let ghosted = block.clone();
            let vars = vec![("T".to_string(), block)];
            let ctx = InSituCtx {
                rank: r,
                step: 1,
                decomp: &decomp,
                ghosted: &ghosted,
                vars: &vars,
            };
            let payload = analyses[0].analysis.in_situ(&ctx);
            producer
                .put(&intermediate_var(label), 1, rank_bbox(r), payload.clone())
                .unwrap();
            local_parts.push((r, payload));
        }
        let task = encode_task(&RemoteTask {
            analysis_idx: 0,
            step: 1,
            n_ranks: 2,
        });
        let (_, adm) = producer.submit_task_routed(label, 1, task).unwrap();
        assert!(adm.seq().is_some());
        producer.close_sched();
        local_parts
    }

    #[test]
    fn worker_aggregates_tasks_from_space() {
        let addr: Addr = "inproc://core-worker".parse().unwrap();
        let server = SpaceServer::start(&addr, 2).unwrap();
        let analyses = stats_roster();
        let label = analyses[0].label.clone();
        let producer = client_of(&server);
        let local_parts = stage_two_rank_task(&producer, &analyses, 0..2);

        let done =
            run_bucket_worker(&server.addr(), &analyses, 0, &BucketWorkerOpts::default()).unwrap();
        assert_eq!(done, 1);

        let got = await_output(
            &producer,
            &label,
            1,
            std::time::Instant::now() + Duration::from_secs(5),
        )
        .unwrap();
        let expect = analyses[0].analysis.aggregate(1, &local_parts);
        assert_eq!(got, expect);
        assert_eq!(
            encode_analysis_output(&got),
            encode_analysis_output(&expect)
        );
        server.shutdown();
    }

    #[test]
    fn worker_skips_a_task_whose_rank_pieces_are_incomplete() {
        // Only rank 0 of a two-rank task made it into the space. The
        // worker must not aggregate the one part it found and put a
        // wrong-but-present output: it skips, and the driver degrades
        // the task at its deadline.
        const BUCKET: u32 = 77; // unique: the skip counter is global
        let addr: Addr = "inproc://core-worker-short".parse().unwrap();
        let server = SpaceServer::start(&addr, 2).unwrap();
        let analyses = stats_roster();
        let producer = client_of(&server);
        stage_two_rank_task(&producer, &analyses, 0..1);

        let skipped =
            sitra_obs::global().counter(&format!("worker.tasks.skipped{{bucket={BUCKET}}}"));
        let before = skipped.get();
        let done = run_bucket_worker(
            &server.addr(),
            &analyses,
            BUCKET,
            &BucketWorkerOpts::default(),
        )
        .unwrap();
        assert_eq!(done, 0);
        assert_eq!(skipped.get() - before, 1);
        let stored = producer
            .get(&output_var(&analyses[0].label), 1, &output_bbox())
            .unwrap();
        assert!(stored.is_empty(), "a short aggregation was stored");
        server.shutdown();
    }
}
