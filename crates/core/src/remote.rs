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
//!   processes, connected over `inproc://` or `tcp://` — keep
//!   a *bucket-ready* request parked on every member at once, take the
//!   task the moment one is queued anywhere, fetch every rank's piece,
//!   run the aggregation stage, and put the encoded [`AnalysisOutput`]
//!   back under `sitra.o/{label}`. A worker holds one task at a time;
//!   an assignment that reaches it while it is busy is declined and
//!   goes back to the head of that member's queue.
//! * The driver's collector thread blocks in a *data-ready* read on the
//!   oldest shipped task's output ([`wait_output`]) and retires it the
//!   moment the worker's put lands, which keeps the simulation loop
//!   free of any consumer bookkeeping.
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
use parking_lot::{Condvar, Mutex};
use sitra_cluster::ClusterClient;
use sitra_dataspaces::codec::Rd;
use sitra_dataspaces::remote::{RemoteError, TaskPoll};
use sitra_dataspaces::scoped_var;
use sitra_mesh::BBox3;
use sitra_net::{Addr, Backoff};
use std::time::{Duration, Instant};

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
    let mut rd = Rd::new(b.clone());
    let task = RemoteTask {
        analysis_idx: rd.u32("task.analysis_idx")?,
        step: rd.u64("task.step")?,
        n_ranks: rd.u32("task.n_ranks")?,
    };
    rd.finish()?;
    Ok(task)
}

/// Knobs of a remote bucket worker.
pub struct BucketWorkerOpts {
    /// Reconnect policy after a lost connection.
    pub backoff: Backoff,
    /// Bound of one bucket-ready long-poll. An idle worker keeps one
    /// outstanding on every live member at once, so this is how long a
    /// member may hold a request before answering `Empty` — not a
    /// budget split across members.
    pub request_timeout: Duration,
    /// Where this bucket's results land (the worker's home endpoint):
    /// declared with every bucket-ready request so the scheduler can
    /// steer co-resident tasks here. `None` leaves the
    /// bucket unlocated (an empty label on the wire).
    pub location: Option<String>,
}

impl Default for BucketWorkerOpts {
    fn default() -> Self {
        Self {
            backoff: Backoff::default(),
            request_timeout: Duration::from_millis(500),
            location: None,
        }
    }
}

/// Consecutive failed polls of one cluster member before its poller
/// writes that member off as net-dead. The member's own crash handling
/// (suspicion, handoff) and the driver's deadline degradation own
/// correctness; this bound only stops the worker from counting on a
/// corpse while the rest of the cluster has work.
const MEMBER_DEAD_STRIKES: u32 = 3;

/// How many long-poll periods ([`BucketWorkerOpts::request_timeout`]) a
/// written-off member's poller sits out between revival probes. A
/// written-off endpoint is not gone forever: a crashed member may
/// restart, and a joiner may come up on a seeded endpoint mid-run — the
/// occasional cheap probe picks either back up.
const MEMBER_REVIVE_EVERY: u32 = 4;

/// One member's standing with the worker: strike-out, revival and
/// close, kept by that member's poller.
///
/// The transitions are deliberately explicit because the counters used
/// to be inlined in the poll loop and mis-accounted an edge: strikes
/// survived a death→revival→death flap, so a member flapping at exactly
/// [`MEMBER_DEAD_STRIKES`] was re-declared dead on its *first* failure
/// after revival, double-counting the pre-death strikes.
#[derive(Clone, Copy, Default)]
struct MemberHealth {
    /// Consecutive retryable failures while live. Reset on success and
    /// on *every* dead/alive transition, so each episode starts from a
    /// clean count.
    strikes: u32,
    /// Net-unreachable after [`MEMBER_DEAD_STRIKES`] consecutive
    /// failures; only probed for revival.
    dead: bool,
    /// Scheduler answered `Closed`: permanent, its poller has exited.
    closed: bool,
}

impl MemberHealth {
    /// A poll was answered.
    fn note_ok(&mut self) {
        (self.strikes, self.dead) = (0, false);
    }

    /// A retryable failure. A failed revival probe keeps the member
    /// dead without accumulating strikes — probes are free retries.
    fn note_err(&mut self) {
        self.strikes += u32::from(!self.dead);
        if self.strikes >= MEMBER_DEAD_STRIKES {
            (self.strikes, self.dead) = (0, true);
        }
    }

    /// Worth a long-poll: neither closed nor written off.
    fn pollable(&self) -> bool {
        !self.dead && !self.closed
    }

    /// How long the poller sits out after a failure: a brief back-off
    /// while the member is live, [`MEMBER_REVIVE_EVERY`] long-poll
    /// periods between revival probes once it is written off.
    fn pause(&self, opts: &BucketWorkerOpts) -> Duration {
        if self.dead {
            opts.request_timeout * MEMBER_REVIVE_EVERY
        } else {
            opts.backoff.initial
        }
    }
}

/// What the member pollers share, under [`Hub::state`].
struct HubState {
    /// The worker holds a task: from a poller claiming an assignment
    /// until that poller has served it. It holds at most one.
    busy: bool,
    /// Lifetime task count: what the worker returns.
    completed: usize,
    members: Vec<MemberHealth>,
    /// The most recent retryable poll failure, reported if the worker
    /// ends because every member was written off.
    last_err: Option<RemoteError>,
    /// How the worker ended, set once; pollers stop when they see it.
    end: Option<Result<(), RemoteError>>,
}

struct Hub {
    state: Mutex<HubState>,
    /// Signalled on every `busy`/`end` change: the stop signal pollers
    /// time their waits on.
    changed: Condvar,
}

/// One staging bucket over a member list (a single server is a list of
/// one). One poller per member — the caller's thread for the first, a
/// thread of its own for each further one — keeps a bucket-ready
/// long-poll outstanding there while the worker is free, so a task is
/// assigned the moment any member has one. The poller that claims an
/// assignment serves it itself (fan-out gets, puts routed through the
/// ring); the worker still holds one task at a time, and an assignment
/// that reaches it while it is busy is declined rather than buffered —
/// a held task would be invisible to every idle worker until this one
/// got round to it.
struct BucketWorker<'a> {
    /// Data plane of whichever poller is serving a task.
    client: ClusterClient,
    /// The pollers' connections, one member each. Its own client: a
    /// parked long-poll holds its member's connection for the duration.
    polls: ClusterClient,
    hub: Hub,
    bucket_id: u32,
    opts: &'a BucketWorkerOpts,
}

impl BucketWorker<'_> {
    /// End the worker (first caller wins): wake every waiter and cut
    /// the parked long-polls short.
    fn stop(&self, how: Result<(), RemoteError>) {
        {
            let mut st = self.hub.state.lock();
            st.end.get_or_insert(how);
            self.hub.changed.notify_all();
        }
        self.polls.interrupt();
    }

    /// Apply `event` to `member`'s health and return the result. Once
    /// no member is pollable the worker ends: a written-off member's
    /// own crash handling and the driver's deadline degradation own
    /// correctness past this point. A closed scheduler means the run
    /// finished; with none closed the staging area was lost, and a
    /// supervisor must be able to tell the two apart.
    fn note(&self, member: usize, event: impl FnOnce(&mut MemberHealth)) -> MemberHealth {
        let mut st = self.hub.state.lock();
        event(&mut st.members[member]);
        let health = st.members[member];
        if !st.members.iter().any(MemberHealth::pollable) {
            let how = match st.last_err.take() {
                Some(e) if !st.members.iter().any(|m| m.closed) => Err(e),
                _ => Ok(()),
            };
            drop(st);
            self.stop(how);
        }
        health
    }

    /// Wait on the stop signal for `pause`; true when the worker ended.
    fn sit_out(&self, pause: Duration) -> bool {
        let until = Instant::now() + pause;
        let mut st = self.hub.state.lock();
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if st.end.is_some() || left.is_zero() {
                return st.end.is_some();
            }
            self.hub.changed.wait_for(&mut st, left);
        }
    }

    /// One bucket-ready long-poll of `member`, receipt included: an
    /// assignment is claimed and acknowledged if the worker is free,
    /// and declined — then reported as `Empty`, there being nothing in
    /// it for this worker — if it is not.
    fn poll_once(
        &self,
        member: usize,
        declined: &sitra_obs::Counter,
    ) -> Result<TaskPoll, RemoteError> {
        let location = self.opts.location.as_deref().unwrap_or("");
        self.polls.on(member, |c| {
            let poll = c.request_task_held(self.bucket_id, self.opts.request_timeout, location)?;
            let TaskPoll::Assigned { seq, .. } = poll else {
                return Ok(poll);
            };
            let claimed = {
                let mut st = self.hub.state.lock();
                let free = !st.busy && st.end.is_none();
                st.busy |= free;
                free
            };
            if !claimed {
                c.decline_task(seq)?;
                declined.inc();
                return Ok(TaskPoll::Empty);
            }
            if let Err(e) = c.ack_task(seq) {
                // The server requeues an unacknowledged task.
                self.release(false);
                return Err(e);
            }
            Ok(poll)
        })
    }

    /// The worker is free again; `completed` says whether the task it
    /// held was finished (as opposed to skipped or never received).
    fn release(&self, completed: bool) {
        let mut st = self.hub.state.lock();
        st.busy = false;
        st.completed += usize::from(completed);
        self.hub.changed.notify_all();
    }

    /// `member`'s poller: while the worker is free keep one long-poll
    /// outstanding there, keep the member's [`MemberHealth`], and serve
    /// the assignments it claims.
    fn poll_member(&self, member: usize, analyses: &[AnalysisSpec]) {
        let reg = sitra_obs::global();
        let counter =
            |what: &str| reg.counter(&format!("worker.tasks.{what}{{bucket={}}}", self.bucket_id));
        let (declined, completed, skipped) = (
            counter("declined"),
            counter("completed"),
            counter("skipped"),
        );
        loop {
            // Re-armed only when the worker is free: a request parked
            // while it is busy could only be declined.
            {
                let mut st = self.hub.state.lock();
                while st.busy && st.end.is_none() {
                    self.hub.changed.wait(&mut st);
                }
                if st.end.is_some() {
                    return;
                }
            }
            match self.poll_once(member, &declined) {
                Ok(polled) => {
                    self.note(member, MemberHealth::note_ok);
                    match polled {
                        TaskPoll::Assigned { data, tenant, .. } => {
                            let served = self.aggregate(analyses, &data, &tenant);
                            self.release(matches!(served, Ok(true)));
                            match served {
                                Ok(true) => completed.inc(),
                                Ok(false) => skipped.inc(),
                                Err(e) => return self.stop(Err(e)),
                            }
                        }
                        TaskPoll::Empty => {}
                        TaskPoll::Closed => {
                            self.note(member, |h| h.closed = true);
                            return;
                        }
                        // One member draining this bucket retires the whole
                        // worker: the capacity controller targeted it, and a
                        // half-retired worker that keeps polling the other
                        // members would never actually shrink the fleet.
                        TaskPoll::Retire => return self.stop(Ok(())),
                    }
                }
                Err(e) if e.is_retryable() => {
                    // The member may be mid-restart or partitioned; a few
                    // more chances (the client already reconnected once),
                    // then it is written off until a revival probe answers.
                    self.hub.state.lock().last_err = Some(e);
                    let health = self.note(member, MemberHealth::note_err);
                    if self.sit_out(health.pause(self.opts)) {
                        return;
                    }
                }
                Err(e) => return self.stop(Err(e)),
            }
        }
    }

    /// Run the worker to its end: the first member's poller on this
    /// thread, the others on their own. Returns the number of tasks
    /// completed.
    fn run(&self, analyses: &[AnalysisSpec]) -> Result<usize, RemoteError> {
        std::thread::scope(|s| {
            for member in 1..self.polls.member_count() {
                s.spawn(move || self.poll_member(member, analyses));
            }
            self.poll_member(0, analyses);
        });
        let mut st = self.hub.state.lock();
        let end = st.end.take().expect("every poller returns on the end");
        end.map(|()| st.completed)
    }

    /// Serve one assignment — decode, assemble rank pieces, aggregate,
    /// store, account; `Ok(false)` when it had to be skipped.
    ///
    /// A task whose pieces cannot all be found — the get raced a shard
    /// handoff, a member crashed with pieces aboard, a rank's put never
    /// landed — is **skipped**, never aggregated short: a partial
    /// aggregation would put a wrong-but-present output that poisons
    /// the golden-output oracle, while a missing output merely trips
    /// the driver's deadline and degrades the task to an in-situ
    /// re-aggregation.
    ///
    /// The parts are whatever bytes any `tcp://` client put under the
    /// intermediate key, and [`crate::Analysis::aggregate`] cannot
    /// fail: a truncated part panics in its decoder, two ranks
    /// declaring one vertex differently trip the merge tree's assert.
    /// The call runs under a panic guard that turns such a task into a
    /// skip, so one bad producer cannot end the worker. A fallible
    /// aggregation would say this in the type, but `e2e/src/probe.rs`
    /// implements the trait, so its signature stays as it is.
    ///
    /// The bucket pool is shared across tenants, so the assignment
    /// itself names the namespace: this worker's connections stay
    /// unbound and every space access is scoped explicitly. For the
    /// default tenant the scoped name is the bare name.
    fn aggregate(
        &self,
        analyses: &[AnalysisSpec],
        data: &Bytes,
        tenant: &str,
    ) -> Result<bool, RemoteError> {
        let task = decode_task(data)
            .map_err(|e| RemoteError::Proto(format!("bad task descriptor: {e}")))?;
        let spec = analyses.get(task.analysis_idx as usize).ok_or_else(|| {
            RemoteError::Proto(format!("task for unknown analysis {}", task.analysis_idx))
        })?;
        // All rank pieces of this step; the space returns them sorted
        // by bbox.lo, i.e. in rank order, so the aggregation sees the
        // byte-identical part list the in-process bucket would.
        let query = BBox3::new([0, 0, 0], [task.n_ranks.max(1) as usize, 1, 1]);
        let Ok(pieces) = self.client.get(
            &scoped_var(tenant, &intermediate_var(&spec.label)),
            task.step,
            &query,
        ) else {
            // Every member failed the fan-out; the task's inputs are
            // unreachable right now. Skip — the driver degrades it.
            return Ok(false);
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
            return Ok(false);
        }
        let t_agg = Instant::now();
        let aggregated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spec.analysis.aggregate(task.step, &parts)
        }));
        let Ok(out) = aggregated else {
            return Ok(false);
        };
        let aggregate_secs = t_agg.elapsed().as_secs_f64();
        if self
            .client
            .put(
                &scoped_var(tenant, &output_var(&spec.label)),
                task.step,
                output_bbox(),
                encode_analysis_output(&out),
            )
            .is_err()
        {
            // The output's ring owner is unreachable; without the put
            // the task is as good as skipped and the driver degrades it.
            return Ok(false);
        }
        crate::driver::emit_aggregate(
            "worker",
            &spec.label,
            task.step,
            aggregate_secs,
            Some(self.bucket_id),
            false,
            0.0,
            0.0,
        );
        Ok(true)
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

/// Run one staging bucket against a member list: keep a bucket-ready
/// request parked on every member's scheduler at once, fetch each
/// task's rank pieces with a fan-out get (they may live on any member,
/// or be mid-handoff), aggregate, and route the output back through
/// the ring.
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
    let connect = || {
        ClusterClient::new(
            sitra_cluster::DEFAULT_SEED,
            sitra_cluster::DEFAULT_VNODES,
            endpoints.iter().cloned(),
            opts.backoff,
        )
    };
    let polls = connect()?;
    BucketWorker {
        client: connect()?,
        hub: Hub {
            state: Mutex::new(HubState {
                busy: false,
                completed: 0,
                members: vec![MemberHealth::default(); polls.member_count()],
                last_err: None,
                end: None,
            }),
            changed: Condvar::new(),
        },
        polls,
        bucket_id,
        opts,
    }
    .run(analyses)
}

/// Block until the output of `(label, step)` is in the staging area or
/// `timeout` lapses (`None`), and decode it. The wait is a data-ready
/// read on the output's ring owner ([`ClusterClient::get_wait`]), woken
/// by the worker's put; at the timeout every member is asked once, so
/// the output is found wherever a rebalance moved it.
pub fn wait_output(
    client: &ClusterClient,
    label: &str,
    step: u64,
    timeout: Duration,
) -> Result<Option<AnalysisOutput>, RemoteError> {
    let pieces = client.get_wait(&output_var(label), step, &output_bbox(), timeout)?;
    pieces
        .into_iter()
        .next()
        .map(|(_, data)| {
            decode_analysis_output(data)
                .map_err(|e| RemoteError::Proto(format!("bad output for {label}@{step}: {e}")))
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analysis, HybridStats};
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
    fn wait_output_is_empty_at_its_timeout_and_woken_by_the_put() {
        let addr: Addr = "inproc://core-wait-output".parse().unwrap();
        let server = SpaceServer::start(&addr, 1).unwrap();
        let client = client_of(&server);
        let t0 = Instant::now();
        let got = wait_output(&client, "never", 1, Duration::from_millis(60)).unwrap();
        assert!(got.is_none());
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(60));
        assert!(
            elapsed < Duration::from_millis(500),
            "overslept the timeout: {elapsed:?}"
        );

        // A put wakes the waiter long before its timeout. The barrier
        // only orders the put after the wait began being issued; a put
        // that wins the race is found by the wait's first look.
        let out = AnalysisOutput::Stats(Vec::new());
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.wait();
                server.space().put(
                    &output_var("late"),
                    2,
                    output_bbox(),
                    encode_analysis_output(&out),
                );
            });
            gate.wait();
            let t0 = Instant::now();
            let got = wait_output(&client, "late", 2, Duration::from_secs(30)).unwrap();
            assert_eq!(got, Some(out.clone()));
            assert!(t0.elapsed() < Duration::from_secs(5));
        });
        server.shutdown();
    }

    #[test]
    fn member_health_flap_at_threshold_needs_full_strike_count() {
        // The regression: a member that dies at exactly
        // MEMBER_DEAD_STRIKES, revives on a probe, then fails again used
        // to be re-declared dead on that *first* post-revival failure,
        // because the pre-death strikes survived the flap.
        let opts = BucketWorkerOpts::default();
        let mut h = MemberHealth::default();
        for k in 1..=MEMBER_DEAD_STRIKES {
            h.note_err();
            assert_eq!(h.dead, k == MEMBER_DEAD_STRIKES);
        }
        assert!(!h.pollable());

        // Failed revival probes are free: no strikes accumulate while
        // dead, the member stays dead, and probes are spaced by whole
        // long-poll periods, not the live back-off.
        for _ in 0..10 {
            h.note_err();
            assert_eq!((h.dead, h.strikes), (true, 0), "probes are free");
        }
        assert_eq!(h.pause(&opts), opts.request_timeout * MEMBER_REVIVE_EVERY);

        // A probe answers: fresh episode.
        h.note_ok();
        assert!(h.pollable());

        // The member must earn a full strike count again before being
        // written off — strictly fewer failures keep it live.
        for _ in 0..MEMBER_DEAD_STRIKES - 1 {
            h.note_err();
            assert!(!h.dead, "flap must not double-count old strikes");
            assert_eq!(h.pause(&opts), opts.backoff.initial);
        }
        h.note_err();
        assert!(h.dead);
        // Closing is permanent and distinct from death.
        h.note_ok();
        h.closed = true;
        assert!(!h.pollable());
    }

    #[test]
    fn worker_ends_with_the_last_error_when_every_member_is_unreachable() {
        // Nothing listens on either endpoint: both pollers strike out,
        // no scheduler ever closed, so the staging area was lost rather
        // than finished and the supervisor gets the transport error.
        let eps = [
            "inproc://core-worker-nobody-0".to_string(),
            "inproc://core-worker-nobody-1".to_string(),
        ];
        let opts = BucketWorkerOpts {
            backoff: Backoff {
                initial: Duration::from_millis(1),
                max: Duration::from_millis(2),
                attempts: 2,
            },
            ..BucketWorkerOpts::default()
        };
        let err = run_cluster_bucket_worker(&eps, &stats_roster(), 0, &opts).unwrap_err();
        assert!(err.is_retryable(), "got {err:?}");
    }

    fn stats_roster() -> Vec<AnalysisSpec> {
        vec![AnalysisSpec::new(
            Arc::new(HybridStats::default()),
            Placement::Hybrid,
            1,
        )]
    }

    /// Producer side of one two-rank step: put the learned models of
    /// `ranks` under `step` and submit the (always two-rank) task,
    /// routed by `(label, step)`. Returns the parts that were put.
    fn stage_task(
        producer: &ClusterClient,
        analyses: &[AnalysisSpec],
        step: u64,
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
                step,
                decomp: &decomp,
                ghosted: &ghosted,
                vars: &vars,
            };
            let payload = analyses[0].analysis.in_situ(&ctx);
            producer
                .put(
                    &intermediate_var(label),
                    step,
                    rank_bbox(r),
                    payload.clone(),
                )
                .unwrap();
            local_parts.push((r, payload));
        }
        let task = encode_task(&RemoteTask {
            analysis_idx: 0,
            step,
            n_ranks: 2,
        });
        let (_, adm) = producer.submit_task_routed(label, step, task).unwrap();
        assert!(adm.seq().is_some());
        local_parts
    }

    /// [`stage_task`] at step 1, then close the scheduler.
    fn stage_two_rank_task(
        producer: &ClusterClient,
        analyses: &[AnalysisSpec],
        ranks: std::ops::Range<usize>,
    ) -> Vec<(usize, Bytes)> {
        let local_parts = stage_task(producer, analyses, 1, ranks);
        producer.close_sched();
        local_parts
    }

    /// A seeded three-member cluster and a client over it.
    fn trio(tag: &str) -> (Vec<sitra_cluster::ClusterNode>, Vec<String>, ClusterClient) {
        use sitra_cluster::{Bootstrap, ClusterNode, ClusterNodeOpts};
        let endpoints: Vec<String> = (0..3)
            .map(|i| format!("inproc://core-worker-{tag}-{i}"))
            .collect();
        let nodes = endpoints
            .iter()
            .map(|ep| {
                ClusterNode::start(
                    &ep.parse().unwrap(),
                    Bootstrap::Seeds(endpoints.clone()),
                    ClusterNodeOpts::default(),
                )
                .expect("start member")
            })
            .collect();
        let client = ClusterClient::new(
            sitra_cluster::DEFAULT_SEED,
            sitra_cluster::DEFAULT_VNODES,
            endpoints.iter().cloned(),
            Backoff::default(),
        )
        .unwrap();
        (nodes, endpoints, client)
    }

    /// The first step after `after` whose task the ring routes to
    /// `member`.
    fn step_routed_to(endpoints: &[String], label: &str, member: usize, after: u64) -> u64 {
        let ring = sitra_cluster::HashRing::new(
            sitra_cluster::DEFAULT_SEED,
            sitra_cluster::DEFAULT_VNODES,
            endpoints.iter().cloned(),
        );
        (after + 1..)
            .find(|step| ring.task_owner_index(label, *step) == Some(member))
            .expect("the ring routes to every member")
    }

    /// Spin (yielding) until every member has `idle` buckets parked.
    fn await_parked(nodes: &[sitra_cluster::ClusterNode], idle: usize) {
        let t0 = Instant::now();
        while nodes
            .iter()
            .any(|n| n.scheduler().pool_snapshot().idle != idle)
        {
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "workers never parked"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn idle_worker_is_parked_on_every_member_at_once() {
        // One long-poll bound of 30 s, one task routed to each member
        // in turn. A worker visiting members in rotation would sit out
        // up to a third of that per task; parked on all three it is
        // handed each task as it is submitted.
        let (nodes, endpoints, producer) = trio("parked");
        let analyses = stats_roster();
        let label = analyses[0].label.clone();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let opts = BucketWorkerOpts {
                    request_timeout: Duration::from_secs(30),
                    ..BucketWorkerOpts::default()
                };
                run_cluster_bucket_worker(&endpoints, &analyses, 0, &opts)
            });
            let mut step = 0;
            for (member, node) in nodes.iter().enumerate() {
                step = step_routed_to(&endpoints, &label, member, step);
                let parts = stage_task(&producer, &analyses, step, 0..2);
                let got = wait_output(&producer, &label, step, Duration::from_secs(20))
                    .unwrap()
                    .expect("served without waiting out a rotation");
                assert_eq!(got, analyses[0].analysis.aggregate(step, &parts));
                assert_eq!(node.sched_stats().tasks_assigned, 1);
            }
            // Parked on three members with 30 s to go, the worker still
            // ends as soon as the schedulers close.
            producer.close_sched();
            assert_eq!(worker.join().unwrap().unwrap(), 3);
        });
        assert!(t0.elapsed() < Duration::from_secs(20), "{:?}", t0.elapsed());
        nodes
            .into_iter()
            .for_each(sitra_cluster::ClusterNode::shutdown);
    }

    /// [`HybridStats`] whose aggregation of one chosen step parks on a
    /// pair of barriers, so a test decides how long a worker is busy.
    struct Gated {
        inner: HybridStats,
        hold: u64,
        entered: std::sync::Barrier,
        release: std::sync::Barrier,
    }

    impl Analysis for Gated {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn in_situ(&self, ctx: &crate::analysis::InSituCtx<'_>) -> Bytes {
            self.inner.in_situ(ctx)
        }
        fn aggregate(&self, step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
            if step == self.hold {
                self.entered.wait();
                self.release.wait();
            }
            self.inner.aggregate(step, parts)
        }
    }

    #[test]
    fn busy_worker_declines_and_an_idle_one_serves() {
        const BUSY: u32 = 141; // unique: the decline counters are global
        const IDLE: u32 = 142;
        let (nodes, endpoints, producer) = trio("decline");
        let label = HybridStats::default().name().to_string();
        let held = step_routed_to(&endpoints, &label, 0, 0);
        let other = step_routed_to(&endpoints, &label, 1, held);
        let gated = Arc::new(Gated {
            inner: HybridStats::default(),
            hold: held,
            entered: std::sync::Barrier::new(2),
            release: std::sync::Barrier::new(2),
        });
        let analyses = vec![AnalysisSpec::new(gated.clone(), Placement::Hybrid, 1)];
        let declined = |bucket: u32| {
            sitra_obs::global()
                .counter(&format!("worker.tasks.declined{{bucket={bucket}}}"))
                .get()
        };
        let before = (declined(BUSY), declined(IDLE));
        std::thread::scope(|s| {
            let spawn = |bucket: u32| {
                let (endpoints, analyses) = (&endpoints, &analyses);
                s.spawn(move || {
                    // Never re-parks during the test, so the free lists
                    // keep the order the workers arrived in.
                    let opts = BucketWorkerOpts {
                        request_timeout: Duration::from_secs(30),
                        ..BucketWorkerOpts::default()
                    };
                    run_cluster_bucket_worker(endpoints, analyses, bucket, &opts)
                })
            };
            // BUSY parks first on every member, so it heads every
            // member's free list and the next task anywhere is its.
            let busy = spawn(BUSY);
            await_parked(&nodes, 1);
            let idle = spawn(IDLE);
            await_parked(&nodes, 2);

            stage_task(&producer, &analyses, held, 0..2);
            gated.entered.wait(); // BUSY is inside the held aggregation
                                  // Member 1 hands the next task to the head of its free
                                  // list: BUSY, which declines; the requeue goes to IDLE.
            let parts = stage_task(&producer, &analyses, other, 0..2);
            let got = wait_output(&producer, &label, other, Duration::from_secs(20))
                .unwrap()
                .expect("the idle worker served the declined task");
            assert_eq!(got, gated.inner.aggregate(other, &parts));
            assert_eq!(declined(BUSY) - before.0, 1);
            assert_eq!(declined(IDLE) - before.1, 0);

            gated.release.wait();
            assert!(
                wait_output(&producer, &label, held, Duration::from_secs(20))
                    .unwrap()
                    .is_some()
            );
            producer.close_sched();
            assert_eq!(busy.join().unwrap().unwrap(), 1);
            assert_eq!(idle.join().unwrap().unwrap(), 1);
        });
        // The decline is a requeue like any other: conservation holds
        // on every member, and only the declining one saw a requeue.
        for (m, node) in nodes.iter().enumerate() {
            let st = node.sched_stats();
            assert_eq!(
                st.tasks_submitted + st.tasks_requeued,
                st.tasks_assigned + st.tasks_shed + node.scheduler().queue_depth() as u64,
                "member {m}: {st:?}"
            );
            assert_eq!(st.tasks_requeued, u64::from(m == 1), "member {m}");
        }
        nodes
            .into_iter()
            .for_each(sitra_cluster::ClusterNode::shutdown);
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

        let got = wait_output(&producer, &label, 1, Duration::from_secs(5))
            .unwrap()
            .expect("the worker put its output");
        let expect = analyses[0].analysis.aggregate(1, &local_parts);
        assert_eq!(got, expect);
        assert_eq!(
            encode_analysis_output(&got),
            encode_analysis_output(&expect)
        );
        server.shutdown();
    }

    #[test]
    fn worker_skips_a_task_whose_parts_are_malformed_and_serves_the_next() {
        // Step 1's two parts are truncated bytes: the stats decoder
        // panics on them. The worker must skip that task and go on to
        // aggregate the valid step-2 task.
        const BUCKET: u32 = 78; // unique: the skip counter is global
        let addr: Addr = "inproc://core-worker-malformed".parse().unwrap();
        let server = SpaceServer::start(&addr, 2).unwrap();
        let analyses = stats_roster();
        let label = analyses[0].label.clone();
        let producer = client_of(&server);
        for rank in 0..2 {
            producer
                .put(
                    &intermediate_var(&label),
                    1,
                    rank_bbox(rank),
                    Bytes::from_static(b"\x01\x00"),
                )
                .unwrap();
        }
        let task = encode_task(&RemoteTask {
            analysis_idx: 0,
            step: 1,
            n_ranks: 2,
        });
        let (_, adm) = producer.submit_task_routed(&label, 1, task).unwrap();
        assert!(adm.seq().is_some());
        let local_parts = stage_task(&producer, &analyses, 2, 0..2);
        producer.close_sched();

        let skipped =
            sitra_obs::global().counter(&format!("worker.tasks.skipped{{bucket={BUCKET}}}"));
        let before = skipped.get();
        let done = run_bucket_worker(
            &server.addr(),
            &analyses,
            BUCKET,
            &BucketWorkerOpts::default(),
        );
        assert_eq!(done.unwrap(), 1);
        assert_eq!(skipped.get() - before, 1);
        let got = wait_output(&producer, &label, 2, Duration::from_secs(5))
            .unwrap()
            .expect("the worker put step 2's output");
        assert_eq!(got, analyses[0].analysis.aggregate(2, &local_parts));
        let stored = producer
            .get(&output_var(&label), 1, &output_bbox())
            .unwrap();
        assert!(stored.is_empty(), "a malformed task was stored");
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
