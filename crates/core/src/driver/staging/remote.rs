//! The remote staging backend: ship intermediates to a staging service
//! — a member list of one or more `sitra-staged` space servers, reached
//! through one [`ClusterClient`] — where external bucket workers
//! aggregate them.
//!
//! Outputs come back on a collector thread, which blocks in a
//! data-ready read on the oldest shipped task and retires it the moment
//! a worker's put lands; the driver itself never asks the staging area
//! whether an output is there yet.
//!
//! Flow control runs end to end: at most
//! [`crate::PipelineConfig::staging_max_inflight`] tasks ride the wire
//! at once (submission blocks until the oldest has retired), the
//! server's admission policy can refuse or shed tasks, and any task the
//! staging path fails — deadline missed, admission refused, endpoint
//! unreachable — retires as [`Retired::Degraded`]: its aggregation
//! re-runs in-situ from the retained intermediates and the run
//! continues with zero lost steps.
//!
//! Staging memory is bounded by the window: a step's version is evicted
//! once it has retired — the driver has moved past it and no task of
//! that step or an earlier one is still in flight. The eviction is
//! queued on the client and rides the next ship's batch to each member
//! ([`ClusterClient::queue_eviction`]), so it costs no round trip of its
//! own. `close` sweeps what no ship took, and again every step with a
//! degraded task, whose worker may still put a late output.

use super::{BackendCaps, BackendStats, RetireCtx, Retired, StagedTask, StagingBackend};
use crate::driver::StagingOutputHook;
use crate::remote::{encode_task, intermediate_var, rank_bbox, wait_output, RemoteTask};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use sitra_cluster::ClusterClient;
use sitra_dataspaces::remote::RemoteError;
use sitra_dataspaces::{Admission, TenantSpec, DEFAULT_TENANT};
use sitra_mesh::BBox3;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CAPS: BackendCaps = BackendCaps {
    name: "remote",
    placement: "hybrid-remote",
    in_transit: true,
    ships_data: true,
};

/// A task shipped to the remote staging area whose output has not been
/// collected yet. `parts` retains the in-situ intermediates so the
/// aggregation can re-run locally if the staging path fails — memory
/// bounded by `staging_max_inflight` retained steps (`Bytes` clones
/// share the underlying buffers with the staged puts).
struct PendingRemote {
    analysis_idx: usize,
    step: u64,
    /// Scheduler sequence number of the submitted task; `u64::MAX` when
    /// the task never made it into the remote queue. Sequence numbers
    /// are per-member, so shed-victim lookup also matches `member`.
    seq: u64,
    /// Index of the member whose scheduler admitted the task.
    member: usize,
    issued: Instant,
    parts: Vec<(usize, Bytes)>,
}

/// `(analysis_idx, step)`: what names a task between the driver and
/// its collector.
type TaskKey = (usize, u64);

impl PendingRemote {
    fn key(&self) -> TaskKey {
        (self.analysis_idx, self.step)
    }
}

/// The in-flight window, under [`Collector::state`]. Whichever thread
/// removes an entry from `pending` — the collector on its output's
/// arrival, the driver on a deadline, a shed or a failure — retires
/// that task, so every task is retired exactly once.
struct Inflight {
    /// Shipped and not yet retired, oldest first.
    pending: Vec<PendingRemote>,
    /// The task the collector is blocked on, so that a driver retiring
    /// it first can cut the wait short.
    waiting: Option<TaskKey>,
    /// The collector's wait for this task failed outright (the staging
    /// path is broken, not slow), with the degradation reason. The
    /// collector parks while it is the oldest; the driver degrades it
    /// the next time it waits on it instead of sitting out a deadline.
    failed: Option<(TaskKey, &'static str)>,
    closing: bool,
}

/// What the driver shares with its collector thread.
struct Collector {
    /// The collector's own connections (same tenant binding as the
    /// driver's), shared only so the driver can `interrupt` a wait.
    client: ClusterClient,
    state: Mutex<Inflight>,
    /// Signalled on every change of `state`: the collector waits on it
    /// for work, the driver for retirements.
    changed: Condvar,
}

impl Collector {
    /// Remove `pending[pos]` for the caller to retire, cutting the
    /// collector's wait short if this is the task it is blocked on.
    fn take(&self, st: &mut Inflight, pos: usize) -> PendingRemote {
        let p = st.pending.remove(pos);
        if st.waiting == Some(p.key()) {
            self.client.interrupt();
        }
        self.changed.notify_all();
        p
    }

    /// The collector thread: block on the oldest shipped task's output
    /// and retire it the moment it lands. Outputs are recorded oldest
    /// first because only the oldest is ever waited on. Each data-ready
    /// read is bounded by `long_poll`; it decides nothing — a task that
    /// is still pending afterwards is simply waited on again, and
    /// deadlines stay with the driver.
    fn run(&self, ctx: &RetireCtx, hook: Option<&StagingOutputHook>, long_poll: Duration) {
        let mut st = self.state.lock();
        loop {
            if st.closing {
                return;
            }
            let oldest = st.pending.first().map(PendingRemote::key);
            let Some(key) = oldest.filter(|k| st.failed.map(|f| f.0) != Some(*k)) else {
                self.changed.wait(&mut st);
                continue;
            };
            st.waiting = Some(key);
            st.failed = None;
            self.client.resume();
            drop(st);
            let label = &ctx.analyses()[key.0].label;
            let waited = wait_output(&self.client, label, key.1, long_poll);
            st = self.state.lock();
            st.waiting = None;
            let Some(pos) = st.pending.iter().position(|p| p.key() == key) else {
                continue; // the driver retired it meanwhile
            };
            match waited {
                Ok(Some(output)) => {
                    st.pending.remove(pos);
                    ctx.retire(Retired::Collected {
                        analysis_idx: key.0,
                        step: key.1,
                        output,
                    });
                    // Under the lock, so the driver sees the retirement
                    // only once the hook has run — as when it collected
                    // outputs itself.
                    if let Some(h) = hook {
                        h(label, key.1);
                    }
                    self.changed.notify_all();
                }
                // Not there yet (the long-poll lapsed, or its connection
                // broke under it and every member answered empty): wait
                // again.
                Ok(None) => {}
                Err(e) => {
                    let reason = match e {
                        RemoteError::Net(_) => "endpoint-lost",
                        _ => "error",
                    };
                    st.failed = Some((key, reason));
                    self.changed.notify_all();
                }
            }
        }
    }
}

/// Hybrid aggregation on a remote staging service, with a bounded
/// in-flight window and graceful degradation.
pub struct RemoteBackend {
    ctx: RetireCtx,
    client: ClusterClient,
    shared: Arc<Collector>,
    collector: Option<JoinHandle<()>>,
    /// Versions (steps) that had intermediates put remotely and have not
    /// retired yet; each is queued for eviction as it retires.
    versions: BTreeSet<u64>,
    /// Steps with a degraded task: its worker may still put a late
    /// output after the step's eviction, so `close` evicts them again.
    late: BTreeSet<u64>,
    deadline: Duration,
    max_inflight: usize,
    n_ranks: u32,
    submitted: usize,
    /// The driver is one tenant among several on a shared staging
    /// service, so closing the scheduler at end-of-run would retire
    /// every other tenant's workers too. Set when a non-default tenant
    /// is configured; the legacy sole-owner deployment (no tenant, or
    /// explicitly the default one) keeps its close-on-exit semantics.
    shared_tenant: bool,
}

impl RemoteBackend {
    /// Stage through the member list `endpoints` (one entry for a
    /// single server), which must already be validated (non-empty,
    /// parseable) — [`crate::run_pipeline`] checks them before
    /// construction. Connections are dialed lazily: an unreachable
    /// member does not fail the run, the tasks routed to it degrade to
    /// in-situ aggregation.
    pub fn new(
        ctx: RetireCtx,
        endpoints: Vec<String>,
        deadline: Duration,
        max_inflight: usize,
        n_ranks: u32,
        hook: Option<StagingOutputHook>,
        tenant: Option<TenantSpec>,
    ) -> Self {
        let connect = || {
            let client = ClusterClient::new(
                sitra_cluster::DEFAULT_SEED,
                sitra_cluster::DEFAULT_VNODES,
                endpoints.iter().cloned(),
                sitra_net::Backoff::default(),
            )
            .expect("endpoints validated by run_pipeline");
            match &tenant {
                Some(spec) => client.with_tenant(spec.clone()),
                None => client,
            }
        };
        let shared = Arc::new(Collector {
            client: connect(),
            state: Mutex::new(Inflight {
                pending: Vec::new(),
                waiting: None,
                failed: None,
                closing: false,
            }),
            changed: Condvar::new(),
        });
        let collector = {
            let (shared, ctx) = (Arc::clone(&shared), ctx.clone());
            std::thread::Builder::new()
                .name("staging-collector".into())
                .spawn(move || shared.run(&ctx, hook.as_ref(), deadline))
                .expect("spawn staging collector")
        };
        RemoteBackend {
            ctx,
            client: connect(),
            shared,
            collector: Some(collector),
            versions: BTreeSet::new(),
            late: BTreeSet::new(),
            deadline,
            max_inflight,
            n_ranks,
            submitted: 0,
            shared_tenant: tenant.is_some_and(|t| t.name != DEFAULT_TENANT),
        }
    }

    /// Re-run a task's aggregation in-situ through the shared
    /// retirement path; returns the wall seconds burned.
    fn degrade(&mut self, p: PendingRemote, reason: &'static str) -> f64 {
        self.late.insert(p.step);
        self.ctx.retire(Retired::Degraded {
            analysis_idx: p.analysis_idx,
            step: p.step,
            issued: p.issued,
            parts: p.parts,
            reason,
        })
    }

    /// Wait for the collector to retire the oldest in-flight task, for
    /// at most the staging deadline; a task that misses it, or whose
    /// wait the collector reports failed (endpoint lost), is degraded
    /// to in-situ aggregation here. Returns the wall seconds spent
    /// waiting and/or aggregating locally.
    fn wait_for_oldest(&mut self) -> f64 {
        let t0 = Instant::now();
        let deadline = t0 + self.deadline;
        let mut st = self.shared.state.lock();
        let Some(oldest) = st.pending.first().map(PendingRemote::key) else {
            return 0.0;
        };
        let reason = loop {
            if st.pending.first().map(PendingRemote::key) != Some(oldest) {
                break None;
            }
            if let Some((_, reason)) = st.failed.take_if(|f| f.0 == oldest) {
                break Some(reason);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break Some("deadline");
            }
            self.shared.changed.wait_for(&mut st, left);
        };
        sitra_obs::histogram("driver.staging.backpressure_wait_ns").observe(t0.elapsed());
        let lost = reason.map(|reason| (self.shared.take(&mut st, 0), reason));
        drop(st);
        let waited = t0.elapsed().as_secs_f64();
        waited + lost.map_or(0.0, |(p, reason)| self.degrade(p, reason))
    }

    /// Queue the eviction of every version that has retired before the
    /// driver ships `step`: older than `step` and than every task still
    /// in flight (`pending` is in submission order, so step order).
    fn evict_retired(&mut self, step: u64) {
        let oldest = match self.shared.state.lock().pending.first() {
            Some(p) => p.step.min(step),
            None => step,
        };
        let live = self.versions.split_off(&oldest);
        for version in std::mem::replace(&mut self.versions, live) {
            self.client.queue_eviction(version);
        }
    }

    /// Put this step's intermediates into the staging space and submit
    /// the task through the admission-aware verb, as one pipelined
    /// [`ClusterClient::ship`]. `Ok` carries the in-flight entry and,
    /// under an `AcceptedShed` verdict, the sequence number of the older
    /// task the server evicted to admit this one. `Err(reason)` means
    /// the staging path refused (or lost) the task and the caller must
    /// degrade it immediately.
    fn try_ship(
        &mut self,
        analysis_idx: usize,
        step: u64,
        issued: Instant,
        parts: &[(usize, Bytes)],
    ) -> Result<(PendingRemote, Option<u64>), &'static str> {
        // Every member's last dial failed: the staging area is gone,
        // degrade at once instead of paying a connect per operation.
        if !self.client.alive() {
            return Err("endpoint-lost");
        }
        let t0 = Instant::now();
        let label = &self.ctx.analyses()[analysis_idx].label;
        self.versions.insert(step);
        let pieces: Vec<(BBox3, Bytes)> = parts
            .iter()
            .map(|(r, payload)| (rank_bbox(*r), payload.clone()))
            .collect();
        let task = encode_task(&RemoteTask {
            analysis_idx: analysis_idx as u32,
            step,
            n_ranks: self.n_ranks,
        });
        let outcome = self
            .client
            .ship(&intermediate_var(label), step, &pieces, label, step, task);
        // What movement cost the simulation thread, beside the in-situ
        // stage's own `analysis.insitu` row.
        let took = t0.elapsed();
        sitra_obs::histogram("driver.staging.ship_ns").observe(took);
        let (members, round_trips) = outcome
            .as_ref()
            .map_or((0, 0), |s| (s.members, s.round_trips));
        sitra_obs::emit(
            "driver",
            "staging.ship",
            &[
                ("analysis", label.clone()),
                ("step", step.to_string()),
                ("parts", parts.len().to_string()),
                ("members", members.to_string()),
                ("round_trips", round_trips.to_string()),
                ("ship_secs", took.as_secs_f64().to_string()),
            ],
        );
        let shipped = outcome.map_err(|_| "endpoint-lost")?;
        let (seq, shed_seq) = match shipped.admission {
            Admission::Accepted { seq } => (seq, None),
            Admission::AcceptedShed { seq, shed_seq } => (seq, Some(shed_seq)),
            Admission::Rejected => return Err("rejected"),
            Admission::TimedOut => return Err("admission-timeout"),
            Admission::Closed => return Err("sched-closed"),
        };
        let pending = PendingRemote {
            analysis_idx,
            step,
            seq,
            member: shipped.member,
            issued,
            parts: parts.to_vec(),
        };
        Ok((pending, shed_seq))
    }

    /// Tell the collector to finish and join it. A wait still parked on
    /// a task the driver retired itself is cut short, not sat out.
    fn stop_collector(&mut self) {
        let Some(collector) = self.collector.take() else {
            return;
        };
        {
            let mut st = self.shared.state.lock();
            st.closing = true;
            if st.waiting.is_some() {
                self.shared.client.interrupt();
            }
            self.shared.changed.notify_all();
        }
        // A collector that panicked has retired nothing it should not
        // have; what it left pending was degraded by the drain.
        let _ = collector.join();
    }
}

impl Drop for RemoteBackend {
    fn drop(&mut self) {
        self.stop_collector();
    }
}

impl StagingBackend for RemoteBackend {
    fn caps(&self) -> BackendCaps {
        CAPS
    }

    fn submit(&mut self, task: StagedTask) -> f64 {
        self.submitted += 1;
        // Producer-side backpressure: bound the in-flight window by
        // waiting out the oldest output first.
        let mut blocked = 0.0;
        while self.shared.state.lock().pending.len() >= self.max_inflight.max(1) {
            blocked += self.wait_for_oldest();
        }
        self.evict_retired(task.step);
        let shipped = self.try_ship(task.analysis_idx, task.step, task.issued, &task.parts);
        // Before the collector can see the task: a degradation looks
        // its metrics row up.
        self.ctx.record_insitu(&task, &CAPS, shipped.is_ok());
        let lost = match shipped {
            Ok((shipped, shed_seq)) => {
                let mut st = self.shared.state.lock();
                let member = shipped.member;
                st.pending.push(shipped);
                self.shared.changed.notify_all();
                // The server evicted an older queued task to admit this
                // one (ShedOldest policy): it will never run remotely, so
                // re-run its aggregation locally right away. Sequence
                // numbers are per member scheduler, so the victim must
                // have been admitted by the same member.
                shed_seq
                    .and_then(|victim| {
                        st.pending
                            .iter()
                            .position(|p| p.seq == victim && p.member == member)
                    })
                    .map(|pos| (self.shared.take(&mut st, pos), "shed"))
            }
            Err(reason) => Some((
                PendingRemote {
                    analysis_idx: task.analysis_idx,
                    step: task.step,
                    seq: u64::MAX,
                    member: 0,
                    issued: task.issued,
                    parts: task.parts,
                },
                reason,
            )),
        };
        blocked + lost.map_or(0.0, |(p, reason)| self.degrade(p, reason))
    }

    fn drain(&mut self) -> f64 {
        // Wait out every in-flight output; anything the staging path
        // lost is re-aggregated in-situ — zero lost steps.
        let mut blocked = 0.0;
        while !self.shared.state.lock().pending.is_empty() {
            blocked += self.wait_for_oldest();
        }
        blocked
    }

    fn close(&mut self) -> BackendStats {
        self.stop_collector();
        // Reclaim the rest of the staging memory (scoped to this
        // tenant's namespace when one is bound): the steps not retired
        // by a later ship, the evictions no ship took, and the steps a
        // degraded task's worker may have put a late output into. Then
        // close the remote scheduler so external bucket workers retire —
        // unless the service is shared with other tenants, in which case
        // its lifetime belongs to the operator, not to whichever driver
        // finishes first.
        self.client
            .evict_versions(self.versions.union(&self.late).copied());
        if !self.shared_tenant {
            self.client.close_sched();
        }
        BackendStats {
            submitted: self.submitted,
            max_queue_depth: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::task_of;
    use super::*;
    use crate::analysis::HybridStats;
    use crate::placement::{AnalysisSpec, Placement};
    use crate::remote::{output_bbox, output_var};
    use crate::wire::encode_analysis_output;
    use sitra_dataspaces::{AdmissionPolicy, DataSpaces, Scheduler, SpaceServer};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A backend over a fresh worker-less server (so an output only
    /// ever appears when the test puts it), its retirement context and
    /// the count of hook calls.
    fn rig(
        name: &str,
        deadline: Duration,
        capacity: Option<usize>,
    ) -> (SpaceServer, RemoteBackend, RetireCtx, Arc<AtomicUsize>) {
        let server = SpaceServer::start_custom(
            &format!("inproc://core-collector-{name}").parse().unwrap(),
            Arc::new(DataSpaces::new(1)),
            capacity.map_or_else(Scheduler::new, |cap| {
                Scheduler::bounded(cap, AdmissionPolicy::ShedOldest)
            }),
            None,
        )
        .unwrap();
        let ctx = RetireCtx::new(
            vec![AnalysisSpec::new(
                Arc::new(HybridStats::default()),
                Placement::Hybrid,
                1,
            )],
            None,
        );
        let hooked = Arc::new(AtomicUsize::new(0));
        let hook: StagingOutputHook = {
            let hooked = Arc::clone(&hooked);
            Arc::new(move |_: &str, _| {
                hooked.fetch_add(1, Ordering::SeqCst);
            })
        };
        let backend = RemoteBackend::new(
            ctx.clone(),
            vec![server.addr().to_string()],
            deadline,
            4,
            2,
            Some(hook),
            None,
        );
        (server, backend, ctx, hooked)
    }

    /// One two-rank task of the rig's analysis at `step`.
    fn task(ctx: &RetireCtx, step: u64) -> StagedTask {
        task_of(ctx, step, 2)
    }

    /// What a worker would put for `task`.
    fn worker_output(ctx: &RetireCtx, task: &StagedTask) -> Bytes {
        encode_analysis_output(&ctx.analyses()[0].analysis.aggregate(task.step, &task.parts))
    }

    #[test]
    fn output_landing_as_the_deadline_expires_is_recorded_once() {
        // The collector (output arrived) and the driver (deadline
        // passed) race for the same task; whoever takes it off the
        // pending list retires it, the other finds it gone.
        const DEADLINE: Duration = Duration::from_millis(30);
        let (server, mut backend, ctx, hooked) = rig("deadline", DEADLINE, None);
        let label = ctx.analyses()[0].label.clone();
        for (round, skew_us) in [-2000i64, -500, -100, 0, 0, 100, 500, 2000]
            .into_iter()
            .enumerate()
        {
            let step = round as u64 + 1;
            let task = task(&ctx, step);
            let expected = worker_output(&ctx, &task);
            let before = (ctx.degraded_tasks(), hooked.load(Ordering::SeqCst));
            backend.submit(task);
            // The stimulus is the timing itself; every interleaving it
            // produces must satisfy the assertions below.
            let skew = Duration::from_micros(skew_us.unsigned_abs());
            let lands_at = Instant::now()
                + if skew_us < 0 {
                    DEADLINE - skew
                } else {
                    DEADLINE + skew
                };
            std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(lands_at.saturating_duration_since(Instant::now()));
                    server
                        .space()
                        .put(&output_var(&label), step, output_bbox(), expected.clone());
                });
                backend.drain();
            });
            let was_degraded = ctx.degraded_tasks() - before.0;
            let was_hooked = hooked.load(Ordering::SeqCst) - before.1;
            assert_eq!(
                was_degraded + was_hooked,
                1,
                "round {round}: retired twice or never"
            );
            let outputs = ctx.take_outputs();
            assert_eq!(outputs.len(), 1, "round {round}");
            let (l, st, out) = &outputs[0];
            assert_eq!((l.as_str(), *st), (label.as_str(), step));
            assert_eq!(encode_analysis_output(out), expected, "round {round}");
        }
        backend.close();
        server.shutdown();
    }

    #[test]
    fn a_late_output_of_a_degraded_task_is_reclaimed_at_close() {
        // No worker: step 1 degrades at its deadline, step 2's ship
        // evicts step 1, and only then does step 1's output land, as a
        // slow worker's would. Close must reclaim it.
        let (server, mut backend, ctx, hooked) = rig("late", Duration::from_millis(30), None);
        let label = ctx.analyses()[0].label.clone();
        let ranks = BBox3::new([0, 0, 0], [2, 1, 1]);
        let first = task(&ctx, 1);
        let late = worker_output(&ctx, &first);
        backend.submit(first);
        backend.drain();
        assert_eq!(ctx.degraded_tasks(), 1);
        assert_eq!(
            server
                .space()
                .get(&intermediate_var(&label), 1, &ranks)
                .len(),
            2
        );

        let second = task(&ctx, 2);
        let on_time = worker_output(&ctx, &second);
        backend.submit(second);
        assert!(
            server
                .space()
                .get(&intermediate_var(&label), 1, &ranks)
                .is_empty(),
            "step 2's ship evicts the retired step 1"
        );
        let space = server.space();
        space.put(&output_var(&label), 1, output_bbox(), late);
        space.put(&output_var(&label), 2, output_bbox(), on_time);
        backend.drain();
        assert_eq!(
            (ctx.degraded_tasks(), hooked.load(Ordering::SeqCst)),
            (1, 1)
        );
        assert!(space.stats().resident_bytes > 0);

        backend.close();
        assert_eq!(space.stats().resident_bytes, 0);
        let steps: Vec<u64> = ctx.take_outputs().iter().map(|o| o.1).collect();
        assert_eq!(steps, [1, 2]);
        server.shutdown();
    }

    #[test]
    fn retiring_the_awaited_task_cuts_the_collector_loose() {
        // A 30 s long-poll on task 1, which the server then sheds to
        // admit task 2: the driver degrades it at once, and the
        // collector must not sit the long-poll out before it gets to
        // task 2 — nor may close() afterwards.
        let (server, mut backend, ctx, hooked) = rig("shed", Duration::from_secs(30), Some(1));
        let label = ctx.analyses()[0].label.clone();
        let t0 = Instant::now();
        backend.submit(task(&ctx, 1));
        while backend.shared.state.lock().waiting != Some((0, 1)) {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "collector never armed"
            );
            std::thread::yield_now();
        }
        let second = task(&ctx, 2);
        let expected = worker_output(&ctx, &second);
        backend.submit(second);
        assert_eq!(
            ctx.degraded_tasks(),
            1,
            "the shed victim degrades at submit"
        );
        server
            .space()
            .put(&output_var(&label), 2, output_bbox(), expected);
        backend.drain();
        assert_eq!(hooked.load(Ordering::SeqCst), 1);
        assert_eq!(ctx.degraded_tasks(), 1);
        let steps: Vec<u64> = ctx.take_outputs().iter().map(|o| o.1).collect();
        assert_eq!(steps, [1, 2]);
        backend.close();
        assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
        server.shutdown();
    }

    #[test]
    fn a_slow_member_never_lets_a_worker_see_a_task_short_of_parts() {
        // Six rank parts over three members, the puts to one of them
        // held up on the wire, a worker parked on every member: the
        // task must not be assignable before the held puts are in, or
        // the worker would find it short, skip it, and leave the driver
        // to degrade it at the deadline.
        use crate::remote::{run_cluster_bucket_worker, BucketWorkerOpts};
        use sitra_dataspaces::remote::{decode_request, Request};
        use sitra_net::{install_fault_injector, FaultAction, FaultInjector, Frame};

        const RANKS: usize = 6;
        const BUCKET: u32 = 78; // unique: the skip counter is global

        /// Holds every put of `var` sent to `peer` for a while.
        struct HoldPuts {
            peer: String,
            var: String,
            held: AtomicUsize,
        }
        impl FaultInjector for HoldPuts {
            fn on_frame(&self, _conn: u64, peer: &str, frame: &Frame) -> FaultAction {
                if peer != self.peer {
                    return FaultAction::Deliver;
                }
                match decode_request(frame.join()) {
                    Ok(Request::Put { var, .. }) if var == self.var => {
                        self.held.fetch_add(1, Ordering::SeqCst);
                        FaultAction::Delay(Duration::from_millis(100))
                    }
                    _ => FaultAction::Deliver,
                }
            }
        }

        let servers: Vec<SpaceServer> = (0..3)
            .map(|_| SpaceServer::start(&"tcp://127.0.0.1:0".parse().unwrap(), 1).unwrap())
            .collect();
        let endpoints: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
        let ctx = RetireCtx::new(
            vec![AnalysisSpec::new(
                Arc::new(HybridStats::default()),
                Placement::Hybrid,
                1,
            )],
            None,
        );
        let label = ctx.analyses()[0].label.clone();
        let var = intermediate_var(&label);
        let ring = sitra_cluster::HashRing::new(
            sitra_cluster::DEFAULT_SEED,
            sitra_cluster::DEFAULT_VNODES,
            endpoints.iter().cloned(),
        );
        let owners = |step: u64| -> Vec<usize> {
            (0..RANKS)
                .map(|r| {
                    let key = sitra_cluster::ShardKey::new(&var, step, &rank_bbox(r));
                    ring.owner_index(&key).unwrap()
                })
                .collect()
        };
        // A step whose parts reach all three members, and among them a
        // slow member that does not own the task.
        let step = (1..10_000)
            .find(|&step| (0..3).all(|m| owners(step).contains(&m)))
            .unwrap();
        let slow = (ring.task_owner_index(&label, step).unwrap() + 1) % 3;
        let task = task_of(&ctx, step, RANKS);
        let golden = worker_output(&ctx, &task);
        let injector = Arc::new(HoldPuts {
            peer: ring.members()[slow]
                .trim_start_matches("tcp://")
                .to_string(),
            var,
            held: AtomicUsize::new(0),
        });
        let skipped =
            sitra_obs::global().counter(&format!("worker.tasks.skipped{{bucket={BUCKET}}}"));
        let previous = install_fault_injector(Some(injector.clone()));
        let mut backend = RemoteBackend::new(
            ctx.clone(),
            endpoints.clone(),
            Duration::from_secs(20),
            4,
            RANKS as u32,
            None,
            None,
        );
        let completed = std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let opts = BucketWorkerOpts::default();
                run_cluster_bucket_worker(&endpoints, ctx.analyses(), BUCKET, &opts)
            });
            backend.submit(task);
            backend.drain();
            backend.close(); // closes the schedulers: the worker ends
            worker.join().unwrap()
        });
        install_fault_injector(previous);

        assert!(injector.held.load(Ordering::SeqCst) >= 1, "no put was held");
        assert_eq!(completed.unwrap(), 1);
        assert_eq!(skipped.get(), 0);
        assert_eq!(ctx.degraded_tasks(), 0);
        let outputs = ctx.take_outputs();
        assert_eq!(outputs.len(), 1);
        assert_eq!(encode_analysis_output(&outputs[0].2), golden);
        servers.into_iter().for_each(SpaceServer::shutdown);
    }
}
