//! Client-side shard routing: one lazy connection per member, puts
//! routed by the placement ring, gets fanned out to every member.
//!
//! The client routes over the **static** endpoint list it was
//! configured with, not the live membership view. That makes its
//! correctness independent of view staleness: a piece is found as long
//! as it lives on *any* configured member, wherever handoff has moved
//! it, and a falsely-suspected member keeps serving its clients.
//!
//! Every operation is a plain `RemoteSpace` verb (no control frames), so
//! a one-member client works against a bare `SpaceServer`: the pipeline
//! driver and the bucket workers use this client for a single staging
//! server and for a cluster alike.
//!
//! Whatever touches several members is sent to all of them before any
//! reply is read, so a fan-out costs one round-trip time, not one per
//! member.
//!
//! Evictions ride ship batches: [`ClusterClient::queue_eviction`] only
//! notes a version per member, and the next [`ClusterClient::ship`]
//! appends each member's evictions after its puts and its submit; a
//! member the ship sends nothing else gets an eviction-only batch in
//! the same send-all-then-gather exchange — no extra round trip — when
//! a connection to it is already open: none is dialed for evictions
//! alone. [`ClusterClient::evict_versions`] sends whatever is still
//! queued (end of run).

use crate::ring::{HashRing, ShardKey};
use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use sitra_dataspaces::remote::{Request, Response};
use sitra_dataspaces::{
    Admission, RemoteError, RemoteSpace, RemoteStats, TaskPoll, TenantRow, TenantSpec,
};
use sitra_mesh::BBox3;
use sitra_net::{Addr, Backoff, NetError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Is this failure worth one reconnect-and-retry? Transport errors are
/// (the peer may have restarted or the connection gone stale); protocol
/// and server-side errors are not.
fn retryable(err: &RemoteError) -> bool {
    matches!(err, RemoteError::Net(_))
}

struct Member {
    addr: Addr,
    /// Held for a whole operation: one request, or one batch, in
    /// flight per connection.
    conn: Mutex<Option<Arc<RemoteSpace>>>,
    /// The connection `conn` holds, reachable without that lock so
    /// [`ClusterClient::interrupt`] can close it under a parked
    /// long-poll.
    open: Mutex<Option<Arc<RemoteSpace>>>,
    /// The last dial failed; cleared by the next one that succeeds. A
    /// plain flag publishing no other data, hence `Relaxed`.
    down: AtomicBool,
    /// Versions queued for eviction here
    /// ([`ClusterClient::queue_eviction`]), not sent yet.
    evictions: Mutex<Vec<u64>>,
}

/// A member's connection slot, locked for the length of an operation.
type Slot<'a> = MutexGuard<'a, Option<Arc<RemoteSpace>>>;

/// How [`ClusterClient::exchange`] reaches a member.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// Dial when no connection is open, and reconnect once after a
    /// transport failure, as [`ClusterClient::on`] does.
    Dial,
    /// Only over a connection already open, and no reconnect: for
    /// requests nothing waits on, so an absent member costs no dial.
    Open,
}

/// What [`ClusterClient::ship`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct Shipped {
    /// Index of the member whose scheduler answered the submission.
    pub member: usize,
    /// That scheduler's verdict.
    pub admission: Admission,
    /// Members that took rank parts.
    pub members: usize,
    /// Waits for replies: 1 when the submit rode the puts' batch, 2 when
    /// it followed them, plus one per fail-over.
    pub round_trips: usize,
}

/// Per-member counters a fan-out sums into a cluster-wide view.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Members that answered the stats fan-out.
    pub members_reporting: usize,
    /// Summed scheduler/space counters across reporting members.
    pub totals: RemoteStats,
}

/// A sharded client over a fixed member list.
pub struct ClusterClient {
    ring: HashRing,
    members: Vec<Member>,
    backoff: Backoff,
    tenant: Option<TenantSpec>,
    /// Set by [`ClusterClient::interrupt`]: every operation fails
    /// until [`ClusterClient::resume`].
    interrupted: AtomicBool,
}

impl ClusterClient {
    /// A client routing over `endpoints` with the given placement
    /// parameters (which must match the servers'). Endpoints must
    /// parse as `tcp://` or `inproc://` addresses. Connections are
    /// dialed lazily, so construction never blocks on an absent member.
    pub fn new<I, S>(
        seed: u64,
        vnodes: u32,
        endpoints: I,
        backoff: Backoff,
    ) -> Result<ClusterClient, RemoteError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let ring = HashRing::new(seed, vnodes, endpoints);
        if ring.is_empty() {
            return Err(RemoteError::Proto("empty cluster endpoint list".into()));
        }
        let members = ring
            .members()
            .iter()
            .map(|ep| {
                let addr: Addr = ep
                    .parse()
                    .map_err(|_| RemoteError::Proto(format!("unparseable endpoint `{ep}`")))?;
                Ok(Member {
                    addr,
                    conn: Mutex::new(None),
                    open: Mutex::new(None),
                    down: AtomicBool::new(false),
                    evictions: Mutex::new(Vec::new()),
                })
            })
            .collect::<Result<Vec<_>, RemoteError>>()?;
        Ok(ClusterClient {
            ring,
            members,
            backoff,
            tenant: None,
            interrupted: AtomicBool::new(false),
        })
    }

    /// Bind every member connection (present and future) to `tenant`:
    /// the declaration is sent on each fresh dial, so quotas and
    /// weighted scheduling hold per member even across reconnects and
    /// fail-overs.
    pub fn with_tenant(mut self, spec: TenantSpec) -> Self {
        // Existing connections (dialed before the binding) are dropped
        // so the next use re-dials with the tenant declared.
        for m in &self.members {
            *m.conn.lock() = None;
            *m.open.lock() = None;
        }
        self.tenant = Some(spec);
        self
    }

    /// The tenant this client is bound to, if any.
    pub fn tenant(&self) -> Option<&TenantSpec> {
        self.tenant.as_ref()
    }

    /// Fan out a per-tenant stats poll and merge rows by tenant name
    /// (counters summed across members).
    pub fn tenant_stats(&self) -> Vec<TenantRow> {
        let mut by_name: BTreeMap<String, TenantRow> = Default::default();
        let rows = self.answers(&[Request::TenantStats], Response::into_tenant_rows);
        for r in rows.into_iter().flatten().flatten() {
            let e = by_name.entry(r.name.clone()).or_insert_with(|| TenantRow {
                name: r.name.clone(),
                weight: r.weight,
                task_quota: r.task_quota,
                byte_quota: r.byte_quota,
                ..TenantRow::default()
            });
            e.queued += r.queued;
            e.tasks_submitted += r.tasks_submitted;
            e.tasks_assigned += r.tasks_assigned;
            e.tasks_requeued += r.tasks_requeued;
            e.tasks_shed += r.tasks_shed;
            e.tasks_rejected += r.tasks_rejected;
            e.resident_bytes += r.resident_bytes;
        }
        by_name.into_values().collect()
    }

    /// Dial `m` and immediately declare the tenant (when one is set),
    /// so no operation ever runs on an unbound connection — a reconnect
    /// must not silently fall back to the default namespace. Journals
    /// `staging.lost` once per up→down transition of the member.
    ///
    /// While any member is up the dial gets the full backoff: a
    /// restarting or late-joining member is worth waiting for, and the
    /// rest of the cluster carries the load meanwhile. Once every
    /// member's last dial failed the staging area is gone, and each
    /// operation gets a single attempt so callers fail fast instead of
    /// paying the whole retry budget per operation.
    fn dial(&self, m: &Member) -> Result<RemoteSpace, RemoteError> {
        let dialed = if self.alive() {
            RemoteSpace::connect_retry(&m.addr, &self.backoff)
        } else {
            RemoteSpace::connect(&m.addr)
        }
        .and_then(|conn| {
            if let Some(spec) = &self.tenant {
                conn.set_tenant(spec)?;
            }
            Ok(conn)
        });
        match &dialed {
            Ok(_) => m.down.store(false, Ordering::Relaxed),
            Err(e) => {
                if !m.down.swap(true, Ordering::Relaxed) {
                    sitra_obs::emit(
                        "cluster",
                        "staging.lost",
                        &[("endpoint", m.addr.to_string()), ("error", e.to_string())],
                    );
                }
            }
        }
        dialed
    }

    /// The connection in `slot`, dialed first when there is none.
    fn connected(&self, m: &Member, slot: &mut Slot<'_>) -> Result<Arc<RemoteSpace>, RemoteError> {
        let interrupted = || self.interrupted.load(Ordering::SeqCst);
        if slot.is_none() && !interrupted() {
            let conn = Arc::new(self.dial(m)?);
            // Published under the lock `interrupt` closes connections
            // under: it finds this one, or its flag is up for the test
            // below.
            *m.open.lock() = Some(Arc::clone(&conn));
            **slot = Some(conn);
        }
        match &**slot {
            Some(conn) if !interrupted() => Ok(Arc::clone(conn)),
            _ => Err(RemoteError::Net(NetError::Closed)),
        }
    }

    /// The outcome of an operation whose `first` attempt on `slot`'s
    /// connection is given: a failure discards the connection, and a
    /// transport failure (it may just have gone stale) earns `op` one
    /// more attempt on a fresh one.
    fn retry_once<R>(
        &self,
        m: &Member,
        slot: &mut Slot<'_>,
        first: Result<R, RemoteError>,
        op: impl Fn(&RemoteSpace) -> Result<R, RemoteError>,
    ) -> Result<R, RemoteError> {
        let e = match first {
            Ok(r) => return Ok(r),
            Err(e) => e,
        };
        Self::forget(m, slot);
        if !retryable(&e) {
            return Err(e);
        }
        let again = self.connected(m, slot).and_then(|conn| op(&conn));
        if again.is_err() {
            Self::forget(m, slot);
        }
        again
    }

    /// Drop the connection in `slot`; the next operation dials anew.
    fn forget(m: &Member, slot: &mut Slot<'_>) {
        **slot = None;
        *m.open.lock() = None;
    }

    /// Run `op` on member `idx`'s connection, dialing lazily and
    /// reconnecting once when a stale connection fails with a
    /// transport error.
    pub fn on<R>(
        &self,
        idx: usize,
        op: impl Fn(&RemoteSpace) -> Result<R, RemoteError>,
    ) -> Result<R, RemoteError> {
        let m = &self.members[idx];
        let mut slot = m.conn.lock();
        let first = self.connected(m, &mut slot)?;
        self.retry_once(m, &mut slot, op(&first), op)
    }

    /// Send-all-then-gather: every `(member, requests)` entry of `work`
    /// (ascending members, none twice) is written as one batch before
    /// any reply is read — the slowest member's round trip, not the sum.
    /// The reconnect-once rule of [`ClusterClient::on`] resends a
    /// member's whole batch, so only repeatable requests belong in one.
    /// An entry to reach only over an open connection fails without a
    /// dial when there is none.
    fn exchange(
        &self,
        work: &[(usize, &[Request], Reach)],
    ) -> Vec<Result<Vec<Response>, RemoteError>> {
        let sent: Vec<_> = work
            .iter()
            .map(|&(idx, reqs, reach)| {
                let m = &self.members[idx];
                let mut slot = m.conn.lock();
                let conn = if reach == Reach::Open && slot.is_none() {
                    Err(RemoteError::Net(NetError::Closed))
                } else {
                    self.connected(m, &mut slot)
                };
                let batch = conn.map(|conn| conn.send_batch(reqs).map(|batch| (conn, batch)));
                (m, slot, batch)
            })
            .collect();
        sent.into_iter()
            .zip(work)
            .map(|((m, mut slot, batch), &(_, reqs, reach))| {
                // A failed dial is final, as in `on`.
                let first = batch?.and_then(|(conn, batch)| conn.gather(reqs, batch));
                match reach {
                    Reach::Dial => self.retry_once(m, &mut slot, first, |c| c.batch(reqs)),
                    Reach::Open => {
                        if first.is_err() {
                            Self::forget(m, &mut slot);
                        }
                        first
                    }
                }
            })
            .collect()
    }

    /// `reqs` put to every member at once: what the members whose
    /// replies all pass `extract` said, or the last error when none did.
    fn answers<T>(
        &self,
        reqs: &[Request],
        extract: fn(Response) -> Result<T, RemoteError>,
    ) -> Result<Vec<T>, RemoteError> {
        let work: Vec<_> = (0..self.members.len())
            .map(|idx| (idx, reqs, Reach::Dial))
            .collect();
        let mut last_err = None;
        let mut answered = Vec::new();
        for replies in self.exchange(&work) {
            let judged: Result<Vec<T>, _> =
                replies.and_then(|r| r.into_iter().map(extract).collect());
            match judged {
                Ok(judged) => answered.push(judged),
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(e) if answered.is_empty() => Err(e),
            _ => Ok(answered.into_iter().flatten().collect()),
        }
    }

    /// Cut every operation short from another thread: parked long-polls
    /// ([`ClusterClient::get_wait`], a held task request) fail with a
    /// transport error at once, and so does every later operation until
    /// [`ClusterClient::resume`]. The severed connections are re-dialed
    /// on next use.
    pub fn interrupt(&self) {
        self.interrupted.store(true, Ordering::SeqCst);
        for m in &self.members {
            if let Some(conn) = m.open.lock().take() {
                conn.close();
            }
        }
    }

    /// Lift an [`ClusterClient::interrupt`].
    pub fn resume(&self) {
        self.interrupted.store(false, Ordering::SeqCst);
    }

    /// Whether any member is worth trying: `false` once every member's
    /// last dial failed. A caller that checks this before each task
    /// (the pipeline driver does) degrades at once instead of paying a
    /// connect attempt per operation on a staging area that is gone.
    pub fn alive(&self) -> bool {
        self.members.iter().any(|m| !m.down.load(Ordering::Relaxed))
    }

    /// Number of configured members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The configured member endpoints, in ring (sorted) order.
    pub fn endpoints(&self) -> &[String] {
        self.ring.members()
    }

    /// Store an object on its ring owner.
    pub fn put(
        &self,
        var: &str,
        version: u64,
        bbox: BBox3,
        data: Bytes,
    ) -> Result<(), RemoteError> {
        let idx = self
            .ring
            .owner_index(&ShardKey::new(var, version, &bbox))
            .expect("non-empty ring");
        self.on(idx, |c| c.put(var, version, bbox, data.clone()))
    }

    /// Spatial query fanned out to **every** member, because handoff may
    /// have left pieces anywhere. Pieces are merged, deduplicated by
    /// region (a handoff retry can land the identical piece on two
    /// members), and sorted by lower corner — the same canonical order
    /// `DataSpaces::get` returns. Fails only when every member fails
    /// AND none returned pieces; individual member failures otherwise
    /// just shrink the answer (the caller's piece-count check catches
    /// an incomplete assembly).
    pub fn get(
        &self,
        var: &str,
        version: u64,
        query: &BBox3,
    ) -> Result<Vec<(BBox3, Bytes)>, RemoteError> {
        let get = Request::Get {
            var: var.to_string(),
            version,
            bbox: *query,
        };
        let per_member = self.answers(&[get], Response::into_pieces)?;
        let mut pieces: Vec<(BBox3, Bytes)> = per_member.into_iter().flatten().collect();
        pieces.sort_by_key(|(b, _)| b.lo);
        pieces.dedup_by(|a, b| a.0 == b.0);
        Ok(pieces)
    }

    /// Data-ready read: block on the ring owner of `(var, version,
    /// query)` — where a [`ClusterClient::put`] of that region lands —
    /// until it holds a matching piece or `timeout` lapses. A wait that
    /// ends empty or in an error falls back to the fan-out
    /// [`ClusterClient::get`], which finds a piece that handoff moved
    /// off its owner.
    pub fn get_wait(
        &self,
        var: &str,
        version: u64,
        query: &BBox3,
        timeout: Duration,
    ) -> Result<Vec<(BBox3, Bytes)>, RemoteError> {
        let owner = self
            .ring
            .owner_index(&ShardKey::new(var, version, query))
            .expect("non-empty ring");
        match self.on(owner, |c| c.get_wait(var, version, query, timeout)) {
            Ok(pieces) if !pieces.is_empty() => Ok(pieces),
            _ => self.get(var, version, query),
        }
    }

    /// Highest stored version of `var` across the cluster, `None` when
    /// no member holds it.
    pub fn latest_version(&self, var: &str) -> Result<Option<u64>, RemoteError> {
        let latest = Request::LatestVersion {
            var: var.to_string(),
        };
        let per_member = self.answers(&[latest], Response::into_version)?;
        Ok(per_member.into_iter().flatten().max())
    }

    /// Submit a task to the member owning `(route, step)`, falling over
    /// to the next members in ring order when the owner is unreachable.
    /// Returns the serving member's index along with the admission
    /// verdict.
    pub fn submit_task_routed(
        &self,
        route: &str,
        step: u64,
        data: Bytes,
    ) -> Result<(usize, Admission), RemoteError> {
        let owner = self
            .ring
            .task_owner_index(route, step)
            .expect("non-empty ring");
        self.submit_from(owner, data, Vec::new())
    }

    /// Submit to `owner`, or failing that to the next reachable member
    /// in ring order, with the `(endpoint, bytes)` residency `hint` of
    /// the task's input (changing nothing where no bucket is located).
    fn submit_from(
        &self,
        owner: usize,
        data: Bytes,
        hint: Vec<(String, u64)>,
    ) -> Result<(usize, Admission), RemoteError> {
        let n = self.members.len();
        let mut last_err = None;
        for k in 0..n {
            let idx = (owner + k) % n;
            match self.on(idx, |c| c.submit_task_hinted(data.clone(), hint.clone())) {
                Ok(adm) => return Ok((idx, adm)),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| RemoteError::Proto("no members".into())))
    }

    /// Stage one task: put each `(region, payload)` of `parts` as
    /// `(var, version)` on its ring owner and submit `task`, routed by
    /// `(route, step)`, with the residency hint that placement implies.
    ///
    /// Every member's puts are sent before any reply is read. The submit
    /// rides the same batch when every part lives on the task's owner
    /// (always, on a single server: one flush, one wait), because one
    /// connection is answered in order. Otherwise it goes out once every
    /// put is acknowledged, so a worker is never assigned a task whose
    /// pieces are still in flight; only then does an unreachable owner
    /// make it fall over in ring order. A put that fails fails the ship.
    ///
    /// Each member's queued evictions ([`ClusterClient::queue_eviction`])
    /// ride its batch after the puts and the submit, and a member that
    /// neither a part nor the submit goes to gets its own in the same
    /// exchange when a connection to it is open (none is dialed for
    /// them); their replies never fail the ship, and a batch that fails
    /// keeps them queued.
    pub fn ship(
        &self,
        var: &str,
        version: u64,
        parts: &[(BBox3, Bytes)],
        route: &str,
        step: u64,
        task: Bytes,
    ) -> Result<Shipped, RemoteError> {
        let owner = self
            .ring
            .task_owner_index(route, step)
            .expect("non-empty ring");
        // Per owning member: resident bytes, and the puts that make them.
        let mut by_owner: BTreeMap<usize, (u64, Vec<Request>)> = BTreeMap::new();
        for (bbox, data) in parts {
            let idx = self
                .ring
                .owner_index(&ShardKey::new(var, version, bbox))
                .expect("non-empty ring");
            let (bytes, puts) = by_owner.entry(idx).or_default();
            *bytes += data.len() as u64;
            puts.push(Request::Put {
                var: var.to_string(),
                version,
                bbox: *bbox,
                data: data.clone(),
            });
        }
        let hint: Vec<(String, u64)> = by_owner
            .iter()
            .map(|(idx, (bytes, _))| (self.ring.members()[*idx].clone(), *bytes))
            .collect();
        let members = by_owner.len();
        let rides = by_owner.keys().all(|&idx| idx == owner);
        if rides {
            by_owner
                .entry(owner)
                .or_default()
                .1
                .push(Request::SubmitTask {
                    data: task.clone(),
                    hint: hint.clone(),
                });
        }
        // Last in each batch, so the submit's reply position holds.
        // Every other member with evictions queued gets them as a batch
        // of their own, over the connection already open to it.
        let mut batches: Vec<(usize, Vec<Request>, Vec<u64>, Reach)> = Vec::new();
        for idx in 0..self.members.len() {
            let (mut reqs, reach) = match by_owner.remove(&idx) {
                Some((_, reqs)) => (reqs, Reach::Dial),
                None => (Vec::new(), Reach::Open),
            };
            let evicted = self.take_evictions(idx, &mut reqs);
            if !reqs.is_empty() {
                batches.push((idx, reqs, evicted, reach));
            }
        }
        let work: Vec<(usize, &[Request], Reach)> = batches
            .iter()
            .map(|(idx, reqs, _, reach)| (*idx, &reqs[..], *reach))
            .collect();
        let mut replies = Vec::new();
        let mut failed = None;
        for ((idx, _, evicted, reach), member_replies) in batches.iter().zip(self.exchange(&work)) {
            match member_replies {
                Ok(mut r) => {
                    r.truncate(r.len().saturating_sub(evicted.len()));
                    replies.extend(r);
                }
                Err(e) => {
                    self.members[*idx].evictions.lock().extend(evicted);
                    // An eviction-only batch never fails the ship.
                    if *reach == Reach::Dial {
                        failed.get_or_insert(e);
                    }
                }
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        // A submit that rode is the last request of the only batch.
        let verdict = if rides {
            replies.pop().map(Response::into_admission).transpose()?
        } else {
            None
        };
        replies.into_iter().try_for_each(Response::into_ok)?;
        let (member, admission, round_trips) = match verdict {
            Some(admission) => (owner, admission, 1),
            None => {
                let (member, admission) = self.submit_from(owner, task, hint)?;
                let n = self.members.len();
                (member, admission, 2 + (member + n - owner) % n)
            }
        };
        Ok(Shipped {
            member,
            admission,
            members,
            round_trips,
        })
    }

    /// Ask one member for a task assignment (bucket-worker side). The
    /// two-phase receipt acknowledgement happens inside the underlying
    /// call.
    pub fn request_task(
        &self,
        member_idx: usize,
        bucket_id: u32,
        timeout: Duration,
    ) -> Result<TaskPoll, RemoteError> {
        self.on(member_idx, |c| c.request_task(bucket_id, timeout))
    }

    /// Evict everything at `version` everywhere. Per-member transport
    /// errors are swallowed: eviction is an optimization, and a dead
    /// member holds nothing worth evicting.
    pub fn evict_version(&self, version: u64) {
        self.evict_versions([version]);
    }

    /// [`ClusterClient::evict_version`] for a list of versions, sent to
    /// each member as one batch together with every eviction still
    /// queued for it. A member with nothing to evict is not contacted.
    pub fn evict_versions(&self, versions: impl IntoIterator<Item = u64>) {
        let evictions: Vec<Request> = versions
            .into_iter()
            .map(|version| Request::EvictVersion { version })
            .collect();
        let batches: Vec<(usize, Vec<Request>)> = (0..self.members.len())
            .filter_map(|idx| {
                let mut reqs = evictions.clone();
                self.take_evictions(idx, &mut reqs);
                (!reqs.is_empty()).then_some((idx, reqs))
            })
            .collect();
        let work: Vec<_> = batches
            .iter()
            .map(|(idx, reqs)| (*idx, &reqs[..], Reach::Dial))
            .collect();
        let _ = self.exchange(&work);
    }

    /// Append member `idx`'s queued evictions to `reqs`, and return
    /// their versions, which leave the queue.
    fn take_evictions(&self, idx: usize, reqs: &mut Vec<Request>) -> Vec<u64> {
        let versions = std::mem::take(&mut *self.members[idx].evictions.lock());
        reqs.extend(
            versions
                .iter()
                .map(|&version| Request::EvictVersion { version }),
        );
        versions
    }

    /// Evict `version` on every member without a round trip of its own:
    /// the next [`ClusterClient::ship`] carries it to each member it
    /// sends a batch to or holds a connection open to, and
    /// [`ClusterClient::evict_versions`] sends what no ship took.
    /// Nothing is dialed or sent here. Queue only a version that no
    /// later ship puts: the eviction follows the puts of the batch it
    /// rides.
    pub fn queue_eviction(&self, version: u64) {
        for m in &self.members {
            m.evictions.lock().push(version);
        }
    }

    /// Close every member's scheduler (end of run). Unreachable
    /// members are skipped.
    pub fn close_sched(&self) {
        let _ = self.answers(&[Request::CloseSched], Response::into_ok);
    }

    /// Fan out a stats poll and sum the counters.
    pub fn stats(&self) -> ClusterStats {
        let mut out = ClusterStats::default();
        let per_member = self.answers(&[Request::Stats], Response::into_stats);
        for s in per_member.into_iter().flatten() {
            out.members_reporting += 1;
            out.totals.tasks_submitted += s.tasks_submitted;
            out.totals.tasks_assigned += s.tasks_assigned;
            out.totals.tasks_requeued += s.tasks_requeued;
            out.totals.tasks_shed += s.tasks_shed;
            out.totals.tasks_rejected += s.tasks_rejected;
            out.totals.objects += s.objects;
            out.totals.resident_bytes += s.resident_bytes;
        }
        out
    }
}
