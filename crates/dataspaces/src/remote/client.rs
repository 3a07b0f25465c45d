//! The client half: [`RemoteSpace`].

use super::proto::{
    decode_response, encode_request, PoolStats, RemoteStats, Request, Response, TaskPoll, TenantRow,
};
use super::RemoteError;
use crate::sched::Admission;
use crate::tenant::TenantSpec;
use bytes::Bytes;
use sitra_mesh::{BBox3, ScalarField};
use sitra_net::{Addr, Backoff, ConnStats, Connection, Frame, PIPELINE_DEPTH};
use std::time::Duration;

/// A batch sent but not fully answered ([`RemoteSpace::send_batch`] →
/// [`RemoteSpace::gather`]): the replies read while still sending.
pub struct Batch(Vec<Response>);

fn checked(resp: Response) -> Result<Response, RemoteError> {
    match resp {
        Response::Error(msg) => Err(RemoteError::Server(msg)),
        resp => Ok(resp),
    }
}

/// Client handle to a [`SpaceServer`](super::SpaceServer), mirroring the
/// in-process [`DataSpaces`](crate::DataSpaces) API plus the scheduler verbs.
pub struct RemoteSpace {
    conn: Connection,
}

impl RemoteSpace {
    /// Connect with a single attempt.
    pub fn connect(addr: &Addr) -> Result<RemoteSpace, RemoteError> {
        Ok(RemoteSpace {
            conn: sitra_net::connect(addr)?,
        })
    }

    /// Connect with bounded exponential backoff.
    pub fn connect_retry(addr: &Addr, backoff: &Backoff) -> Result<RemoteSpace, RemoteError> {
        Ok(RemoteSpace {
            conn: sitra_net::connect_retry(addr, backoff)?,
        })
    }

    fn send(&self, req: &Request) -> Result<(), RemoteError> {
        Ok(self.conn.send(encode_request(req))?)
    }

    /// The next reply: the oldest unanswered request's.
    fn reap(&self) -> Result<Response, RemoteError> {
        decode_response(self.conn.recv()?)
    }

    fn rpc(&self, req: &Request) -> Result<Response, RemoteError> {
        self.send(req)?;
        checked(self.reap()?)
    }

    /// The send half of [`Self::batch`]: write `reqs` back to back, a
    /// window of [`PIPELINE_DEPTH`] per [`Connection::send_all`] (over
    /// `tcp://` one vectored write). Before a window would take the
    /// unanswered requests past `PIPELINE_DEPTH` the replies in its way
    /// are read, so a batch of any length cannot wedge both ends in
    /// `write`. Each request must be one the server answers exactly
    /// once and at once: not an `AckTask`/`DeclineTask`, not a
    /// long-poll.
    pub fn send_batch(&self, reqs: &[Request]) -> Result<Batch, RemoteError> {
        let mut replies = Vec::with_capacity(reqs.len());
        let mut sent = 0;
        for window in reqs.chunks(PIPELINE_DEPTH) {
            while sent + window.len() - replies.len() > PIPELINE_DEPTH {
                replies.push(self.reap()?);
            }
            let frames: Vec<Frame> = window.iter().map(encode_request).collect();
            self.conn.send_all(&frames)?;
            sent += window.len();
        }
        Ok(Batch(replies))
    }

    /// The reap half: read the replies that `reqs`, sent as `batch`,
    /// still wait for — the next reads on the connection. A reply of a
    /// kind that cannot answer its request ([`Request::answered_by`])
    /// fails the batch: the connection has slipped and must be dropped.
    pub fn gather(&self, reqs: &[Request], batch: Batch) -> Result<Vec<Response>, RemoteError> {
        let Batch(mut replies) = batch;
        while replies.len() < reqs.len() {
            replies.push(self.reap()?);
        }
        match reqs.iter().zip(&replies).find(|(q, r)| !q.answered_by(r)) {
            Some((q, r)) => Err(RemoteError::Proto(format!("{q:?} answered by {r:?}"))),
            None => Ok(replies),
        }
    }

    /// A batch in flight instead of a request in flight: send every
    /// request, then read every reply, in order — one round-trip time
    /// for the lot. Replies are returned unjudged ([`Response::Error`]
    /// included; see the `Response::into_*` extractors), so one refused
    /// request does not leave the others' replies unread.
    pub fn batch(&self, reqs: &[Request]) -> Result<Vec<Response>, RemoteError> {
        self.gather(reqs, self.send_batch(reqs)?)
    }

    /// Store an object.
    pub fn put(
        &self,
        var: &str,
        version: u64,
        bbox: BBox3,
        data: Bytes,
    ) -> Result<(), RemoteError> {
        self.rpc(&Request::Put {
            var: var.to_string(),
            version,
            bbox,
            data,
        })?
        .into_ok()
    }

    /// Store a field (serializing its values).
    pub fn put_field(
        &self,
        var: &str,
        version: u64,
        field: &ScalarField,
    ) -> Result<(), RemoteError> {
        self.put(
            var,
            version,
            field.bbox(),
            crate::codec::field_to_bytes(field),
        )
    }

    /// Spatial query: every stored piece of `(var, version)`
    /// intersecting `query`.
    pub fn get(
        &self,
        var: &str,
        version: u64,
        query: &BBox3,
    ) -> Result<Vec<(BBox3, Bytes)>, RemoteError> {
        self.rpc(&Request::Get {
            var: var.to_string(),
            version,
            bbox: *query,
        })?
        .into_pieces()
    }

    /// Data-ready read: [`Self::get`], held server-side until a piece
    /// of `(var, version)` intersecting `query` is stored or `timeout`
    /// lapses (then empty).
    pub fn get_wait(
        &self,
        var: &str,
        version: u64,
        query: &BBox3,
        timeout: Duration,
    ) -> Result<Vec<(BBox3, Bytes)>, RemoteError> {
        self.send(&Request::GetWait {
            var: var.to_string(),
            version,
            bbox: *query,
            timeout_ms: timeout.as_millis() as u64,
        })?;
        match self.recv_long_poll(timeout)? {
            Response::DataReady {
                var: v,
                version: ver,
                pieces,
            } if v == var && ver == version => Ok(pieces),
            other => Err(RemoteError::Proto(format!(
                "expected DataReady for {var}@{version}, got {other:?}"
            ))),
        }
    }

    /// The reply to a request the server may legitimately hold for all
    /// of `timeout`: the client-side wait is padded generously.
    fn recv_long_poll(&self, timeout: Duration) -> Result<Response, RemoteError> {
        let frame = self.conn.recv_timeout(timeout + Duration::from_secs(30))?;
        checked(decode_response(frame)?)
    }

    /// Spatial query assembled into one field over `query`. The server
    /// stores whatever bytes a client put, so a piece that is not one
    /// `f64` per point of its box is [`RemoteError::Proto`].
    pub fn get_assembled(
        &self,
        var: &str,
        version: u64,
        query: &BBox3,
        fill: f64,
    ) -> Result<ScalarField, RemoteError> {
        let pieces = self.get(var, version, query)?;
        crate::codec::assemble(query, &pieces, fill)
            .map_err(|e| RemoteError::Proto(format!("{var}@{version}: {e}")))
    }

    /// Highest stored version of `var`.
    pub fn latest_version(&self, var: &str) -> Result<Option<u64>, RemoteError> {
        self.rpc(&Request::LatestVersion {
            var: var.to_string(),
        })?
        .into_version()
    }

    /// Data-ready: enqueue an opaque task descriptor. The server
    /// applies its admission policy and reports the [`Admission`]
    /// verdict instead of turning a refusal into an opaque error. This
    /// is how a remote producer learns it should degrade (run the
    /// aggregation in-situ) or that one of its earlier tasks was shed.
    pub fn submit_task_admission(&self, data: Bytes) -> Result<Admission, RemoteError> {
        self.submit_task_hinted(data, Vec::new())
    }

    /// Bucket-ready: request the next task for an unlocated bucket,
    /// waiting up to `timeout` on the server. An assigned task is
    /// acknowledged before this returns.
    pub fn request_task(&self, bucket_id: u32, timeout: Duration) -> Result<TaskPoll, RemoteError> {
        let poll = self.request_task_held(bucket_id, timeout, "")?;
        if let TaskPoll::Assigned { seq, .. } = &poll {
            self.ack_task(*seq)?;
        }
        Ok(poll)
    }

    /// Bucket-ready with a location label and the receipt left to the
    /// caller. `location` registers the bucket as co-resident with that
    /// endpoint (empty = unlocated) so the server's placement can steer
    /// matching tasks here. An assignment must be answered on this
    /// connection with [`Self::ack_task`] or [`Self::decline_task`]
    /// before any other request — the server requeues it otherwise. May
    /// return [`TaskPoll::Retire`] when the capacity controller drains
    /// this bucket.
    pub fn request_task_held(
        &self,
        bucket_id: u32,
        timeout: Duration,
        location: &str,
    ) -> Result<TaskPoll, RemoteError> {
        self.send(&Request::RequestTask {
            bucket_id,
            timeout_ms: timeout.as_millis() as u64,
            location: location.to_string(),
        })?;
        match self.recv_long_poll(timeout)? {
            Response::Task(poll) => Ok(poll),
            other => Err(RemoteError::Proto(format!("expected Task, got {other:?}"))),
        }
    }

    /// Acknowledge receipt of the assignment `seq`.
    pub fn ack_task(&self, seq: u64) -> Result<(), RemoteError> {
        self.send(&Request::AckTask { seq })
    }

    /// Hand the assignment `seq` back: it returns to the head of its
    /// tenant's queue for the next free bucket.
    pub fn decline_task(&self, seq: u64) -> Result<(), RemoteError> {
        self.send(&Request::DeclineTask { seq })
    }

    /// [`Self::submit_task_admission`] with a residency hint: `hint`
    /// rows name where the task's input bytes live so the server's
    /// placement can steer the assignment. Advisory — a hint naming no
    /// bucket's location behaves exactly as an empty one.
    pub fn submit_task_hinted(
        &self,
        data: Bytes,
        hint: Vec<(String, u64)>,
    ) -> Result<Admission, RemoteError> {
        self.rpc(&Request::SubmitTask { data, hint })?
            .into_admission()
    }

    /// Bucket-pool state: live/idle counts, desired capacity, queue
    /// depth, queue-wait p99, and the locality savings counter.
    pub fn pool_stats(&self) -> Result<PoolStats, RemoteError> {
        match self.rpc(&Request::PoolStats)? {
            Response::Pool(p) => Ok(p),
            other => Err(RemoteError::Proto(format!("expected Pool, got {other:?}"))),
        }
    }

    /// Server counters.
    pub fn stats(&self) -> Result<RemoteStats, RemoteError> {
        self.rpc(&Request::Stats)?.into_stats()
    }

    /// Drop all objects of `version`.
    pub fn evict_version(&self, version: u64) -> Result<(), RemoteError> {
        self.rpc(&Request::EvictVersion { version })?.into_ok()
    }

    /// Close the scheduler: every bucket's next request returns
    /// [`TaskPoll::Closed`] once the queue drains.
    pub fn close_sched(&self) -> Result<(), RemoteError> {
        self.rpc(&Request::CloseSched)?.into_ok()
    }

    /// Declare this connection's tenant: registers (or updates) the
    /// tenant server-side and scopes every subsequent request on this
    /// connection to its namespace. Must be re-sent after a reconnect —
    /// the binding is per-connection, not per-client.
    pub fn set_tenant(&self, spec: &TenantSpec) -> Result<(), RemoteError> {
        self.rpc(&Request::SetTenant { spec: spec.clone() })?
            .into_ok()
    }

    /// Per-tenant scheduler counters and space residency, one row per
    /// tenant the server has seen, sorted by name.
    pub fn tenant_stats(&self) -> Result<Vec<TenantRow>, RemoteError> {
        self.rpc(&Request::TenantStats)?.into_tenant_rows()
    }

    /// Send an opaque control frame and return the handler's reply.
    /// Errors with [`RemoteError::Server`] when the server was started
    /// without a control handler.
    pub fn control(&self, data: Bytes) -> Result<Bytes, RemoteError> {
        match self.rpc(&Request::Control { data })? {
            Response::Control { data } => Ok(data),
            other => Err(RemoteError::Proto(format!(
                "expected Control, got {other:?}"
            ))),
        }
    }

    /// Transport counters of this client's connection.
    pub fn conn_stats(&self) -> ConnStats {
        self.conn.stats()
    }

    /// Close the connection.
    pub fn close(&self) {
        self.conn.close();
    }
}
