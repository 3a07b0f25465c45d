//! Protocol messages of the staging RPC and their codecs (total: any
//! byte sequence decodes to `Ok` or `Err`, never panics).
//!
//! An encoded message is a [`Frame`]: every byte-string field (a
//! `Put`'s or `SubmitTask`'s body, each piece of a `Pieces` or
//! `DataReady` reply, a task, a control payload) is shared with the
//! frame rather than copied into it ([`FrameBuf::put_shared`]).

use super::RemoteError;
use crate::codec::{put_bbox, put_str, FrameBuf, Rd, WireError};
use crate::sched::{Admission, AdmissionPolicy};
use crate::tenant::TenantSpec;
use bytes::{BufMut, Bytes, BytesMut};
use sitra_mesh::BBox3;
use sitra_net::Frame;
use std::time::Duration;

const REQ_PUT: u8 = 1;
const REQ_GET: u8 = 2;
const REQ_LATEST_VERSION: u8 = 3;
const REQ_SUBMIT_TASK: u8 = 4;
const REQ_REQUEST_TASK: u8 = 5;
const REQ_ACK_TASK: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_EVICT_VERSION: u8 = 8;
const REQ_CLOSE_SCHED: u8 = 9;
const REQ_CONTROL: u8 = 12;
const REQ_SET_TENANT: u8 = 13;
const REQ_TENANT_STATS: u8 = 14;
const REQ_POOL_STATS: u8 = 15;
const REQ_GET_WAIT: u8 = 18;
const REQ_DECLINE_TASK: u8 = 19;

const RESP_OK: u8 = 100;
const RESP_PIECES: u8 = 102;
const RESP_VERSION: u8 = 103;
const RESP_TASK: u8 = 104;
const RESP_STATS: u8 = 105;
const RESP_ADMISSION: u8 = 106;
const RESP_CONTROL: u8 = 108;
const RESP_TENANT_STATS: u8 = 109;
const RESP_POOL: u8 = 110;
const RESP_DATA_READY: u8 = 111;
const RESP_ERROR: u8 = 199;

// Admission verdict tags (RESP_ADMISSION payload).
const ADM_ACCEPTED: u8 = 0;
const ADM_ACCEPTED_SHED: u8 = 1;
const ADM_REJECTED: u8 = 2;
const ADM_TIMED_OUT: u8 = 3;
const ADM_CLOSED: u8 = 4;

// Admission policy tags (tenant specs of REQ_SET_TENANT).
const POL_BLOCK: u8 = 0;
const POL_SHED_OLDEST: u8 = 1;
const POL_REJECT_NEW: u8 = 2;

/// Requests a client can issue.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Store an object.
    Put {
        /// Variable name.
        var: String,
        /// Version (timestep).
        version: u64,
        /// Region covered.
        bbox: BBox3,
        /// Payload.
        data: Bytes,
    },
    /// Spatial query.
    Get {
        /// Variable name.
        var: String,
        /// Version (timestep).
        version: u64,
        /// Query region.
        bbox: BBox3,
    },
    /// Data-ready read: a [`Request::Get`] the server holds until a
    /// matching piece is stored or `timeout_ms` lapses, answered by
    /// [`Response::DataReady`] (empty at the timeout).
    GetWait {
        /// Variable name.
        var: String,
        /// Version (timestep).
        version: u64,
        /// Query region.
        bbox: BBox3,
        /// Server-side wait bound in milliseconds.
        timeout_ms: u64,
    },
    /// Highest stored version of a variable.
    LatestVersion {
        /// Variable name.
        var: String,
    },
    /// Data-ready: enqueue an opaque task descriptor. Always answered
    /// by [`Response::Admission`], which reports *why* a refused task
    /// was refused (and which task was shed to admit this one), so
    /// remote producers can apply backpressure or degrade.
    SubmitTask {
        /// Encoded task.
        data: Bytes,
        /// Resident input bytes per location label — where the task's
        /// input lives, so the server's placement can steer the
        /// assignment to a co-located bucket. Empty = no hint. A hint
        /// naming no bucket's location changes nothing — same verdict,
        /// same assignment order.
        hint: Vec<(String, u64)>,
    },
    /// Bucket-ready: ask for the next task, waiting up to `timeout_ms`.
    /// The server may answer [`TaskPoll::Retire`] when the capacity
    /// controller drains the bucket.
    RequestTask {
        /// Requesting bucket.
        bucket_id: u32,
        /// Server-side wait bound in milliseconds.
        timeout_ms: u64,
        /// The bucket's location label (its cluster member endpoint),
        /// registering it as co-resident with `location` so placement
        /// can match it against task hints. Empty =
        /// unlocated.
        location: String,
    },
    /// Acknowledge receipt of an assigned task.
    AckTask {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Hand an assigned task back in place of the [`Request::AckTask`]:
    /// the bucket took work from another scheduler while this request
    /// was parked. The task returns to the head of its tenant's queue
    /// and the connection stays up.
    DeclineTask {
        /// Sequence number being declined.
        seq: u64,
    },
    /// Server counters.
    Stats,
    /// Drop all objects of one version.
    EvictVersion {
        /// Version to drop.
        version: u64,
    },
    /// Close the scheduler: buckets drain and stop.
    CloseSched,
    /// An opaque control frame for a layered service (e.g. cluster
    /// membership). The space/scheduler protocol does not interpret the
    /// payload; a server started without a control handler answers with
    /// an error.
    Control {
        /// Opaque payload, owned by the layer that installed the
        /// server's control handler.
        data: Bytes,
    },
    /// Declare this connection's tenant: registers (or updates) the
    /// tenant's weight/quotas/policy server-side and binds every
    /// subsequent data-plane request on this connection to the tenant's
    /// namespace. Clients that never send it stay on the default tenant
    /// with unscoped variables — the entire pre-tenancy protocol is a
    /// valid conversation.
    SetTenant {
        /// The tenant declaration.
        spec: TenantSpec,
    },
    /// Per-tenant scheduler counters and space residency.
    TenantStats,
    /// Bucket-pool state: live/idle bucket counts, desired capacity,
    /// queue depth, queue-wait p99, and the locality savings counter.
    PoolStats,
}

/// One tenant's combined server-side counters, as reported by
/// [`Request::TenantStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantRow {
    /// Tenant name.
    pub name: String,
    /// DRR weight.
    pub weight: u32,
    /// Tasks currently queued.
    pub queued: u64,
    /// Task quota (`None` = unlimited).
    pub task_quota: Option<u64>,
    /// Tasks admitted.
    pub tasks_submitted: u64,
    /// Task assignments.
    pub tasks_assigned: u64,
    /// Tasks requeued after failed hand-offs.
    pub tasks_requeued: u64,
    /// Queued tasks shed.
    pub tasks_shed: u64,
    /// Submissions refused.
    pub tasks_rejected: u64,
    /// Bytes resident in the space.
    pub resident_bytes: u64,
    /// Byte quota (`None` = unlimited).
    pub byte_quota: Option<u64>,
}

/// The outcome of a bucket-ready request.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskPoll {
    /// A task was assigned.
    Assigned {
        /// Scheduler sequence number.
        seq: u64,
        /// Encoded task descriptor.
        data: Bytes,
        /// Tenant that submitted the task. Buckets are shared across
        /// tenants, so the worker needs this to scope its input gets
        /// and output puts to the right namespace
        /// ([`crate::scoped_var`]); [`crate::DEFAULT_TENANT`] scopes to
        /// the unprefixed legacy namespace.
        tenant: String,
    },
    /// The wait elapsed with no task available.
    Empty,
    /// The scheduler was closed; no more tasks will ever arrive.
    Closed,
    /// The capacity controller drained this bucket: deregister and
    /// exit. Other buckets keep serving; only this one retires.
    Retire,
}

/// Bucket-pool state, as reported by [`Request::PoolStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Live (non-retired) buckets.
    pub buckets: u64,
    /// Of those, parked idle right now.
    pub idle: u64,
    /// The capacity controller's desired bucket count, if one is set.
    /// External supervisors reconcile their worker fleet toward this.
    pub desired: Option<u64>,
    /// Tasks queued (not yet assigned).
    pub queue_depth: u64,
    /// p99 of recent task queue-waits, microseconds.
    pub p99_wait_us: u64,
    /// Input bytes placement has avoided moving.
    pub locality_bytes_saved: u64,
}

/// Combined server-side counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoteStats {
    /// Tasks submitted (data-ready events).
    pub tasks_submitted: u64,
    /// Task assignments (a requeued task counts once per assignment).
    pub tasks_assigned: u64,
    /// Tasks requeued after a failed hand-off.
    pub tasks_requeued: u64,
    /// Queued tasks evicted under [`AdmissionPolicy::ShedOldest`].
    pub tasks_shed: u64,
    /// Submissions refused at capacity (rejects and elapsed Block
    /// deadlines).
    pub tasks_rejected: u64,
    /// Objects resident in the space.
    pub objects: u64,
    /// Bytes resident in the space.
    pub resident_bytes: u64,
}

/// Responses the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Request executed.
    Ok,
    /// Pieces matching a spatial query.
    Pieces(Vec<(BBox3, Bytes)>),
    /// Answer to a [`Request::GetWait`]. It names what it answers: a
    /// waiter moves from one key to the next on a single connection,
    /// and a duplicated request frame leaves a second reply behind that
    /// must not be taken for the next key's data.
    DataReady {
        /// Variable name of the request.
        var: String,
        /// Version of the request.
        version: u64,
        /// The matching pieces; empty when the wait timed out.
        pieces: Vec<(BBox3, Bytes)>,
    },
    /// Latest version, if any.
    Version(Option<u64>),
    /// Outcome of a bucket-ready request.
    Task(TaskPoll),
    /// Server counters.
    Stats(RemoteStats),
    /// Verdict of a task submission.
    Admission(Admission),
    /// Reply of the server's control handler to a [`Request::Control`].
    Control {
        /// Opaque payload produced by the control handler.
        data: Bytes,
    },
    /// Per-tenant counters, one row per tenant known to the server.
    TenantRows(Vec<TenantRow>),
    /// Bucket-pool state.
    Pool(PoolStats),
    /// The request failed server-side.
    Error(String),
}

impl Request {
    /// Whether `resp` is of the kind that answers this request (an
    /// error report answers any). Replies are paired with requests by
    /// order alone, so one of the wrong kind means the connection has
    /// slipped (a duplicated or overtaken frame) and cannot be trusted.
    pub fn answered_by(&self, resp: &Response) -> bool {
        use Request as Q;
        use Response as R;
        matches!(
            (self, resp),
            (_, R::Error(_))
                | (
                    Q::Put { .. } | Q::EvictVersion { .. } | Q::CloseSched | Q::SetTenant { .. },
                    R::Ok
                )
                | (Q::Get { .. }, R::Pieces(_))
                | (Q::GetWait { .. }, R::DataReady { .. })
                | (Q::LatestVersion { .. }, R::Version(_))
                | (Q::SubmitTask { .. }, R::Admission(_))
                | (Q::RequestTask { .. }, R::Task(_))
                | (Q::Stats, R::Stats(_))
                | (Q::Control { .. }, R::Control { .. })
                | (Q::TenantStats, R::TenantRows(_))
                | (Q::PoolStats, R::Pool(_))
        )
    }
}

impl Response {
    /// This reply as the failure of a caller that wanted `want`.
    fn unexpected(self, want: &str) -> RemoteError {
        match self {
            Response::Error(msg) => RemoteError::Server(msg),
            other => RemoteError::Proto(format!("expected {want}, got {other:?}")),
        }
    }

    /// The reply to a `Put`, `EvictVersion`, `CloseSched` or `SetTenant`.
    pub fn into_ok(self) -> Result<(), RemoteError> {
        match self {
            Response::Ok => Ok(()),
            other => Err(other.unexpected("Ok")),
        }
    }

    /// The reply to a `Get`.
    pub fn into_pieces(self) -> Result<Vec<(BBox3, Bytes)>, RemoteError> {
        match self {
            Response::Pieces(p) => Ok(p),
            other => Err(other.unexpected("Pieces")),
        }
    }

    /// The reply to a `LatestVersion`.
    pub fn into_version(self) -> Result<Option<u64>, RemoteError> {
        match self {
            Response::Version(v) => Ok(v),
            other => Err(other.unexpected("Version")),
        }
    }

    /// The reply to a `SubmitTask`.
    pub fn into_admission(self) -> Result<Admission, RemoteError> {
        match self {
            Response::Admission(adm) => Ok(adm),
            other => Err(other.unexpected("Admission")),
        }
    }

    /// The reply to a `Stats`.
    pub fn into_stats(self) -> Result<RemoteStats, RemoteError> {
        match self {
            Response::Stats(s) => Ok(s),
            other => Err(other.unexpected("Stats")),
        }
    }

    /// The reply to a `TenantStats`.
    pub fn into_tenant_rows(self) -> Result<Vec<TenantRow>, RemoteError> {
        match self {
            Response::TenantRows(rows) => Ok(rows),
            other => Err(other.unexpected("TenantRows")),
        }
    }
}

// --------------------------------------------------------------------
// Codecs (total: any byte sequence decodes to Ok or Err, never panics)
// --------------------------------------------------------------------

fn opt_u64(rd: &mut Rd, field: &'static str) -> Result<Option<u64>, WireError> {
    let has = rd.u8(field)? != 0;
    let v = rd.u64(field)?;
    Ok(has.then_some(v))
}

fn policy(rd: &mut Rd) -> Result<AdmissionPolicy, RemoteError> {
    let tag = rd.u8("policy")?;
    let wait_ms = rd.u64("policy.wait_ms")?;
    match tag {
        POL_BLOCK => Ok(AdmissionPolicy::Block {
            max_wait: Duration::from_millis(wait_ms),
        }),
        POL_SHED_OLDEST => Ok(AdmissionPolicy::ShedOldest),
        POL_REJECT_NEW => Ok(AdmissionPolicy::RejectNew),
        t => Err(RemoteError::Proto(format!("unknown policy tag {t}"))),
    }
}

fn pieces(rd: &mut Rd) -> Result<Vec<(BBox3, Bytes)>, WireError> {
    // Each piece is at least a bbox and a length prefix.
    let n = rd.count_u32(52, "pieces.len")?;
    let mut pieces = Vec::with_capacity(n);
    for _ in 0..n {
        let bbox = rd.bbox("piece.bbox")?;
        let data = rd.bytes("piece.data")?;
        pieces.push((bbox, data));
    }
    Ok(pieces)
}

fn put_pieces(buf: &mut FrameBuf, pieces: &[(BBox3, Bytes)]) {
    buf.put_u32_le(pieces.len() as u32);
    for (bbox, data) in pieces {
        put_bbox(buf, bbox);
        buf.put_shared(data);
    }
}

fn put_opt_u64(buf: &mut BytesMut, v: Option<u64>) {
    buf.put_u8(u8::from(v.is_some()));
    buf.put_u64_le(v.unwrap_or(0));
}

fn put_policy(buf: &mut BytesMut, policy: &AdmissionPolicy) {
    match policy {
        AdmissionPolicy::Block { max_wait } => {
            buf.put_u8(POL_BLOCK);
            buf.put_u64_le(max_wait.as_millis() as u64);
        }
        AdmissionPolicy::ShedOldest => {
            buf.put_u8(POL_SHED_OLDEST);
            buf.put_u64_le(0);
        }
        AdmissionPolicy::RejectNew => {
            buf.put_u8(POL_REJECT_NEW);
            buf.put_u64_le(0);
        }
    }
}

/// Encode a request frame.
pub fn encode_request(req: &Request) -> Frame {
    let mut buf = FrameBuf::new();
    match req {
        Request::Put {
            var,
            version,
            bbox,
            data,
        } => {
            buf.put_u8(REQ_PUT);
            put_str(&mut buf, var);
            buf.put_u64_le(*version);
            put_bbox(&mut buf, bbox);
            buf.put_shared(data);
        }
        Request::Get { var, version, bbox } => {
            buf.put_u8(REQ_GET);
            put_str(&mut buf, var);
            buf.put_u64_le(*version);
            put_bbox(&mut buf, bbox);
        }
        Request::GetWait {
            var,
            version,
            bbox,
            timeout_ms,
        } => {
            buf.put_u8(REQ_GET_WAIT);
            put_str(&mut buf, var);
            buf.put_u64_le(*version);
            put_bbox(&mut buf, bbox);
            buf.put_u64_le(*timeout_ms);
        }
        Request::LatestVersion { var } => {
            buf.put_u8(REQ_LATEST_VERSION);
            put_str(&mut buf, var);
        }
        Request::SubmitTask { data, hint } => {
            buf.put_u8(REQ_SUBMIT_TASK);
            buf.put_shared(data);
            buf.put_u32_le(hint.len() as u32);
            for (location, bytes) in hint {
                put_str(&mut buf, location);
                buf.put_u64_le(*bytes);
            }
        }
        Request::RequestTask {
            bucket_id,
            timeout_ms,
            location,
        } => {
            buf.put_u8(REQ_REQUEST_TASK);
            buf.put_u32_le(*bucket_id);
            buf.put_u64_le(*timeout_ms);
            put_str(&mut buf, location);
        }
        Request::AckTask { seq } => {
            buf.put_u8(REQ_ACK_TASK);
            buf.put_u64_le(*seq);
        }
        Request::DeclineTask { seq } => {
            buf.put_u8(REQ_DECLINE_TASK);
            buf.put_u64_le(*seq);
        }
        Request::Stats => buf.put_u8(REQ_STATS),
        Request::EvictVersion { version } => {
            buf.put_u8(REQ_EVICT_VERSION);
            buf.put_u64_le(*version);
        }
        Request::CloseSched => buf.put_u8(REQ_CLOSE_SCHED),
        Request::Control { data } => {
            buf.put_u8(REQ_CONTROL);
            buf.put_shared(data);
        }
        Request::SetTenant { spec } => {
            buf.put_u8(REQ_SET_TENANT);
            put_str(&mut buf, &spec.name);
            buf.put_u32_le(spec.weight);
            put_opt_u64(&mut buf, spec.byte_quota);
            put_opt_u64(&mut buf, spec.task_quota.map(|t| t as u64));
            match &spec.policy {
                Some(p) => {
                    buf.put_u8(1);
                    put_policy(&mut buf, p);
                }
                None => {
                    buf.put_u8(0);
                    buf.put_u8(0);
                    buf.put_u64_le(0);
                }
            }
        }
        Request::TenantStats => buf.put_u8(REQ_TENANT_STATS),
        Request::PoolStats => buf.put_u8(REQ_POOL_STATS),
    }
    buf.finish()
}

/// Decode a request frame. Total: never panics on malformed input.
pub fn decode_request(frame: Bytes) -> Result<Request, RemoteError> {
    let mut rd = Rd::new(frame);
    let req = match rd.u8("request.tag")? {
        REQ_PUT => Request::Put {
            var: rd.string("var")?,
            version: rd.u64("version")?,
            bbox: rd.bbox("bbox")?,
            data: rd.bytes("data")?,
        },
        REQ_GET => Request::Get {
            var: rd.string("var")?,
            version: rd.u64("version")?,
            bbox: rd.bbox("bbox")?,
        },
        REQ_GET_WAIT => Request::GetWait {
            var: rd.string("var")?,
            version: rd.u64("version")?,
            bbox: rd.bbox("bbox")?,
            timeout_ms: rd.u64("timeout_ms")?,
        },
        REQ_LATEST_VERSION => Request::LatestVersion {
            var: rd.string("var")?,
        },
        REQ_SUBMIT_TASK => {
            let data = rd.bytes("data")?;
            // Each row is at least a length prefix plus the byte count.
            let n = rd.count_u32(12, "hint.len")?;
            let mut hint = Vec::with_capacity(n);
            for _ in 0..n {
                hint.push((rd.string("hint.location")?, rd.u64("hint.bytes")?));
            }
            Request::SubmitTask { data, hint }
        }
        REQ_REQUEST_TASK => Request::RequestTask {
            bucket_id: rd.u32("bucket_id")?,
            timeout_ms: rd.u64("timeout_ms")?,
            location: rd.string("location")?,
        },
        REQ_ACK_TASK => Request::AckTask {
            seq: rd.u64("seq")?,
        },
        REQ_DECLINE_TASK => Request::DeclineTask {
            seq: rd.u64("seq")?,
        },
        REQ_STATS => Request::Stats,
        REQ_EVICT_VERSION => Request::EvictVersion {
            version: rd.u64("version")?,
        },
        REQ_CLOSE_SCHED => Request::CloseSched,
        REQ_CONTROL => Request::Control {
            data: rd.bytes("data")?,
        },
        REQ_SET_TENANT => {
            let name = rd.string("tenant.name")?;
            if name.is_empty() || name.contains(crate::tenant::TENANT_SEP) {
                return Err(RemoteError::Proto(format!("bad tenant name `{name}`")));
            }
            let weight = rd.u32("tenant.weight")?;
            let byte_quota = opt_u64(&mut rd, "tenant.byte_quota")?;
            let task_quota = opt_u64(&mut rd, "tenant.task_quota")?.map(|t| t as usize);
            // A policy-less SetTenant still carries a filler policy
            // (the encoder writes a zero `Block`), so the field is
            // always parsed in full and a truncated frame is an error
            // either way.
            let has_policy = rd.u8("tenant.policy")? != 0;
            let policy = Some(policy(&mut rd)?).filter(|_| has_policy);
            Request::SetTenant {
                spec: TenantSpec {
                    name,
                    weight: weight.max(1),
                    byte_quota,
                    task_quota,
                    policy,
                },
            }
        }
        REQ_TENANT_STATS => Request::TenantStats,
        REQ_POOL_STATS => Request::PoolStats,
        t => return Err(RemoteError::Proto(format!("unknown request tag {t}"))),
    };
    rd.finish()?;
    Ok(req)
}

/// Encode a response frame.
pub fn encode_response(resp: &Response) -> Frame {
    let mut buf = FrameBuf::new();
    match resp {
        Response::Ok => buf.put_u8(RESP_OK),
        Response::Pieces(pieces) => {
            buf.put_u8(RESP_PIECES);
            put_pieces(&mut buf, pieces);
        }
        Response::DataReady {
            var,
            version,
            pieces,
        } => {
            buf.put_u8(RESP_DATA_READY);
            put_str(&mut buf, var);
            buf.put_u64_le(*version);
            put_pieces(&mut buf, pieces);
        }
        Response::Version(v) => {
            buf.put_u8(RESP_VERSION);
            put_opt_u64(&mut buf, *v);
        }
        Response::Task(poll) => {
            buf.put_u8(RESP_TASK);
            match poll {
                TaskPoll::Assigned { seq, data, tenant } => {
                    buf.put_u8(0);
                    buf.put_u64_le(*seq);
                    buf.put_shared(data);
                    put_str(&mut buf, tenant);
                }
                TaskPoll::Empty => buf.put_u8(1),
                TaskPoll::Closed => buf.put_u8(2),
                TaskPoll::Retire => buf.put_u8(3),
            }
        }
        Response::Stats(s) => {
            buf.put_u8(RESP_STATS);
            buf.put_u64_le(s.tasks_submitted);
            buf.put_u64_le(s.tasks_assigned);
            buf.put_u64_le(s.tasks_requeued);
            buf.put_u64_le(s.tasks_shed);
            buf.put_u64_le(s.tasks_rejected);
            buf.put_u64_le(s.objects);
            buf.put_u64_le(s.resident_bytes);
        }
        Response::Admission(adm) => {
            buf.put_u8(RESP_ADMISSION);
            match adm {
                Admission::Accepted { seq } => {
                    buf.put_u8(ADM_ACCEPTED);
                    buf.put_u64_le(*seq);
                }
                Admission::AcceptedShed { seq, shed_seq } => {
                    buf.put_u8(ADM_ACCEPTED_SHED);
                    buf.put_u64_le(*seq);
                    buf.put_u64_le(*shed_seq);
                }
                Admission::Rejected => buf.put_u8(ADM_REJECTED),
                Admission::TimedOut => buf.put_u8(ADM_TIMED_OUT),
                Admission::Closed => buf.put_u8(ADM_CLOSED),
            }
        }
        Response::Control { data } => {
            buf.put_u8(RESP_CONTROL);
            buf.put_shared(data);
        }
        Response::TenantRows(rows) => {
            buf.put_u8(RESP_TENANT_STATS);
            buf.put_u32_le(rows.len() as u32);
            for r in rows {
                put_str(&mut buf, &r.name);
                buf.put_u32_le(r.weight);
                buf.put_u64_le(r.queued);
                put_opt_u64(&mut buf, r.task_quota);
                buf.put_u64_le(r.tasks_submitted);
                buf.put_u64_le(r.tasks_assigned);
                buf.put_u64_le(r.tasks_requeued);
                buf.put_u64_le(r.tasks_shed);
                buf.put_u64_le(r.tasks_rejected);
                buf.put_u64_le(r.resident_bytes);
                put_opt_u64(&mut buf, r.byte_quota);
            }
        }
        Response::Pool(p) => {
            buf.put_u8(RESP_POOL);
            buf.put_u64_le(p.buckets);
            buf.put_u64_le(p.idle);
            put_opt_u64(&mut buf, p.desired);
            buf.put_u64_le(p.queue_depth);
            buf.put_u64_le(p.p99_wait_us);
            buf.put_u64_le(p.locality_bytes_saved);
        }
        Response::Error(msg) => {
            buf.put_u8(RESP_ERROR);
            put_str(&mut buf, msg);
        }
    }
    buf.finish()
}

/// Decode a response frame. Total: never panics on malformed input.
pub fn decode_response(frame: Bytes) -> Result<Response, RemoteError> {
    let mut rd = Rd::new(frame);
    let resp = match rd.u8("response.tag")? {
        RESP_OK => Response::Ok,
        RESP_PIECES => Response::Pieces(pieces(&mut rd)?),
        RESP_DATA_READY => Response::DataReady {
            var: rd.string("var")?,
            version: rd.u64("version")?,
            pieces: pieces(&mut rd)?,
        },
        RESP_VERSION => Response::Version(opt_u64(&mut rd, "version")?),
        RESP_TASK => match rd.u8("task.status")? {
            0 => Response::Task(TaskPoll::Assigned {
                seq: rd.u64("seq")?,
                data: rd.bytes("data")?,
                tenant: rd.string("tenant")?,
            }),
            1 => Response::Task(TaskPoll::Empty),
            2 => Response::Task(TaskPoll::Closed),
            3 => Response::Task(TaskPoll::Retire),
            s => return Err(RemoteError::Proto(format!("unknown task status {s}"))),
        },
        RESP_STATS => Response::Stats(RemoteStats {
            tasks_submitted: rd.u64("stats")?,
            tasks_assigned: rd.u64("stats")?,
            tasks_requeued: rd.u64("stats")?,
            tasks_shed: rd.u64("stats")?,
            tasks_rejected: rd.u64("stats")?,
            objects: rd.u64("stats")?,
            resident_bytes: rd.u64("stats")?,
        }),
        RESP_ADMISSION => match rd.u8("admission")? {
            ADM_ACCEPTED => Response::Admission(Admission::Accepted {
                seq: rd.u64("seq")?,
            }),
            ADM_ACCEPTED_SHED => Response::Admission(Admission::AcceptedShed {
                seq: rd.u64("seq")?,
                shed_seq: rd.u64("shed_seq")?,
            }),
            ADM_REJECTED => Response::Admission(Admission::Rejected),
            ADM_TIMED_OUT => Response::Admission(Admission::TimedOut),
            ADM_CLOSED => Response::Admission(Admission::Closed),
            v => return Err(RemoteError::Proto(format!("unknown admission verdict {v}"))),
        },
        RESP_CONTROL => Response::Control {
            data: rd.bytes("data")?,
        },
        RESP_TENANT_STATS => {
            // Each row is at least a name length prefix plus the fixed
            // numeric fields.
            let n = rd.count_u32(78, "tenants.len")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(TenantRow {
                    name: rd.string("tenant.name")?,
                    weight: rd.u32("tenant.weight")?,
                    queued: rd.u64("tenant")?,
                    task_quota: opt_u64(&mut rd, "tenant.task_quota")?,
                    tasks_submitted: rd.u64("tenant")?,
                    tasks_assigned: rd.u64("tenant")?,
                    tasks_requeued: rd.u64("tenant")?,
                    tasks_shed: rd.u64("tenant")?,
                    tasks_rejected: rd.u64("tenant")?,
                    resident_bytes: rd.u64("tenant")?,
                    byte_quota: opt_u64(&mut rd, "tenant.byte_quota")?,
                });
            }
            Response::TenantRows(rows)
        }
        RESP_POOL => Response::Pool(PoolStats {
            buckets: rd.u64("pool")?,
            idle: rd.u64("pool")?,
            desired: opt_u64(&mut rd, "pool.desired")?,
            queue_depth: rd.u64("pool")?,
            p99_wait_us: rd.u64("pool")?,
            locality_bytes_saved: rd.u64("pool")?,
        }),
        RESP_ERROR => Response::Error(rd.string("error")?),
        t => return Err(RemoteError::Proto(format!("unknown response tag {t}"))),
    };
    rd.finish()?;
    Ok(resp)
}
