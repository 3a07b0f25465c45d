//! The server half: [`SpaceServer`] and its per-connection loop.

use super::proto::{
    decode_request, encode_response, PoolStats, RemoteStats, Request, Response, TaskPoll, TenantRow,
};
use crate::pool::ResidencyHint;
use crate::sched::{Lease, SchedStats, Scheduler, Submission};
use crate::space::DataSpaces;
use crate::tenant::{scoped_var, DEFAULT_TENANT};
use bytes::Bytes;
use sitra_net::{serve, Addr, Connection, Frame, Listener, NetError, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

/// How long the server waits for a task-receipt acknowledgement before
/// declaring the hand-off failed and requeueing.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Replies collected for one write are flushed once they add up to
/// this much, whatever else is waiting: sharing a syscall is for acks,
/// and a window of bulk `Get`s must not be answered out of memory.
const REPLY_BATCH_BYTES: usize = 64 * 1024;

/// Handler for opaque [`Request::Control`] frames. Layered services
/// (cluster membership, handoff) install one at server start; the
/// space/scheduler protocol never looks inside the payloads.
pub type ControlHandler = Arc<dyn Fn(Bytes) -> Bytes + Send + Sync>;

struct ServerInner {
    space: Arc<DataSpaces>,
    sched: Scheduler<Bytes>,
    control: Option<ControlHandler>,
}

/// The remote staging service: [`DataSpaces`] + [`Scheduler`] behind a
/// [`sitra_net`] listener, one thread per connection.
pub struct SpaceServer {
    inner: Arc<ServerInner>,
    handle: Option<ServerHandle>,
    addr: Addr,
}

impl SpaceServer {
    /// Bind `addr` and start serving with `shards` space shards and an
    /// unbounded task queue.
    pub fn start(addr: &Addr, shards: usize) -> Result<SpaceServer, NetError> {
        let space = Arc::new(DataSpaces::new(shards));
        Self::start_custom(addr, space, Scheduler::new(), None)
    }

    /// Bind `addr` and serve an externally constructed space and
    /// scheduler, optionally dispatching [`Request::Control`] frames to
    /// `control`. This is the seam a layered service (the cluster
    /// membership node) uses to keep its own handle on the space for
    /// shard handoff while the RPC surface stays unchanged.
    pub fn start_custom(
        addr: &Addr,
        space: Arc<DataSpaces>,
        sched: Scheduler<Bytes>,
        control: Option<ControlHandler>,
    ) -> Result<SpaceServer, NetError> {
        let listener = Listener::bind(addr)?;
        let bound = listener.local_addr();
        let inner = Arc::new(ServerInner {
            space,
            sched,
            control,
        });
        let conn_inner = Arc::clone(&inner);
        let handle = serve(listener, move |conn| serve_connection(&conn_inner, &conn));
        Ok(SpaceServer {
            inner,
            handle: Some(handle),
            addr: bound,
        })
    }

    /// Where the server is listening (the OS-assigned port for
    /// `tcp://…:0` binds).
    pub fn addr(&self) -> Addr {
        self.addr.clone()
    }

    /// Direct access to the served space (same-process convenience).
    pub fn space(&self) -> &DataSpaces {
        &self.inner.space
    }

    /// A clone of the served scheduler (same-process convenience; the
    /// cluster node drains it on graceful leave).
    pub fn scheduler(&self) -> Scheduler<Bytes> {
        self.inner.sched.clone()
    }

    /// Scheduler counters.
    pub fn sched_stats(&self) -> SchedStats {
        self.inner.sched.stats()
    }

    /// Close the scheduler and stop accepting connections.
    pub fn shutdown(mut self) {
        self.inner.sched.close();
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

#[cfg(test)]
impl SpaceServer {
    /// Serve `conn` on the calling thread until the peer hangs up, so a
    /// test can read the server side's connection counters afterwards.
    pub(super) fn serve_here(&self, conn: &Connection) {
        serve_connection(&self.inner, conn)
    }
}

fn serve_connection(inner: &ServerInner, conn: &Connection) {
    let reg = sitra_obs::global();
    let rpc_requests = reg.counter("space.rpc.requests");
    let rpc_proto_errors = reg.counter("space.rpc.proto_errors");
    // The connection's tenant binding: None until a SetTenant arrives,
    // which keeps every legacy client on the default tenant with
    // unscoped variable names and unscoped eviction.
    let mut tenant: Option<String> = None;
    let scope = |tenant: &Option<String>, var: &str| match tenant {
        Some(t) => scoped_var(t, var),
        None => var.to_string(),
    };
    // Replies to requests that arrived in one read leave in one write:
    // while the connection holds further requests it has already read
    // and decoded, replies collect here. They are flushed before
    // anything that can wait — the next read off the socket, a
    // long-poll — so no reply ever waits on the client's next move.
    let mut replies: Vec<Frame> = Vec::new();
    let flush = |replies: &mut Vec<Frame>| {
        let sent = conn.send_all(replies).is_ok();
        replies.clear();
        sent
    };
    loop {
        let frame = match conn.recv() {
            Ok(f) => f,
            Err(_) => return, // peer hung up
        };
        let req = match decode_request(frame) {
            Ok(r) => r,
            Err(e) => {
                rpc_proto_errors.inc();
                replies.push(encode_response(&Response::Error(e.to_string())));
                flush(&mut replies);
                return;
            }
        };
        rpc_requests.inc();
        if matches!(req, Request::RequestTask { .. } | Request::GetWait { .. })
            && !flush(&mut replies)
        {
            return;
        }
        let resp = match req {
            Request::Put {
                var,
                version,
                bbox,
                data,
            } => {
                // Quota-checked even for unbound connections: a client
                // may address another tenant's namespace explicitly (the
                // cluster handoff path does), and the quota follows the
                // name, not the connection.
                match inner
                    .space
                    .put_quota(&scope(&tenant, &var), version, bbox, data)
                {
                    Ok(_) => Response::Ok,
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::Get { var, version, bbox } => {
                Response::Pieces(inner.space.get(&scope(&tenant, &var), version, &bbox))
            }
            Request::GetWait {
                var,
                version,
                bbox,
                timeout_ms,
            } => Response::DataReady {
                pieces: inner.space.get_wait(
                    &scope(&tenant, &var),
                    version,
                    &bbox,
                    Duration::from_millis(timeout_ms),
                ),
                var,
                version,
            },
            Request::LatestVersion { var } => {
                Response::Version(inner.space.latest_version(&scope(&tenant, &var)))
            }
            Request::SubmitTask { data, hint } => {
                Response::Admission(inner.sched.submit(Submission {
                    tenant: tenant.as_deref().unwrap_or(DEFAULT_TENANT),
                    hint: ResidencyHint { bytes_at: hint },
                    task: data,
                }))
            }
            Request::RequestTask {
                bucket_id,
                timeout_ms,
                location,
            } => {
                let loc = (!location.is_empty()).then_some(location.as_str());
                if !handle_request_task(inner, conn, bucket_id, timeout_ms, loc) {
                    return; // hand-off failed; connection is dead
                }
                continue; // response already sent
            }
            Request::AckTask { .. } | Request::DeclineTask { .. } => {
                Response::Error("no assignment awaits a receipt".into())
            }
            Request::Stats => {
                let sched = inner.sched.stats();
                let space = inner.space.stats();
                Response::Stats(RemoteStats {
                    tasks_submitted: sched.tasks_submitted,
                    tasks_assigned: sched.tasks_assigned,
                    tasks_requeued: sched.tasks_requeued,
                    tasks_shed: sched.tasks_shed,
                    tasks_rejected: sched.tasks_rejected,
                    objects: space.objects_per_server.iter().sum(),
                    resident_bytes: space.resident_bytes,
                })
            }
            Request::EvictVersion { version } => {
                // A tenant-bound connection reclaims only its own
                // namespace; an unbound one keeps the global semantics.
                match &tenant {
                    Some(t) => inner.space.evict_version_scoped(t, version),
                    None => inner.space.evict_version(version),
                }
                Response::Ok
            }
            Request::CloseSched => {
                inner.sched.close();
                Response::Ok
            }
            Request::Control { data } => match &inner.control {
                Some(handler) => Response::Control {
                    data: handler(data),
                },
                None => Response::Error("control frames not supported".into()),
            },
            Request::SetTenant { spec } => {
                inner.sched.register_tenant(&spec);
                inner
                    .space
                    .set_tenant_byte_quota(&spec.name, spec.byte_quota);
                tenant = Some(spec.name);
                Response::Ok
            }
            Request::TenantStats => Response::TenantRows(tenant_rows(inner)),
            Request::PoolStats => {
                let snap = inner.sched.pool_snapshot();
                Response::Pool(PoolStats {
                    buckets: snap.buckets as u64,
                    idle: snap.idle as u64,
                    desired: inner.sched.pool_target().map(|t| t as u64),
                    queue_depth: snap.queue_depth as u64,
                    p99_wait_us: snap.p99_wait.as_micros() as u64,
                    locality_bytes_saved: inner.sched.stats().locality_bytes_saved,
                })
            }
        };
        replies.push(encode_response(&resp));
        let more_to_answer = conn.has_decoded_frame()
            && replies.iter().map(Frame::len).sum::<usize>() < REPLY_BATCH_BYTES;
        if !more_to_answer && !flush(&mut replies) {
            return;
        }
    }
}

/// Join the scheduler's per-tenant snapshot with the space's residency
/// ledger into the wire rows.
fn tenant_rows(inner: &ServerInner) -> Vec<TenantRow> {
    let usage: std::collections::HashMap<String, (u64, Option<u64>)> = inner
        .space
        .tenant_usage()
        .into_iter()
        .map(|(name, used, quota)| (name, (used, quota)))
        .collect();
    let mut rows: Vec<TenantRow> = inner
        .sched
        .tenant_stats()
        .into_iter()
        .map(|t| {
            let (resident_bytes, byte_quota) = usage.get(&t.name).copied().unwrap_or((0, None));
            TenantRow {
                name: t.name,
                weight: t.weight,
                queued: t.queued,
                task_quota: t.task_quota,
                tasks_submitted: t.stats.tasks_submitted,
                tasks_assigned: t.stats.tasks_assigned,
                tasks_requeued: t.stats.tasks_requeued,
                tasks_shed: t.stats.tasks_shed,
                tasks_rejected: t.stats.tasks_rejected,
                resident_bytes,
                byte_quota,
            }
        })
        .collect();
    // Tenants with resident bytes but no scheduler traffic still get a
    // row (puts-only tenants exist).
    for (name, (used, quota)) in usage {
        if !rows.iter().any(|r| r.name == name) {
            rows.push(TenantRow {
                name,
                weight: 1,
                resident_bytes: used,
                byte_quota: quota,
                ..TenantRow::default()
            });
        }
    }
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    rows
}

/// Serve one bucket-ready request. Returns false when the connection
/// must be torn down (a task hand-off could not be completed; the task
/// has been requeued).
fn handle_request_task(
    inner: &ServerInner,
    conn: &Connection,
    bucket_id: u32,
    timeout_ms: u64,
    location: Option<&str>,
) -> bool {
    let bucket = inner.sched.register_bucket_at(bucket_id, location);
    let deadline = std::time::Instant::now() + Duration::from_millis(timeout_ms);
    // The bucket parks for the whole remaining time: close and drain
    // wake it by dropping its parked sender. The queue is looked at
    // before the deadline is tested, so a zero timeout is one
    // non-blocking look; `Empty` ahead of the deadline (a same-id
    // request that timed out withdrew this one too) parks again.
    let assigned = loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        match bucket.poll_task(Some(left)) {
            Lease::Assigned { seq, task } => break Some((seq, task)),
            Lease::Retire => {
                return conn
                    .send(encode_response(&Response::Task(TaskPoll::Retire)))
                    .is_ok()
            }
            Lease::Closed => {
                // Drain-then-closed: one more non-blocking look so a
                // task requeued during close is not missed.
                match bucket.poll_task(Some(Duration::ZERO)) {
                    Lease::Assigned { seq, task } => break Some((seq, task)),
                    Lease::Retire => {
                        return conn
                            .send(encode_response(&Response::Task(TaskPoll::Retire)))
                            .is_ok()
                    }
                    _ => {
                        return conn
                            .send(encode_response(&Response::Task(TaskPoll::Closed)))
                            .is_ok()
                    }
                }
            }
            Lease::Empty if std::time::Instant::now() >= deadline => break None,
            Lease::Empty => continue,
        }
    };
    let Some((seq, data)) = assigned else {
        return conn
            .send(encode_response(&Response::Task(TaskPoll::Empty)))
            .is_ok();
    };
    // Two-phase hand-off: send, then require a receipt on the same
    // connection — an ack, or a decline from a bucket that took other
    // work meanwhile. A decline or either failure requeues the task at
    // the queue head; only the failures cost the connection.
    let tenant = inner
        .sched
        .tenant_of(seq)
        .unwrap_or_else(|| DEFAULT_TENANT.to_string());
    let sent = conn
        .send(encode_response(&Response::Task(TaskPoll::Assigned {
            seq,
            data: data.clone(),
            tenant: tenant.clone(),
        })))
        .is_ok();
    if !sent {
        emit_requeue(bucket_id, seq, "send-failed");
        inner.sched.requeue_front(&tenant, seq, data);
        return false;
    }
    let t_sent = std::time::Instant::now();
    match conn.recv_timeout(ACK_TIMEOUT) {
        Ok(frame) => match decode_request(frame) {
            Ok(Request::AckTask { seq: acked }) if acked == seq => {
                inner.sched.ack(seq);
                sitra_obs::global()
                    .histogram("space.rpc.ack_ns")
                    .observe(t_sent.elapsed());
                sitra_obs::emit(
                    "space",
                    "task.assign",
                    &[
                        ("bucket", bucket_id.to_string()),
                        ("seq", seq.to_string()),
                        ("ack_ns", t_sent.elapsed().as_nanos().to_string()),
                    ],
                );
                true
            }
            Ok(Request::DeclineTask { seq: declined }) if declined == seq => {
                emit_requeue(bucket_id, seq, "declined");
                inner.sched.requeue_front(&tenant, seq, data);
                true
            }
            _ => {
                emit_requeue(bucket_id, seq, "bad-ack");
                inner.sched.requeue_front(&tenant, seq, data);
                false
            }
        },
        Err(_) => {
            emit_requeue(bucket_id, seq, "ack-timeout");
            inner.sched.requeue_front(&tenant, seq, data);
            false
        }
    }
}

/// Journal a failed hand-off. The requeue is the interesting fault
/// signal in a staging service's event stream — one line per lost
/// consumer, with why the two-phase hand-off failed.
fn emit_requeue(bucket_id: u32, seq: u64, reason: &str) {
    sitra_obs::emit(
        "space",
        "task.requeue",
        &[
            ("bucket", bucket_id.to_string()),
            ("seq", seq.to_string()),
            ("reason", reason.to_string()),
        ],
    );
}
