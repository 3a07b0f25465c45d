//! Remote staging: the shared space and the in-transit scheduler
//! served over [`sitra_net`] so staging can run in its own process.
//!
//! In the paper the staging area is a distinct partition of the machine
//! reached through DART; here the same role is played by a
//! [`SpaceServer`] — a thread-per-connection RPC service wrapping the
//! sharded [`DataSpaces`](crate::DataSpaces) and the FCFS [`Scheduler`](crate::Scheduler) — and a
//! [`RemoteSpace`] client mirroring the in-process API. The protocol
//! carries exactly the staging verbs: `put`, spatial `get`,
//! `query-version`, `submit-task` (data-ready), `request-task`
//! (bucket-ready), plus stats/evict/close for lifecycle.
//!
//! **Task hand-off is acknowledged.** A bucket that is assigned a task
//! must acknowledge receipt on the same connection; if the connection
//! dies first, the server puts the task back at the head of its
//! tenant's queue ([`Scheduler::requeue_front`](crate::Scheduler::requeue_front))
//! where the next free bucket picks it up. A crashing or reconnecting
//! consumer therefore never loses a task — the invariant the
//! remote-staging integration test asserts.

mod client;
mod proto;
mod server;
#[cfg(test)]
mod tests;

pub use client::{Batch, RemoteSpace};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, PoolStats, RemoteStats,
    Request, Response, TaskPoll, TenantRow,
};
pub use server::{ControlHandler, SpaceServer};

use crate::codec::WireError;
use sitra_net::NetError;

/// Failure of a remote-space operation.
#[derive(Debug)]
pub enum RemoteError {
    /// Transport failure (connection dropped, timeout, ...).
    Net(NetError),
    /// A client-side deadline elapsed (e.g. an awaited output never
    /// appeared). Distinct from [`RemoteError::Proto`]: nothing was
    /// malformed, the data just never came — a retryable condition.
    Timeout(String),
    /// The peer sent bytes that do not decode as protocol messages.
    Proto(String),
    /// The server executed the request and reported an error.
    Server(String),
}

impl RemoteError {
    /// Whether retrying the operation (possibly after reconnecting) can
    /// succeed. Transport faults and elapsed deadlines are transient;
    /// protocol violations and server-reported errors are not — the
    /// same request would fail the same way.
    pub fn is_retryable(&self) -> bool {
        match self {
            RemoteError::Net(e) => e.is_retryable(),
            RemoteError::Timeout(_) => true,
            RemoteError::Proto(_) | RemoteError::Server(_) => false,
        }
    }
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Net(e) => write!(f, "transport: {e}"),
            RemoteError::Timeout(s) => write!(f, "timed out: {s}"),
            RemoteError::Proto(s) => write!(f, "protocol violation: {s}"),
            RemoteError::Server(s) => write!(f, "server error: {s}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// A frame that does not decode is a protocol violation.
impl From<WireError> for RemoteError {
    fn from(e: WireError) -> Self {
        RemoteError::Proto(e.to_string())
    }
}

impl From<NetError> for RemoteError {
    fn from(e: NetError) -> Self {
        RemoteError::Net(e)
    }
}
