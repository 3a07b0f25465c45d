//! # sitra-cluster
//!
//! A multi-server DataSpaces cluster: several `sitra-staged`-style
//! instances bound together by a deterministic consistent-hash ring,
//! an epoch-based membership view, and shard handoff on join/leave.
//!
//! The paper's staging tier runs DataSpaces over many server nodes and
//! credits key hashing with balancing load across them; this crate
//! reproduces that shape one layer above the single-instance
//! [`sitra_dataspaces`] server:
//!
//! * [`ring`] — a pure, seedable placement function. Every participant
//!   builds the same ring from the same `(seed, vnodes, members)` and
//!   agrees on ownership with zero coordination, so golden-output and
//!   replay oracles stay byte-identical run to run.
//! * [`proto`] + [`membership`] — the control plane, carried opaquely
//!   in data-plane `Control` frames: join/leave announcements, a
//!   heartbeat with consecutive-miss suspicion, and epoch-ordered view
//!   gossip.
//! * [`node`] — one member: a `SpaceServer` plus the membership loop
//!   and the handoff machinery that drains disowned shards to their
//!   new owners when the view changes.
//! * [`client`] — the routing client: puts go to the ring owner, gets
//!   fan out to every configured member (correct under any view
//!   staleness), task submissions are routed with fail-over.

#![warn(missing_docs)]

pub mod client;
pub mod membership;
pub mod node;
pub mod proto;
pub mod ring;

pub use client::{ClusterClient, ClusterStats, Shipped};
pub use membership::Suspicion;
pub use node::{Bootstrap, ClusterError, ClusterNode, ClusterNodeOpts};
pub use proto::{decode_msg, encode_msg, ClusterMsg, ClusterView, MemberInfo};
pub use ring::{HashRing, ShardKey, DEFAULT_SEED, DEFAULT_VNODES};
