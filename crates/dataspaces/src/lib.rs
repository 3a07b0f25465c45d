//! # sitra-dataspaces
//!
//! An in-process reimplementation of **DataSpaces** (Docan, Parashar,
//! Klasky, HPDC'10) — the distributed interaction and coordination
//! service the paper's staging framework is built on — together with the
//! paper's in-transit **task scheduler**.
//!
//! Three pieces:
//!
//! * [`space`] — the semantically specialized shared space: versioned,
//!   named, bounding-box-indexed data objects sharded over multiple
//!   server instances by hashing (the paper credits this hashing with
//!   balancing RPC load over the DataSpaces servers). Clients `put`
//!   regions and `get` arbitrary query boxes; the service returns every
//!   stored piece intersecting the query and the client assembles them.
//! * [`sched`] — the pull-based scheduler: in-situ ranks insert
//!   *data-ready* task descriptors into the task queue; staging buckets
//!   announce themselves *bucket-ready* and are assigned tasks
//!   first-come-first-served from the free-bucket list. This asynchronous
//!   pull model is what absorbs the heterogeneity of analysis run times
//!   and temporally multiplexes successive timesteps over buckets.
//! * [`codec`] — the wire codec: the read cursor, the shared byte
//!   layouts, `ScalarField` → bytes for shipping blocks through the
//!   space, and the one assembly of a query's pieces into a field.

pub mod codec;
pub mod pool;
pub mod remote;
pub mod sched;
pub mod space;
pub mod tenant;

pub use codec::field_to_bytes;
pub use pool::{AutoscaleConfig, AutoscaleHandle, BucketState, PoolSnapshot, ResidencyHint};
pub use remote::{
    ControlHandler, PoolStats, RemoteError, RemoteSpace, RemoteStats, SpaceServer, TaskPoll,
    TenantRow,
};
pub use sched::{
    Admission, AdmissionPolicy, BucketHandle, Lease, SchedStats, Scheduler, Submission,
    TenantSchedStats, TenantSnapshot,
};
pub use space::{DataSpaces, ObjectMeta, QuotaExceeded, SpaceStats};
pub use tenant::{scoped_var, tenant_of_var, TenantSpec, DEFAULT_TENANT};
