//! # sitra-dart
//!
//! An in-process reimplementation of **DART**, the asynchronous data
//! transport substrate the paper builds its staging framework on (Docan
//! et al., HPDC'08; ported to the Cray Gemini uGNI interface for this
//! paper).
//!
//! The substrate provides exactly the services the paper enumerates:
//! node registration/unregistration, one-sided data transfer, message
//! passing, and event notification/processing. As on Gemini, two data
//! paths exist and are selected by message size:
//!
//! * **SMSG/FMA** — low-latency small-message sends, delivered directly
//!   to the peer's event queue;
//! * **BTE** — bulk RDMA `get`/`put` against *registered memory regions*,
//!   served without involving the region owner's CPU, with completion
//!   events generated at **both** the source and the destination of the
//!   transfer (the mechanism DataSpaces uses to track transaction status
//!   and schedule analysis).
//!
//! Since we run on one machine, "RDMA" is a reference-counted buffer
//! clone ([`bytes::Bytes`], so payloads are never deep-copied), served
//! on the issuing thread: by the time `rdma_get` returns, the data is
//! on the requester's event queue and the source-side completion on the
//! owner's. Completion stays event-driven and one-sided — the owner
//! runs no code for a pull and learns of it only from its queue — and
//! there is no progress thread to hand the transfer to and back. A
//! pluggable [`NetworkModel`] charges each transfer the latency and
//! bandwidth of the modeled fabric, which is how the discrete-event
//! replay at paper scale obtains its communication costs.

pub mod endpoint;
pub mod model;

pub use endpoint::{
    DartError, Endpoint, EndpointId, Event, Fabric, FabricStats, Path, RegionKey, TransferId,
};
pub use model::NetworkModel;
