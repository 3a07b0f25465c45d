//! # sitra-topology
//!
//! Merge trees for structured-grid scalar fields, decomposed into the
//! paper's hybrid in-situ / in-transit formulation:
//!
//! * **In-situ** ([`local`]): on each rank's ghosted block, a low-overhead
//!   sort + union-find sweep (Carr–Snoeyink–Axen adapted to join trees)
//!   builds the *augmented* local merge tree — every vertex of the block
//!   appears. Because adjacent ghosted blocks overlap by one vertex layer,
//!   the union of the local graphs is exactly the global graph.
//! * **Reduction** ([`reduce`]): the augmented local tree is sparsified to
//!   a [`Subtree`] containing only local critical points plus the vertices
//!   shared with neighboring blocks (the paper's "topological ghost
//!   cells"), typically orders of magnitude smaller than the block.
//! * **In-transit** ([`stream`]): a single staging bucket glues the
//!   subtrees with a streaming algorithm that accepts vertices and edges
//!   in *any* order, maintains a merge tree of everything seen so far via
//!   path merging, and *finalizes* (splices out and evicts) regular
//!   vertices whose last incident edge has been processed.
//!
//! On top of the tree, [`tree`] provides persistence-based simplification,
//! [`segment`] threshold segmentations labeled by surviving maxima, and
//! [`tracking`] feature tracking through time by segmentation overlap —
//! the machinery behind the paper's Fig. 1 (ignition kernels trackable
//! only at high temporal resolution).
//!
//! The merge tree convention throughout is the **join tree of superlevel
//! sets**: the isovalue sweeps from +inf downward, leaves are local
//! maxima, and arcs merge at saddles (the paper's Fig. 3). Ties are broken
//! by vertex id, giving a globally consistent total order (simulation of
//! simplicity), so results are deterministic and decomposition-independent.

#![forbid(unsafe_code)]

pub mod distributed;
pub mod local;
pub mod reduce;
pub mod segment;
pub mod stream;
pub mod tracking;
pub mod tree;
pub mod types;

pub use distributed::distributed_merge_tree;
pub use local::augmented_join_tree;
pub use reduce::{reduce_to_subtree, Subtree};
pub use segment::{segment_superlevel, Segmentation};
pub use stream::StreamingMergeTree;
pub use tracking::{track_features, FeatureTrack, OverlapEdge};
pub use tree::MergeTree;
pub use types::{sweep_after, Connectivity, VertexId};
