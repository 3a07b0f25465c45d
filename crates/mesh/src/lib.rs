//! # sitra-mesh
//!
//! Structured 3D grid infrastructure shared by every other crate in the
//! workspace: axis-aligned integer bounding boxes, regular block
//! decompositions of a global grid across ranks, dense scalar fields over
//! blocks, ghost-layer exchange, and sampling/downsampling utilities.
//!
//! All analyses in the SC'12 hybrid in-situ/in-transit paper operate on
//! rectilinear blocks of a domain-decomposed structured grid (the S3D
//! combustion mesh). This crate is the in-memory equivalent of that
//! substrate: it knows nothing about simulation physics, transport, or
//! analysis — only geometry and data layout.
//!
//! Conventions:
//! * Global grid coordinates are `[usize; 3]` triples `(i, j, k)` for the
//!   x/y/z axes.
//! * Bounding boxes are *half-open*: `lo` inclusive, `hi` exclusive.
//! * Field storage is row-major with x fastest:
//!   `index = (k * ny + j) * nx + i` in local block coordinates.

#![forbid(unsafe_code)]

pub mod bbox;
pub mod decomp;
pub mod field;
pub mod ghost;
pub mod sample;

pub use bbox::BBox3;
pub use decomp::Decomposition;
pub use field::ScalarField;
pub use ghost::{exchange_ghosts, ghost_requests, GhostRequest};
pub use sample::{downsample, sample_trilinear, trilinear_tap, SampledBlock};

/// Number of bytes in one double-precision grid value, used throughout the
/// workspace when converting cell counts to data-movement sizes.
pub const BYTES_PER_VALUE: usize = 8;
