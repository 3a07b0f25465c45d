//! # sitra-viz
//!
//! Volume rendering for the hybrid framework, reproducing the paper's two
//! visualization modes:
//!
//! * **Fully in-situ** ([`render`]): every rank ray-casts its own
//!   full-resolution (ghosted) block into a partial image; the partial
//!   images are alpha-composited in visibility order, and the result is
//!   *identical* to ray-casting the whole domain serially.
//! * **Hybrid in-situ/in-transit** ([`hybrid`]): each rank down-samples
//!   its block onto the global coarse lattice and ships it to the staging
//!   area, where one bucket ray-casts serially through a *lookup table*
//!   of block bounds (no visibility sorting, no volume reconstruction).
//!
//! Both run the one separable ray marcher of `march.rs`: bit-identical to
//! the per-sample renderers it replaced (`tests/reference.rs`), no `unsafe`.
//!
//! Supporting modules: [`transfer`] (scalar → RGBA transfer functions),
//! [`image`] (float RGBA images, compositing, PPM export, RMSE/PSNR).

#![forbid(unsafe_code)]

pub mod hybrid;
pub mod image;
mod march;
pub mod render;
pub mod transfer;

pub use hybrid::{BlockTable, HybridRenderer};
pub use image::Image;
pub use render::{composite_ordered, render_block, render_serial, View, ViewAxis};
pub use transfer::TransferFunction;
