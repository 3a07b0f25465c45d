//! Downsampling and interpolation.
//!
//! The hybrid visualization pipeline of the paper down-samples the
//! full-resolution field in-situ (e.g. every 8th grid point) and ships the
//! reduced blocks to the staging area, where a serial ray caster samples
//! them through a block-bounds lookup table. The helpers here implement
//! both halves of that data path: grid-aligned strided extraction and
//! trilinear reconstruction.

use crate::{BBox3, ScalarField};
use serde::{Deserialize, Serialize};

/// A strided sample of a block, aligned to the *global* downsample lattice.
///
/// Points are kept where every global coordinate is a multiple of
/// `stride`; this makes samples taken independently on different ranks
/// line up into one consistent coarse grid (no seams at block boundaries),
/// exactly what the in-transit renderer's lookup table relies on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampledBlock {
    /// The full-resolution region this sample was taken from.
    pub src_bbox: BBox3,
    /// Sampling stride in full-resolution grid points.
    pub stride: usize,
    /// Covered region in *coarse* coordinates: coarse point `c` corresponds
    /// to global point `c * stride`.
    pub coarse_bbox: BBox3,
    /// Sampled values over `coarse_bbox`, x fastest.
    pub data: Vec<f64>,
}

impl SampledBlock {
    /// The sampled values as a [`ScalarField`] over the coarse lattice.
    pub fn as_field(&self) -> ScalarField {
        ScalarField::from_vec(self.coarse_bbox, self.data.clone())
    }

    /// Size of the payload in bytes (what actually crosses the network).
    pub fn bytes(&self) -> usize {
        self.data.len() * crate::BYTES_PER_VALUE
    }
}

fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Coarse-lattice region covered by a full-resolution `bbox` at `stride`.
pub fn coarse_region(bbox: &BBox3, stride: usize) -> BBox3 {
    assert!(stride > 0);
    let mut lo = [0; 3];
    let mut hi = [0; 3];
    for a in 0..3 {
        lo[a] = div_ceil(bbox.lo[a], stride);
        hi[a] = div_ceil(bbox.hi[a], stride);
    }
    // A block may contain no lattice point on some axis; represent that as
    // an empty (lo == hi) box rather than an inverted one.
    for a in 0..3 {
        hi[a] = hi[a].max(lo[a]);
    }
    BBox3::new(lo, hi)
}

/// Downsample `field` onto the global `stride` lattice.
///
/// Returns the sampled block; `coarse_bbox` may be empty when the block is
/// thinner than the stride and contains no lattice point.
pub fn downsample(field: &ScalarField, stride: usize) -> SampledBlock {
    let src = field.bbox();
    let coarse = coarse_region(&src, stride);
    let mut data = Vec::with_capacity(coarse.count());
    for c in coarse.iter() {
        data.push(field.get([c[0] * stride, c[1] * stride, c[2] * stride]));
    }
    SampledBlock {
        src_bbox: src,
        stride,
        coarse_bbox: coarse,
        data,
    }
}

/// One axis of trilinear interpolation on the lattice `[lo, hi)`: the two
/// lattice coordinates bracketing `x` (clamped into the lattice) and
/// their weights. This is the only definition of the clamping rule:
/// [`sample_trilinear`] is its three-axis product, and `sitra-viz`'s ray
/// marcher tabulates it once per axis.
pub fn trilinear_tap(lo: usize, hi: usize, x: f64) -> ([usize; 2], [f64; 2]) {
    let x = x.clamp(lo as f64, (hi - 1) as f64);
    let base = x.floor();
    let i0 = base as usize;
    // Keep the +1 sample inside the box.
    if i0 + 1 >= hi {
        ([hi - 1; 2], [1.0, 0.0])
    } else {
        ([i0, i0 + 1], [1.0 - (x - base), x - base])
    }
}

/// Trilinear interpolation of `field` at a continuous global position.
///
/// The position is clamped to the field's region, so callers may sample
/// right up to (and slightly past) the boundary without special-casing.
/// Per-sample and unhurried: the renderers tabulate [`trilinear_tap`]
/// instead, and this stays as the oracle their tests compare against.
pub fn sample_trilinear(field: &ScalarField, pos: [f64; 3]) -> f64 {
    let b = field.bbox();
    debug_assert!(!b.is_empty());
    let t: [_; 3] = std::array::from_fn(|a| trilinear_tap(b.lo[a], b.hi[a], pos[a]));
    let mut acc = 0.0;
    for dz in 0..2usize {
        for dy in 0..2usize {
            for dx in 0..2usize {
                let w = t[0].1[dx] * t[1].1[dy] * t[2].1[dz];
                acc += w * field.get([t[0].0[dx], t[1].0[dy], t[2].0[dz]]);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Decomposition;

    fn linear_field(b: BBox3) -> ScalarField {
        ScalarField::from_fn(b, |p| p[0] as f64 + 2.0 * p[1] as f64 + 4.0 * p[2] as f64)
    }

    #[test]
    fn stride_one_is_identity() {
        let f = linear_field(BBox3::new([2, 0, 1], [5, 4, 3]));
        let s = downsample(&f, 1);
        assert_eq!(s.coarse_bbox, f.bbox());
        assert_eq!(s.as_field(), f);
    }

    #[test]
    fn downsample_picks_lattice_points() {
        let f = linear_field(BBox3::from_dims([9, 9, 9]));
        let s = downsample(&f, 4);
        // Lattice points 0,4,8 per axis.
        assert_eq!(s.coarse_bbox, BBox3::from_dims([3, 3, 3]));
        for c in s.coarse_bbox.iter() {
            assert_eq!(s.as_field().get(c), f.get([c[0] * 4, c[1] * 4, c[2] * 4]));
        }
    }

    #[test]
    fn downsampled_blocks_tile_coarse_grid() {
        // Samples taken per-rank must assemble seamlessly into the sample
        // of the whole domain.
        let g = BBox3::from_dims([20, 14, 11]);
        let whole = linear_field(g);
        let d = Decomposition::new(g, [3, 2, 2]);
        let stride = 3;
        let global_sample = downsample(&whole, stride);
        let mut acc = ScalarField::new_fill(global_sample.coarse_bbox, f64::NAN);
        let mut covered = 0;
        for r in 0..d.rank_count() {
            let piece = downsample(&whole.extract(&d.block(r)), stride);
            covered += piece.coarse_bbox.count();
            acc.paste(&piece.as_field());
        }
        // Blocks partition the domain, lattice points partition the lattice.
        assert_eq!(covered, global_sample.coarse_bbox.count());
        assert_eq!(acc, global_sample.as_field());
    }

    #[test]
    fn thin_block_can_be_empty() {
        let f = linear_field(BBox3::new([1, 1, 1], [3, 3, 3]));
        let s = downsample(&f, 5);
        assert!(s.coarse_bbox.is_empty());
        assert!(s.data.is_empty());
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn trilinear_reproduces_linear_function() {
        let f = linear_field(BBox3::new([1, 2, 3], [6, 7, 8]));
        // Interior fractional positions: linear functions are reproduced
        // exactly by trilinear interpolation.
        for &pos in &[[2.5, 3.25, 4.75], [1.0, 2.0, 3.0], [4.9, 6.0, 7.0]] {
            let expect = pos[0] + 2.0 * pos[1] + 4.0 * pos[2];
            assert!((sample_trilinear(&f, pos) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn trilinear_clamps_outside() {
        let f = linear_field(BBox3::new([0, 0, 0], [4, 4, 4]));
        let inside = sample_trilinear(&f, [3.0, 3.0, 3.0]);
        assert_eq!(sample_trilinear(&f, [10.0, 3.0, 3.0]), inside);
        assert_eq!(sample_trilinear(&f, [-5.0, 0.0, 0.0]), f.get([0, 0, 0]));
    }

    #[test]
    fn trilinear_at_upper_corner() {
        let f = linear_field(BBox3::from_dims([3, 3, 3]));
        let v = sample_trilinear(&f, [2.0, 2.0, 2.0]);
        assert!((v - f.get([2, 2, 2])).abs() < 1e-12);
    }
}
