//! Axis-aligned orthographic ray casting and visibility-ordered
//! compositing.
//!
//! Rays travel along one grid axis on a *globally fixed sample lattice*:
//! sample `k` of a pixel sits at the same world position no matter which
//! rank evaluates it. Each rank accumulates only the samples owned by its
//! block, so the per-block partial images composite (in block order along
//! the view axis) to exactly the serial whole-domain rendering — the
//! correctness invariant of the in-situ visualization path.
//! `march.rs` walks only a rank's own pixels and stretch of each ray.

use crate::image::Image;
use crate::march::Marcher;
use crate::transfer::TransferFunction;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use sitra_mesh::{BBox3, ScalarField};

/// The grid axis rays travel along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViewAxis {
    /// Rays along x; image plane is (y, z).
    X,
    /// Rays along y; image plane is (x, z).
    Y,
    /// Rays along z; image plane is (x, y).
    Z,
}

impl ViewAxis {
    /// `(ray axis, image-u axis, image-v axis)` as dimension indices.
    pub fn dims(self) -> (usize, usize, usize) {
        match self {
            ViewAxis::X => (0, 1, 2),
            ViewAxis::Y => (1, 0, 2),
            ViewAxis::Z => (2, 0, 1),
        }
    }
}

/// An axis-aligned orthographic view of a domain region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct View {
    /// Region of the global grid to render.
    pub domain: BBox3,
    /// Ray direction axis.
    pub axis: ViewAxis,
    /// When true the viewer sits at the high-coordinate side (front =
    /// large coordinate, rays march downward).
    pub flip: bool,
    /// Image width in pixels (along the u axis).
    pub width: usize,
    /// Image height in pixels (along the v axis).
    pub height: usize,
    /// Sample spacing along the ray, in grid units.
    pub step: f64,
    /// Stop marching a ray once accumulated opacity reaches this value
    /// (`None` = never stop early; required for exact serial/distributed
    /// equality).
    pub opacity_cutoff: Option<f64>,
}

impl View {
    /// A view covering `domain` with one pixel per grid cell on the image
    /// plane and unit sample step.
    pub fn full_res(domain: BBox3, axis: ViewAxis, flip: bool) -> Self {
        let (_, u, v) = axis.dims();
        let d = domain.dims();
        Self {
            domain,
            axis,
            flip,
            width: d[u],
            height: d[v],
            step: 1.0,
            opacity_cutoff: None,
        }
    }

    /// Number of samples along each ray.
    pub fn samples_per_ray(&self) -> usize {
        let (r, _, _) = self.axis.dims();
        let extent = self.domain.dims()[r] as f64;
        (extent / self.step).ceil() as usize
    }

    /// The sample lattice, one coordinate table per grid axis: sample
    /// `k` (front-to-back, `k = 0` nearest the viewer) of pixel
    /// `(px, py)` sits at `(t[u][px], t[v][py], t[r][k])`.
    pub(crate) fn sample_coords(&self) -> [Vec<f64>; 3] {
        let (r, u, v) = self.axis.dims();
        let (lo, dims, n) = (self.domain.lo, self.domain.dims(), self.samples_per_ray());
        let (mut count, mut d) = ([n; 3], [self.step; 3]);
        (count[u], d[u]) = (self.width, dims[u] as f64 / self.width as f64);
        (count[v], d[v]) = (self.height, dims[v] as f64 / self.height as f64);
        let index = |a: usize, i: usize| if a == r && self.flip { n - 1 - i } else { i };
        std::array::from_fn(|a| {
            let at = |i| lo[a] as f64 + (index(a, i) as f64 + 0.5) * d[a];
            (0..count[a]).map(at).collect()
        })
    }
}

/// Ray-cast the samples of `view` that fall inside `owned`, reading data
/// from `field` (which must cover at least `owned` plus a one-point halo,
/// clamped to the domain — i.e. a ghosted block, or the whole domain).
///
/// Returns the partial premultiplied-RGBA image; rows march in parallel.
pub fn render_block(
    field: &ScalarField,
    owned: &BBox3,
    view: &View,
    tf: &TransferFunction,
) -> Image {
    let whole = (field.bbox(), field.as_slice());
    let marcher = Marcher::new(view, 1.0, whole.0, Some(owned), |_| whole);
    let mut img = Image::new(view.width, view.height);
    let rows = img.pixels_mut().par_chunks_mut(view.width).enumerate();
    rows.for_each(|(py, row)| marcher.row(tf, py, row));
    img
}

/// Serial reference: ray-cast the whole field.
pub fn render_serial(field: &ScalarField, view: &View, tf: &TransferFunction) -> Image {
    render_block(field, &field.bbox(), view, tf)
}

/// Composite per-block partial images in visibility order.
///
/// `partials` pairs each image with the owning block; blocks are sorted
/// along the view axis (front first) and folded with *over*. Blocks in
/// the same slab but different image columns touch disjoint pixels, so
/// only the along-axis order matters.
pub fn composite_ordered(partials: &[(BBox3, Image)], view: &View) -> Image {
    assert!(!partials.is_empty(), "nothing to composite");
    let (r, _, _) = view.axis.dims();
    let mut order: Vec<usize> = (0..partials.len()).collect();
    order.sort_by_key(|&i| {
        let lo = partials[i].0.lo[r] as isize;
        if view.flip {
            -lo
        } else {
            lo
        }
    });
    let mut out = Image::new(view.width, view.height);
    for i in order {
        out.over(&partials[i].1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitra_mesh::{exchange_ghosts, Decomposition};

    fn wavy(b: BBox3) -> ScalarField {
        ScalarField::from_fn(b, |p| {
            let x = p[0] as f64 * 0.7;
            let y = p[1] as f64 * 0.5;
            let z = p[2] as f64 * 0.9;
            (x.sin() + y.cos() + (z * 0.5).sin() + 3.0) / 6.0
        })
    }

    fn tf() -> TransferFunction {
        TransferFunction::hot(0.0, 1.0)
    }

    #[test]
    fn serial_render_nonempty() {
        let f = wavy(BBox3::from_dims([8, 8, 8]));
        let v = View::full_res(f.bbox(), ViewAxis::Z, false);
        let img = render_serial(&f, &v, &tf());
        let lit = img.pixels().iter().filter(|p| p[3] > 0.0).count();
        assert!(lit > 0, "image is completely transparent");
        for p in img.pixels() {
            assert!(p[3] <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn empty_transfer_yields_transparent_image() {
        let f = wavy(BBox3::from_dims([4, 4, 4]));
        let clear =
            TransferFunction::new(0.0, 1.0, vec![(0.0, [0.0; 4]), (1.0, [1.0, 1.0, 1.0, 0.0])]);
        let v = View::full_res(f.bbox(), ViewAxis::X, false);
        let img = render_serial(&f, &v, &clear);
        assert!(img.pixels().iter().all(|p| p[3] == 0.0));
    }

    #[test]
    fn flip_reverses_visibility() {
        // A field opaque at low z and transparent at high z: the flipped
        // view must differ from the unflipped one.
        let b = BBox3::from_dims([4, 4, 8]);
        let f = ScalarField::from_fn(b, |p| if p[2] < 4 { 1.0 } else { 0.0 });
        let tfn = TransferFunction::new(
            0.0,
            1.0,
            vec![(0.0, [0.0, 0.0, 1.0, 0.1]), (1.0, [1.0, 0.0, 0.0, 0.95])],
        );
        let v0 = View::full_res(b, ViewAxis::Z, false);
        let v1 = View {
            flip: true,
            ..v0.clone()
        };
        let front = render_serial(&f, &v0, &tfn);
        let back = render_serial(&f, &v1, &tfn);
        assert!(front.max_abs_diff(&back) > 0.05);
        // Unflipped: red (high values at low z) dominates.
        let p = front.get(2, 2);
        assert!(p[0] > p[2], "expected red-dominant front view");
    }

    fn check_distributed_equals_serial(axis: ViewAxis, flip: bool, parts: [usize; 3]) {
        let g = BBox3::from_dims([12, 10, 9]);
        let whole = wavy(g);
        let d = Decomposition::new(g, parts);
        let fields: Vec<ScalarField> = (0..d.rank_count())
            .map(|r| whole.extract(&d.block(r)))
            .collect();
        let (ghosted, _) = exchange_ghosts(&d, &fields, 1);
        let view = View {
            step: 0.5,
            ..View::full_res(g, axis, flip)
        };
        let serial = render_serial(&whole, &view, &tf());
        let partials: Vec<(BBox3, Image)> = (0..d.rank_count())
            .map(|r| {
                (
                    d.block(r),
                    render_block(&ghosted[r], &d.block(r), &view, &tf()),
                )
            })
            .collect();
        let composited = composite_ordered(&partials, &view);
        assert!(
            serial.max_abs_diff(&composited) < 1e-9,
            "axis {axis:?} flip {flip}: diff {}",
            serial.max_abs_diff(&composited)
        );
    }

    #[test]
    fn distributed_equals_serial_z() {
        check_distributed_equals_serial(ViewAxis::Z, false, [2, 2, 2]);
    }

    #[test]
    fn distributed_equals_serial_x_flipped() {
        check_distributed_equals_serial(ViewAxis::X, true, [3, 2, 1]);
    }

    #[test]
    fn distributed_equals_serial_y() {
        check_distributed_equals_serial(ViewAxis::Y, false, [2, 1, 3]);
    }

    #[test]
    fn opacity_cutoff_changes_little_on_opaque_scene() {
        let f = wavy(BBox3::from_dims([8, 8, 16]));
        let opaque = TransferFunction::new(
            0.0,
            1.0,
            vec![(0.0, [0.1, 0.1, 0.1, 0.9]), (1.0, [1.0, 1.0, 1.0, 1.0])],
        );
        let v = View::full_res(f.bbox(), ViewAxis::Z, false);
        let vc = View {
            opacity_cutoff: Some(0.999),
            ..v.clone()
        };
        let exact = render_serial(&f, &v, &opaque);
        let cut = render_serial(&f, &vc, &opaque);
        assert!(exact.max_abs_diff(&cut) < 1e-2);
    }

    #[test]
    fn sample_positions_are_flip_symmetric() {
        let v = View::full_res(BBox3::from_dims([4, 4, 8]), ViewAxis::Z, false);
        let vf = View {
            flip: true,
            ..v.clone()
        };
        let (mut a, b) = (v.sample_coords(), vf.sample_coords());
        a[2].reverse();
        assert_eq!(a, b);
    }
}
