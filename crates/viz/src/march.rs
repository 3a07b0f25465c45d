//! The one ray marcher behind both render paths.
//!
//! An axis-aligned orthographic view makes sample positions separable:
//! sample `k` of pixel `(px, py)` sits at `(U[px], V[py], R[k])`. So the
//! position math of trilinear interpolation — ownership test, division
//! by the stride, clamp, floor, fraction — is tabulated once per render
//! as three per-axis tables of [`trilinear_tap`]s (O(W+H+N) work, not
//! O(W·H·N)), and a sample is eight loads and weights. Bits survive
//! because nothing is re-derived: the tables hold the per-sample
//! renderer's own expressions ([`View::sample_coords`], the shared tap),
//! weights multiply in its association `(wx·wy)·wz`, corners add up in
//! its `dz, dy, dx` order. Entries outside `owned` are `None`: unowned
//! pixels and ray stretches are skipped, not tested.
//!
//! `find` names the box (and values) holding a lattice point: the ghosted
//! field in situ, a block looked up in [`crate::BlockTable`] in transit.
//! Each of a sample's eight corners keeps a [`Cursor`] on that box's run
//! along the ray and asks again only on leaving it: 8 × (boxes crossed).

use crate::render::View;
use crate::transfer::TransferFunction;
use sitra_mesh::{trilinear_tap, BBox3};

type Tap = ([usize; 2], [f64; 2]); // one table entry: lattice coordinates, weights

/// One corner's run inside one box: the value at ray-axis coordinate
/// `c` in `lo..lo + len` is `data[(c - lo) * stride]`.
#[derive(Clone, Copy, Default)]
struct Cursor<'a> {
    data: &'a [f64],
    lo: usize,
    len: usize,
    stride: usize,
}

pub(crate) struct Marcher<'a, F> {
    /// Per grid axis: the taps of the pixels (image axes) or of the owned
    /// samples, front to back (ray axis).
    taps: [Vec<Option<Tap>>; 3],
    view: &'a View,
    find: F,
}

impl<'a, F: Fn([usize; 3]) -> (BBox3, &'a [f64])> Marcher<'a, F> {
    /// Tabulate `view` over `lattice`, whose point `c` sits at world
    /// position `c * scale`, skipping samples outside `owned`.
    pub(crate) fn new(
        view: &'a View,
        scale: f64,
        lattice: BBox3,
        owned: Option<&BBox3>,
        find: F,
    ) -> Self {
        let coords = view.sample_coords();
        let mut taps: [Vec<_>; 3] = std::array::from_fn(|a| {
            let tap = |&pos: &f64| {
                let inside = owned.is_none_or(|o| pos >= o.lo[a] as f64 && pos < o.hi[a] as f64);
                inside.then(|| trilinear_tap(lattice.lo[a], lattice.hi[a], pos / scale))
            };
            coords[a].iter().map(tap).collect()
        });
        taps[view.axis.dims().0].retain(Option::is_some);
        Self { taps, view, find }
    }

    /// Cast the rays of image row `py` into the (transparent) `row`.
    pub(crate) fn row(&self, tf: &TransferFunction, py: usize, row: &mut [[f64; 4]]) {
        let march = [Self::march::<0>, Self::march::<1>, Self::march::<2>];
        march[self.view.axis.dims().0](self, tf, py, row)
    }

    /// The cursor over the box holding lattice point `p`.
    #[cold]
    fn cursor(&self, p: [usize; 3], r: usize) -> Cursor<'a> {
        let (bbox, data) = (self.find)(p);
        let (d, mut start) = (bbox.dims(), p);
        start[r] = bbox.lo[r];
        Cursor {
            data: &data[bbox.local_index(start)..],
            lo: bbox.lo[r],
            len: d[r],
            stride: [1, d[0], d[0] * d[1]][r],
        }
    }

    /// [`Marcher::row`] with the axes as constants, which keeps the taps
    /// in registers, and out of line, so it compiles alike for each caller.
    #[inline(never)]
    fn march<const R: usize>(&self, tf: &TransferFunction, py: usize, row: &mut [[f64; 4]]) {
        let (u, v) = [(1, 2), (0, 2), (0, 1)][R];
        let Some(tv) = &self.taps[v][py] else { return };
        // x¹ = x: a unit step skips only the libm call (1 − (1 − α) ≠ α).
        let (step, unit) = (self.view.step, self.view.step == 1.0);
        for (tu, out) in self.taps[u].iter().zip(row) {
            let Some(tu) = tu else { continue };
            let mut cursors = [Cursor::default(); 8];
            let mut rgba = [0.0f64; 4];
            for tr in self.taps[R].iter().flatten() {
                if self.view.opacity_cutoff.is_some_and(|cut| rgba[3] >= cut) {
                    break;
                }
                let mut t = [tr; 3];
                (t[u], t[v]) = (tu, tv);
                let corner = |j: usize| [t[0].0[j & 1], t[1].0[(j >> 1) & 1], t[2].0[j >> 2]];
                // Misses are settled first: the loop that adds up has no call.
                for (j, cur) in cursors.iter_mut().enumerate() {
                    if corner(j)[R].wrapping_sub(cur.lo) >= cur.len {
                        *cur = self.cursor(corner(j), R);
                    }
                }
                let mut val = 0.0;
                for (j, cur) in cursors.iter().enumerate() {
                    let w = t[0].1[j & 1] * t[1].1[(j >> 1) & 1] * t[2].1[j >> 2];
                    val += w * cur.data[(corner(j)[R] - cur.lo) * cur.stride];
                }
                let c = tf.sample(val);
                let clear = 1.0 - c[3];
                let clear = if unit { clear } else { clear.powf(step) };
                let k = (1.0 - rgba[3]) * (1.0 - clear);
                rgba[0] += k * c[0];
                rgba[1] += k * c[1];
                rgba[2] += k * c[2];
                rgba[3] += k;
            }
            *out = rgba;
        }
    }
}
