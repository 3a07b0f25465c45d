//! The one ray marcher behind both render paths.
//!
//! An axis-aligned orthographic view makes sample positions separable:
//! sample `k` of pixel `(px, py)` sits at `(U[px], V[py], R[k])`. So the
//! position math of trilinear interpolation — ownership test, division
//! by the stride, clamp, floor, fraction — is tabulated once per render
//! as three per-axis tables of [`trilinear_tap`]s (O(W+H+N) work, not
//! O(W·H·N)). Entries outside `owned` are `None`: unowned pixels and ray
//! stretches are skipped, not tested.
//!
//! A ray's eight trilinear corners lie on four lattice columns along the
//! ray axis, one per image-plane corner. Before its first sample a ray
//! gathers those columns into a small contiguous `[coordinate][corner]`
//! buffer over the stretch the owned samples touch; then a sample is
//! eight loads from two buffer rows and eight weights, with no lookup
//! and no miss test. Neighbouring pixels of a row share columns, so a
//! ray gathers only the columns the previous ray did not hold. Bits
//! survive because nothing is re-derived: the tables hold the per-sample
//! renderer's own expressions ([`View::sample_coords`], the shared tap),
//! weights multiply in its association `(wx·wy)·wz`, corners add up in
//! its `dz, dy, dx` order, and the buffer holds copies of the values.
//!
//! `find` names the box (and values) holding a lattice point: the ghosted
//! field in situ, a block looked up in [`crate::BlockTable`] in transit.
//! A column is filled box run by box run, so `find` is asked once per
//! (column a row reads) × (boxes it crosses).

use crate::render::View;
use crate::transfer::TransferFunction;
use sitra_mesh::{trilinear_tap, BBox3};
use std::ops::Range;

type Tap = ([usize; 2], [f64; 2]); // one table entry: lattice coordinates, weights

/// One column's run inside one box: from the asked point on, the values
/// along the ray axis are `data[0], data[stride], …`, up to coordinate `end`.
struct Cursor<'a> {
    data: &'a [f64],
    end: usize,
    stride: usize,
}

pub(crate) struct Marcher<'a, F> {
    /// Per image axis, the taps of the pixels (`None` if unowned); the
    /// ray axis's entry is empty.
    taps: [Vec<Option<Tap>>; 3],
    /// The taps of the owned samples, front to back, their coordinates
    /// counted from `span.start`.
    ray: Vec<Tap>,
    /// The ray-axis lattice coordinates the owned samples touch.
    span: Range<usize>,
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
        let ray = std::mem::take(&mut taps[view.axis.dims().0]);
        let mut ray: Vec<Tap> = ray.into_iter().flatten().collect();
        let touched = ray.iter().flat_map(|t| t.0);
        let start = touched.clone().min().unwrap_or(0);
        let span = start..touched.max().map_or(0, |hi| hi + 1);
        for (c, _) in &mut ray {
            *c = c.map(|c| c - start);
        }
        Self {
            taps,
            ray,
            span,
            view,
            find,
        }
    }

    /// Cast the rays of image row `py` into the (transparent) `row`.
    pub(crate) fn row(&self, tf: &TransferFunction, py: usize, row: &mut [[f64; 4]]) {
        let march = [Self::march::<0>, Self::march::<1>, Self::march::<2>];
        march[self.view.axis.dims().0](self, tf, py, row)
    }

    /// The cursor over the box holding lattice point `p`, from `p` on
    /// along axis `r`.
    #[cold]
    fn cursor(&self, p: [usize; 3], r: usize) -> Cursor<'a> {
        let (bbox, data) = (self.find)(p);
        let d = bbox.dims();
        Cursor {
            data: &data[bbox.local_index(p)..],
            end: bbox.hi[r],
            stride: [1, d[0], d[0] * d[1]][r],
        }
    }

    /// Copy the two columns at image-u coordinate `x` (one per v
    /// coordinate of `tv`) over `span` into corners `b` and `b | 2` of
    /// `cols`: `cols[c][k]` is the value at ray-axis coordinate
    /// `span.start + c` of image-plane corner `k` = (u bit) | (v bit) << 1.
    fn gather<const R: usize>(&self, x: usize, tv: &Tap, b: usize, cols: &mut [[f64; 4]]) {
        let (u, v) = [(1, 2), (0, 2), (0, 1)][R];
        for (k, y) in [(b, tv.0[0]), (b | 2, tv.0[1])] {
            let mut p = [0; 3];
            (p[u], p[v], p[R]) = (x, y, self.span.start);
            while p[R] < self.span.end {
                let cur = self.cursor(p, R);
                let end = cur.end.min(self.span.end);
                let run = &mut cols[p[R] - self.span.start..end - self.span.start];
                let values = cur.data.iter().step_by(cur.stride);
                for (col, &value) in run.iter_mut().zip(values) {
                    col[k] = value;
                }
                p[R] = end;
            }
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
        let mut cols = vec![[0.0f64; 4]; self.span.len()];
        // The image-u coordinates of the columns in `cols`: neighbouring
        // pixels share columns, so a ray gathers only those it lacks.
        let mut held = [usize::MAX; 2];
        for (tu, out) in self.taps[u].iter().zip(row) {
            let Some(tu) = tu else { continue };
            for (b, x) in tu.0.into_iter().enumerate() {
                if held[b] == x {
                    continue;
                } else if b == 0 && held[1] == x {
                    cols.iter_mut().for_each(|c| (c[0], c[2]) = (c[1], c[3]));
                } else {
                    self.gather::<R>(x, tv, b, &mut cols);
                }
                held[b] = x;
            }
            let mut rgba = [0.0f64; 4];
            for tr in &self.ray {
                if self.view.opacity_cutoff.is_some_and(|cut| rgba[3] >= cut) {
                    break;
                }
                let mut t = [tr; 3];
                (t[u], t[v]) = (tu, tv);
                let rows = [&cols[tr.0[0]], &cols[tr.0[1]]];
                let mut val = 0.0;
                for j in 0..8 {
                    let d = [j & 1, (j >> 1) & 1, j >> 2];
                    let w = t[0].1[d[0]] * t[1].1[d[1]] * t[2].1[d[2]];
                    val += w * rows[d[R]][d[u] | d[v] << 1];
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
