//! The per-sample renderers the separable marcher replaced, kept as its
//! oracle: `reference_render_block` and `reference_hybrid_render` are the
//! old `render_block` / `HybridRenderer::render` loops (whole view
//! geometry, ownership test, trilinear clamp and eight table lookups
//! recomputed for every sample), and the marcher must reproduce their
//! images **bit for bit** — pixels compared as `to_bits`, no tolerance,
//! so NaN pixels count too — on every axis, flip, step, cutoff, stride,
//! decomposition and view shape, over fields that may hold NaN, ±inf,
//! ±0, subnormals and values far outside the transfer range.

use proptest::prelude::*;
use sitra_mesh::{
    downsample, exchange_ghosts, sample_trilinear, BBox3, Decomposition, SampledBlock, ScalarField,
};
use sitra_sim::{SimConfig, Simulation, Variable};
use sitra_viz::{render_block, HybridRenderer, Image, TransferFunction, View, ViewAxis};

/// World position of sample `k` on pixel `(px, py)`.
fn view_sample_pos(view: &View, px: usize, py: usize, k: usize) -> [f64; 3] {
    let (r, u, v) = view.axis.dims();
    let du = view.domain.dims()[u] as f64 / view.width as f64;
    let dv = view.domain.dims()[v] as f64 / view.height as f64;
    let n = view.samples_per_ray();
    let ki = if view.flip { n - 1 - k } else { k };
    let mut pos = [0.0; 3];
    pos[u] = view.domain.lo[u] as f64 + (px as f64 + 0.5) * du;
    pos[v] = view.domain.lo[v] as f64 + (py as f64 + 0.5) * dv;
    pos[r] = view.domain.lo[r] as f64 + (ki as f64 + 0.5) * view.step;
    pos
}

/// Does the half-open box own this (possibly fractional) position?
fn owns(bbox: &BBox3, pos: [f64; 3]) -> bool {
    (0..3).all(|a| pos[a] >= bbox.lo[a] as f64 && pos[a] < bbox.hi[a] as f64)
}

/// Front-to-back accumulation of one ray from its per-sample values.
fn composite_ray(
    view: &View,
    tf: &TransferFunction,
    mut value_of: impl FnMut(usize) -> Option<f64>,
) -> [f64; 4] {
    let mut rgba = [0.0f64; 4];
    for k in 0..view.samples_per_ray() {
        if let Some(cut) = view.opacity_cutoff {
            if rgba[3] >= cut {
                break;
            }
        }
        let Some(val) = value_of(k) else { continue };
        let c = tf.sample(val);
        let a = 1.0 - (1.0 - c[3]).powf(view.step);
        let t = (1.0 - rgba[3]) * a;
        rgba[0] += t * c[0];
        rgba[1] += t * c[1];
        rgba[2] += t * c[2];
        rgba[3] += t;
    }
    rgba
}

fn reference_render_block(
    field: &ScalarField,
    owned: &BBox3,
    view: &View,
    tf: &TransferFunction,
) -> Image {
    let mut img = Image::new(view.width, view.height);
    for py in 0..view.height {
        for px in 0..view.width {
            *img.get_mut(px, py) = composite_ray(view, tf, |k| {
                let pos = view_sample_pos(view, px, py, k);
                owns(owned, pos).then(|| sample_trilinear(field, pos))
            });
        }
    }
    img
}

/// The old in-transit renderer: every corner of every sample finds its
/// block by scanning the bounds and recomputes its index in it.
struct ReferenceHybrid<'a> {
    blocks: &'a [SampledBlock],
    coarse_domain: BBox3,
}

impl ReferenceHybrid<'_> {
    fn value_at(&self, p: [usize; 3]) -> f64 {
        let b = self
            .blocks
            .iter()
            .find(|b| b.coarse_bbox.contains(p))
            .unwrap_or_else(|| panic!("coarse point {p:?} not covered by any block"));
        b.data[b.coarse_bbox.local_index(p)]
    }

    fn sample_coarse(&self, pos: [f64; 3]) -> f64 {
        let d = self.coarse_domain;
        let mut i0 = [0usize; 3];
        let mut frac = [0f64; 3];
        for a in 0..3 {
            let lo = d.lo[a] as f64;
            let hi = (d.hi[a] - 1) as f64;
            let x = pos[a].clamp(lo, hi);
            let base = x.floor();
            i0[a] = base as usize;
            if i0[a] + 1 >= d.hi[a] {
                i0[a] = d.hi[a] - 1;
                frac[a] = 0.0;
            } else {
                frac[a] = x - base;
            }
        }
        let mut acc = 0.0;
        for dz in 0..2usize {
            for dy in 0..2usize {
                for dx in 0..2usize {
                    let p = [
                        (i0[0] + dx).min(d.hi[0] - 1),
                        (i0[1] + dy).min(d.hi[1] - 1),
                        (i0[2] + dz).min(d.hi[2] - 1),
                    ];
                    let w = (if dx == 1 { frac[0] } else { 1.0 - frac[0] })
                        * (if dy == 1 { frac[1] } else { 1.0 - frac[1] })
                        * (if dz == 1 { frac[2] } else { 1.0 - frac[2] });
                    acc += w * self.value_at(p);
                }
            }
        }
        acc
    }
}

fn reference_hybrid_render(blocks: &[SampledBlock], view: &View, tf: &TransferFunction) -> Image {
    let coarse_domain = blocks
        .iter()
        .filter(|b| !b.coarse_bbox.is_empty())
        .map(|b| b.coarse_bbox)
        .reduce(|a, b| a.cover(&b))
        .expect("all blocks empty");
    let hr = ReferenceHybrid {
        blocks,
        coarse_domain,
    };
    let s = blocks[0].stride as f64;
    let mut img = Image::new(view.width, view.height);
    for py in 0..view.height {
        for px in 0..view.width {
            *img.get_mut(px, py) = composite_ray(view, tf, |k| {
                let pos = view_sample_pos(view, px, py, k);
                Some(hr.sample_coarse([pos[0] / s, pos[1] / s, pos[2] / s]))
            });
        }
    }
    img
}

/// Values that are not ordinary samples of a field in `[0, 1]`.
const SPECIALS: [f64; 12] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -2.5e-310,
    f64::MIN_POSITIVE,
    1e300,
    -1e300,
    7.5,
    -3.0,
];

/// A hash-noise field over `dims`, split `parts` ways (blocks may come
/// out thinner than the stride). About `specials` points in 64 are
/// replaced by one of [`SPECIALS`]; most cases draw none.
fn arb_field_decomp() -> impl Strategy<Value = (ScalarField, Decomposition)> {
    (
        prop::array::uniform3(3usize..11),
        prop::array::uniform3(1usize..4),
        0u64..1000,
        (0u64..64).prop_map(|s| s.saturating_sub(48)),
    )
        .prop_map(|(dims, parts, seed, specials)| {
            let g = BBox3::from_dims(dims);
            let f = ScalarField::from_fn(g, |p| {
                let h = (p[0] as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((p[1] as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
                    .wrapping_add((p[2] as u64).wrapping_mul(0x165667B19E3779F9))
                    .wrapping_mul(seed * 2 + 1);
                if (h >> 16) % 64 < specials {
                    SPECIALS[(h >> 24) as usize % SPECIALS.len()]
                } else {
                    ((h >> 40) % 1000) as f64 / 1000.0
                }
            });
            let parts = [0, 1, 2].map(|a| parts[a].min(dims[a]));
            (f, Decomposition::new(g, parts))
        })
}

/// Views of `g`: every axis and flip, the four steps, cutoff on and off,
/// image sizes that are not the domain's, and a zoomed sub-box.
fn arb_view(g: BBox3) -> impl Strategy<Value = View> {
    (
        prop_oneof![Just(ViewAxis::X), Just(ViewAxis::Y), Just(ViewAxis::Z)],
        any::<bool>(),
        prop_oneof![Just(1.0), Just(0.5), Just(0.7), Just(1.5)],
        prop_oneof![Just(None), Just(Some(0.6)), Just(Some(0.95))],
        (1usize..14, 1usize..14),
        any::<bool>(),
        prop::array::uniform3((0usize..4, 1usize..8)),
    )
        .prop_map(move |(axis, flip, step, cutoff, (w, h), zoom, sub)| {
            let mut view = View::full_res(g, axis, flip);
            if zoom {
                let (mut lo, mut hi) = (g.lo, g.hi);
                for a in 0..3 {
                    lo[a] = (g.lo[a] + sub[a].0).min(g.hi[a] - 1);
                    hi[a] = (lo[a] + sub[a].1).min(g.hi[a]);
                }
                view.domain = BBox3::new(lo, hi);
                (view.width, view.height) = (w, h);
            } else if w % 3 == 0 {
                // A third of the whole-domain views get an image that is not full-res.
                (view.width, view.height) = (w, h);
            }
            View {
                step,
                opacity_cutoff: cutoff,
                ..view
            }
        })
}

fn arb_case() -> impl Strategy<Value = (ScalarField, Decomposition, View)> {
    arb_field_decomp().prop_flat_map(|(f, d)| {
        let g = f.bbox();
        (Just(f), Just(d), arb_view(g))
    })
}

fn tf() -> TransferFunction {
    TransferFunction::hot(0.0, 1.0)
}

/// An image's pixels as bits: `==` on floats fails on NaN. Every NaN
/// maps to one value: Rust leaves the sign and payload of a NaN result
/// to the compiler's choice of operand order, and the oracle and the
/// marcher do choose differently.
fn bits(img: &Image) -> Vec<[u64; 4]> {
    let bits = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
    img.pixels().iter().map(|p| p.map(bits)).collect()
}

/// The in-transit marcher against the reference over `field` split
/// `parts` ways at `stride`.
fn check_hybrid(
    field: &ScalarField,
    parts: [usize; 3],
    stride: usize,
    view: &View,
    tf: &TransferFunction,
) {
    let d = Decomposition::new(field.bbox(), parts);
    let blocks: Vec<SampledBlock> = (0..d.rank_count())
        .map(|r| downsample(&field.extract(&d.block(r)), stride))
        .collect();
    let want = reference_hybrid_render(&blocks, view, tf);
    let got = HybridRenderer::new(blocks).render(view, tf);
    assert!(
        bits(&got) == bits(&want),
        "{parts:?} stride {stride} {view:?}"
    );
}

/// The `e2e` `viz-cluster3` shape: 40³ proxy temperature at step 5,
/// 2×2×1 ranks, stride 2, rays along z.
#[test]
fn in_transit_marcher_is_the_reference_at_the_e2e_shape() {
    let mut sim = Simulation::new(SimConfig::small([40; 3], 7));
    for _ in 0..5 {
        sim.advance();
    }
    let field = sim.block_field(Variable::Temperature, &sim.global());
    let view = View::full_res(field.bbox(), ViewAxis::Z, false);
    let tf = TransferFunction::hot(250.0, 2500.0);
    check_hybrid(&field, [2, 2, 1], 2, &view, &tf);
}

/// Four blocks along the ray axis at strides 2 and 3: every gathered
/// column crosses three seams, front to back and back to front.
#[test]
fn in_transit_marcher_is_the_reference_across_ray_axis_seams() {
    let field = ScalarField::from_fn(BBox3::from_dims([9, 7, 26]), |p| {
        ((p[0] * 7 + p[1] * 13 + p[2] * 29) % 31) as f64 / 31.0
    });
    for (stride, flip, step) in [(2, false, 1.0), (3, true, 0.5), (2, true, 0.7)] {
        let view = View {
            step,
            ..View::full_res(field.bbox(), ViewAxis::Z, flip)
        };
        check_hybrid(&field, [2, 1, 4], stride, &view, &tf());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn in_situ_marcher_is_the_reference_bit_for_bit((f, d, view) in arb_case()) {
        let blocks: Vec<ScalarField> =
            (0..d.rank_count()).map(|r| f.extract(&d.block(r))).collect();
        let (ghosted, _) = exchange_ghosts(&d, &blocks, 1);
        for (r, ghosted) in ghosted.iter().enumerate() {
            let owned = d.block(r);
            let got = render_block(ghosted, &owned, &view, &tf());
            let want = reference_render_block(ghosted, &owned, &view, &tf());
            prop_assert_eq!(bits(&got), bits(&want), "rank {} of {:?}", r, view);
        }
        // The whole field as one block (the serial path).
        let got = render_block(&f, &f.bbox(), &view, &tf());
        let want = reference_render_block(&f, &f.bbox(), &view, &tf());
        prop_assert_eq!(bits(&got), bits(&want), "serial {:?}", view);
    }

    #[test]
    fn in_transit_marcher_is_the_reference_bit_for_bit(
        (f, d, view) in arb_case(),
        stride in 1usize..5,
    ) {
        let blocks: Vec<SampledBlock> = (0..d.rank_count())
            .map(|r| downsample(&f.extract(&d.block(r)), stride))
            .collect();
        let want = reference_hybrid_render(&blocks, &view, &tf());
        let got = HybridRenderer::new(blocks).render(&view, &tf());
        prop_assert_eq!(bits(&got), bits(&want), "stride {} {:?}", stride, view);
    }
}
