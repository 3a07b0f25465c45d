//! The in-situ topology stage the packed-key sweep replaced, kept as its
//! oracle. `reference_rank_subtree` is the old `rank_subtree`: a sort
//! whose comparator rebuilds both `(value, id)` keys on every comparison,
//! a sweep that bounds-checks every neighbour axis by axis, and a
//! reduction that runs a `ranks_overlapping` query and allocates a
//! potential-source list for every vertex of the block. The new stage
//! must reproduce its `Subtree` **exactly** — `==` and identical
//! `encode_subtree` bytes — for both connectivities, both boundary
//! policies and every rank of every decomposition, thin blocks and
//! signed zeros included.

use proptest::prelude::*;
use sitra_core::wire::encode_subtree;
use sitra_mesh::{exchange_ghosts, BBox3, Decomposition, ScalarField};
use sitra_topology::distributed::{rank_subtree, BoundaryPolicy};
use sitra_topology::reduce::{Subtree, SubtreeVertex};
use sitra_topology::stream::SourceId;
use sitra_topology::types::sweep_before;
use sitra_topology::{Connectivity, VertexId};

const CONNS: [Connectivity; 2] = [Connectivity::Six, Connectivity::TwentySix];
const POLICIES: [BoundaryPolicy; 2] = [BoundaryPolicy::AllShared, BoundaryPolicy::BoundaryMaxima];

/// Neighbour offsets, rebuilt the way the old `Connectivity::offsets`
/// built them.
fn offsets(conn: Connectivity) -> Vec<[isize; 3]> {
    let mut v = Vec::new();
    for dz in -1isize..=1 {
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                let face = dx.abs() + dy.abs() + dz.abs() == 1;
                if (dx, dy, dz) != (0, 0, 0) && (face || conn == Connectivity::TwentySix) {
                    v.push([dx, dy, dz]);
                }
            }
        }
    }
    v
}

/// `q = p + d` if it lies inside `bbox`, checked axis by axis.
fn step(p: [usize; 3], d: [isize; 3], bbox: &BBox3) -> Option<[usize; 3]> {
    let mut q = [0usize; 3];
    for a in 0..3 {
        let c = p[a] as isize + d[a];
        if c < bbox.lo[a] as isize || c >= bbox.hi[a] as isize {
            return None;
        }
        q[a] = c as usize;
    }
    Some(q)
}

/// A plain union-find, independent of the crate's.
fn find(parent: &mut [u32], x: u32) -> u32 {
    let mut r = x;
    while parent[r as usize] != r {
        r = parent[r as usize];
    }
    parent[x as usize] = r;
    r
}

/// The old augmented join tree: `(down, up_count)` per local index.
fn reference_join_tree(
    field: &ScalarField,
    global: &BBox3,
    conn: Connectivity,
) -> (Vec<Option<u32>>, Vec<u32>) {
    let bbox = field.bbox();
    let n = field.len();
    let key = |i: u32| -> (f64, VertexId) {
        (
            field.get_linear(i as usize),
            global.local_index(bbox.coord_of(i as usize)) as VertexId,
        )
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (ka, kb) = (key(a), key(b));
        kb.0.partial_cmp(&ka.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(ka.1.cmp(&kb.1))
    });
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut lowest: Vec<u32> = (0..n as u32).collect();
    let mut down: Vec<Option<u32>> = vec![None; n];
    let mut up_count = vec![0u32; n];
    let mut processed = vec![false; n];
    for &v in &order {
        let p = bbox.coord_of(v as usize);
        for d in offsets(conn) {
            let Some(q) = step(p, d, &bbox) else { continue };
            let u = bbox.local_index(q) as u32;
            if !processed[u as usize] {
                continue;
            }
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru == rv {
                continue;
            }
            down[lowest[ru as usize] as usize] = Some(v);
            up_count[v as usize] += 1;
            parent[ru as usize] = rv;
            lowest[rv as usize] = v;
        }
        processed[v as usize] = true;
        let rv = find(&mut parent, v);
        lowest[rv as usize] = v;
    }
    (down, up_count)
}

/// The old `is_restricted_maximum`, on global coordinates.
fn reference_restricted_maximum(
    field: &ScalarField,
    global: &BBox3,
    region: &BBox3,
    p: [usize; 3],
    conn: Connectivity,
) -> bool {
    let kp = (field.get(p), global.local_index(p) as u64);
    offsets(conn)
        .into_iter()
        .filter_map(|d| step(p, d, region))
        .all(|q| !sweep_before((field.get(q), global.local_index(q) as u64), kp))
}

/// The old `rank_subtree`: join tree, then a per-vertex sharing query
/// and the reduction to critical and kept interface vertices.
fn reference_rank_subtree(
    decomp: &Decomposition,
    rank: usize,
    field: &ScalarField,
    conn: Connectivity,
    policy: BoundaryPolicy,
) -> Subtree {
    let global = decomp.global();
    let bbox = field.bbox();
    let (down, up_count) = reference_join_tree(field, &global, conn);
    let n = field.len();
    let id = |i: usize| global.local_index(bbox.coord_of(i)) as VertexId;
    let source = rank as SourceId;
    let mut keep = vec![false; n];
    let mut potential: Vec<Option<Vec<SourceId>>> = vec![None; n];
    for i in 0..n {
        let p = bbox.coord_of(i);
        let probe = BBox3::new(p, [p[0] + 1, p[1] + 1, p[2] + 1]).grow_clamped(1, &global);
        let mut pot = vec![source];
        let mut shared_keep = false;
        for (s, _) in decomp.ranks_overlapping(&probe) {
            if s == rank {
                continue;
            }
            pot.push(s as SourceId);
            let region = decomp
                .block(s)
                .grow_clamped(1, &global)
                .intersect(&bbox)
                .expect("ghosted boxes of sharing ranks overlap");
            shared_keep |= match policy {
                BoundaryPolicy::AllShared => true,
                BoundaryPolicy::BoundaryMaxima => {
                    reference_restricted_maximum(field, &global, &region, p, conn)
                }
            };
        }
        let critical = up_count[i] != 1 || down[i].is_none();
        if shared_keep || critical {
            keep[i] = true;
            pot.sort_unstable();
            pot.dedup();
            potential[i] = Some(pot);
        }
    }
    let mut edges = Vec::new();
    let mut degree = vec![0u32; n];
    for i in (0..n).filter(|&i| keep[i]) {
        let mut cur = down[i];
        while let Some(c) = cur {
            if keep[c as usize] {
                edges.push((id(i), id(c as usize)));
                degree[i] += 1;
                degree[c as usize] += 1;
                break;
            }
            cur = down[c as usize];
        }
    }
    let verts = (0..n)
        .filter(|&i| keep[i])
        .map(|i| SubtreeVertex {
            id: id(i),
            value: field.get_linear(i),
            degree: degree[i],
            potential: potential[i]
                .take()
                .expect("kept vertex has a potential set"),
            pinned: false,
        })
        .collect();
    Subtree {
        source,
        verts,
        edges,
    }
}

/// Every rank's subtree under every connectivity and policy must match
/// the reference exactly.
fn check_all_ranks(whole: &ScalarField, d: &Decomposition) -> Result<(), TestCaseError> {
    let blocks: Vec<ScalarField> = (0..d.rank_count())
        .map(|r| whole.extract(&d.block(r)))
        .collect();
    let (ghosted, _) = exchange_ghosts(d, &blocks, 1);
    for conn in CONNS {
        for policy in POLICIES {
            for (r, g) in ghosted.iter().enumerate() {
                let got = rank_subtree(d, r, g, conn, policy);
                let want = reference_rank_subtree(d, r, g, conn, policy);
                prop_assert_eq!(&got, &want, "rank {} {:?} {:?}", r, conn, policy);
                prop_assert_eq!(encode_subtree(&got), encode_subtree(&want));
            }
        }
    }
    Ok(())
}

/// The tie-heavy generator of `proptests.rs` (few distinct values, thin
/// blocks), with the option of giving each zero a hashed sign so that
/// `0.0` and `-0.0` meet in one field.
fn field_and_decomp() -> impl Strategy<Value = (ScalarField, Decomposition)> {
    (
        (2usize..8, 2usize..7, 2usize..6),
        (1usize..4, 1usize..3, 1usize..3),
        2u64..=u64::MAX,
        2usize..12,
        any::<bool>(),
    )
        .prop_map(|((nx, ny, nz), (px, py, pz), seed, nvals, signed_zeros)| {
            let g = BBox3::from_dims([nx, ny, nz]);
            let f = ScalarField::from_fn(g, |p| {
                let h = (p[0] as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((p[1] as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
                    .wrapping_add((p[2] as u64).wrapping_mul(0x165667B19E3779F9))
                    .wrapping_mul(seed | 1);
                let v = ((h >> 32) % nvals as u64) as f64;
                if signed_zeros && v == 0.0 && h & 1 == 1 {
                    -0.0
                } else {
                    v
                }
            });
            let d = Decomposition::new(g, [px.min(nx), py.min(ny), pz.min(nz)]);
            (f, d)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank_subtree_matches_reference((f, d) in field_and_decomp()) {
        check_all_ranks(&f, &d)?;
    }
}

/// A smooth field at the `topo-local` rank layout (2×2×1), large enough
/// that most of each block lies in no other rank's ghosted box.
#[test]
fn smooth_field_matches_reference_at_2x2x1() {
    let g = BBox3::from_dims([20, 18, 12]);
    let whole = ScalarField::from_fn(g, |p| {
        let (x, y, z) = (p[0] as f64, p[1] as f64, p[2] as f64);
        (0.7 * x).sin() * (0.5 * y).cos() + (0.9 * z).sin()
    });
    check_all_ranks(&whole, &Decomposition::new(g, [2, 2, 1])).unwrap();
}

/// Zeros of both signs over a smooth field, on a decomposition with
/// one-point-thin blocks.
#[test]
fn signed_zero_plateau_matches_reference() {
    let g = BBox3::from_dims([9, 7, 5]);
    let whole = ScalarField::from_fn(g, |p| {
        let v = ((p[0] * 3 + p[1] * 5 + p[2] * 7) % 4) as f64 - 1.0;
        match (v == 0.0, (p[0] + p[1] + p[2]) % 2) {
            (true, 1) => -0.0,
            _ => v,
        }
    });
    check_all_ranks(&whole, &Decomposition::new(g, [9, 2, 1])).unwrap();
}
