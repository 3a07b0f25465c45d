//! End-to-end distributed merge tree: the full hybrid pipeline in one
//! call, used both by the framework driver and by correctness tests.

use crate::local::augmented_join_tree;
use crate::reduce::{reduce_to_subtree, InterfaceInfo, Subtree};
use crate::stream::{SourceId, StreamStats, StreamingMergeTree};
use crate::tree::MergeTree;
use crate::types::{sweep_key, Connectivity, Stencil};
use rayon::prelude::*;
use sitra_mesh::{BBox3, Decomposition, ScalarField};

/// Which interface vertices each rank keeps in its subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryPolicy {
    /// Keep every vertex contained in another rank's ghosted region.
    /// Larger payload, trivially sound.
    AllShared,
    /// Keep, per neighbor pair, only the maxima of the field restricted
    /// to the pair's overlap region — the paper's "maxima restricted to
    /// boundary components" (corner regions arise as diagonal-neighbor
    /// overlaps). Much smaller payload.
    BoundaryMaxima,
}

/// Data-movement and memory accounting of one distributed computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistributedStats {
    /// Total intermediate vertices across all subtrees.
    pub subtree_verts: usize,
    /// Total intermediate edges across all subtrees.
    pub subtree_edges: usize,
    /// Total intermediate bytes moved to the staging area.
    pub bytes_moved: usize,
    /// Streaming-stage statistics.
    pub stream: StreamStats,
}

/// Is local vertex `i` (at `p`) a maximum of `field` restricted to
/// `region` in sweep order? Local index order is global id order, so it
/// breaks ties exactly as the id does.
fn is_restricted_maximum(
    field: &ScalarField,
    stencil: &Stencil,
    region: &BBox3,
    i: usize,
    p: [usize; 3],
) -> bool {
    let key = |j: usize| (sweep_key(field.get_linear(j)), j);
    let ki = key(i);
    let class = Stencil::class(p, region);
    stencil.neighbors(i, class).all(|j| key(j) > ki)
}

/// Does `f` hold for some rank coordinate of the box whose per-axis
/// inclusive ranges are `r`? Visits them x fastest.
fn any_in(r: [[usize; 2]; 3], mut f: impl FnMut([usize; 3]) -> bool) -> bool {
    for z in r[2][0]..=r[2][1] {
        for y in r[1][0]..=r[1][1] {
            for x in r[0][0]..=r[0][1] {
                if f([x, y, z]) {
                    return true;
                }
            }
        }
    }
    false
}

/// Compute each rank's in-situ subtree from its ghosted block.
///
/// `ghosted[r]` must cover `decomp.block(r).grow_clamped(1, global)` (see
/// [`sitra_mesh::exchange_ghosts`]); blocks then overlap by one vertex
/// layer, so the union of the local graphs is the global grid graph.
pub fn in_situ_subtrees(
    decomp: &Decomposition,
    ghosted: &[ScalarField],
    conn: Connectivity,
    policy: BoundaryPolicy,
) -> Vec<Subtree> {
    (0..decomp.rank_count())
        .into_par_iter()
        .map(|rank| rank_subtree(decomp, rank, &ghosted[rank], conn, policy))
        .collect()
}

/// One rank's in-situ topology stage: local tree + reduction. `field`
/// must cover the rank's block grown by a one-point halo.
pub fn rank_subtree(
    decomp: &Decomposition,
    rank: usize,
    field: &ScalarField,
    conn: Connectivity,
    policy: BoundaryPolicy,
) -> Subtree {
    let global = decomp.global();
    let gbox = field.bbox();
    assert_eq!(
        gbox,
        decomp.block(rank).grow_clamped(1, &global),
        "rank {rank}: ghosted field does not match block"
    );
    let tree = augmented_join_tree(field, &global, conn);
    // Potential declarers of `p`: every rank whose ghosted box contains
    // it (they might keep it as a critical point of their local tree even
    // if it is not an interface vertex). That is every rank whose block
    // meets `[p - 1, p + 1]` on each axis, so per axis coordinate there is
    // one range of block indices, and the declarers are the product of
    // `p`'s three ranges — ranks beyond the 26-neighborhood included when
    // blocks are thinner than the halo. Every rank derives the same set,
    // so the sets agree at the aggregator.
    let block_at = |a: usize, x: usize| {
        let mut q = global.lo;
        q[a] = x.clamp(global.lo[a], global.hi[a] - 1);
        decomp.coords_of_rank(decomp.rank_of_point(q))[a]
    };
    let ranges: [Vec<[usize; 2]>; 3] = std::array::from_fn(|a| {
        let range = |x: usize| [block_at(a, x.saturating_sub(1)), block_at(a, x + 1)];
        (gbox.lo[a]..gbox.hi[a]).map(range).collect()
    });
    let own = decomp.coords_of_rank(rank);
    // Every rank a shell point can name, as a box of rank coordinates,
    // with its overlap region with this block: the pair region in which
    // both ranks of the pair compute the identical restricted maxima.
    // (`block_at` ascends with the coordinate, so the first and last
    // ranges bound the rest.)
    let near = BBox3::new(
        std::array::from_fn(|a| ranges[a][0][0]),
        std::array::from_fn(|a| ranges[a][ranges[a].len() - 1][1] + 1),
    );
    let sharers: Vec<(usize, Option<BBox3>)> = near
        .iter()
        .map(|c| decomp.rank_of_coords(c))
        .map(|s| (s, decomp.block(s).grow_clamped(1, &global).intersect(&gbox)))
        .collect();
    // Per coordinate, x's then y's then z's: does another rank see it?
    let [nx, ny, _] = gbox.dims();
    let seen: Vec<bool> = (0..3)
        .flat_map(|a| ranges[a].iter().map(move |r| *r != [own[a]; 2]))
        .collect();
    let stencil = Stencil::new(conn, &gbox);
    reduce_to_subtree(&tree, field, rank as SourceId, |p, critical| {
        let q = [0, 1, 2].map(|a| p[a] - gbox.lo[a]);
        if !(seen[q[0]] | seen[nx + q[1]] | seen[nx + ny + q[2]]) {
            return None; // Off the shared shell: no other rank sees `p`.
        }
        let r: [[usize; 2]; 3] = std::array::from_fn(|a| ranges[a][q[a]]);
        let sharer = |c: [usize; 3]| sharers[near.local_index(c)];
        let keep = any_in(r, |c| {
            let (s, region) = sharer(c);
            s != rank
                && (policy == BoundaryPolicy::AllShared || {
                    let region = region.expect("ghosted boxes of sharing ranks overlap");
                    is_restricted_maximum(field, &stencil, &region, gbox.local_index(p), p)
                })
        });
        if !(keep || critical) {
            return None; // Dropped either way: skip the list.
        }
        let len: usize = r.iter().map(|r| r[1] - r[0] + 1).product();
        let mut list = Vec::with_capacity(len + 1);
        any_in(r, |c| {
            list.push(sharer(c).0 as SourceId);
            false
        });
        Some(InterfaceInfo {
            potential: list,
            keep,
        })
    })
}

/// Glue subtrees in-transit (any order) into the global merge tree.
pub fn glue_subtrees(subtrees: &[Subtree]) -> (MergeTree, StreamStats) {
    let mut s = StreamingMergeTree::new();
    for sub in subtrees {
        sub.stream_into(&mut s);
    }
    s.finish()
}

/// The whole hybrid pipeline: ghost exchange → per-rank in-situ subtrees
/// (in parallel) → streaming in-transit gluing. `fields[r]` covers exactly
/// `decomp.block(r)`.
pub fn distributed_merge_tree(
    decomp: &Decomposition,
    fields: &[ScalarField],
    conn: Connectivity,
    policy: BoundaryPolicy,
) -> (MergeTree, DistributedStats) {
    let (ghosted, _) = sitra_mesh::exchange_ghosts(decomp, fields, 1);
    let subtrees = in_situ_subtrees(decomp, &ghosted, conn, policy);
    let mut stats = DistributedStats::default();
    for s in &subtrees {
        stats.subtree_verts += s.verts.len();
        stats.subtree_edges += s.edges.len();
        stats.bytes_moved += s.bytes();
    }
    let (tree, stream) = glue_subtrees(&subtrees);
    stats.stream = stream;
    (tree, stats)
}

/// The split tree (sublevel-set merge tree) of a field: leaves are
/// *minima*, arcs merge as the isovalue rises.
///
/// Implemented as the join tree of the negated field, so **node values in
/// the returned tree are negated** (`tree value = −f`); ids are
/// unchanged. Persistence and structure queries work directly; translate
/// values back with a sign flip. The distributed pipeline handles split
/// trees the same way — negate the field before the in-situ stage.
pub fn serial_split_tree(field: &ScalarField, conn: Connectivity) -> MergeTree {
    let mut neg = field.clone();
    neg.map_in_place(|v| -v);
    serial_merge_tree(&neg, conn)
}

/// Serial reference: the merge tree of the whole domain in one piece.
pub fn serial_merge_tree(field: &ScalarField, conn: Connectivity) -> MergeTree {
    let global = field.bbox();
    let t = augmented_join_tree(field, &global, conn);
    let v = field.as_slice();
    MergeTree::from_forest(v.len(), |i| {
        Some((t.vertex_id(i), v[i as usize], t.down_of(i), 0))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_field(b: BBox3, salt: usize) -> ScalarField {
        ScalarField::from_fn(b, |p| {
            ((p[0].wrapping_mul(2654435761)
                ^ p[1].wrapping_mul(40503)
                ^ p[2].wrapping_mul(2246822519)
                ^ salt.wrapping_mul(97))
                % 1013) as f64
        })
    }

    fn check(dims: [usize; 3], parts: [usize; 3], conn: Connectivity, salt: usize) {
        let g = BBox3::from_dims(dims);
        let whole = hash_field(g, salt);
        let d = Decomposition::new(g, parts);
        let fields: Vec<ScalarField> = (0..d.rank_count())
            .map(|r| whole.extract(&d.block(r)))
            .collect();
        let serial = serial_merge_tree(&whole, conn);
        for policy in [BoundaryPolicy::AllShared, BoundaryPolicy::BoundaryMaxima] {
            let (dist, stats) = distributed_merge_tree(&d, &fields, conn, policy);
            assert_eq!(
                dist.canonical(),
                serial.canonical(),
                "{dims:?} {parts:?} {policy:?}"
            );
            assert!(stats.bytes_moved > 0);
        }
    }

    #[test]
    fn distributed_equals_serial_2x1x1() {
        check([10, 6, 5], [2, 1, 1], Connectivity::Six, 1);
    }

    #[test]
    fn distributed_equals_serial_2x2x2() {
        check([8, 8, 8], [2, 2, 2], Connectivity::Six, 2);
    }

    #[test]
    fn distributed_equals_serial_26conn() {
        check([9, 7, 6], [3, 2, 2], Connectivity::TwentySix, 3);
    }

    #[test]
    fn distributed_equals_serial_uneven() {
        check([11, 7, 5], [4, 3, 1], Connectivity::Six, 4);
    }

    #[test]
    fn constant_field_distributed() {
        let g = BBox3::from_dims([6, 6, 6]);
        let whole = ScalarField::new_fill(g, 1.0);
        let d = Decomposition::new(g, [2, 2, 1]);
        let fields: Vec<ScalarField> = (0..d.rank_count())
            .map(|r| whole.extract(&d.block(r)))
            .collect();
        let serial = serial_merge_tree(&whole, Connectivity::Six);
        for policy in [BoundaryPolicy::AllShared, BoundaryPolicy::BoundaryMaxima] {
            let (dist, _) = distributed_merge_tree(&d, &fields, Connectivity::Six, policy);
            assert_eq!(dist.canonical(), serial.canonical(), "{policy:?}");
            assert_eq!(dist.maxima().len(), 1);
        }
    }

    #[test]
    fn boundary_maxima_moves_less_data() {
        let g = BBox3::from_dims([24, 24, 24]);
        let whole = ScalarField::from_fn(g, |p| {
            let x = p[0] as f64 / 24.0;
            let y = p[1] as f64 / 24.0;
            let z = p[2] as f64 / 24.0;
            (6.3 * x).sin() + (6.3 * y).cos() * (3.1 * z).sin()
        });
        let d = Decomposition::new(g, [2, 2, 2]);
        let fields: Vec<ScalarField> = (0..d.rank_count())
            .map(|r| whole.extract(&d.block(r)))
            .collect();
        let (t1, all) =
            distributed_merge_tree(&d, &fields, Connectivity::Six, BoundaryPolicy::AllShared);
        let (t2, maxima) = distributed_merge_tree(
            &d,
            &fields,
            Connectivity::Six,
            BoundaryPolicy::BoundaryMaxima,
        );
        assert_eq!(t1.canonical(), t2.canonical());
        assert!(
            maxima.bytes_moved * 3 < all.bytes_moved,
            "maxima policy {} vs all-shared {}",
            maxima.bytes_moved,
            all.bytes_moved
        );
        // And for a smooth field the reduced payload is far below raw.
        let raw_bytes = g.count() * 8;
        assert!(
            maxima.bytes_moved * 10 < raw_bytes,
            "moved {} of {} raw bytes",
            maxima.bytes_moved,
            raw_bytes
        );
    }

    #[test]
    fn split_tree_leaves_are_minima() {
        // 1D: 5 1 4 0 3 — minima at positions 1 and 3.
        let b = BBox3::from_dims([5, 1, 1]);
        let f = ScalarField::from_vec(b, vec![5.0, 1.0, 4.0, 0.0, 3.0]);
        let split = serial_split_tree(&f, Connectivity::Six);
        let mut leaves = split.maxima();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![1, 3]);
        // Split-tree leaf values are the negated field values.
        assert_eq!(split.value(3), Some(-0.0));
        // Join tree of the same field has maxima elsewhere.
        let join = serial_merge_tree(&f, Connectivity::Six);
        let mut peaks = join.maxima();
        peaks.sort_unstable();
        assert_eq!(peaks, vec![0, 2, 4]);
    }

    #[test]
    fn streaming_memory_stays_bounded() {
        let g = BBox3::from_dims([20, 20, 10]);
        let whole = hash_field(g, 9);
        let d = Decomposition::new(g, [2, 2, 1]);
        let fields: Vec<ScalarField> = (0..d.rank_count())
            .map(|r| whole.extract(&d.block(r)))
            .collect();
        let (_, stats) = distributed_merge_tree(
            &d,
            &fields,
            Connectivity::Six,
            BoundaryPolicy::BoundaryMaxima,
        );
        // The gluer never holds anywhere near the full vertex set.
        assert!(stats.stream.peak_live <= stats.subtree_verts);
        assert!(stats.stream.evicted > 0);
    }
}
