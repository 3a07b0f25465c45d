//! The in-situ stage: augmented join tree of one block.
//!
//! This is the paper's adaptation of the Carr–Snoeyink–Axen algorithm: a
//! low-overhead, in-core sweep that sorts the block's vertices by value
//! and grows superlevel-set components with a union-find, recording for
//! every vertex the next vertex downward in its component — the
//! *augmented* join tree (every grid point appears as a tree node).
//!
//! The sort makes the algorithm ill-suited to a global distributed
//! solution (as the paper notes), but on a single rank's block it is fast
//! and cache-friendly; the result is immediately sparsified by
//! [`crate::reduce`] before leaving the node.
//!
//! Each vertex's sort key is computed once: a `u64` that ascends as the
//! value descends ([`crate::types::sweep_after`] says what it does with
//! `-0.0` and NaN). Within one box, local index order is global id
//! order, so ascending `(key, local index)` is the global sweep order
//! restricted to the block; a stable radix sort of the keys over
//! ascending indices produces it without a comparison. The sweep then
//! reads one mask byte per vertex: six bits say which face neighbours lie
//! in the box and pick that class's neighbour strides (one table for
//! either connectivity), and the top bit says the vertex is swept.

use crate::types::{sweep_key, Connectivity, Stencil, UnionFind, VertexId};
use sitra_mesh::{BBox3, ScalarField};

/// The mask bit of a vertex the sweep has passed (above the class bits).
const PROCESSED: u8 = 0x80;

/// `AugmentedTree::down` of a vertex with no vertex below it.
pub const NO_DOWN: u32 = u32::MAX;

/// The augmented join tree of one block: for every local vertex, the next
/// vertex strictly downward in the sweep, or [`NO_DOWN`] for the block's
/// lowest vertex of its component.
#[derive(Debug, Clone)]
pub struct AugmentedTree {
    /// The region the tree covers (a ghosted block, or the whole domain).
    pub bbox: BBox3,
    /// The global domain, defining vertex ids.
    pub global: BBox3,
    /// Down pointer per local linear index.
    pub down: Vec<u32>,
    /// Number of tree children (up-arcs) per local linear index.
    pub up_count: Vec<u32>,
}

impl AugmentedTree {
    /// The down pointer of a local vertex, `None` at a root.
    #[inline]
    pub fn down_of(&self, local: u32) -> Option<u32> {
        Some(self.down[local as usize]).filter(|&d| d != NO_DOWN)
    }

    /// Global vertex id of a local index.
    #[inline]
    pub fn vertex_id(&self, local: u32) -> VertexId {
        self.global.local_index(self.bbox.coord_of(local as usize)) as VertexId
    }

    /// True if the local vertex is a leaf (local maximum of the block).
    #[inline]
    pub fn is_leaf(&self, local: u32) -> bool {
        self.up_count[local as usize] == 0
    }

    /// True if the local vertex is critical in this block's tree:
    /// a leaf (maximum), a merge saddle, or a component root.
    #[inline]
    pub fn is_critical(&self, local: u32) -> bool {
        self.up_count[local as usize] != 1 || self.down[local as usize] == NO_DOWN
    }

    /// Iterate the local indices of all critical vertices.
    pub fn criticals(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.down.len() as u32).filter(|&i| self.is_critical(i))
    }
}

/// Attaches the growth point `l` of a component reaching down to `v`.
#[inline]
fn attach(down: &mut [u32], l: u32, v: u32) {
    debug_assert_eq!(down[l as usize], NO_DOWN);
    down[l as usize] = v;
}

/// The sweep order of `values`: local indices by ascending
/// `(sweep_key(value), index)`.
///
/// A stable least-significant-digit radix sort of the keys, 8 bits a
/// pass. One pass over the keys builds every digit's histogram; a digit
/// that is the same in every key is skipped. Each pass moves only the
/// `u32` indices and reads the keys through them, so the scratch is the
/// keys and two index arrays. The indices start ascending, and stability
/// keeps them so within equal keys: the index is the tie-break.
fn sweep_order(values: &[f64]) -> Vec<u32> {
    let digit = |k: u64, d: usize| (k >> (8 * d)) as u8 as usize;
    let mut counts = [[0u32; 256]; 8];
    let keys: Vec<u64> = values
        .iter()
        .map(|&v| {
            let k = sweep_key(v);
            for (d, count) in counts.iter_mut().enumerate() {
                count[digit(k, d)] += 1;
            }
            k
        })
        .collect();
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    let mut spare = vec![0; keys.len()];
    for (d, count) in counts.iter().enumerate() {
        if count[digit(keys[0], d)] as usize == keys.len() {
            continue;
        }
        let mut next = [0u32; 256];
        let mut sum = 0;
        for (next, &c) in next.iter_mut().zip(count) {
            (*next, sum) = (sum, sum + c);
        }
        for &i in &order {
            let b = digit(keys[i as usize], d);
            spare[next[b] as usize] = i;
            next[b] += 1;
        }
        std::mem::swap(&mut order, &mut spare);
    }
    order
}

/// Compute the augmented join tree of `field` under `conn` connectivity.
///
/// `global` is the full domain (defines vertex ids and hence the global
/// sweep order; ties in value are broken by id so the result is the tree
/// of an effectively injective function).
pub fn augmented_join_tree(
    field: &ScalarField,
    global: &BBox3,
    conn: Connectivity,
) -> AugmentedTree {
    let bbox = field.bbox();
    let n = field.len();
    assert!(n > 0, "empty block");
    assert!(
        global.contains_box(&bbox),
        "block {bbox:?} outside global domain {global:?}"
    );

    let order = sweep_order(field.as_slice());
    let key = |i: usize| (sweep_key(field.get_linear(i)), i);
    let mut uf = UnionFind::new(n);
    // Per component root: the most recently swept vertex (the current
    // "growth point" the next arc will attach to).
    let mut lowest: Vec<u32> = vec![0; n];
    let mut down: Vec<u32> = vec![NO_DOWN; n];
    let mut up_count: Vec<u32> = vec![0; n];
    // Per vertex: its stencil class, and `PROCESSED` once swept.
    let mut mask = Stencil::classes(&bbox);

    let stencil = Stencil::new(conn, &bbox);
    for &v in &order {
        let strides = stencil.strides(mask[v as usize]);
        let at = |k: u32| (v as usize).wrapping_add_signed(strides[k as usize]);
        // Which neighbours are swept, gathered without a branch each (it
        // is a coin toss the branch predictor loses).
        let mut swept = strides.iter().enumerate().fold(0u32, |bits, (k, &s)| {
            let u = (v as usize).wrapping_add_signed(s);
            bits | ((mask[u] & PROCESSED) as u32) >> 7 << k
        });
        mask[v as usize] |= PROCESSED;
        if swept == 0 {
            lowest[v as usize] = v; // A maximum starts a component.
            continue;
        }
        // The first swept neighbour's component takes `v` in: `v` is
        // still a singleton, so it cannot share that set yet.
        let u = at(swept.trailing_zeros());
        swept &= swept - 1;
        debug_assert!(key(u) < key(v as usize));
        let mut rv = uf.find(u as u32);
        attach(&mut down, lowest[rv as usize], v);
        uf.adopt(rv, v);
        let mut ups = 1;
        while swept != 0 {
            let u = at(swept.trailing_zeros()) as u32;
            swept &= swept - 1;
            if uf.under(u, rv) {
                continue;
            }
            let ru = uf.find(u);
            if ru != rv {
                attach(&mut down, lowest[ru as usize], v);
                rv = uf.link(ru, rv);
                ups += 1;
            }
        }
        up_count[v as usize] = ups;
        lowest[rv as usize] = v;
    }

    AugmentedTree {
        bbox,
        global: *global,
        down,
        up_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::sweep_before;

    fn tree_of(values: Vec<f64>, dims: [usize; 3], conn: Connectivity) -> AugmentedTree {
        let b = BBox3::from_dims(dims);
        let f = ScalarField::from_vec(b, values);
        augmented_join_tree(&f, &b, conn)
    }

    #[test]
    fn monotone_ramp_is_a_path() {
        // 1D ramp: single maximum at the top, every vertex chains down.
        let t = tree_of(
            (0..8).map(|i| i as f64).collect(),
            [8, 1, 1],
            Connectivity::Six,
        );
        let leaves: Vec<u32> = (0..8).filter(|&i| t.is_leaf(i)).collect();
        assert_eq!(leaves, vec![7]);
        // Chain: 7 -> 6 -> ... -> 0, root at 0.
        for i in 1..8u32 {
            assert_eq!(t.down_of(i), Some(i - 1));
        }
        assert_eq!(t.down_of(0), None);
        assert_eq!(t.criticals().count(), 2); // leaf + root
    }

    #[test]
    fn two_peaks_merge_at_saddle() {
        // Values: 5 1 4  => maxima at 0 and 2, saddle at 1 (root).
        let t = tree_of(vec![5.0, 1.0, 4.0], [3, 1, 1], Connectivity::Six);
        assert!(t.is_leaf(0));
        assert!(t.is_leaf(2));
        assert_eq!(t.down_of(0), Some(1));
        assert_eq!(t.down_of(2), Some(1));
        assert_eq!(t.up_count[1], 2);
        assert_eq!(t.down_of(1), None); // saddle is also the global min/root
    }

    #[test]
    fn w_profile() {
        // 5 1 4 0 3: maxima 0,2,4; merges at 1 then 3.
        let t = tree_of(vec![5.0, 1.0, 4.0, 0.0, 3.0], [5, 1, 1], Connectivity::Six);
        assert_eq!((0..5).filter(|&i| t.is_leaf(i)).count(), 3);
        assert_eq!(t.up_count[1], 2); // 5-peak and 4-peak merge at 1
        assert_eq!(t.up_count[3], 2); // that component and the 3-peak merge at 0... at 3
        assert_eq!(t.down_of(1), Some(3));
        assert_eq!(t.down_of(4), Some(3));
        assert_eq!(t.down_of(3), None);
    }

    #[test]
    fn constant_field_single_leaf_by_tiebreak() {
        let t = tree_of(vec![2.0; 27], [3, 3, 3], Connectivity::TwentySix);
        // Tie-break by id: vertex 0 is highest, the only leaf.
        let leaves: Vec<u32> = (0..27).filter(|&i| t.is_leaf(i)).collect();
        assert_eq!(leaves, vec![0]);
        // Exactly one root.
        assert_eq!((0..27).filter(|&i| t.down_of(i).is_none()).count(), 1);
    }

    #[test]
    fn down_pointers_descend_in_sweep_order() {
        let b = BBox3::from_dims([4, 4, 4]);
        let f = ScalarField::from_fn(b, |p| ((p[0] * 7 + p[1] * 13 + p[2] * 29) % 11) as f64);
        let t = augmented_join_tree(&f, &b, Connectivity::Six);
        for i in 0..f.len() as u32 {
            if let Some(d) = t.down_of(i) {
                let ki = (f.get_linear(i as usize), t.vertex_id(i));
                let kd = (f.get_linear(d as usize), t.vertex_id(d));
                assert!(sweep_before(ki, kd), "down must strictly descend");
            }
        }
        // up_count consistency.
        let mut counts = vec![0u32; f.len()];
        for i in 0..f.len() as u32 {
            if let Some(d) = t.down_of(i) {
                counts[d as usize] += 1;
            }
        }
        assert_eq!(counts, t.up_count);
    }

    #[test]
    fn tree_has_n_minus_components_edges() {
        // A connected grid block yields exactly one root and n-1 edges.
        let b = BBox3::from_dims([5, 3, 2]);
        let f = ScalarField::from_fn(b, |p| ((p[0] * 31 + p[1] * 17 + p[2] * 5) % 13) as f64);
        let t = augmented_join_tree(&f, &b, Connectivity::Six);
        let edges = t.down.iter().filter(|&&d| d != NO_DOWN).count();
        let roots = t.down.iter().filter(|&&d| d == NO_DOWN).count();
        assert_eq!(roots, 1);
        assert_eq!(edges, f.len() - 1);
    }

    #[test]
    fn connectivity_changes_maxima() {
        // A diagonal pair is connected under 26- but not 6-connectivity.
        //   values: 1 0
        //           0 1   (z = 1 slab of zeros keeps it 3D-valid)
        let b = BBox3::from_dims([2, 2, 1]);
        let f = ScalarField::from_vec(b, vec![1.0, 0.0, 0.0, 1.0]);
        let t6 = augmented_join_tree(&f, &b, Connectivity::Six);
        let t26 = augmented_join_tree(&f, &b, Connectivity::TwentySix);
        let leaves6 = (0..4).filter(|&i| t6.is_leaf(i)).count();
        let leaves26 = (0..4).filter(|&i| t26.is_leaf(i)).count();
        assert_eq!(leaves6, 2);
        // Under 26-connectivity the two 1.0s are adjacent: one leaf.
        assert_eq!(leaves26, 1);
    }

    /// Down pointers strictly descend in the sweep (by key, then id),
    /// `up_count` counts them, and there are `n - roots` edges. Returns
    /// the roots.
    fn assert_valid_tree(f: &ScalarField, t: &AugmentedTree) -> Vec<u32> {
        let key = |i: u32| (sweep_key(f.get_linear(i as usize)), t.vertex_id(i));
        let mut counts = vec![0u32; f.len()];
        let mut roots = Vec::new();
        for i in 0..f.len() as u32 {
            match t.down_of(i) {
                Some(d) => {
                    assert!(key(i) < key(d), "down of {i} must strictly descend");
                    counts[d as usize] += 1;
                }
                None => roots.push(i),
            }
        }
        assert_eq!(counts, t.up_count);
        let edges = t.down.iter().filter(|&&d| d != NO_DOWN).count();
        assert_eq!(edges, f.len() - roots.len());
        roots
    }

    #[test]
    fn nan_is_swept_last_in_id_order() {
        // 3 NaN 5 NaN 1: the real values are swept first (5, 3, 1), then
        // the NaNs by id; the first NaN joins the 3- and 5-peaks, the last
        // one joins that component to the 1-peak and is the root.
        let nan = f64::NAN;
        let b = BBox3::from_dims([5, 1, 1]);
        let f = ScalarField::from_vec(b, vec![3.0, nan, 5.0, nan, 1.0]);
        let t = augmented_join_tree(&f, &b, Connectivity::Six);
        assert_eq!(assert_valid_tree(&f, &t), vec![3]);
        let leaves: Vec<u32> = (0..5).filter(|&i| t.is_leaf(i)).collect();
        assert_eq!(leaves, vec![0, 2, 4]);
        assert_eq!(t.down_of(0), Some(1));
        assert_eq!(t.down_of(2), Some(1));
        assert_eq!(t.down_of(1), Some(3));
        assert_eq!(t.down_of(4), Some(3));
    }

    #[test]
    fn nan_sprinkled_field_builds_a_valid_tree() {
        let b = BBox3::from_dims([6, 5, 4]);
        let f = ScalarField::from_fn(b, |p| match (p[0] * 7 + p[1] * 3 + p[2] * 5) % 9 {
            0 => f64::NAN,
            h => h as f64,
        });
        for conn in [Connectivity::Six, Connectivity::TwentySix] {
            let t = augmented_join_tree(&f, &b, conn);
            let roots = assert_valid_tree(&f, &t);
            // Connected block: one root, the highest-id NaN.
            let last_nan = (0..f.len() as u32).rfind(|&i| f.get_linear(i as usize).is_nan());
            assert_eq!(roots, vec![last_nan.unwrap()]);
        }
    }

    /// A splitmix64 stream from `seed`.
    fn draws(mut seed: u64) -> impl Iterator<Item = u64> {
        std::iter::repeat_with(move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    /// `sweep_order` is the comparison sort of `(key, index)` pairs.
    fn assert_sweep_order(values: &[f64]) {
        let mut pairs: Vec<(u64, u32)> = values.iter().map(|&v| sweep_key(v)).zip(0..).collect();
        pairs.sort_unstable();
        let want: Vec<u32> = pairs.into_iter().map(|(_, i)| i).collect();
        assert_eq!(sweep_order(values), want, "{} values", values.len());
    }

    #[test]
    fn radix_order_matches_comparison_sort_at_every_size() {
        for n in [1, 2, 255, 256, 257, 70_000] {
            let random: Vec<f64> = draws(n as u64).take(n).map(f64::from_bits).collect();
            assert_sweep_order(&random);
            assert_sweep_order(&vec![0.25; n]);
            // Few distinct values: long runs of equal keys.
            let few: Vec<f64> = draws(7).take(n).map(|r| (r % 5) as f64).collect();
            assert_sweep_order(&few);
        }
    }

    #[test]
    fn radix_order_on_keys_differing_in_one_byte() {
        // The value whose key is `k`: the inverse of `sweep_key` on keys
        // of numbers.
        let of_key = |k: u64| f64::from_bits(if k >> 63 == 0 { !k ^ 1 << 63 } else { k });
        let top = draws(1).map(|r| of_key(r >> 56 << 56 | 0x0080_1234_5678_9abc));
        let mantissa = draws(2).map(|r| of_key(0x4000_0000_0000_0000 | r & 0xff));
        let [top, mantissa]: [Vec<f64>; 2] =
            [top.take(3000).collect(), mantissa.take(3000).collect()];
        for (values, fixed) in [(top, !(0xff << 56)), (mantissa, !0xff)] {
            let keys: Vec<u64> = values.iter().map(|&v| sweep_key(v)).collect();
            assert!(keys.iter().all(|k| k & fixed == keys[0] & fixed));
            assert!(keys.iter().any(|k| k != &keys[0]));
            assert_sweep_order(&values);
        }
    }

    #[test]
    fn radix_order_with_nans_zeros_infinities_and_subnormals() {
        let special = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0x7fff_ffff_ffff_ffff),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        for n in [1, 2, 255, 256, 257, 70_000] {
            let mixed: Vec<f64> = draws(n as u64 + 3)
                .take(n)
                .map(|r| match r % 3 {
                    0 => f64::from_bits(r),
                    _ => special[(r >> 8) as usize % special.len()],
                })
                .collect();
            assert_sweep_order(&mixed);
        }
    }

    #[test]
    fn signed_zeros_tie_by_id() {
        // All four values compare equal, so the id alone orders them:
        // 0 is the only leaf and the tree is the chain 0 -> 1 -> 2 -> 3,
        // exactly the tree of the same field with every zero positive.
        let b = BBox3::from_dims([4, 1, 1]);
        let mixed = ScalarField::from_vec(b, vec![-0.0, 0.0, -0.0, 0.0]);
        let t = augmented_join_tree(&mixed, &b, Connectivity::Six);
        assert_eq!(t.down, vec![1, 2, 3, NO_DOWN]);
        let positive = ScalarField::from_vec(b, vec![0.0; 4]);
        assert_eq!(
            augmented_join_tree(&positive, &b, Connectivity::Six).down,
            t.down
        );
        // Mixed with other values, both zeros sit between them.
        let f = ScalarField::from_vec(b, vec![0.0, 1.0, -0.0, -1.0]);
        let t = augmented_join_tree(&f, &b, Connectivity::Six);
        assert_valid_tree(&f, &t);
        assert_eq!(t.down, vec![2, 0, 3, NO_DOWN]);
    }
}
