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
//! `-0.0` and NaN), paired with the *local* index. Within one box, local
//! index order is global id order, so one `sort_unstable` over the pairs
//! is the global sweep order restricted to the block. The sweep then
//! visits neighbours by stride, checking axes only on the box's surface.

use crate::types::{sweep_key, Connectivity, Stencil, UnionFind, VertexId};
use sitra_mesh::{BBox3, ScalarField};

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

    // Sweep order: ascending (key, local index) = descending (value, id).
    let values = field.as_slice();
    let mut order: Vec<(u64, u32)> = values.iter().map(|&v| sweep_key(v)).zip(0..).collect();
    order.sort_unstable();

    let mut uf = UnionFind::new(n);
    // Per component root: the most recently swept vertex (the current
    // "growth point" the next arc will attach to).
    let mut lowest: Vec<u32> = vec![0; n];
    let mut down: Vec<u32> = vec![NO_DOWN; n];
    let mut up_count: Vec<u32> = vec![0; n];
    let mut processed = vec![false; n];

    let stencil = Stencil::new(conn, &bbox);
    for &(key, v) in &order {
        // `v` is still a singleton: only its own step unions it.
        let mut rv = v;
        let p = bbox.coord_of(v as usize);
        for u in stencil
            .neighbors(v as usize, p, &bbox)
            .filter(|&u| processed[u])
        {
            debug_assert!((sweep_key(values[u]), u as u32) < (key, v));
            let ru = uf.find(u as u32);
            if ru == rv {
                continue;
            }
            // The component of u reaches down to v: attach its growth
            // point.
            let l = lowest[ru as usize] as usize;
            debug_assert_eq!(down[l], NO_DOWN);
            down[l] = v;
            up_count[v as usize] += 1;
            rv = uf.union(ru, rv);
        }
        processed[v as usize] = true;
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
