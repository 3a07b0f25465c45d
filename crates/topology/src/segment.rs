//! Threshold segmentation: label superlevel-set components by their
//! dominant (optionally simplification-absorbed) maximum.
//!
//! This is the merge tree's primary analysis product in the paper's
//! combustion use case: the regions around local maxima describe features
//! such as burning regions or ignition kernels, and a family of such
//! segmentations (one per threshold) is exactly what the tree encodes.

use crate::tree::SimplifyMap;
use crate::types::{sweep_before, Connectivity, Stencil, UnionFind, VertexId};
use serde::{Deserialize, Serialize};
use sitra_mesh::ScalarField;

/// A per-vertex labeling of one block or domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segmentation {
    /// The region covered, mirroring the source field.
    pub bbox: sitra_mesh::BBox3,
    /// Label per vertex (x fastest): the id of the maximum owning the
    /// component, or `None` below the threshold.
    pub labels: Vec<Option<VertexId>>,
    /// The threshold used.
    pub threshold: f64,
}

impl Segmentation {
    /// Label at a global coordinate.
    pub fn label(&self, p: [usize; 3]) -> Option<VertexId> {
        self.labels[self.bbox.local_index(p)]
    }

    /// Distinct feature labels, sorted.
    pub fn features(&self) -> Vec<VertexId> {
        let mut v: Vec<VertexId> = self.labels.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of vertices carrying `label`.
    pub fn feature_size(&self, label: VertexId) -> usize {
        self.labels.iter().filter(|l| **l == Some(label)).count()
    }
}

/// Segment the superlevel set `{f ≥ threshold}` of `field`.
///
/// Each connected component (under `conn`) is labeled by its highest
/// vertex (in global sweep order) — its maximum. If `simplify` is given,
/// labels are mapped through it, merging features whose maxima were
/// absorbed by persistence simplification (the label becomes the
/// *surviving* maximum). `global` defines vertex ids.
pub fn segment_superlevel(
    field: &ScalarField,
    global: &sitra_mesh::BBox3,
    threshold: f64,
    conn: Connectivity,
    simplify: Option<&SimplifyMap>,
) -> Segmentation {
    let bbox = field.bbox();
    let n = field.len();
    let mut uf = UnionFind::new(n);
    let vid = |i: usize| global.local_index(bbox.coord_of(i)) as VertexId;

    // Union adjacent above-threshold vertices.
    let stencil = Stencil::new(conn, &bbox);
    for (i, &class) in Stencil::classes(&bbox).iter().enumerate() {
        if field.get_linear(i) < threshold {
            continue;
        }
        for j in stencil.neighbors(i, class) {
            if field.get_linear(j) >= threshold {
                uf.union(i as u32, j as u32);
            }
        }
    }

    // Highest vertex per component.
    let mut best: Vec<Option<u32>> = vec![None; n];
    for i in 0..n {
        if field.get_linear(i) < threshold {
            continue;
        }
        let r = uf.find(i as u32) as usize;
        let better = match best[r] {
            None => true,
            Some(b) => sweep_before(
                (field.get_linear(i), vid(i)),
                (field.get_linear(b as usize), vid(b as usize)),
            ),
        };
        if better {
            best[r] = Some(i as u32);
        }
    }

    let labels: Vec<Option<VertexId>> = (0..n)
        .map(|i| {
            if field.get_linear(i) < threshold {
                return None;
            }
            let r = uf.find(i as u32) as usize;
            let m = vid(best[r].expect("component has a maximum") as usize);
            Some(match simplify {
                Some(s) => s.target(m).unwrap_or(m),
                None => m,
            })
        })
        .collect();

    Segmentation {
        bbox,
        labels,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitra_mesh::BBox3;

    /// 1D double bump: 0 3 9 3 0 4 8 4 0
    fn bump_field() -> ScalarField {
        ScalarField::from_vec(
            BBox3::from_dims([9, 1, 1]),
            vec![0.0, 3.0, 9.0, 3.0, 0.0, 4.0, 8.0, 4.0, 0.0],
        )
    }

    #[test]
    fn two_features_above_threshold() {
        let f = bump_field();
        let g = f.bbox();
        let s = segment_superlevel(&f, &g, 2.5, Connectivity::Six, None);
        let feats = s.features();
        assert_eq!(feats.len(), 2);
        // Labels are the maxima ids (positions 2 and 6).
        assert_eq!(feats, vec![2, 6]);
        assert_eq!(s.label([2, 0, 0]), Some(2));
        assert_eq!(s.label([6, 0, 0]), Some(6));
        assert_eq!(s.label([0, 0, 0]), None);
        assert_eq!(s.feature_size(2), 3);
        assert_eq!(s.feature_size(6), 3);
    }

    #[test]
    fn low_threshold_merges_features() {
        let f = bump_field();
        let g = f.bbox();
        let s = segment_superlevel(&f, &g, -1.0, Connectivity::Six, None);
        // Whole domain is one component labeled by the global max (id 2).
        assert_eq!(s.features(), vec![2]);
        assert_eq!(s.feature_size(2), 9);
    }

    #[test]
    fn threshold_above_everything_is_empty() {
        let f = bump_field();
        let g = f.bbox();
        let s = segment_superlevel(&f, &g, 100.0, Connectivity::Six, None);
        assert!(s.features().is_empty());
        assert!(s.labels.iter().all(Option::is_none));
    }

    #[test]
    fn simplification_relabels_to_surviving_maximum() {
        let f = bump_field();
        let g = f.bbox();
        let tree = crate::distributed::serial_merge_tree(&f, Connectivity::Six);
        // The 8-peak has persistence 8: dies at the root (value 0). The
        // 9-peak is elder. Simplify away everything but the elder.
        let smap = tree.simplify_map(f64::INFINITY);
        assert_eq!(smap.surviving, vec![2]);
        let s = segment_superlevel(&f, &g, 2.5, Connectivity::Six, Some(&smap));
        // Both bumps now carry the surviving label.
        assert_eq!(s.features(), vec![2]);
        assert_eq!(s.feature_size(2), 6);
    }

    #[test]
    fn segmentation_consistent_with_merge_tree_maxima() {
        // Every feature label is a maximum of the tree.
        let b = BBox3::from_dims([8, 8, 1]);
        let f = ScalarField::from_fn(b, |p| {
            let x = p[0] as f64;
            let y = p[1] as f64;
            ((x * 1.3).sin() * (y * 0.9).cos() * 10.0).round()
        });
        let tree = crate::distributed::serial_merge_tree(&f, Connectivity::TwentySix);
        let maxima: std::collections::HashSet<VertexId> = tree.maxima().into_iter().collect();
        let s = segment_superlevel(&f, &b, 1.0, Connectivity::TwentySix, None);
        for feat in s.features() {
            assert!(maxima.contains(&feat), "label {feat} is not a tree maximum");
        }
    }
}
