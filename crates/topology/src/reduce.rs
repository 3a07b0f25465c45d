//! Sparsifying a local augmented tree into the intermediate [`Subtree`]
//! that ships to the staging area.
//!
//! The reduction keeps local critical points (maxima, merge saddles,
//! component roots) plus the *interface* vertices the caller selects —
//! the topological equivalent of ghost cells. Regular non-interface
//! vertices are spliced out of the tree chains. The resulting vertex and
//! edge lists are the "intermediate results" of the paper's hybrid
//! topology pipeline: typically orders of magnitude smaller than the
//! block, yet sufficient for the streaming in-transit stage to
//! reconstruct the exact global merge tree.
//!
//! Two interface policies are provided by [`crate::distributed`]:
//!
//! * **AllShared** — keep every vertex seen by more than one rank. Simple
//!   and obviously sound, but the payload scales with the block surface.
//! * **BoundaryMaxima** — keep, per neighbor pair, only the maxima of the
//!   field restricted to the pair's overlap region (the paper's "maxima
//!   restricted to boundary components", with corner overlaps arising as
//!   their own pair regions). Sound because any superlevel crossing at a
//!   dropped interface vertex is witnessed by an uphill path *within the
//!   overlap region* to one of its kept maxima.
//!
//! Only the *shared shell* — the points another rank's ghosted box also
//! holds — needs the caller's sharing query. For every other point `info`
//! answers `None` (potential `[source]`, no interface vertex) without
//! allocating; [`crate::distributed::rank_subtree`] tells the two apart
//! by per-axis tables of the block indices that can see each coordinate.
//! On the shell it decides `keep` first and builds a potential list only
//! for a vertex that is kept or critical: any other is dropped, so it
//! answers `None` there too.

use crate::local::AugmentedTree;
use crate::stream::SourceId;
use crate::types::VertexId;
use serde::{Deserialize, Serialize};
use sitra_mesh::ScalarField;

/// One kept vertex of a subtree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubtreeVertex {
    /// Global vertex id.
    pub id: VertexId,
    /// Field value.
    pub value: f64,
    /// Incident edge count within this subtree.
    pub degree: u32,
    /// All sources that might declare this vertex (always includes the
    /// subtree's own source). Derived from bounding-box arithmetic, so
    /// every declaring rank sends the same set.
    pub potential: Vec<SourceId>,
    /// Request the aggregator to keep this vertex in the final tree even
    /// if it turns out to be globally regular (used by feature-based
    /// statistics to look up local maxima).
    pub pinned: bool,
}

/// The intermediate data of one rank's in-situ topology stage, as built and
/// encoded; in transit it decodes flat (`sitra_core::wire::DecodedSubtree`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Subtree {
    /// The producing source (rank).
    pub source: SourceId,
    /// Kept vertices.
    pub verts: Vec<SubtreeVertex>,
    /// Edges between kept vertices, upper first.
    pub edges: Vec<(VertexId, VertexId)>,
}

impl Subtree {
    /// Wire size, what `sitra_core::wire::encode_subtree` writes: 20 B of
    /// header, 25 B per vertex plus 4 per potential source, 16 per edge.
    pub fn bytes(&self) -> usize {
        let vert_bytes: usize = self.verts.iter().map(|v| 25 + 4 * v.potential.len()).sum();
        20 + vert_bytes + self.edges.len() * 16
    }

    /// Feed this subtree into a streaming aggregator and announce its end.
    pub fn stream_into(&self, sink: &mut crate::stream::StreamingMergeTree) {
        let verts = self
            .verts
            .iter()
            .map(|v| (v.id, v.value, v.degree, v.pinned, &v.potential[..]));
        sink.feed_source(self.source, verts, &self.edges);
    }
}

/// What the caller knows about a point's relationship to other ranks.
#[derive(Debug, Clone)]
pub struct InterfaceInfo {
    /// All sources that *might* declare this vertex — every rank whose
    /// (ghosted) region contains the point, including this one. Must be
    /// identical no matter which rank computes it, because the streaming
    /// aggregator uses it to decide when a vertex can be finalized.
    pub potential: Vec<SourceId>,
    /// True if the vertex must be kept as an interface vertex (in
    /// addition to any vertex kept for being critical).
    pub keep: bool,
}

/// Reduce an augmented local tree to the subtree of critical and kept
/// interface vertices.
///
/// `field` must be the block the tree was computed from (for values);
/// `info(p, critical)` describes the point's sharing (see
/// [`InterfaceInfo`]), or is `None` for a point no other source can see —
/// potential `[source]`, not an interface vertex — which is most of a
/// block and costs nothing. `critical` says whether the point is critical
/// in `tree`; `info` may also answer `None` for a point it does not keep
/// when `critical` is false, since that point is dropped either way.
/// Critical vertices are always kept; `keep` adds interface vertices. The
/// potential set matters even for critical-only vertices: another rank
/// may independently keep the same point, and the aggregator must know to
/// wait for it.
pub fn reduce_to_subtree(
    tree: &AugmentedTree,
    field: &ScalarField,
    source: SourceId,
    mut info: impl FnMut([usize; 3], bool) -> Option<InterfaceInfo>,
) -> Subtree {
    assert_eq!(tree.bbox, field.bbox(), "tree/field mismatch");
    // Index into `verts` per local vertex, `u32::MAX` if dropped.
    let mut slot = vec![u32::MAX; tree.down.len()];
    let mut verts: Vec<SubtreeVertex> = Vec::new();
    let b = tree.bbox;
    let mut i = 0;
    for z in b.lo[2]..b.hi[2] {
        for y in b.lo[1]..b.hi[1] {
            for x in b.lo[0]..b.hi[0] {
                let p = [x, y, z];
                let critical = tree.is_critical(i as u32);
                let shared = info(p, critical);
                if shared.as_ref().is_some_and(|s| s.keep) || critical {
                    let mut potential = shared.map_or_else(|| vec![source], |s| s.potential);
                    if !potential.contains(&source) {
                        potential.push(source);
                    }
                    potential.sort_unstable();
                    potential.dedup();
                    slot[i] = verts.len() as u32;
                    verts.push(SubtreeVertex {
                        id: tree.global.local_index(p) as VertexId,
                        value: field.get_linear(i),
                        degree: 0,
                        potential,
                        pinned: false,
                    });
                }
                i += 1;
            }
        }
    }

    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for (i, &upper) in slot.iter().enumerate().filter(|&(_, &s)| s != u32::MAX) {
        // Walk down to the next kept vertex.
        let chain = std::iter::successors(tree.down_of(i as u32), |&c| tree.down_of(c));
        if let Some(lower) = chain.map(|c| slot[c as usize]).find(|&s| s != u32::MAX) {
            edges.push((verts[upper as usize].id, verts[lower as usize].id));
            verts[upper as usize].degree += 1;
            verts[lower as usize].degree += 1;
        }
    }
    Subtree {
        source,
        verts,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::augmented_join_tree;
    use crate::stream::StreamingMergeTree;
    use crate::types::Connectivity;
    use sitra_mesh::BBox3;

    fn hash_field(b: BBox3) -> ScalarField {
        ScalarField::from_fn(b, |p| {
            ((p[0].wrapping_mul(2654435761)
                ^ p[1].wrapping_mul(40503)
                ^ p[2].wrapping_mul(2246822519))
                % 1009) as f64
        })
    }

    #[test]
    fn no_interface_keeps_only_criticals() {
        let b = BBox3::from_dims([6, 6, 6]);
        let f = hash_field(b);
        let t = augmented_join_tree(&f, &b, Connectivity::Six);
        let sub = reduce_to_subtree(&t, &f, 0, |_, _| None);
        assert_eq!(sub.verts.len(), t.criticals().count());
        assert!(sub.verts.len() < f.len());
    }

    #[test]
    fn reduced_subtree_has_same_canonical_tree() {
        // Streaming the reduced subtree of the whole domain reproduces the
        // canonical tree of the full augmented tree.
        let b = BBox3::from_dims([7, 5, 4]);
        let f = hash_field(b);
        let t = augmented_join_tree(&f, &b, Connectivity::TwentySix);
        let mut full = crate::tree::MergeTree::new();
        for i in 0..f.len() as u32 {
            full.add_node(t.vertex_id(i), f.get_linear(i as usize));
        }
        for i in 0..f.len() as u32 {
            if let Some(d) = t.down_of(i) {
                full.add_arc(t.vertex_id(i), t.vertex_id(d));
            }
        }
        let sub = reduce_to_subtree(&t, &f, 0, |_, _| None);
        let mut s = StreamingMergeTree::new();
        sub.stream_into(&mut s);
        let (glued, _) = s.finish();
        assert_eq!(glued.canonical(), full.canonical());
    }

    #[test]
    fn interface_vertices_are_kept_with_degrees() {
        let b = BBox3::from_dims([5, 4, 3]);
        let f = hash_field(b);
        let t = augmented_join_tree(&f, &b, Connectivity::Six);
        // Mark the x == 4 face as interface shared with source 1.
        let sub = reduce_to_subtree(&t, &f, 0, |p, _| {
            (p[0] == 4).then(|| InterfaceInfo {
                potential: vec![0, 1],
                keep: true,
            })
        });
        for p in b.iter().filter(|p| p[0] == 4) {
            let id = b.local_index(p) as VertexId;
            let v = sub.verts.iter().find(|v| v.id == id).expect("kept");
            assert_eq!(v.potential, vec![0, 1]);
        }
        // Degrees match edge incidences.
        for v in &sub.verts {
            let cnt = sub
                .edges
                .iter()
                .filter(|&&(a, bb)| a == v.id || bb == v.id)
                .count() as u32;
            assert_eq!(cnt, v.degree, "vertex {}", v.id);
        }
    }

    #[test]
    fn subtree_edges_connect_kept_vertices_downward() {
        let b = BBox3::from_dims([6, 3, 3]);
        let f = hash_field(b);
        let t = augmented_join_tree(&f, &b, Connectivity::Six);
        let sub = reduce_to_subtree(&t, &f, 0, |p, _| {
            (p[0] == 0).then(|| InterfaceInfo {
                potential: vec![0, 3],
                keep: true,
            })
        });
        let val = |id: VertexId| sub.verts.iter().find(|v| v.id == id).unwrap().value;
        for &(a, c) in &sub.edges {
            assert!(crate::types::sweep_before((val(a), a), (val(c), c)));
        }
    }

    #[test]
    fn bytes_accounting() {
        let sub = Subtree {
            source: 0,
            verts: vec![
                SubtreeVertex {
                    id: 0,
                    value: 1.0,
                    degree: 1,
                    potential: vec![0],
                    pinned: false,
                },
                SubtreeVertex {
                    id: 1,
                    value: 0.0,
                    degree: 1,
                    potential: vec![0, 1],
                    pinned: false,
                },
            ],
            edges: vec![(0, 1)],
        };
        assert_eq!(sub.bytes(), 20 + (25 + 4) + (25 + 8) + 16);
    }
}
