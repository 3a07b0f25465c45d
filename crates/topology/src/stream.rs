//! The in-transit stage: streaming aggregation of subtrees.
//!
//! A single staging bucket receives subtree vertices and edges from all
//! ranks *in arbitrary order* and maintains the merge tree of everything
//! seen so far by **path merging**: inserting an edge merges the two
//! endpoint chains like sorted lists. A vertex is *finalized* once no
//! more information about it can arrive; a finalized **regular** vertex
//! (exactly one up-arc, one down-arc) can never become critical again,
//! so it is spliced out of its chain and evicted from memory. Subtrees
//! arrive already reduced to critical and interface vertices, so only
//! the few the glue finds regular go early: on the proxy's temperature
//! the peak live set (`StreamStats::peak_live / vertices`) is 0.97 of all
//! declared vertices at 4 ranks, 0.84 at 64 and 0.79 at 512.
//!
//! Finalization protocol: every piece of the stream comes from a *source*
//! (one rank's subtree). A vertex declaration names the set of sources
//! that might also declare the same vertex (computable from bounding-box
//! arithmetic — the ranks whose ghosted regions contain the point). A
//! vertex is finalized when (a) every potential source has either
//! declared it or announced end-of-stream, and (b) all declared incident
//! edges have been inserted.
//!
//! Why eviction is safe: in a join tree, up-arc counts only change when an
//! edge whose *lower* endpoint is the vertex itself is inserted (component
//! merges happen at the lower endpoint of the connecting graph edge).
//! Once all incident edges are seen, the vertex's criticality class is
//! fixed; later path merges may re-parent it but never change its degree,
//! and splicing it out preserves chain order for all future merges.
//!
//! Layout: each live vertex owns a slot of a dense arena, sized from the
//! declared vertex counts and found by one id lookup per declaration or
//! edge endpoint. A slot holds the id, the value and its packed sweep
//! key, the `down` slot, its up-arcs as a count plus the xor of the up
//! slots (so path merging compares `(key, id)` and walks `down` without
//! lookups), and a bit per potential source still owing it. Each source
//! lists the slots that may wait on it, so ending it touches only those.
//! Evicted slots are reused. `finish_canonical` reads the canonical tree
//! straight off the slots.

use crate::tree::{canonical_of, CanonicalTree, ForestNode, MergeTree};
use crate::types::{sweep_key, IdMap, VertexId};
use std::collections::hash_map::Entry;

/// Identifier of one stream source (typically the producing rank).
pub type SourceId = u32;

/// The `down` of a root (and of a free slot), and the `seq` of a free slot.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    id: VertexId,
    value: f64,
    /// `sweep_key(value)`: ascending `(key, id)` is the sweep order.
    key: u64,
    /// Declaration number, telling a reused slot apart; `NONE` when free.
    seq: u32,
    down: u32,
    /// Up-arcs: their count and the xor of their slots.
    up_count: u32,
    up_xor: u32,
    /// Incident edges declared but not yet inserted.
    remaining: u32,
    /// Pinned vertices are exempt from finalization eviction — consumers
    /// (e.g. feature-based statistics) will look them up in the final
    /// tree even if they are globally regular.
    pinned: bool,
    /// Bit `i`: the `i`th potential source has neither declared nor ended.
    waiting: u64,
}

/// `(slot, seq, bit)` of a vertex that may wait on a source at `bit`.
type Wait = (u32, u32, u32);

/// Statistics of one streaming aggregation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Distinct vertices declared.
    pub vertices: usize,
    /// Edges inserted.
    pub edges: usize,
    /// Peak number of simultaneously live (in-memory) vertices.
    pub peak_live: usize,
    /// Vertices evicted early by finalization.
    pub evicted: usize,
    /// Path-merge steps over all inserted edges (at least one per edge).
    pub chain_steps: usize,
}

/// Order-independent streaming merge-tree builder; see module docs.
#[derive(Debug, Default)]
pub struct StreamingMergeTree {
    slots: Vec<Slot>,
    free: Vec<u32>,
    index: IdMap<VertexId, u32>,
    /// Per source, the vertices that may wait on it; `None` once ended.
    sources: IdMap<SourceId, Option<Vec<Wait>>>,
    stats: StreamStats,
}

impl StreamingMergeTree {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Progress statistics so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Number of vertices currently held in memory.
    pub fn live(&self) -> usize {
        self.index.len()
    }

    /// Make room for `vertices` more declarations in the arena and lookup.
    pub fn reserve(&mut self, vertices: usize) {
        self.index.reserve(vertices);
        self.slots.reserve(vertices.saturating_sub(self.free.len()));
    }

    /// Declare a vertex from `source` with the number of incident edges
    /// this source will eventually send. `potential` lists *all* (at most
    /// 64) sources that might declare this vertex, `source` included; every
    /// declaring source must announce the same value and potential set.
    pub fn declare_vertex(
        &mut self,
        source: SourceId,
        id: VertexId,
        value: f64,
        incident_edges: u32,
        potential: &[SourceId],
    ) {
        let own = potential.iter().position(|&p| p == source);
        let own = own.unwrap_or_else(|| panic!("vertex {id}: {source} not in its potential set"));
        assert!(potential.len() <= 64, "vertex {id}: potential set over 64");
        let open = !matches!(self.sources.get(&source), Some(None));
        assert!(open, "vertex {id}: source {source} already ended");
        let x = match self.index.entry(id) {
            Entry::Occupied(o) => {
                let s = &mut self.slots[*o.get() as usize];
                assert_eq!(s.value, value, "vertex {id} declared with differing values");
                let owed = s.waiting & 1 << own != 0;
                assert!(owed, "vertex {id}: {source} declared it twice");
                s.waiting &= !(1 << own);
                *o.get()
            }
            Entry::Vacant(e) => {
                let x = self.free.pop().unwrap_or(self.slots.len() as u32);
                e.insert(x);
                let seq = self.stats.vertices as u32;
                self.stats.vertices += 1;
                let mut waiting = 0;
                for (bit, &p) in potential.iter().enumerate().filter(|&(_, &p)| p != source) {
                    if let Some(waits) = self.sources.entry(p).or_insert(Some(Vec::new())) {
                        waits.push((x, seq, bit as u32));
                        waiting |= 1 << bit;
                    }
                }
                if x as usize == self.slots.len() {
                    self.slots.push(Slot::default());
                }
                // A free slot has no arcs, edges or pin yet.
                let s = &mut self.slots[x as usize];
                (s.id, s.value, s.key, s.seq) = (id, value, sweep_key(value), seq);
                (s.down, s.waiting) = (NONE, waiting);
                x
            }
        };
        self.slots[x as usize].remaining += incident_edges;
        self.stats.peak_live = self.stats.peak_live.max(self.index.len());
    }

    /// Announce that `source` will send nothing further. Vertices waiting
    /// only on this source become finalizable.
    pub fn end_source(&mut self, source: SourceId) {
        let waits = self.sources.insert(source, None);
        assert!(!matches!(waits, Some(None)), "source {source} ended twice");
        for (x, seq, bit) in waits.flatten().unwrap_or_default() {
            let s = &mut self.slots[x as usize];
            if s.seq == seq && s.waiting & 1 << bit != 0 {
                s.waiting &= !(1 << bit);
                self.try_finalize(x);
            }
        }
    }

    /// Feed one source's subtree and announce its end: each vertex as
    /// `(id, value, incident edges, pinned, potential)`, then each edge.
    /// Every subtree form, as built and as decoded, streams through here.
    pub fn feed_source<'a>(
        &mut self,
        source: SourceId,
        verts: impl Iterator<Item = (VertexId, f64, u32, bool, &'a [SourceId])>,
        edges: &[(VertexId, VertexId)],
    ) {
        self.reserve(verts.size_hint().0);
        for (id, value, degree, pinned, potential) in verts {
            self.declare_vertex(source, id, value, degree, potential);
            if pinned {
                self.pin_vertex(id);
            }
        }
        for &(a, b) in edges {
            self.insert_edge(a, b);
        }
        self.end_source(source);
    }

    /// Exempt a declared vertex from eviction: it will appear in the
    /// final tree even when globally regular. Any source may pin.
    pub fn pin_vertex(&mut self, id: VertexId) {
        let x = self.slot_of(id);
        self.slots[x as usize].pinned = true;
    }

    /// The slot of declared vertex `id`.
    fn slot_of(&self, id: VertexId) -> u32 {
        *(self.index.get(&id)).unwrap_or_else(|| panic!("vertex {id} not declared"))
    }

    /// True when slot `a` is strictly higher (earlier in the sweep) than `b`.
    fn before(&self, a: u32, b: u32) -> bool {
        let (a, b) = (&self.slots[a as usize], &self.slots[b as usize]);
        (a.key, a.id) < (b.key, b.id)
    }

    /// Point slot `u` down at `new_down`, moving its up-arc over.
    fn set_down(&mut self, u: u32, new_down: u32) {
        let old = std::mem::replace(&mut self.slots[u as usize].down, new_down);
        for (d, joins) in [(old, false), (new_down, true)] {
            if d != NONE && old != new_down {
                let s = &mut self.slots[d as usize];
                s.up_count = if joins {
                    s.up_count + 1
                } else {
                    s.up_count - 1
                };
                s.up_xor ^= u;
            }
        }
    }

    /// Insert one subtree edge. Both endpoints must have been declared.
    /// The edge may connect vertices in any order and arbitrary position;
    /// chains are merged to maintain the join tree of all edges seen.
    pub fn insert_edge(&mut self, a: VertexId, b: VertexId) {
        let [x, y] = [a, b].map(|id| self.slot_of(id));
        assert_ne!(a, b, "self-loop");
        self.stats.edges += 1;

        // Path-merge the two chains.
        let (mut u, mut v) = (x, y);
        while u != v {
            self.stats.chain_steps += 1;
            if self.before(v, u) {
                std::mem::swap(&mut u, &mut v);
            }
            // u is strictly higher than v.
            match self.slots[u as usize].down {
                w if w == v => break,
                NONE => {
                    self.set_down(u, v);
                    break;
                }
                w if self.before(v, w) => {
                    // v belongs between u and w: splice, then merge the
                    // rest of v's chain with w's chain.
                    self.set_down(u, v);
                    (u, v) = (v, w);
                }
                w => u = w,
            }
        }

        // Account the processed edge and attempt finalization.
        for (x, id) in [(x, a), (y, b)] {
            let s = &mut self.slots[x as usize];
            assert!(s.remaining > 0, "more edges than declared for {id}");
            s.remaining -= 1;
        }
        self.try_finalize(x);
        self.try_finalize(y);
    }

    /// Evict slot `x` if it is finalized and regular.
    fn try_finalize(&mut self, x: u32) {
        let s = self.slots[x as usize];
        if s.pinned || s.waiting != 0 || s.remaining != 0 || s.up_count != 1 || s.down == NONE {
            return;
        }
        // Splice: the one up-arc now points past x to its down.
        self.set_down(x, NONE);
        self.set_down(s.up_xor, s.down);
        self.slots[x as usize].seq = NONE;
        self.index.remove(&s.id);
        self.free.push(x);
        self.stats.evicted += 1;
    }

    /// Slot `x` as the tree builders read it, `None` if free. Panics if
    /// the vertex still expects an edge or a source.
    fn node(&self, x: u32) -> Option<ForestNode> {
        let s = &self.slots[x as usize];
        let resolved = s.seq == NONE || (s.remaining == 0 && s.waiting == 0);
        assert!(resolved, "stream finished with vertex {} unresolved", s.id);
        let down = (s.down != NONE).then_some(s.down);
        (s.seq != NONE).then_some((s.id, s.value, down, s.up_count))
    }

    /// Finish the stream: every declared edge must have arrived and every
    /// vertex must be fully resolved (callers must [`Self::end_source`]
    /// every source). Returns the merge tree of the union of all subtrees
    /// (with any remaining regular vertices still present; call
    /// [`MergeTree::canonical`] to splice them).
    pub fn finish(self) -> (MergeTree, StreamStats) {
        let tree = MergeTree::from_forest(self.slots.len(), |x| self.node(x));
        (tree, self.stats)
    }

    /// [`Self::finish`] and then [`MergeTree::canonical`], without the
    /// merge tree: the canonical tree is read off the live slots in one
    /// pass. Same preconditions and panics as `finish`.
    pub fn finish_canonical(self) -> (CanonicalTree, StreamStats) {
        let tree = canonical_of(self.slots.len(), |x| self.node(x));
        (tree, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Declare from a single source 0 with itself as the only potential.
    fn declare_all(s: &mut StreamingMergeTree, verts: &[(VertexId, f64, u32)]) {
        for &(id, v, deg) in verts {
            s.declare_vertex(0, id, v, deg, &[0]);
        }
    }

    #[test]
    fn single_chain() {
        let mut s = StreamingMergeTree::new();
        declare_all(&mut s, &[(0, 5.0, 1), (1, 3.0, 2), (2, 1.0, 1)]);
        s.insert_edge(0, 1);
        s.insert_edge(1, 2);
        s.end_source(0);
        let (t, stats) = s.finish();
        let c = t.canonical();
        assert_eq!(c.nodes, vec![(0, 5.0), (2, 1.0)]);
        assert_eq!(c.arcs, vec![(0, 2)]);
        assert_eq!(stats.edges, 2);
        // Vertex 1 was regular and fully processed: evicted early.
        assert_eq!(stats.evicted, 1);
    }

    #[test]
    fn two_peaks_any_order() {
        // Graph: 0(5)-1(1)-2(4): merge tree has maxima 0,2 and saddle 1.
        let verts = [(0u64, 5.0, 1u32), (1, 1.0, 2), (2, 4.0, 1)];
        let edges = [(0u64, 1u64), (1, 2)];
        // All edge orders and orientations must give the same tree.
        for perm in [[0, 1], [1, 0]] {
            for flip in 0..4 {
                let mut s = StreamingMergeTree::new();
                declare_all(&mut s, &verts);
                for (n, &pi) in perm.iter().enumerate() {
                    let (a, b) = edges[pi];
                    if flip & (1 << n) != 0 {
                        s.insert_edge(b, a);
                    } else {
                        s.insert_edge(a, b);
                    }
                }
                s.end_source(0);
                let (t, _) = s.finish();
                let c = t.canonical();
                assert_eq!(c.nodes.len(), 3);
                assert_eq!(c.arcs, vec![(0, 1), (2, 1)]);
            }
        }
    }

    #[test]
    fn splice_mid_chain() {
        // Path graph 0(10)-2(7)-3(1) plus edge 1(8)-3: maxima 0 and 1
        // merge at 3.
        let mut s = StreamingMergeTree::new();
        declare_all(
            &mut s,
            &[(0, 10.0, 1), (2, 7.0, 2), (3, 1.0, 2), (1, 8.0, 1)],
        );
        s.insert_edge(0, 2);
        s.insert_edge(2, 3);
        s.insert_edge(1, 3);
        s.end_source(0);
        let (t, _) = s.finish();
        let c = t.canonical();
        assert_eq!(c.arcs, vec![(0, 3), (1, 3)]);
    }

    #[test]
    fn shared_vertex_across_two_sources() {
        // Sources 0 and 1 share vertex 5; it must not be finalized until
        // both have contributed, even though source 0's edges complete
        // while it is (temporarily) regular.
        let mut s = StreamingMergeTree::new();
        s.declare_vertex(0, 9, 9.0, 1, &[0]);
        s.declare_vertex(0, 5, 2.0, 1, &[0, 1]);
        s.insert_edge(9, 5);
        s.end_source(0);
        // Vertex 5 is regular w.r.t. source 0 but still pending source 1.
        assert_eq!(s.live(), 2);
        s.declare_vertex(1, 5, 2.0, 1, &[0, 1]);
        s.declare_vertex(1, 7, 6.0, 1, &[1]);
        s.insert_edge(7, 5);
        s.end_source(1);
        let (t, _) = s.finish();
        let c = t.canonical();
        // 5 is a genuine saddle joining maxima 9 and 7.
        assert_eq!(c.arcs, vec![(7, 5), (9, 5)]);
    }

    #[test]
    fn vertex_pending_unheard_source_waits_for_its_end() {
        // Source 1 never declares vertex 5; ending source 1 releases it.
        let mut s = StreamingMergeTree::new();
        s.declare_vertex(0, 9, 9.0, 1, &[0]);
        s.declare_vertex(0, 5, 2.0, 1, &[0, 1]);
        s.declare_vertex(0, 3, 1.0, 0, &[0]);
        s.insert_edge(9, 5);
        s.end_source(0);
        // 5's declared edge has arrived but it is still pending source 1
        // (which may yet attach more structure): everything stays live.
        assert_eq!(s.live(), 3);
        s.end_source(1);
        let (t, _) = s.finish();
        // 5 is the root of the chain 9 -> 5; 3 is an isolated root.
        assert_eq!(t.roots().len(), 2);
    }

    #[test]
    #[should_panic]
    fn differing_values_panic() {
        let mut s = StreamingMergeTree::new();
        s.declare_vertex(0, 1, 2.0, 0, &[0, 1]);
        s.declare_vertex(1, 1, 3.0, 0, &[0, 1]);
    }

    #[test]
    #[should_panic]
    fn double_declaration_same_source_panics() {
        let mut s = StreamingMergeTree::new();
        s.declare_vertex(0, 1, 2.0, 0, &[0]);
        s.declare_vertex(0, 1, 2.0, 0, &[0]);
    }

    #[test]
    #[should_panic]
    fn finish_with_missing_edges_panics() {
        let mut s = StreamingMergeTree::new();
        s.declare_vertex(0, 0, 1.0, 1, &[0]);
        s.declare_vertex(0, 1, 0.0, 1, &[0]);
        s.end_source(0);
        let _ = s.finish();
    }

    #[test]
    #[should_panic]
    fn finish_with_unended_source_panics() {
        let mut s = StreamingMergeTree::new();
        s.declare_vertex(0, 0, 1.0, 0, &[0, 1]);
        s.end_source(0);
        let _ = s.finish();
    }

    #[test]
    #[should_panic]
    fn undeclared_endpoint_panics() {
        let mut s = StreamingMergeTree::new();
        s.declare_vertex(0, 0, 1.0, 1, &[0]);
        s.insert_edge(0, 99);
    }

    #[test]
    fn eviction_bounds_memory_on_long_chain() {
        // A long monotone chain streamed in order: interior vertices are
        // evicted as soon as both their edges are in, so live never grows
        // with the chain length.
        let n = 10_000u64;
        let mut s = StreamingMergeTree::new();
        s.declare_vertex(0, 0, n as f64, 1, &[0]);
        let mut prev = 0u64;
        for i in 1..n {
            s.declare_vertex(0, i, (n - i) as f64, if i == n - 1 { 1 } else { 2 }, &[0]);
            s.insert_edge(prev, i);
            prev = i;
        }
        s.end_source(0);
        let (t, stats) = s.finish();
        assert!(stats.peak_live < 16, "peak {}", stats.peak_live);
        assert_eq!(stats.evicted as u64, n - 2);
        let c = t.canonical();
        assert_eq!(c.nodes.len(), 2);
    }

    #[test]
    fn pinned_regular_vertex_survives_finalization() {
        // Chain 0(5) -> 1(3) -> 2(1): vertex 1 is regular and would be
        // evicted, but pinning keeps it in the final tree.
        let mut s = StreamingMergeTree::new();
        declare_all(&mut s, &[(0, 5.0, 1), (1, 3.0, 2), (2, 1.0, 1)]);
        s.pin_vertex(1);
        s.insert_edge(0, 1);
        s.insert_edge(1, 2);
        s.end_source(0);
        assert_eq!(s.live(), 3, "pinned vertex must stay live");
        let (t, stats) = s.finish();
        assert_eq!(stats.evicted, 0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.value(1), Some(3.0));
        assert_eq!(t.down_of(1), Some(2));
        // Canonicalization still splices it for topology comparisons.
        assert_eq!(t.canonical().nodes.len(), 2);
    }

    #[test]
    #[should_panic]
    fn pin_of_undeclared_vertex_panics() {
        let mut s = StreamingMergeTree::new();
        s.pin_vertex(99);
    }

    #[test]
    fn isolated_vertex_is_leaf_and_root() {
        let mut s = StreamingMergeTree::new();
        s.declare_vertex(0, 3, 4.0, 0, &[0]);
        s.end_source(0);
        let (t, _) = s.finish();
        assert_eq!(t.maxima(), vec![3]);
        assert_eq!(t.roots(), vec![3]);
    }

    #[test]
    fn a_reused_slot_ignores_what_its_evicted_vertex_waited_for() {
        // Chain 10 -> 5 -> 1 from source 0; source 1 declares 5 and 1 and
        // repeats the edge, so 5 is evicted while source 1's list still
        // names its slot. Vertex 7, owed by source 3 at the same position
        // of its potential set as source 1 was for 5, reuses that slot:
        // ending source 1 must leave it waiting for source 3.
        let mut s = StreamingMergeTree::new();
        s.declare_vertex(0, 10, 9.0, 1, &[0]);
        s.declare_vertex(0, 5, 5.0, 2, &[0, 1]);
        s.declare_vertex(0, 1, 1.0, 1, &[0, 1]);
        s.insert_edge(10, 5);
        s.insert_edge(5, 1);
        s.declare_vertex(1, 5, 5.0, 1, &[0, 1]);
        s.declare_vertex(1, 1, 1.0, 1, &[0, 1]);
        s.insert_edge(5, 1);
        assert_eq!((s.live(), s.stats().evicted), (2, 1));
        s.declare_vertex(0, 7, 3.0, 0, &[0, 3]);
        s.end_source(1);
        s.declare_vertex(3, 7, 3.0, 0, &[0, 3]);
        s.end_source(3);
        s.end_source(0);
        let (c, _) = s.finish_canonical();
        assert_eq!(c.nodes, vec![(1, 1.0), (7, 3.0), (10, 9.0)]);
        assert_eq!(c.arcs, vec![(10, 1)]);
    }

    #[test]
    fn late_declaration_after_other_source_ended() {
        // Source 1 ends before source 0 declares a vertex whose potential
        // set includes source 1: the pending set must not wait on it.
        let mut s = StreamingMergeTree::new();
        s.end_source(1);
        s.declare_vertex(0, 5, 1.0, 0, &[0, 1]);
        s.end_source(0);
        let (t, _) = s.finish();
        assert_eq!(t.len(), 1);
    }
}
