//! The merge tree proper: canonical critical-point structure,
//! persistence-based branch decomposition, and simplification.

use crate::types::{sweep_before, sweep_key, IdMap, UnionFind, VertexId};
use std::collections::HashMap;

/// A merge (join) tree over global vertex ids.
///
/// Nodes carry their scalar value; each node has at most one `down`
/// neighbor (toward lower values). Leaves are maxima, nodes with two or
/// more up-arcs are merge saddles, and a node without `down` is the root
/// of its component.
#[derive(Debug, Clone, Default)]
pub struct MergeTree {
    ids: Vec<VertexId>,
    values: Vec<f64>,
    down: Vec<Option<u32>>,
    index: IdMap<VertexId, u32>,
}

impl MergeTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The tree of the forest whose node `i < len` is `node(i)` (`None` for a
    /// hole; up-arc counts unread); ids must be distinct and arcs descend.
    pub(crate) fn from_forest(len: usize, node: impl Fn(u32) -> Option<ForestNode>) -> Self {
        let (mut at, mut nodes) = (vec![0; len], Vec::new());
        for (i, n) in (0..len as u32).filter_map(|i| Some((i, node(i)?))) {
            at[i as usize] = nodes.len() as u32;
            nodes.push(n);
        }
        let ids: Vec<VertexId> = nodes.iter().map(|n| n.0).collect();
        Self {
            index: ids.iter().zip(0..).map(|(&id, i)| (id, i)).collect(),
            ids,
            values: nodes.iter().map(|n| n.1).collect(),
            down: nodes.iter().map(|n| n.2.map(|d| at[d as usize])).collect(),
        }
    }

    /// Insert a node if absent; returns its slot. Panics if the same id is
    /// re-declared with a different value.
    pub fn add_node(&mut self, id: VertexId, value: f64) -> u32 {
        if let Some(&i) = self.index.get(&id) {
            assert_eq!(
                self.values[i as usize], value,
                "vertex {id} re-declared with a different value"
            );
            return i;
        }
        let i = self.ids.len() as u32;
        self.ids.push(id);
        self.values.push(value);
        self.down.push(None);
        self.index.insert(id, i);
        i
    }

    /// Connect `upper` downward to `lower`. Both must exist; `upper` must
    /// be strictly higher in sweep order and not yet connected.
    pub fn add_arc(&mut self, upper: VertexId, lower: VertexId) {
        let u = self.index[&upper];
        let l = self.index[&lower];
        assert!(
            sweep_before(
                (self.values[u as usize], upper),
                (self.values[l as usize], lower)
            ),
            "arc must descend: {upper} -> {lower}"
        );
        assert!(
            self.down[u as usize].is_none(),
            "{upper} already has a down arc"
        );
        self.down[u as usize] = Some(l);
    }

    /// Node value by id.
    pub fn value(&self, id: VertexId) -> Option<f64> {
        self.index.get(&id).map(|&i| self.values[i as usize])
    }

    /// The node each id points down to.
    pub fn down_of(&self, id: VertexId) -> Option<VertexId> {
        let i = *self.index.get(&id)?;
        self.down[i as usize].map(|d| self.ids[d as usize])
    }

    /// All node ids.
    pub fn node_ids(&self) -> &[VertexId] {
        &self.ids
    }

    /// All arcs as `(upper id, lower id)`.
    pub fn arcs(&self) -> Vec<(VertexId, VertexId)> {
        self.down
            .iter()
            .enumerate()
            .filter_map(|(u, d)| d.map(|l| (self.ids[u], self.ids[l as usize])))
            .collect()
    }

    fn up_counts(&self) -> Vec<u32> {
        let mut up = vec![0u32; self.len()];
        for d in self.down.iter().flatten() {
            up[*d as usize] += 1;
        }
        up
    }

    /// Leaves (maxima), sorted descending in sweep order.
    pub fn maxima(&self) -> Vec<VertexId> {
        let up = self.up_counts();
        let mut out: Vec<u32> = (0..self.len() as u32)
            .filter(|&i| up[i as usize] == 0)
            .collect();
        self.sort_by_sweep(&mut out);
        out.into_iter().map(|i| self.ids[i as usize]).collect()
    }

    /// Roots (one per connected component).
    pub fn roots(&self) -> Vec<VertexId> {
        (0..self.len())
            .filter(|&i| self.down[i].is_none())
            .map(|i| self.ids[i])
            .collect()
    }

    fn sort_by_sweep(&self, idxs: &mut [u32]) {
        idxs.sort_unstable_by_key(|&i| (sweep_key(self.values[i as usize]), self.ids[i as usize]));
    }

    /// The canonical form: regular nodes (exactly one up-arc and a
    /// down-arc) spliced out, arcs sorted. Two trees describe the same
    /// topology iff their canonical node/arc sets are equal — this is the
    /// equality used to validate the distributed computation against the
    /// serial one.
    pub fn canonical(&self) -> CanonicalTree {
        let up = self.up_counts();
        let node = |i: usize| Some((self.ids[i], self.values[i], self.down[i], up[i]));
        canonical_of(self.len(), |i| node(i as usize))
    }

    /// The up-arcs of every node.
    fn ups_of(&self) -> Vec<Vec<u32>> {
        let mut ups_of: Vec<Vec<u32>> = vec![Vec::new(); self.len()];
        for (u, d) in self.down.iter().enumerate() {
            if let Some(l) = d {
                ups_of[*l as usize].push(u as u32);
            }
        }
        ups_of
    }

    /// The elder-rule walk: every merge of a younger branch into an
    /// elder one, as `(younger maximum, elder maximum, saddle)` slots.
    fn branch_merges(&self) -> Vec<(u32, u32, u32)> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        self.sort_by_sweep(&mut order);
        let ups_of = self.ups_of();
        // branch[i]: the maximum owning the branch through node i.
        // Process top-down: by the time we reach a node, all its up-arcs
        // have assigned branches.
        let mut branch: Vec<Option<u32>> = vec![None; self.len()];
        let mut merges = Vec::new();
        for &i in &order {
            let mut children: Vec<u32> = ups_of[i as usize]
                .iter()
                .map(|&u| branch[u as usize].expect("processed above"))
                .collect();
            if children.is_empty() {
                branch[i as usize] = Some(i);
                continue;
            }
            // The elder child branch continues through this node; the
            // younger ones die here.
            self.sort_by_sweep(&mut children);
            children.dedup();
            branch[i as usize] = Some(children[0]);
            merges.extend(children[1..].iter().map(|&y| (y, children[0], i)));
        }
        merges
    }

    /// Branch decomposition by the elder rule.
    ///
    /// Every node is assigned to the branch of the *sweep-highest* maximum
    /// above it; each non-elder maximum's branch terminates at the saddle
    /// where it merges with an older branch. Returns, per maximum, the
    /// saddle where its branch dies (`None` for the globally-highest
    /// maximum of each component, which persists forever).
    pub fn branch_decomposition(&self) -> Vec<Branch> {
        let up = self.up_counts();
        let mut dies: HashMap<u32, Option<(VertexId, f64)>> = (0..self.len() as u32)
            .filter(|&i| up[i as usize] == 0)
            .map(|i| (i, None))
            .collect();
        for (young, _, saddle) in self.branch_merges() {
            let s = saddle as usize;
            dies.insert(young, Some((self.ids[s], self.values[s])));
        }
        let mut out: Vec<Branch> = dies
            .into_iter()
            .map(|(leaf, death)| {
                let lv = self.values[leaf as usize];
                Branch {
                    leaf: self.ids[leaf as usize],
                    leaf_value: lv,
                    dies_at: death,
                    persistence: death.map_or(f64::INFINITY, |(_, sv)| lv - sv),
                }
            })
            .collect();
        out.sort_unstable_by(|a, b| {
            b.persistence
                .partial_cmp(&a.persistence)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.leaf.cmp(&b.leaf))
        });
        out
    }

    /// For every node with value ≥ `t` (in sweep order), the *feature
    /// representative*: the sweep-highest maximum of its superlevel-set
    /// component at level `t`. Nodes below `t` are absent.
    ///
    /// This is the tree-side half of feature-based statistics: per-block
    /// partial statistics are keyed by a local maximum, and this map
    /// tells the in-transit stage which global feature each local
    /// maximum belongs to at the analysis threshold.
    pub fn feature_representatives(&self, t: f64) -> HashMap<VertexId, VertexId> {
        let n = self.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        self.sort_by_sweep(&mut order);
        // Union-find over node slots, restricted to nodes >= t.
        let mut uf = UnionFind::new(n);
        // Highest node (by sweep) in each component — always a maximum,
        // because components grow top-down.
        let mut top: Vec<u32> = (0..n as u32).collect();
        let above = |i: u32| self.values[i as usize] >= t;
        let ups_of = self.ups_of();
        for &i in &order {
            if !above(i) {
                break;
            }
            // Union with every up-neighbor (all ups are sweep-higher by
            // the arc invariant, hence already processed and above t).
            for &u in &ups_of[i as usize] {
                let (ru, ri) = (uf.find(u), uf.find(i));
                if ru != ri {
                    // Keep the sweep-higher top.
                    let (tu, ti) = (top[ru as usize], top[ri as usize]);
                    let ku = (self.values[tu as usize], self.ids[tu as usize]);
                    let ki = (self.values[ti as usize], self.ids[ti as usize]);
                    top[uf.union(ru, ri) as usize] = if sweep_before(ku, ki) { tu } else { ti };
                }
            }
        }
        (0..n as u32)
            .filter(|&i| above(i))
            .map(|i| {
                (
                    self.ids[i as usize],
                    self.ids[top[uf.find(i) as usize] as usize],
                )
            })
            .collect()
    }

    /// Maxima whose branch persistence is at least `threshold`, plus a map
    /// from every maximum to the surviving maximum that absorbs it under
    /// simplification (surviving maxima map to themselves).
    pub fn simplify_map(&self, threshold: f64) -> SimplifyMap {
        let branches = self.branch_decomposition();
        let surviving: Vec<VertexId> = branches
            .iter()
            .filter(|b| b.persistence >= threshold)
            .map(|b| b.leaf)
            .collect();
        // For absorbed maxima: follow the branch each one merges into,
        // repeatedly, until a surviving maximum is reached.
        let parent_branch: HashMap<VertexId, VertexId> = self
            .branch_merges()
            .into_iter()
            .map(|(young, elder, _)| (self.ids[young as usize], self.ids[elder as usize]))
            .collect();
        let surviving_set: std::collections::HashSet<VertexId> =
            surviving.iter().copied().collect();
        let mut absorb: HashMap<VertexId, VertexId> = HashMap::new();
        for b in &branches {
            let mut cur = b.leaf;
            while !surviving_set.contains(&cur) {
                cur = *parent_branch
                    .get(&cur)
                    .expect("every non-surviving branch has a parent");
            }
            absorb.insert(b.leaf, cur);
        }
        SimplifyMap { surviving, absorb }
    }
}

/// Canonical (critical-points-only) form of a merge tree; see
/// [`MergeTree::canonical`].
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalTree {
    /// `(id, value)` for every critical node, sorted by id.
    pub nodes: Vec<(VertexId, f64)>,
    /// `(upper, lower)` arcs between critical nodes, sorted.
    pub arcs: Vec<(VertexId, VertexId)>,
}

/// A node as [`canonical_of`] reads it: id, value, down node, up-arcs.
pub(crate) type ForestNode = (VertexId, f64, Option<u32>, u32);

/// The canonical form of the forest whose node `i < len` is `node(i)`
/// (`None` for a hole); the one rule behind [`MergeTree::canonical`] and
/// [`crate::StreamingMergeTree::finish_canonical`].
pub(crate) fn canonical_of(len: usize, node: impl Fn(u32) -> Option<ForestNode>) -> CanonicalTree {
    let keep = |n: &ForestNode| n.3 != 1 || n.2.is_none();
    let mut kept: Vec<ForestNode> = (0..len as u32).filter_map(&node).filter(keep).collect();
    // Stable: nodes come in ascending runs (one per subtree) to merge.
    kept.sort_by_key(|n| n.0);
    // Walk down through regular nodes to the next kept one. A node has
    // at most one arc down, so arcs in node order are sorted. Every kept
    // node with a down node has one, so `arcs` is allocated at its exact
    // length: a tree kept in a run's outputs carries no spare capacity.
    let mut arcs = Vec::with_capacity(kept.iter().filter(|n| n.2.is_some()).count());
    arcs.extend(kept.iter().filter_map(|&n| {
        let mut c = n;
        loop {
            c = node(c.2?).expect("arcs end at nodes");
            if keep(&c) {
                return Some((n.0, c.0));
            }
        }
    }));
    CanonicalTree {
        arcs,
        nodes: kept.iter().map(|n| (n.0, n.1)).collect(),
    }
}

/// One branch of the decomposition: a maximum and where it dies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Branch {
    /// The maximum owning the branch.
    pub leaf: VertexId,
    /// Value at the maximum.
    pub leaf_value: f64,
    /// Saddle `(id, value)` where the branch merges into an older one;
    /// `None` for the elder branch of a component.
    pub dies_at: Option<(VertexId, f64)>,
    /// `leaf_value − saddle_value`, or +inf for elder branches.
    pub persistence: f64,
}

/// Result of persistence simplification at a threshold.
#[derive(Debug, Clone)]
pub struct SimplifyMap {
    /// Maxima that survive, most persistent first.
    pub surviving: Vec<VertexId>,
    /// Every maximum → the surviving maximum that absorbs it.
    pub absorb: HashMap<VertexId, VertexId>,
}

impl SimplifyMap {
    /// The surviving maximum absorbing `leaf` (identity for survivors).
    pub fn target(&self, leaf: VertexId) -> Option<VertexId> {
        self.absorb.get(&leaf).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tree:   10(a)   8(b)
    ///            \    /
    ///             6(s)     4(c)
    ///               \      /
    ///                 2(r)
    fn two_saddle_tree() -> MergeTree {
        let mut t = MergeTree::new();
        t.add_node(0, 10.0); // a
        t.add_node(1, 8.0); // b
        t.add_node(2, 6.0); // s
        t.add_node(3, 4.0); // c
        t.add_node(4, 2.0); // r
        t.add_arc(0, 2);
        t.add_arc(1, 2);
        t.add_arc(2, 4);
        t.add_arc(3, 4);
        t
    }

    #[test]
    fn maxima_and_roots() {
        let t = two_saddle_tree();
        assert_eq!(t.maxima(), vec![0, 1, 3]);
        assert_eq!(t.roots(), vec![4]);
    }

    #[test]
    fn canonical_splices_regular_nodes() {
        let mut t = MergeTree::new();
        t.add_node(0, 10.0);
        t.add_node(1, 7.0); // regular
        t.add_node(2, 5.0); // regular
        t.add_node(3, 1.0);
        t.add_arc(0, 1);
        t.add_arc(1, 2);
        t.add_arc(2, 3);
        let c = t.canonical();
        assert_eq!(c.nodes, vec![(0, 10.0), (3, 1.0)]);
        assert_eq!(c.arcs, vec![(0, 3)]);
    }

    #[test]
    fn canonical_equality_across_representations() {
        // Same topology with and without intermediate regular nodes.
        let t1 = two_saddle_tree();
        let mut t2 = MergeTree::new();
        t2.add_node(0, 10.0);
        t2.add_node(9, 9.0); // regular on a's arc
        t2.add_node(1, 8.0);
        t2.add_node(2, 6.0);
        t2.add_node(3, 4.0);
        t2.add_node(4, 2.0);
        t2.add_arc(0, 9);
        t2.add_arc(9, 2);
        t2.add_arc(1, 2);
        t2.add_arc(2, 4);
        t2.add_arc(3, 4);
        assert_eq!(t1.canonical(), t2.canonical());
    }

    #[test]
    fn canonical_arcs_carry_no_spare_capacity() {
        // Five maxima straight into one root: a collected iterator of
        // unknown length would have grown `arcs` to eight slots.
        let mut t = MergeTree::new();
        t.add_node(5, 0.0);
        for i in 0..5 {
            t.add_node(i, 10.0 + i as f64);
            t.add_arc(i, 5);
        }
        let c = t.canonical();
        assert_eq!(c.arcs.len(), 5);
        assert_eq!(c.arcs.capacity(), c.arcs.len());
    }

    #[test]
    fn branch_decomposition_elder_rule() {
        let t = two_saddle_tree();
        let br = t.branch_decomposition();
        assert_eq!(br.len(), 3);
        // Elder branch: leaf 0, infinite persistence.
        assert_eq!(br[0].leaf, 0);
        assert!(br[0].persistence.is_infinite());
        // Leaf 1 dies at saddle 2 (value 6): persistence 2.
        let b1 = br.iter().find(|b| b.leaf == 1).unwrap();
        assert_eq!(b1.dies_at, Some((2, 6.0)));
        assert_eq!(b1.persistence, 2.0);
        // Leaf 3 dies at root 4 (value 2): persistence 2.
        let b3 = br.iter().find(|b| b.leaf == 3).unwrap();
        assert_eq!(b3.dies_at, Some((4, 2.0)));
        assert_eq!(b3.persistence, 2.0);
    }

    #[test]
    fn simplify_absorbs_small_branches() {
        let t = two_saddle_tree();
        // Threshold above 2: only the elder branch survives.
        let s = t.simplify_map(3.0);
        assert_eq!(s.surviving, vec![0]);
        assert_eq!(s.target(1), Some(0));
        assert_eq!(s.target(3), Some(0));
        assert_eq!(s.target(0), Some(0));
        // Threshold 0: everything survives.
        let s0 = t.simplify_map(0.0);
        assert_eq!(s0.surviving.len(), 3);
        assert_eq!(s0.target(1), Some(1));
    }

    #[test]
    fn nested_absorption_chains() {
        // d(9) dies into c's branch; c(9.5) dies into a's branch. With a
        // high threshold both must chain to a.
        let mut t = MergeTree::new();
        t.add_node(0, 10.0); // a
        t.add_node(1, 9.5); // c
        t.add_node(2, 9.0); // d
        t.add_node(3, 8.5); // saddle d/c
        t.add_node(4, 5.0); // saddle c/a
        t.add_arc(1, 3);
        t.add_arc(2, 3);
        t.add_arc(3, 4);
        t.add_arc(0, 4);
        let s = t.simplify_map(10.0);
        assert_eq!(s.surviving, vec![0]);
        assert_eq!(s.target(2), Some(0));
        assert_eq!(s.target(1), Some(0));
        // Middle threshold: c survives (persistence 4.5), d (0.5) doesn't.
        let s2 = t.simplify_map(1.0);
        assert_eq!(s2.surviving.len(), 2);
        assert_eq!(s2.target(2), Some(1));
    }

    #[test]
    #[should_panic]
    fn arc_must_descend() {
        let mut t = MergeTree::new();
        t.add_node(0, 1.0);
        t.add_node(1, 5.0);
        t.add_arc(0, 1);
    }

    #[test]
    #[should_panic]
    fn redeclare_different_value_panics() {
        let mut t = MergeTree::new();
        t.add_node(0, 1.0);
        t.add_node(0, 2.0);
    }

    #[test]
    fn accessors() {
        let t = two_saddle_tree();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.value(2), Some(6.0));
        assert_eq!(t.value(99), None);
        assert_eq!(t.down_of(0), Some(2));
        assert_eq!(t.down_of(4), None);
        assert_eq!(t.down_of(99), None);
        assert_eq!(t.arcs().len(), 4);
        assert_eq!(t.node_ids().len(), 5);
        assert!(MergeTree::new().is_empty());
    }

    #[test]
    fn feature_representatives_by_threshold() {
        let t = two_saddle_tree();
        // Above the first saddle (t = 7): components {a}, {b} — wait, b=8
        // is above 7, a=10 too; they are separate (saddle at 6 is below).
        let reps = t.feature_representatives(7.0);
        assert_eq!(reps.get(&0), Some(&0));
        assert_eq!(reps.get(&1), Some(&1));
        assert!(!reps.contains_key(&2)); // saddle (6) below threshold
        assert!(!reps.contains_key(&3)); // c (4) below threshold
                                         // At t = 5: a and b merged through the saddle; c separate.
        let reps = t.feature_representatives(5.0);
        assert_eq!(reps.get(&0), Some(&0));
        assert_eq!(reps.get(&1), Some(&0));
        assert_eq!(reps.get(&2), Some(&0));
        assert!(!reps.contains_key(&3));
        // At t = 3: c is its own feature.
        let reps = t.feature_representatives(3.0);
        assert_eq!(reps.get(&3), Some(&3));
        assert_eq!(reps.get(&1), Some(&0));
        // Below the root everything is one feature labeled by the
        // global max.
        let reps = t.feature_representatives(0.0);
        assert!(reps.values().all(|&r| r == 0));
        assert_eq!(reps.len(), 5);
    }

    #[test]
    fn forest_with_two_components() {
        let mut t = MergeTree::new();
        t.add_node(0, 5.0);
        t.add_node(1, 1.0);
        t.add_arc(0, 1);
        t.add_node(10, 7.0);
        t.add_node(11, 2.0);
        t.add_arc(10, 11);
        assert_eq!(t.roots().len(), 2);
        let br = t.branch_decomposition();
        assert_eq!(br.len(), 2);
        assert!(br.iter().all(|b| b.persistence.is_infinite()));
    }
}
