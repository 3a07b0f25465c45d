//! The topology stages the faster versions replaced, kept as their
//! oracles.
//!
//! The in-situ stage the packed-key sweep and then the radix-ordered
//! mask-stencil sweep replaced: `reference_rank_subtree` is the stage
//! before both, a comparison sort whose comparator rebuilds both
//! `(value, id)` keys on every comparison, a sweep that bounds-checks
//! every neighbour axis by axis, and a reduction that runs a
//! `ranks_overlapping` query and allocates a potential-source list for
//! every vertex of the block. Its comparator spells out the sweep order
//! (NaN below every number, in id order; `-0.0` equal to `0.0`) instead
//! of using the packed key. The new stage must reproduce its `Subtree`
//! **exactly** — bit-identical values and identical `encode_subtree`
//! bytes — for both connectivities, both boundary policies and every
//! rank of every decomposition: tie-heavy fields with thin blocks and
//! signed zeros, and full-entropy fields of arbitrary bit patterns in
//! which every byte of the sort key varies.
//!
//! The in-transit gluer the slot arena replaced: [`old_stream`] is the
//! `HashMap`-per-vertex `StreamingMergeTree`, unchanged. The arena must
//! give it an equal tree and equal `StreamStats` for every field,
//! decomposition, connectivity, policy, pin set and arrival order, and
//! the arena's canonical tree, read straight off its slots, must be the
//! old gluer's tree made canonical. The topology aggregator, fed the
//! encoded parts in every rank order (a random sample of orders beyond
//! four ranks), must return `glue_subtrees(..).canonical()`.

use proptest::prelude::*;
use sitra_core::analysis::{Analysis, AnalysisOutput, HybridTopology};
use sitra_core::wire::encode_subtree;
use sitra_mesh::{exchange_ghosts, BBox3, Decomposition, ScalarField};
use sitra_topology::distributed::{glue_subtrees, in_situ_subtrees};
use sitra_topology::distributed::{rank_subtree, BoundaryPolicy};
use sitra_topology::reduce::{Subtree, SubtreeVertex};
use sitra_topology::stream::SourceId;
use sitra_topology::{Connectivity, MergeTree, StreamingMergeTree, VertexId};
use std::cmp::Ordering;

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

/// The sweep order on `(value, id)`, written out: higher values first,
/// `-0.0` equal to `0.0`, NaN below every number, and ties by id.
fn sweep_cmp(a: (f64, VertexId), b: (f64, VertexId)) -> Ordering {
    match (a.0.is_nan(), b.0.is_nan()) {
        (false, false) => b.0.partial_cmp(&a.0).expect("numbers compare"),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
    .then(a.1.cmp(&b.1))
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
    order.sort_unstable_by(|&a, &b| sweep_cmp(key(a), key(b)));
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
        .all(|q| sweep_cmp((field.get(q), global.local_index(q) as u64), kp) == Ordering::Greater)
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

/// The streaming gluer before the slot arena: one `HashMap` entry per
/// vertex holding two `Vec`s, and an `end_source` that scans every live
/// entry.
mod old_stream {
    use sitra_topology::tree::MergeTree;
    use sitra_topology::types::{sweep_before, VertexId};
    use std::collections::{HashMap, HashSet};

    /// Identifier of one stream source (typically the producing rank).
    pub type SourceId = u32;

    #[derive(Debug, Clone)]
    struct Entry {
        value: f64,
        down: Option<VertexId>,
        ups: Vec<VertexId>,
        /// Incident edges declared but not yet inserted.
        remaining: u32,
        /// Pinned vertices are exempt from finalization eviction — consumers
        /// (e.g. feature-based statistics) will look them up in the final
        /// tree even if they are globally regular.
        pinned: bool,
        /// Potential sources that have neither declared this vertex nor ended
        /// their stream.
        pending: Vec<SourceId>,
    }

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
    }

    /// Order-independent streaming merge-tree builder; see module docs.
    #[derive(Debug, Default)]
    pub struct StreamingMergeTree {
        entries: HashMap<VertexId, Entry>,
        ended: HashSet<SourceId>,
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
            self.entries.len()
        }

        /// Declare a vertex from `source` with the number of incident edges
        /// this source will eventually send. `potential` lists *all* sources
        /// that might declare this vertex (including `source` itself); every
        /// declaring source must announce the same value and potential set.
        pub fn declare_vertex(
            &mut self,
            source: SourceId,
            id: VertexId,
            value: f64,
            incident_edges: u32,
            potential: &[SourceId],
        ) {
            assert!(
                potential.contains(&source),
                "vertex {id}: declaring source {source} not in its potential set"
            );
            assert!(
                !self.ended.contains(&source),
                "vertex {id}: source {source} already ended"
            );
            let first = !self.entries.contains_key(&id);
            let ended = &self.ended;
            let e = self.entries.entry(id).or_insert_with(|| Entry {
                value,
                down: None,
                ups: Vec::new(),
                remaining: 0,
                pinned: false,
                pending: potential
                    .iter()
                    .copied()
                    .filter(|s| !ended.contains(s))
                    .collect(),
            });
            assert_eq!(e.value, value, "vertex {id} declared with differing values");
            if first {
                self.stats.vertices += 1;
            }
            if let Some(pos) = e.pending.iter().position(|&s| s == source) {
                e.pending.swap_remove(pos);
            } else {
                panic!("vertex {id} declared twice by source {source}");
            }
            e.remaining += incident_edges;
            self.stats.peak_live = self.stats.peak_live.max(self.entries.len());
        }

        /// Announce that `source` will send nothing further. Vertices waiting
        /// only on this source become finalizable.
        pub fn end_source(&mut self, source: SourceId) {
            assert!(self.ended.insert(source), "source {source} ended twice");
            let affected: Vec<VertexId> = self
                .entries
                .iter_mut()
                .filter_map(|(&id, e)| {
                    if let Some(pos) = e.pending.iter().position(|&s| s == source) {
                        e.pending.swap_remove(pos);
                        Some(id)
                    } else {
                        None
                    }
                })
                .collect();
            for id in affected {
                self.try_finalize(id);
            }
        }

        /// Exempt a declared vertex from eviction: it will appear in the
        /// final tree even when globally regular. Any source may pin.
        pub fn pin_vertex(&mut self, id: VertexId) {
            self.entries
                .get_mut(&id)
                .unwrap_or_else(|| panic!("pin of undeclared vertex {id}"))
                .pinned = true;
        }

        fn key(&self, id: VertexId) -> (f64, VertexId) {
            (self.entries[&id].value, id)
        }

        fn set_down(&mut self, u: VertexId, new_down: Option<VertexId>) {
            let old = self.entries.get_mut(&u).unwrap().down;
            if old == new_down {
                return;
            }
            if let Some(o) = old {
                let e = self.entries.get_mut(&o).unwrap();
                if let Some(pos) = e.ups.iter().position(|&x| x == u) {
                    e.ups.swap_remove(pos);
                }
            }
            self.entries.get_mut(&u).unwrap().down = new_down;
            if let Some(n) = new_down {
                self.entries.get_mut(&n).unwrap().ups.push(u);
            }
        }

        /// Insert one subtree edge. Both endpoints must have been declared.
        /// The edge may connect vertices in any order and arbitrary position;
        /// chains are merged to maintain the join tree of all edges seen.
        pub fn insert_edge(&mut self, a: VertexId, b: VertexId) {
            assert!(
                self.entries.contains_key(&a),
                "edge endpoint {a} not declared"
            );
            assert!(
                self.entries.contains_key(&b),
                "edge endpoint {b} not declared"
            );
            assert_ne!(a, b, "self-loop");
            self.stats.edges += 1;

            // Path-merge the two chains.
            let (mut u, mut v) = (a, b);
            loop {
                if u == v {
                    break;
                }
                if sweep_before(self.key(v), self.key(u)) {
                    std::mem::swap(&mut u, &mut v);
                }
                // u is strictly higher than v.
                match self.entries[&u].down {
                    None => {
                        self.set_down(u, Some(v));
                        break;
                    }
                    Some(w) => {
                        if w == v {
                            break;
                        }
                        if sweep_before(self.key(v), self.key(w)) {
                            // v belongs between u and w: splice, then merge the
                            // rest of v's chain with w's chain.
                            self.set_down(u, Some(v));
                            u = v;
                            v = w;
                        } else {
                            u = w;
                        }
                    }
                }
            }

            // Account the processed edge and attempt finalization.
            for id in [a, b] {
                let e = self.entries.get_mut(&id).unwrap();
                assert!(e.remaining > 0, "more edges than declared for {id}");
                e.remaining -= 1;
            }
            self.try_finalize(a);
            self.try_finalize(b);
        }

        /// Evict `id` if it is finalized and regular.
        fn try_finalize(&mut self, id: VertexId) {
            let Some(e) = self.entries.get(&id) else {
                return;
            };
            if e.pinned
                || !e.pending.is_empty()
                || e.remaining != 0
                || e.ups.len() != 1
                || e.down.is_none()
            {
                return;
            }
            let up = e.ups[0];
            let down = e.down.unwrap();
            // Splice: up now points past id to down.
            self.set_down(id, None);
            self.set_down(up, Some(down));
            self.entries.remove(&id);
            self.stats.evicted += 1;
        }

        /// Finish the stream: every declared edge must have arrived and every
        /// vertex must be fully resolved (callers must [`Self::end_source`]
        /// every source). Returns the merge tree of the union of all subtrees
        /// (with any remaining regular vertices still present; call
        /// [`MergeTree::canonical`] to splice them).
        pub fn finish(mut self) -> (MergeTree, StreamStats) {
            let leftover: Vec<VertexId> = self
                .entries
                .iter()
                .filter(|(_, e)| e.remaining > 0 || !e.pending.is_empty())
                .map(|(&id, _)| id)
                .collect();
            assert!(
                leftover.is_empty(),
                "stream finished with undelivered edges or sources at {leftover:?}"
            );
            self.stats.peak_live = self.stats.peak_live.max(self.entries.len());
            let mut tree = MergeTree::new();
            for (&id, e) in &self.entries {
                tree.add_node(id, e.value);
            }
            for (&id, e) in &self.entries {
                if let Some(d) = e.down {
                    tree.add_arc(id, d);
                }
            }
            (tree, self.stats)
        }
    }
}

/// A subtree with every value as its bit pattern: NaNs compare by
/// payload, and `-0.0` differs from `0.0`.
fn bitwise(s: &Subtree) -> Vec<(VertexId, u64, u32, Vec<SourceId>, bool)> {
    let vertex = |v: &SubtreeVertex| {
        let SubtreeVertex {
            id,
            value,
            degree,
            ref potential,
            pinned,
        } = *v;
        (id, value.to_bits(), degree, potential.clone(), pinned)
    };
    s.verts.iter().map(vertex).collect()
}

/// [`check_ranks`] under both connectivities.
fn check_all_ranks(whole: &ScalarField, d: &Decomposition) -> Result<(), TestCaseError> {
    check_ranks(whole, d, &CONNS)
}

/// Every rank's subtree under each of `conns` and every policy must
/// match the reference exactly.
fn check_ranks(
    whole: &ScalarField,
    d: &Decomposition,
    conns: &[Connectivity],
) -> Result<(), TestCaseError> {
    let ghosted = ghosted(whole, d);
    for &conn in conns {
        for policy in POLICIES {
            for (r, g) in ghosted.iter().enumerate() {
                let got = rank_subtree(d, r, g, conn, policy);
                let want = reference_rank_subtree(d, r, g, conn, policy);
                let ctx = format!("rank {r} {conn:?} {policy:?}");
                prop_assert_eq!(bitwise(&got), bitwise(&want), "{}", ctx);
                prop_assert_eq!(
                    (got.source, &got.edges),
                    (want.source, &want.edges),
                    "{}",
                    ctx
                );
                prop_assert_eq!(encode_subtree(&got), encode_subtree(&want), "{}", ctx);
            }
        }
    }
    Ok(())
}

/// Every rank's ghosted block of `whole`.
fn ghosted(whole: &ScalarField, d: &Decomposition) -> Vec<ScalarField> {
    let blocks: Vec<ScalarField> = (0..d.rank_count())
        .map(|r| whole.extract(&d.block(r)))
        .collect();
    exchange_ghosts(d, &blocks, 1).0
}

/// The tie-heavy generator of `proptests.rs` (few distinct values, thin
/// blocks), with the option of giving each zero a hashed sign so that
/// `0.0` and `-0.0` meet in one field. `parts` bounds the rank grid
/// (exclusive), `nvals` draws the number of distinct values.
fn field_and_decomp(
    parts: [usize; 3],
    nvals: impl Strategy<Value = usize>,
) -> impl Strategy<Value = (ScalarField, Decomposition)> {
    (
        (2usize..8, 2usize..7, 2usize..6),
        (1..parts[0], 1..parts[1], 1..parts[2]),
        2u64..=u64::MAX,
        nvals,
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

/// Values every byte of whose sort key varies: arbitrary `f64` bit
/// patterns, with NaNs of several payloads, both zeros, both infinities
/// and subnormals mixed in. Otherwise as [`field_and_decomp`].
fn entropy_field_and_decomp(
    parts: [usize; 3],
) -> impl Strategy<Value = (ScalarField, Decomposition)> {
    const SPECIAL: [u64; 12] = [
        0x7ff8_0000_0000_0000, // the quiet NaN
        0x7ff0_0000_0000_0001, // a signalling NaN
        0xfff8_0000_0000_0000, // a negative NaN
        0x7fff_ffff_ffff_ffff, // the largest NaN payload
        0x0000_0000_0000_0000, // 0.0
        0x8000_0000_0000_0000, // -0.0
        0x7ff0_0000_0000_0000, // inf
        0xfff0_0000_0000_0000, // -inf
        0x0000_0000_0000_0001, // the smallest subnormal
        0x000f_ffff_ffff_ffff, // the largest subnormal
        0x8000_0000_0000_0001, // a negative subnormal
        0x0010_0000_0000_0000, // the smallest normal
    ];
    (
        (2usize..8, 2usize..7, 2usize..6),
        (1..parts[0], 1..parts[1], 1..parts[2]),
        any::<u64>(),
    )
        .prop_map(|((nx, ny, nz), (px, py, pz), seed)| {
            let g = BBox3::from_dims([nx, ny, nz]);
            let mut rng = seed;
            let f = ScalarField::from_fn(g, |_| {
                let r = next(&mut rng);
                let bits = match r % 4 {
                    0 => SPECIAL[(r >> 8) as usize % SPECIAL.len()],
                    _ => next(&mut rng),
                };
                f64::from_bits(bits)
            });
            let d = Decomposition::new(g, [px.min(nx), py.min(ny), pz.min(nz)]);
            (f, d)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tie-heavy fields and full-entropy fields, about half each.
    #[test]
    fn rank_subtree_matches_reference(
        (f, d) in prop_oneof![
            field_and_decomp([4, 3, 3], 2usize..12),
            entropy_field_and_decomp([4, 3, 3]),
        ],
    ) {
        check_all_ranks(&f, &d)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 1–27 ranks, so blocks thinner than the halo give potential sets
    /// larger than 8; few values (ties) or many.
    #[test]
    fn glue_matches_reference(
        (f, d) in field_and_decomp([4, 4, 4], prop_oneof![2usize..12, 12usize..100_000]),
        seed in any::<u64>(),
    ) {
        check_glue(&f, &d, seed)?;
    }
}

/// A splitmix64 step: the test's only source of arrival orders.
fn next(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*rng ^ (*rng >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One call into a gluer.
enum Op {
    Declare(usize, usize),
    Edge(VertexId, VertexId),
    End(SourceId),
}

/// Apply one op to either gluer (both have the same methods).
macro_rules! apply {
    ($sink:expr, $parts:expr, $op:expr) => {
        match *$op {
            Op::Declare(p, i) => {
                let (sub, v) = (&$parts[p], &$parts[p].verts[i]);
                $sink.declare_vertex(sub.source, v.id, v.value, v.degree, &v.potential);
                if v.pinned {
                    $sink.pin_vertex(v.id);
                }
            }
            Op::Edge(a, b) => $sink.insert_edge(a, b),
            Op::End(s) => $sink.end_source(s),
        }
    };
}

/// Every node of a glued tree, regular vertices included, as sorted
/// `(id, value bits, down)`.
fn raw(t: &MergeTree) -> Vec<(VertexId, u64, Option<VertexId>)> {
    let node = |&id: &VertexId| (id, t.value(id).unwrap().to_bits(), t.down_of(id));
    let mut nodes: Vec<_> = t.node_ids().iter().map(node).collect();
    nodes.sort_unstable();
    nodes
}

/// Glue every connectivity × policy's subtrees of `whole` with both
/// gluers. Each part pins some of its leaves (local maxima, as
/// `FeatureStats` does), shuffles and flips its edges, and the parts'
/// op streams (declarations, then edges, then the end) interleave at
/// random. Trees, with regular vertices and their values, and stats
/// must agree.
fn check_glue(whole: &ScalarField, d: &Decomposition, seed: u64) -> Result<(), TestCaseError> {
    let ghosted = ghosted(whole, d);
    let mut rng = seed;
    for conn in CONNS {
        for policy in POLICIES {
            let mut parts = in_situ_subtrees(d, &ghosted, conn, policy);
            let mut queues: Vec<Vec<Op>> = Vec::new();
            for (p, sub) in parts.iter_mut().enumerate() {
                for v in &mut sub.verts {
                    let leaf = !sub.edges.iter().any(|e| e.1 == v.id);
                    v.pinned = leaf && next(&mut rng).is_multiple_of(3);
                }
                let mut ops: Vec<Op> = (0..sub.verts.len()).map(|i| Op::Declare(p, i)).collect();
                let mut edges = sub.edges.clone();
                for i in (1..edges.len()).rev() {
                    edges.swap(i, (next(&mut rng) % (i as u64 + 1)) as usize);
                }
                for (a, b) in edges {
                    let flip = next(&mut rng) & 1 == 1;
                    ops.push(if flip { Op::Edge(b, a) } else { Op::Edge(a, b) });
                }
                ops.push(Op::End(sub.source));
                ops.reverse();
                queues.push(ops);
            }
            let mut new = StreamingMergeTree::new();
            let mut canon = StreamingMergeTree::new();
            let mut old = old_stream::StreamingMergeTree::new();
            while !queues.is_empty() {
                let q = (next(&mut rng) % queues.len() as u64) as usize;
                let op = queues[q].pop().expect("queues are never left empty");
                apply!(new, parts, &op);
                apply!(canon, parts, &op);
                apply!(old, parts, &op);
                prop_assert_eq!(new.live(), old.live());
                prop_assert_eq!(new.stats().evicted, old.stats().evicted);
                if queues[q].is_empty() {
                    queues.swap_remove(q);
                }
            }
            let ((t, s), (rt, rs)) = (new.finish(), old.finish());
            let ctx = format!("{conn:?} {policy:?} {} ranks", d.rank_count());
            prop_assert_eq!(t.canonical(), rt.canonical(), "{}", ctx);
            let (c, cs) = canon.finish_canonical();
            prop_assert_eq!(&c, &rt.canonical(), "{}", ctx);
            prop_assert_eq!(cs, s, "{}", ctx);
            prop_assert_eq!(raw(&t), raw(&rt), "{}", ctx);
            prop_assert_eq!(
                (s.vertices, s.edges, s.evicted, s.peak_live),
                (rs.vertices, rs.edges, rs.evicted, rs.peak_live),
                "{}",
                ctx
            );
            prop_assert!(s.chain_steps >= s.edges);

            let want = AnalysisOutput::Tree(glue_subtrees(&parts).0.canonical());
            let encoded: Vec<_> = parts.iter().map(encode_subtree).collect();
            for order in rank_orders(parts.len(), &mut rng) {
                let mut agg = HybridTopology::default()
                    .streaming_aggregator(0)
                    .expect("topology streams");
                for r in order.iter().copied() {
                    agg.feed(r, encoded[r].clone());
                }
                prop_assert_eq!(agg.finish(), want.clone(), "{} order {:?}", ctx, order);
            }
        }
    }
    Ok(())
}

/// Every order of `n` ranks for up to four ranks, else `n` random ones.
fn rank_orders(n: usize, rng: &mut u64) -> Vec<Vec<usize>> {
    if n <= 4 {
        let all = (0..n.pow(n as u32)).map(|k| (0..n).map(|i| k / n.pow(i as u32) % n).collect());
        return all
            .filter(|o: &Vec<usize>| (0..n).all(|r| o.contains(&r)))
            .collect();
    }
    (0..n)
        .map(|_| {
            let mut o: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                o.swap(i, (next(rng) % (i as u64 + 1)) as usize);
            }
            o
        })
        .collect()
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
    let d = Decomposition::new(g, [2, 2, 1]);
    check_all_ranks(&whole, &d).unwrap();
    check_glue(&whole, &d, 7).unwrap();
}

/// The 26-connected twin of the test above, on a block large enough
/// that every one of the 27 stencil classes a 26-neighbourhood can clip
/// to occurs on every rank.
#[test]
fn smooth_field_matches_reference_at_2x2x1_twenty_six() {
    let g = BBox3::from_dims([22, 20, 14]);
    let whole = ScalarField::from_fn(g, |p| {
        let (x, y, z) = (p[0] as f64, p[1] as f64, p[2] as f64);
        (0.6 * x + 0.2 * z).cos() * (0.45 * y).sin() + (0.8 * z - 0.3 * x).sin()
    });
    let d = Decomposition::new(g, [2, 2, 1]);
    check_ranks(&whole, &d, &[Connectivity::TwentySix]).unwrap();
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
    let d = Decomposition::new(g, [9, 2, 1]);
    check_all_ranks(&whole, &d).unwrap();
    check_glue(&whole, &d, 11).unwrap();
}
