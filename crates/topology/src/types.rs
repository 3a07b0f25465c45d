//! Shared vertex identity, sweep ordering, and grid connectivity.

use serde::{Deserialize, Serialize};
use sitra_mesh::BBox3;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Globally unique vertex identifier: the linear index of the grid point
/// within the *global* domain (x fastest). Using global ids makes subtrees
/// computed on different ranks refer to the same vertices, which is what
/// lets the in-transit stage glue them.
pub type VertexId = u64;

/// Linearize a global coordinate against the global domain box.
pub fn vertex_id(global: &BBox3, p: [usize; 3]) -> VertexId {
    global.local_index(p) as VertexId
}

/// Inverse of [`vertex_id`].
pub fn vertex_coord(global: &BBox3, id: VertexId) -> [usize; 3] {
    global.coord_of(id as usize)
}

/// The sweep order: `(value, id)` lexicographic, *descending*.
///
/// `sweep_after(a, b)` is true when `a` is encountered strictly after `b`
/// as the isovalue sweeps from +inf downward — i.e. `a` is "lower" in
/// merge-tree terms. Tie-breaking on the vertex id is a simulation of
/// simplicity: it makes every field effectively injective, so the merge
/// tree is unique and identical no matter how the domain is decomposed.
///
/// The in-situ sweep sorts by `(sweep_key(value), id)` ascending, which
/// is this order on every non-NaN value. The key folds `-0.0` into
/// `0.0`, so the two tie and the id decides, exactly as `==` on `f64`
/// does here. NaN, which this comparison cannot order, gets the largest
/// key: NaN vertices are swept last, below `-inf`, in id order.
#[inline]
pub fn sweep_after(a: (f64, VertexId), b: (f64, VertexId)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

/// True when `a` is strictly higher (earlier in the sweep) than `b`.
#[inline]
pub fn sweep_before(a: (f64, VertexId), b: (f64, VertexId)) -> bool {
    sweep_after(b, a)
}

/// A `u64` that is smaller the earlier `v` is swept (see [`sweep_after`]).
#[inline]
pub(crate) fn sweep_key(v: f64) -> u64 {
    // `-0.0 + 0.0` is `0.0`; every NaN becomes the pattern ordered last.
    let bits = (v + 0.0).to_bits();
    let bits = if v.is_nan() { u64::MAX } else { bits };
    // Flipping every bit of a negative and the sign bit of a positive
    // orders floats as integers; the outer `!` makes it descending.
    !(bits ^ ((bits as i64 >> 63) as u64 | 1 << 63))
}

/// Hashes one integer id (a vertex or source id) with a multiply and a
/// fold, so the low bits a table indexes by depend on every bit of it.
/// Ids come from the grid, not from an adversary.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes
            .iter()
            .fold(self.0, |h, &b| h.rotate_left(8) ^ b as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 ^= x;
    }
}

/// A `HashMap` keyed by integer ids through [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Vertex adjacency used to define superlevel-set connectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Connectivity {
    /// Face neighbors only (6 in 3D).
    Six,
    /// Face, edge, and corner neighbors (26 in 3D).
    TwentySix,
}

const SIX: [[isize; 3]; 6] = [
    [-1, 0, 0],
    [1, 0, 0],
    [0, -1, 0],
    [0, 1, 0],
    [0, 0, -1],
    [0, 0, 1],
];

/// Every offset of the 3×3×3 cube but its centre, x fastest.
const TWENTY_SIX: [[isize; 3]; 26] = {
    let mut t = [[0; 3]; 26];
    let mut k = 0;
    while k < 26 {
        let c = (if k < 13 { k } else { k + 1 }) as isize;
        t[k] = [c % 3 - 1, c / 3 % 3 - 1, c / 9 - 1];
        k += 1;
    }
    t
};

impl Connectivity {
    /// Neighbor offsets for this connectivity.
    pub fn offsets(self) -> &'static [[isize; 3]] {
        match self {
            Connectivity::Six => &SIX,
            Connectivity::TwentySix => &TWENTY_SIX,
        }
    }

    /// Neighbors of `p` inside `bbox`.
    pub fn neighbors_in(self, p: [usize; 3], bbox: &BBox3) -> impl Iterator<Item = [usize; 3]> {
        let b = *bbox;
        self.offsets()
            .iter()
            .filter_map(move |&d| offset_in(p, d, &b))
    }
}

/// `p + d` if it lies inside `bbox`.
#[inline]
fn offset_in(p: [usize; 3], d: [isize; 3], bbox: &BBox3) -> Option<[usize; 3]> {
    let q = [0, 1, 2].map(|a| p[a].wrapping_add_signed(d[a]));
    bbox.contains(q).then_some(q)
}

/// The neighbours of one box's vertices as local linear indices (x
/// fastest): each offset paired with its stride, so a vertex whose
/// neighbours all lie inside the clip box needs no per-axis check.
pub(crate) struct Stencil(Vec<([isize; 3], isize)>);

impl Stencil {
    pub(crate) fn new(conn: Connectivity, bbox: &BBox3) -> Self {
        let [dx, dy, _] = bbox.dims().map(|d| d as isize);
        let stride = |d: [isize; 3]| d[0] + dx * (d[1] + dy * d[2]);
        Self(conn.offsets().iter().map(|&d| (d, stride(d))).collect())
    }

    /// Local indices of the neighbours of local vertex `i` (global
    /// coordinate `p`) inside `clip`, a sub-box of the stencil's box.
    #[inline]
    pub(crate) fn neighbors<'a>(
        &'a self,
        i: usize,
        p: [usize; 3],
        clip: &'a BBox3,
    ) -> impl Iterator<Item = usize> + 'a {
        let interior = (0..3).all(|a| p[a] > clip.lo[a] && p[a] + 1 < clip.hi[a]);
        let inside = move |&&(d, _): &&_| interior || offset_in(p, d, clip).is_some();
        let index = move |&(_, s): &(_, isize)| i.wrapping_add_signed(s);
        self.0.iter().filter(inside).map(index)
    }
}

/// A compact union-find over dense local indices with path halving and
/// union by size — the workhorse of the in-situ sweep.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set. Path halving: every vertex on the way
    /// is relinked to its grandparent, in a single pass.
    #[inline]
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            let gp = self.parent[p as usize];
            if p == gp {
                return p;
            }
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Union the sets of `a` and `b`; returns the new representative.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let (mut big, mut small) = (self.find(a), self.find(b));
        if big != small {
            if self.size[big as usize] < self.size[small as usize] {
                std::mem::swap(&mut big, &mut small);
            }
            self.parent[small as usize] = big;
            self.size[big as usize] += self.size[small as usize];
        }
        big
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_order_total() {
        // Higher value comes first; ties broken by smaller id first.
        assert!(sweep_before((2.0, 5), (1.0, 0)));
        assert!(sweep_before((1.0, 0), (1.0, 1)));
        assert!(sweep_after((1.0, 1), (1.0, 0)));
        assert!(!sweep_after((1.0, 0), (1.0, 0)));
        assert!(!sweep_before((1.0, 0), (1.0, 0)));
    }

    #[test]
    fn vertex_id_roundtrip() {
        let g = BBox3::new([2, 3, 4], [7, 9, 11]);
        for p in g.iter() {
            assert_eq!(vertex_coord(&g, vertex_id(&g, p)), p);
        }
    }

    #[test]
    fn connectivity_counts() {
        assert_eq!(Connectivity::Six.offsets().len(), 6);
        assert_eq!(Connectivity::TwentySix.offsets().len(), 26);
    }

    #[test]
    fn neighbors_clipped_at_boundary() {
        let b = BBox3::from_dims([3, 3, 3]);
        let corner: Vec<_> = Connectivity::TwentySix
            .neighbors_in([0, 0, 0], &b)
            .collect();
        assert_eq!(corner.len(), 7);
        let center: Vec<_> = Connectivity::TwentySix
            .neighbors_in([1, 1, 1], &b)
            .collect();
        assert_eq!(center.len(), 26);
        let face6: Vec<_> = Connectivity::Six.neighbors_in([0, 1, 1], &b).collect();
        assert_eq!(face6.len(), 5);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(6);
        assert_ne!(uf.find(0), uf.find(1));
        uf.union(0, 1);
        uf.union(2, 3);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(1), uf.find(2));
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(5));
    }
}
