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

/// The six class bits of a vertex: bit `2a` is set when its neighbour at
/// `-1` on axis `a` lies inside the box, bit `2a + 1` for `+1`.
const FACES: u8 = 0x3f;

/// The neighbours of one box's vertices as local linear indices (x
/// fastest). A vertex's *class* (see [`FACES`]) says which of its face
/// neighbours lie inside the clip box; it selects one of 64 stride lists,
/// in which an offset appears when every axis it steps along has its bit
/// set. One table serves both connectivities, and no vertex needs a
/// per-axis check once its class is known.
pub(crate) struct Stencil {
    /// Class `c`'s strides are `strides[start[c]..start[c + 1]]`.
    start: [u16; 65],
    strides: Vec<isize>,
}

impl Stencil {
    pub(crate) fn new(conn: Connectivity, bbox: &BBox3) -> Self {
        let [dx, dy, _] = bbox.dims().map(|d| d as isize);
        let mut start = [0; 65];
        let mut strides = Vec::new();
        for class in 0..64 {
            let bit = |a: usize, d: isize| class >> (2 * a + (d > 0) as usize) & 1 == 1;
            let inside = |d: &&[isize; 3]| (0..3).all(|a| d[a] == 0 || bit(a, d[a]));
            let stride = |d: &[isize; 3]| d[0] + dx * (d[1] + dy * d[2]);
            strides.extend(conn.offsets().iter().filter(inside).map(stride));
            start[class + 1] = strides.len() as u16;
        }
        Self { start, strides }
    }

    /// The class of global coordinate `p` in `clip`.
    #[inline]
    pub(crate) fn class(p: [usize; 3], clip: &BBox3) -> u8 {
        (0..3).fold(0, |c, a| {
            c | ((p[a] > clip.lo[a]) as u8) << (2 * a)
                | ((p[a] + 1 < clip.hi[a]) as u8) << (2 * a + 1)
        })
    }

    /// Every vertex's class in `bbox`, by local index: one nested z/y/x
    /// pass, without a division. The two high bits are left clear for
    /// the caller.
    pub(crate) fn classes(bbox: &BBox3) -> Vec<u8> {
        let [nx, ny, nz] = bbox.dims();
        let bits = |x: usize, n: usize| (x > 0) as u8 | ((x + 1 < n) as u8) << 1;
        let mut classes = Vec::with_capacity(bbox.count());
        for z in 0..nz {
            for y in 0..ny {
                let zy = bits(z, nz) << 4 | bits(y, ny) << 2;
                classes.extend((0..nx).map(|x| zy | bits(x, nx)));
            }
        }
        classes
    }

    /// The neighbour strides of class `class` (bits outside [`FACES`]
    /// are ignored).
    #[inline]
    pub(crate) fn strides(&self, class: u8) -> &[isize] {
        let c = (class & FACES) as usize;
        &self.strides[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// Local indices of the neighbours of local vertex `i` of class
    /// `class`.
    #[inline]
    pub(crate) fn neighbors(&self, i: usize, class: u8) -> impl Iterator<Item = usize> + '_ {
        self.strides(class)
            .iter()
            .map(move |&s| i.wrapping_add_signed(s))
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

    /// True when `x` is the root `root` or hangs directly off it: a
    /// same-set test that needs no walk when it holds.
    #[inline]
    pub(crate) fn under(&self, x: u32, root: u32) -> bool {
        self.parent[x as usize] == root
    }

    /// Hangs the singleton `x` under the root `root` — the union a
    /// size comparison would choose.
    #[inline]
    pub(crate) fn adopt(&mut self, root: u32, x: u32) {
        debug_assert_eq!(self.size[x as usize], 1);
        self.parent[x as usize] = root;
        self.size[root as usize] += 1;
    }

    /// Union the sets of `a` and `b`; returns the new representative.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let (a, b) = (self.find(a), self.find(b));
        self.link(a, b)
    }

    /// Union the sets whose representatives are `big` and `small`;
    /// returns the new representative.
    #[inline]
    pub(crate) fn link(&mut self, mut big: u32, mut small: u32) -> u32 {
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
