//! The hybrid visualization path: in-situ down-sampling, in-transit
//! lookup-table ray casting.
//!
//! Each rank down-samples its block onto the global coarse lattice with
//! [`sitra_mesh::downsample`] and ships the [`sitra_mesh::SampledBlock`]
//! to the staging area. The in-transit renderer never reconstructs the
//! coarse volume: a small **lookup table** of the received blocks' bounds
//! (the paper's way around visibility sorting and reconstruction) tells
//! where a sample's voxel lives — asked once per run of a lattice column
//! inside a block while a ray gathers its corner columns (`march.rs`),
//! not once per sample, and answered with one binary search per axis.
//! Serial by design: the paper renders on one staging bucket, whose
//! other cores serve other tasks. It stays serial on the process-wide
//! worker pool too. A row-parallel render ran 1.76× faster alone
//! (1.57 → 0.89 ms, 2 vCPUs), but inside the `viz-cluster3` e2e
//! workload its wall time read p50 1.0 ms, p90 18.6 ms and max 62.7 ms,
//! and `insight_ms` rose from 2.4–2.7 to 11–35 ms: the simulation's
//! later parallel calls publish newer jobs, and the workers take the
//! newest first. A pool variant that served the newest *family* of jobs
//! first still starved the render at p90. An in-transit stage goes on
//! the pool only with a priority rule that favours it.
//!
//! The renderer accepts the *same* [`View`] as the full-resolution in-situ
//! path — sample positions are mapped into coarse space internally — so
//! the two images are directly comparable (the paper's Fig. 2).

use crate::image::Image;
use crate::march::Marcher;
use crate::render::View;
use crate::transfer::TransferFunction;
use sitra_mesh::{BBox3, SampledBlock, ScalarField};

#[cfg(test)]
thread_local!(static FIND_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });

/// The block-bounds lookup table of the in-transit renderer.
///
/// Indexed per axis: the sorted distinct `lo` of the blocks cut the
/// coarse domain into a grid of cells, and each cell names the first
/// block holding its low corner. Blocks that tile the domain as a grid
/// (a [`sitra_mesh::Decomposition`]'s) give one cell per block, each
/// inside its block, so a lookup is one binary search per axis.
#[derive(Debug)]
pub struct BlockTable {
    /// `(coarse bounds, block index)` per received block.
    entries: Vec<(BBox3, usize)>,
    /// Per axis, the sorted distinct `lo` of the entries.
    cuts: [Vec<usize>; 3],
    /// Per cell, x fastest: the first entry holding the cell's low corner.
    /// Empty when the blocks are too far from a grid to index.
    cells: Vec<Option<usize>>,
}

impl BlockTable {
    /// Build the table from the received blocks' coarse bounds.
    pub fn new(blocks: &[SampledBlock]) -> Self {
        let entries: Vec<(BBox3, usize)> = blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.coarse_bbox.is_empty())
            .map(|(i, b)| (b.coarse_bbox, i))
            .collect();
        let cuts = std::array::from_fn(|a| {
            let mut cuts: Vec<usize> = entries.iter().map(|(bb, _)| bb.lo[a]).collect();
            cuts.sort_unstable();
            cuts.dedup();
            cuts
        });
        let n = cuts.each_ref().map(Vec::len);
        let mut cells = vec![];
        // A grid has one cell per entry; staggered blocks could need n³.
        if n[0] * n[1] * n[2] <= 64 * entries.len() {
            cells = vec![None; n[0] * n[1] * n[2]];
            // Last to first, so the first entry holding a corner keeps it.
            for (e, (bb, _)) in entries.iter().enumerate().rev() {
                let span = |a: usize| {
                    let below = |x: usize| cuts[a].partition_point(|&c| c < x);
                    below(bb.lo[a])..below(bb.hi[a])
                };
                for k in span(2) {
                    for j in span(1) {
                        for i in span(0) {
                            cells[(k * n[1] + j) * n[0] + i] = Some(e);
                        }
                    }
                }
            }
        }
        Self {
            entries,
            cuts,
            cells,
        }
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of the block owning coarse point `p`: the first block whose
    /// bounds hold it.
    pub fn find(&self, p: [usize; 3]) -> Option<usize> {
        #[cfg(test)]
        FIND_CALLS.with(|c| c.set(c.get() + 1));
        // Every entry holding `p` holds its cell's low corner, so the
        // cell's owner answers unless blocks overlap or `p` is in no block.
        match self.cell(p).and_then(|c| self.cells[c]) {
            Some(e) if self.entries[e].0.contains(p) => Some(self.entries[e].1),
            _ => self.scan(p),
        }
    }

    /// The cell holding `p`, if the table is indexed and `p` is not below
    /// every block on some axis.
    fn cell(&self, p: [usize; 3]) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        let mut cell = 0;
        for a in (0..3).rev() {
            let i = self.cuts[a]
                .partition_point(|&c| c <= p[a])
                .checked_sub(1)?;
            cell = cell * self.cuts[a].len() + i;
        }
        Some(cell)
    }

    /// [`BlockTable::find`] without the index.
    #[cold]
    fn scan(&self, p: [usize; 3]) -> Option<usize> {
        let hit = self.entries.iter().find(|(bb, _)| bb.contains(p));
        hit.map(|&(_, idx)| idx)
    }
}

/// Serial in-transit renderer over down-sampled blocks.
#[derive(Debug)]
pub struct HybridRenderer {
    blocks: Vec<SampledBlock>,
    table: BlockTable,
    stride: usize,
    coarse_domain: BBox3,
}

impl HybridRenderer {
    /// Ingest the in-situ stage's blocks: one stride, one value per coarse
    /// point, together tiling the coarse domain (a task short of parts fails
    /// here, not at a pixel); empty blocks (thinner than the stride) are fine.
    pub fn new(blocks: Vec<SampledBlock>) -> Self {
        assert!(!blocks.is_empty(), "no blocks received");
        let stride = blocks[0].stride;
        assert!(
            blocks.iter().all(|b| b.stride == stride),
            "blocks disagree on stride"
        );
        let coarse_domain = blocks
            .iter()
            .filter(|b| !b.coarse_bbox.is_empty())
            .map(|b| b.coarse_bbox)
            .reduce(|a, b| a.cover(&b))
            .expect("all blocks empty");
        let counted = blocks.iter().all(|b| b.data.len() == b.coarse_bbox.count());
        assert!(counted, "a block's data.len is not its point count");
        let held: usize = blocks.iter().map(|b| b.data.len()).sum();
        let all = coarse_domain.count();
        assert!(held == all, "a part of {coarse_domain:?} is missing");
        let table = BlockTable::new(&blocks);
        Self {
            blocks,
            table,
            stride,
            coarse_domain,
        }
    }

    /// The down-sampling stride of the received data.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The coarse lattice region covered.
    pub fn coarse_domain(&self) -> BBox3 {
        self.coarse_domain
    }

    /// Total payload received from the in-situ stage, in bytes.
    pub fn received_bytes(&self) -> usize {
        self.blocks.iter().map(SampledBlock::bytes).sum()
    }

    /// Ray-cast the down-sampled data through the *full-resolution* view
    /// (sample positions are divided by the stride, so the image is pixel-
    /// compatible with the in-situ one). Serial by design: one bucket.
    pub fn render(&self, view: &View, tf: &TransferFunction) -> Image {
        let find = |p| {
            let idx = self.table.find(p).expect("blocks tile the coarse domain");
            (self.blocks[idx].coarse_bbox, &self.blocks[idx].data[..])
        };
        let marcher = Marcher::new(view, self.stride as f64, self.coarse_domain, None, find);
        let mut img = Image::new(view.width, view.height);
        let rows = img.pixels_mut().chunks_mut(view.width).enumerate();
        rows.for_each(|(py, row)| marcher.row(tf, py, row));
        img
    }

    /// Reconstruct the coarse field (for diagnostics and tests; the
    /// renderer itself never does this).
    pub fn assemble(&self) -> ScalarField {
        let mut out = ScalarField::new_fill(self.coarse_domain, f64::NAN);
        for b in &self.blocks {
            if !b.coarse_bbox.is_empty() {
                out.paste(&b.as_field());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{render_serial, ViewAxis};
    use sitra_mesh::{downsample, Decomposition};

    fn smooth(b: BBox3) -> ScalarField {
        ScalarField::from_fn(b, |p| {
            let x = p[0] as f64 * 0.3;
            let y = p[1] as f64 * 0.4;
            let z = p[2] as f64 * 0.25;
            ((x).sin() * (y).cos() + (z).sin() + 2.0) / 4.0
        })
    }

    fn blocks_of(whole: &ScalarField, parts: [usize; 3], stride: usize) -> Vec<SampledBlock> {
        let d = Decomposition::new(whole.bbox(), parts);
        (0..d.rank_count())
            .map(|r| downsample(&whole.extract(&d.block(r)), stride))
            .collect()
    }

    #[test]
    fn table_finds_owners() {
        let whole = smooth(BBox3::from_dims([12, 12, 12]));
        let blocks = blocks_of(&whole, [2, 2, 2], 2);
        let table = BlockTable::new(&blocks);
        for (i, b) in blocks.iter().enumerate() {
            for p in b.coarse_bbox.iter() {
                assert_eq!(table.find(p), Some(i));
            }
        }
        assert_eq!(table.find([99, 0, 0]), None);
    }

    /// The index answers what a scan of the entries answers, first entry
    /// first: on a grid, staggered blocks, an overlap and a gap, a layout
    /// too far from a grid to index, and points outside every block.
    #[test]
    fn indexed_find_is_the_scan() {
        let block = |lo, hi| {
            let bb = BBox3::new(lo, hi);
            let data = vec![0.0; bb.count()];
            SampledBlock {
                src_bbox: bb,
                stride: 1,
                coarse_bbox: bb,
                data,
            }
        };
        let layouts = [
            blocks_of(&smooth(BBox3::from_dims([12, 9, 7])), [3, 2, 2], 2),
            vec![
                block([0, 0, 0], [4, 2, 2]),
                block([0, 2, 0], [2, 4, 2]),
                block([2, 2, 0], [4, 4, 2]),
            ],
            vec![
                block([0, 0, 0], [3, 3, 3]),
                block([2, 2, 2], [5, 5, 5]),
                block([6, 0, 0], [7, 1, 1]),
            ],
            (0..9).map(|i| block([i; 3], [i + 1; 3])).collect(),
        ];
        for blocks in layouts {
            let table = BlockTable::new(&blocks);
            let scan = |p| {
                let holds =
                    |b: &SampledBlock| !b.coarse_bbox.is_empty() && b.coarse_bbox.contains(p);
                blocks.iter().position(holds)
            };
            for p in BBox3::from_dims([11; 3]).iter() {
                assert_eq!(table.find(p), scan(p), "{p:?}");
            }
        }
    }

    #[test]
    fn assembled_field_matches_global_downsample() {
        let whole = smooth(BBox3::from_dims([15, 13, 11]));
        let blocks = blocks_of(&whole, [3, 2, 2], 3);
        let hr = HybridRenderer::new(blocks);
        let global = downsample(&whole, 3);
        assert_eq!(hr.assemble(), global.as_field());
        assert_eq!(hr.coarse_domain(), global.coarse_bbox);
    }

    #[test]
    fn stride_one_hybrid_equals_in_situ() {
        let whole = smooth(BBox3::from_dims([10, 9, 8]));
        let blocks = blocks_of(&whole, [2, 2, 1], 1);
        let hr = HybridRenderer::new(blocks);
        let tf = TransferFunction::hot(0.0, 1.0);
        let view = View::full_res(whole.bbox(), ViewAxis::Z, false);
        let full = render_serial(&whole, &view, &tf);
        let hybrid = hr.render(&view, &tf);
        assert!(
            full.max_abs_diff(&hybrid) < 1e-9,
            "diff {}",
            full.max_abs_diff(&hybrid)
        );
    }

    #[test]
    fn quality_degrades_gracefully_with_stride() {
        let whole = smooth(BBox3::from_dims([32, 32, 32]));
        let tf = TransferFunction::hot(0.0, 1.0);
        let view = View::full_res(whole.bbox(), ViewAxis::Z, false);
        let reference = render_serial(&whole, &view, &tf);
        let rmse2 = HybridRenderer::new(blocks_of(&whole, [2, 2, 2], 2))
            .render(&view, &tf)
            .rmse(&reference);
        let rmse8 = HybridRenderer::new(blocks_of(&whole, [2, 2, 2], 8))
            .render(&view, &tf)
            .rmse(&reference);
        // Coarser data renders a less accurate image, but both stay in a
        // sane range for a smooth field.
        assert!(rmse2 <= rmse8, "rmse2 {rmse2} rmse8 {rmse8}");
        assert!(rmse8 < 0.2, "rmse8 {rmse8}");
        assert!(rmse2 > 0.0);
    }

    #[test]
    fn payload_shrinks_cubically_with_stride() {
        let whole = smooth(BBox3::from_dims([32, 32, 32]));
        let b1 = HybridRenderer::new(blocks_of(&whole, [2, 2, 2], 1)).received_bytes();
        let b4 = HybridRenderer::new(blocks_of(&whole, [2, 2, 2], 4)).received_bytes();
        assert_eq!(b1, 32 * 32 * 32 * 8);
        // 4³ = 64× reduction (8×8×8 coarse points).
        assert_eq!(b4, 8 * 8 * 8 * 8);
    }

    #[test]
    fn tolerates_blocks_thinner_than_stride() {
        let whole = smooth(BBox3::from_dims([9, 4, 4]));
        // 3 slabs of width 3, stride 4: middle slab [3,6) contains the
        // lattice point x=4, first [0,3) contains x=0, last [6,9) x=8.
        let blocks = blocks_of(&whole, [3, 1, 1], 4);
        let hr = HybridRenderer::new(blocks);
        assert_eq!(hr.coarse_domain().dims(), [3, 1, 1]);
        let tf = TransferFunction::hot(0.0, 1.0);
        let view = View::full_res(whole.bbox(), ViewAxis::Z, false);
        let img = hr.render(&view, &tf);
        assert!(img.pixels().iter().any(|p| p[3] > 0.0));
    }

    /// The `e2e` `viz-cluster3` shape: every ray stays inside one block
    /// column, so each lattice column a row of rays reads (20 along u, 2
    /// along v) is gathered in one run — 40 lookups per row of 40 rays,
    /// where one cursor per corner made 8 per ray and the per-sample
    /// renderer 8 × 40.
    #[test]
    fn table_lookups_are_per_block_run_not_per_sample() {
        let whole = smooth(BBox3::from_dims([40, 40, 40]));
        let hr = HybridRenderer::new(blocks_of(&whole, [2, 2, 1], 2));
        let view = View::full_res(whole.bbox(), ViewAxis::Z, false);
        fn sync<T: Sync>(_: &T) {}
        sync(&hr);
        let before = FIND_CALLS.get();
        hr.render(&view, &TransferFunction::hot(0.0, 1.0));
        assert_eq!(FIND_CALLS.get() - before, 20 * 2 * 40);
        // Along x every ray crosses both block columns.
        let view = View::full_res(whole.bbox(), ViewAxis::X, true);
        let before = FIND_CALLS.get();
        hr.render(&view, &TransferFunction::hot(0.0, 1.0));
        assert_eq!(FIND_CALLS.get() - before, 2 * 20 * 2 * 40);
    }

    #[test]
    #[should_panic(expected = "is missing")]
    fn a_task_short_of_parts_fails_at_construction() {
        let whole = smooth(BBox3::from_dims([8, 8, 8]));
        let mut blocks = blocks_of(&whole, [2, 2, 1], 2);
        blocks.remove(1);
        let _ = HybridRenderer::new(blocks);
    }

    #[test]
    #[should_panic(expected = "data.len")]
    fn a_block_short_of_values_fails_at_construction() {
        let whole = smooth(BBox3::from_dims([8, 8, 8]));
        let mut blocks = blocks_of(&whole, [2, 1, 1], 2);
        blocks[1].data.pop();
        let _ = HybridRenderer::new(blocks);
    }

    #[test]
    #[should_panic]
    fn mixed_strides_panic() {
        let whole = smooth(BBox3::from_dims([8, 8, 8]));
        let d = Decomposition::new(whole.bbox(), [2, 1, 1]);
        let b0 = downsample(&whole.extract(&d.block(0)), 2);
        let b1 = downsample(&whole.extract(&d.block(1)), 4);
        let _ = HybridRenderer::new(vec![b0, b1]);
    }
}
