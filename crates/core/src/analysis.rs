//! The two-stage analysis abstraction and the paper's concrete analyses.
//!
//! Every analysis is decomposed per the paper's central idea: a
//! data-parallel, communication-free **in-situ stage** run independently
//! on each rank's block, producing an intermediate payload that is
//! orders of magnitude smaller than the raw block; and an **aggregation
//! stage** combining all ranks' intermediates. Where the aggregation
//! runs is a [`crate::Placement`] decision, not part of the algorithm —
//! the same code serves the fully in-situ and the hybrid variants.

use crate::wire;
use bytes::Bytes;
use sitra_flowmap::{advect_block, FlowMapOpts, FlowRecord};
use sitra_mesh::{downsample, Decomposition, ScalarField};
use sitra_stats::{derive, Derived, MultiModel};
use sitra_topology::distributed::{rank_subtree, BoundaryPolicy};
use sitra_topology::tree::CanonicalTree;
use sitra_topology::{Connectivity, StreamingMergeTree};
use sitra_viz::{render_block, HybridRenderer, Image, TransferFunction, View};

/// What one rank sees when running an in-situ stage.
pub struct InSituCtx<'a> {
    /// This rank.
    pub rank: usize,
    /// Current simulation step.
    pub step: u64,
    /// The domain decomposition.
    pub decomp: &'a Decomposition,
    /// The primary analysis variable over the rank's block grown by a
    /// one-point halo (from the ghost exchange).
    pub ghosted: &'a ScalarField,
    /// All simulation variables over the plain (un-ghosted) block, by
    /// name — multi-variable analyses (statistics) read these.
    pub vars: &'a [(String, ScalarField)],
}

impl InSituCtx<'_> {
    /// The rank's own block.
    pub fn block(&self) -> sitra_mesh::BBox3 {
        self.decomp.block(self.rank)
    }

    /// A named variable over the block.
    pub fn var(&self, name: &str) -> Option<&ScalarField> {
        self.vars.iter().find(|(n, _)| n == name).map(|(_, f)| f)
    }
}

/// Result of an aggregation stage.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisOutput {
    /// A composited or rendered image.
    Image(Image),
    /// The canonical global merge tree.
    Tree(CanonicalTree),
    /// Derived descriptive statistics per variable.
    Stats(Vec<(String, Derived)>),
    /// Named scalar results (e.g. correlations, test statistics).
    Scalars(Vec<(String, f64)>),
    /// Lagrangian flow-map termination records, sorted by seed id.
    FlowMap(Vec<FlowRecord>),
}

impl AnalysisOutput {
    /// The image, if this output is one.
    pub fn as_image(&self) -> Option<&Image> {
        match self {
            AnalysisOutput::Image(i) => Some(i),
            _ => None,
        }
    }

    /// The tree, if this output is one.
    pub fn as_tree(&self) -> Option<&CanonicalTree> {
        match self {
            AnalysisOutput::Tree(t) => Some(t),
            _ => None,
        }
    }

    /// The statistics, if this output is them.
    pub fn as_stats(&self) -> Option<&[(String, Derived)]> {
        match self {
            AnalysisOutput::Stats(s) => Some(s),
            _ => None,
        }
    }

    /// The named scalars, if this output is them.
    pub fn as_scalars(&self) -> Option<&[(String, f64)]> {
        match self {
            AnalysisOutput::Scalars(s) => Some(s),
            _ => None,
        }
    }

    /// The flow-map records, if this output is them.
    pub fn as_flow_map(&self) -> Option<&[FlowRecord]> {
        match self {
            AnalysisOutput::FlowMap(r) => Some(r),
            _ => None,
        }
    }
}

/// An incremental aggregation in progress (one step, one bucket).
///
/// The paper's future-work item "process in-transit data in a streaming
/// fashion, starting as soon as the first data arrives" — implemented:
/// analyses that support it return one of these, the bucket feeds each
/// rank's payload the moment its RDMA pull completes, and the
/// aggregation cost overlaps the remaining transfers.
pub trait Aggregator: Send {
    /// Incorporate one rank's payload.
    fn feed(&mut self, rank: usize, payload: Bytes);
    /// All payloads delivered: produce the output.
    fn finish(self: Box<Self>) -> AnalysisOutput;
}

/// A two-stage (in-situ + aggregation) analysis.
pub trait Analysis: Send + Sync {
    /// Short identifier used in metrics and task descriptors.
    fn name(&self) -> &str;

    /// The data-parallel in-situ stage: runs on one rank, touches only
    /// local data, returns the encoded intermediate payload.
    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes;

    /// The aggregation stage: combines all ranks' payloads for one step.
    /// Runs either synchronously in-situ or on a staging bucket,
    /// depending on placement.
    fn aggregate(&self, step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput;

    /// Optional streaming aggregation: return an [`Aggregator`] to let
    /// the staging bucket start combining as soon as the first payload
    /// lands (instead of buffering everything first). Must produce the
    /// same output as [`Analysis::aggregate`] for any arrival order.
    fn streaming_aggregator(&self, step: u64) -> Option<Box<dyn Aggregator>> {
        let _ = step;
        None
    }
}

// ---------------------------------------------------------------------
// Visualization
// ---------------------------------------------------------------------

/// Fully in-situ visualization: every rank ray-casts its full-resolution
/// block; aggregation composites the partial images in visibility order.
pub struct InSituViz {
    /// The orthographic view.
    pub view: View,
    /// The transfer function.
    pub tf: TransferFunction,
}

impl Analysis for InSituViz {
    fn name(&self) -> &str {
        "viz-insitu"
    }

    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
        let block = ctx.block();
        let img = render_block(ctx.ghosted, &block, &self.view, &self.tf);
        let (r, _, _) = self.view.axis.dims();
        let key = if self.view.flip {
            -(block.lo[r] as i64)
        } else {
            block.lo[r] as i64
        };
        wire::encode_partial_image(key, &img)
    }

    fn aggregate(&self, _step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
        let mut imgs: Vec<(i64, Image)> = parts
            .iter()
            .map(|(_, b)| {
                wire::decode_partial_image(b.clone()).expect("valid in-process partial image")
            })
            .collect();
        imgs.sort_by_key(|(k, _)| *k);
        let mut out = Image::new(self.view.width, self.view.height);
        for (_, img) in &imgs {
            out.over(img);
        }
        AnalysisOutput::Image(out)
    }
}

/// Hybrid visualization: ranks down-sample in-situ; a single bucket
/// ray-casts the reduced blocks through the lookup table in-transit.
pub struct HybridViz {
    /// Down-sampling stride (the paper uses every 8th grid point).
    pub stride: usize,
    /// The orthographic view (full-resolution pixel geometry).
    pub view: View,
    /// The transfer function.
    pub tf: TransferFunction,
}

impl Analysis for HybridViz {
    fn name(&self) -> &str {
        "viz-hybrid"
    }

    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
        // Down-sample the plain block (no halo needed: the global coarse
        // lattice is partitioned among ranks).
        let block = ctx.block();
        let own = ctx.ghosted.extract(&block);
        wire::encode_sampled_block(&downsample(&own, self.stride))
    }

    fn aggregate(&self, _step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
        let blocks: Vec<_> = parts
            .iter()
            .map(|(_, b)| {
                wire::decode_sampled_block(b.clone()).expect("valid in-process sampled block")
            })
            .collect();
        let renderer = HybridRenderer::new(blocks);
        AnalysisOutput::Image(renderer.render(&self.view, &self.tf))
    }
}

// ---------------------------------------------------------------------
// Descriptive statistics
// ---------------------------------------------------------------------

/// Descriptive statistics with the learn/derive split: `learn` runs
/// in-situ per rank over all (or selected) variables; aggregation merges
/// the partial models and runs `derive`.
#[derive(Default)]
pub struct HybridStats {
    /// Restrict to these variables (all block variables when empty).
    pub variables: Vec<String>,
}

impl Analysis for HybridStats {
    fn name(&self) -> &str {
        "stats"
    }

    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
        let selected: Vec<(&str, &[f64])> = ctx
            .vars
            .iter()
            .filter(|(n, _)| self.variables.is_empty() || self.variables.contains(n))
            .map(|(n, f)| (n.as_str(), f.as_slice()))
            .collect();
        assert!(!selected.is_empty(), "no variables to analyze");
        wire::encode_multimodel(&MultiModel::learn(&selected))
    }

    fn aggregate(&self, step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
        let mut agg = self.streaming_aggregator(step).expect("always streams");
        for (rank, b) in parts {
            agg.feed(*rank, b.clone());
        }
        agg.finish()
    }

    /// Model merging is associative and commutative, so `derive` state
    /// builds up payload-by-payload.
    fn streaming_aggregator(&self, _step: u64) -> Option<Box<dyn Aggregator>> {
        struct Merge(MultiModel);
        impl Aggregator for Merge {
            fn feed(&mut self, _rank: usize, payload: Bytes) {
                let m = wire::decode_multimodel(payload).expect("valid in-process multimodel");
                self.0.merge(&m);
            }
            fn finish(self: Box<Self>) -> AnalysisOutput {
                let stats = self
                    .0
                    .vars
                    .iter()
                    .map(|(name, m)| (name.clone(), derive(m).expect("non-empty model")))
                    .collect();
                AnalysisOutput::Stats(stats)
            }
        }
        Some(Box::new(Merge(MultiModel::default())))
    }
}

// ---------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------

/// Hybrid merge-tree analysis: in-situ local subtrees (sorted union-find
/// sweep + boundary reduction), in-transit streaming gluing.
pub struct HybridTopology {
    /// Superlevel-set connectivity.
    pub conn: Connectivity,
    /// Interface reduction policy.
    pub policy: BoundaryPolicy,
}

impl Default for HybridTopology {
    fn default() -> Self {
        Self {
            conn: Connectivity::Six,
            policy: BoundaryPolicy::BoundaryMaxima,
        }
    }
}

impl Analysis for HybridTopology {
    fn name(&self) -> &str {
        "topology"
    }

    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
        let sub = rank_subtree(ctx.decomp, ctx.rank, ctx.ghosted, self.conn, self.policy);
        wire::encode_subtree(&sub)
    }

    fn aggregate(&self, step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
        let mut agg = self.streaming_aggregator(step).expect("always streams");
        for (rank, b) in parts {
            agg.feed(*rank, b.clone());
        }
        agg.finish()
    }

    /// The merge-tree gluer is inherently streaming: subtrees are
    /// incorporated (and interior vertices finalized and evicted) as
    /// they arrive.
    fn streaming_aggregator(&self, _step: u64) -> Option<Box<dyn Aggregator>> {
        struct Glue(StreamingMergeTree);
        impl Aggregator for Glue {
            fn feed(&mut self, _rank: usize, payload: Bytes) {
                wire::decode_subtree(payload)
                    .expect("valid in-process subtree")
                    .stream_into(&mut self.0);
            }
            fn finish(self: Box<Self>) -> AnalysisOutput {
                AnalysisOutput::Tree(self.0.finish_canonical().0)
            }
        }
        Some(Box::new(Glue(StreamingMergeTree::new())))
    }
}

// ---------------------------------------------------------------------
// Auto-correlative statistics (the paper's stated future work: "a
// hybrid in-situ/in-transit auto-correlative statistical technique")
// ---------------------------------------------------------------------

/// Temporal autocorrelation of one variable at a fixed step lag.
///
/// Each rank keeps a short ring of its past blocks (in-situ state — the
/// same scratch-memory budget discussion as the paper's in-situ stages);
/// when a lagged block is available it learns a bivariate
/// [`sitra_stats::CoMoments`] model between the block `lag` steps ago
/// and now, and ships the 48-byte model. The in-transit stage merges the
/// partials and derives the global lag-`lag` Pearson autocorrelation.
///
/// Before `lag` steps have elapsed, ranks ship empty models and the
/// output correlation is reported as NaN.
pub struct AutoCorrelation {
    /// Step lag.
    pub lag: usize,
    /// The variable name (must be materialized in `ctx.vars`).
    pub variable: String,
    history: parking_lot::Mutex<
        std::collections::HashMap<usize, std::collections::VecDeque<(u64, ScalarField)>>,
    >,
}

impl AutoCorrelation {
    /// Autocorrelation of `variable` at `lag` steps.
    pub fn new(lag: usize, variable: impl Into<String>) -> Self {
        assert!(lag > 0, "lag must be positive");
        Self {
            lag,
            variable: variable.into(),
            history: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }
}

impl Analysis for AutoCorrelation {
    fn name(&self) -> &str {
        "autocorrelation"
    }

    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
        let current = ctx
            .var(&self.variable)
            .unwrap_or_else(|| panic!("variable {} not materialized", self.variable))
            .clone();
        let mut hist = self.history.lock();
        let ring = hist.entry(ctx.rank).or_default();
        // Pair with the block exactly `lag` steps older, if present.
        let model = ring
            .iter()
            .find(|(s, _)| *s + self.lag as u64 == ctx.step)
            .map(|(_, old)| sitra_stats::CoMoments::from_slices(old.as_slice(), current.as_slice()))
            .unwrap_or_default();
        ring.push_back((ctx.step, current));
        while ring.len() > self.lag + 1 {
            ring.pop_front();
        }
        wire::encode_comoments(&model)
    }

    fn aggregate(&self, _step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
        let mut merged = sitra_stats::CoMoments::new();
        for (_, b) in parts {
            let m = wire::decode_comoments(b.clone()).expect("valid in-process comoments");
            merged.merge(&m);
        }
        AnalysisOutput::Scalars(vec![
            (
                format!("autocorr({}, lag={})", self.variable, self.lag),
                merged.correlation().unwrap_or(f64::NAN),
            ),
            ("observations".to_string(), merged.n as f64),
        ])
    }
}

// ---------------------------------------------------------------------
// Lagrangian flow maps (Sane et al., "Scalable In Situ Lagrangian Flow
// Map Extraction": communication-free particle bases per rank)
// ---------------------------------------------------------------------

/// Communication-free Lagrangian flow-map extraction.
///
/// * **In-situ**: each rank seeds a globally aligned particle lattice
///   inside its own block and advects every seed by RK4 through the
///   block's `(U, V, W)` velocity snapshot
///   ([`sitra_flowmap::advect_block`]), shipping one 61-byte
///   termination record per seed. Compute-heavy, tiny output — the
///   opposite cost shape of the down-sample/render analyses.
/// * **Aggregation**: concatenate every rank's records and sort by the
///   (globally unique) seed id. Order-independent, hence streamable.
///
/// Requires `Variable::VelU/VelV/VelW` in
/// [`PipelineConfig::extra_variables`](crate::PipelineConfig::extra_variables)
/// so the velocity components are materialized per block.
#[derive(Debug, Clone, Default)]
pub struct LagrangianFlowMap {
    /// Seeding and integration parameters.
    pub opts: FlowMapOpts,
}

impl Analysis for LagrangianFlowMap {
    fn name(&self) -> &str {
        "flow-map"
    }

    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
        let component = |name: &str| {
            ctx.var(name).unwrap_or_else(|| {
                panic!("velocity component {name} not materialized; add Variable::Vel{name} to extra_variables")
            })
        };
        let recs = advect_block(
            component("U"),
            component("V"),
            component("W"),
            &ctx.block(),
            &ctx.decomp.global(),
            &self.opts,
        );
        wire::encode_flow_records(&recs)
    }

    fn aggregate(&self, step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
        let mut agg = self.streaming_aggregator(step).expect("always streams");
        for (rank, b) in parts {
            agg.feed(*rank, b.clone());
        }
        agg.finish()
    }

    /// Concatenation commutes and the final sort canonicalizes, so
    /// records accumulate in whatever order payloads arrive.
    fn streaming_aggregator(&self, _step: u64) -> Option<Box<dyn Aggregator>> {
        struct Gather(Vec<FlowRecord>);
        impl Aggregator for Gather {
            fn feed(&mut self, _rank: usize, payload: Bytes) {
                self.0.extend(
                    wire::decode_flow_records(payload).expect("valid in-process flow records"),
                );
            }
            fn finish(self: Box<Self>) -> AnalysisOutput {
                let mut recs = self.0;
                recs.sort_by_key(|r| r.seed);
                AnalysisOutput::FlowMap(recs)
            }
        }
        Some(Box::new(Gather(Vec::new())))
    }
}

// ---------------------------------------------------------------------
// Feature-based statistics (the paper's stated future work: "combining
// the merge tree computation ... with statistical analyses to enable the
// computation of feature-based statistics")
// ---------------------------------------------------------------------

/// Per-feature descriptive statistics: every superlevel-set feature at
/// `threshold` gets its own statistical model.
///
/// * **In-situ**: each rank computes its subtree (as [`HybridTopology`]),
///   *pins* the local component maxima of the thresholded region, and
///   learns one [`sitra_stats::Moments`] model per local component over
///   its own block's cells.
/// * **In-transit**: the subtrees are glued; the global merge tree maps
///   every pinned local maximum to its feature representative (the
///   sweep-highest maximum of its superlevel component at the
///   threshold), and the partial models merge per feature.
///
/// The output equals computing the global threshold segmentation and one
/// model per global feature — but nothing global ever ran on the
/// simulation side.
pub struct FeatureStats {
    /// Feature threshold (superlevel set).
    pub threshold: f64,
    /// Connectivity.
    pub conn: Connectivity,
    /// Interface reduction policy.
    pub policy: BoundaryPolicy,
}

impl Analysis for FeatureStats {
    fn name(&self) -> &str {
        "feature-stats"
    }

    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
        let mut sub = rank_subtree(ctx.decomp, ctx.rank, ctx.ghosted, self.conn, self.policy);
        // Segment the ghosted region: labels are the component maxima of
        // the *local* thresholded region — always leaves of the local
        // tree, hence present in the subtree.
        let global = ctx.decomp.global();
        let seg = sitra_topology::segment_superlevel(
            ctx.ghosted,
            &global,
            self.threshold,
            self.conn,
            None,
        );
        // Learn one model per label over the rank's OWN cells only (the
        // halo belongs to the neighbors).
        let block = ctx.block();
        let mut models: std::collections::HashMap<u64, sitra_stats::Moments> =
            std::collections::HashMap::new();
        for p in block.iter() {
            if let Some(label) = seg.label(p) {
                models.entry(label).or_default().push(ctx.ghosted.get(p));
            }
        }
        // Pin the labels so the gluer keeps them addressable.
        for v in &mut sub.verts {
            if models.contains_key(&v.id) {
                v.pinned = true;
            }
        }
        for id in models.keys() {
            debug_assert!(
                sub.verts.iter().any(|v| v.id == *id),
                "label {id} must be a subtree vertex (a local maximum)"
            );
        }
        let mut feats: Vec<(u64, sitra_stats::Moments)> = models.into_iter().collect();
        feats.sort_by_key(|(id, _)| *id);
        wire::encode_feature_stats(&sub, &feats)
    }

    fn aggregate(&self, _step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
        let mut sink = StreamingMergeTree::new();
        let mut all_feats: Vec<(u64, sitra_stats::Moments)> = Vec::new();
        for (_, b) in parts {
            let (sub, feats) =
                wire::decode_feature_stats(b.clone()).expect("valid in-process feature stats");
            sub.stream_into(&mut sink);
            all_feats.extend(feats);
        }
        let (tree, _) = sink.finish();
        let reps = tree.feature_representatives(self.threshold);
        let mut merged: std::collections::HashMap<u64, sitra_stats::Moments> =
            std::collections::HashMap::new();
        for (label, m) in all_feats {
            let rep = *reps
                .get(&label)
                .unwrap_or_else(|| panic!("label {label} missing from glued tree"));
            merged.entry(rep).or_default().merge(&m);
        }
        let mut out: Vec<(String, Derived)> = merged
            .into_iter()
            .map(|(rep, m)| (format!("feature:{rep}"), derive(&m).expect("non-empty")))
            .collect();
        // Largest features first, deterministic order.
        out.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        AnalysisOutput::Stats(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitra_mesh::{exchange_ghosts, BBox3};
    use sitra_viz::ViewAxis;

    fn setup(
        dims: [usize; 3],
        parts: [usize; 3],
    ) -> (Decomposition, ScalarField, Vec<ScalarField>) {
        let g = BBox3::from_dims(dims);
        let whole = ScalarField::from_fn(g, |p| {
            let x = p[0] as f64 * 0.55;
            let y = p[1] as f64 * 0.8;
            let z = p[2] as f64 * 0.35;
            (x.sin() * y.cos() + z.sin() + 2.0) / 4.0
        });
        let d = Decomposition::new(g, parts);
        let fields: Vec<ScalarField> = (0..d.rank_count())
            .map(|r| whole.extract(&d.block(r)))
            .collect();
        (d, whole, fields)
    }

    fn run_analysis(a: &dyn Analysis, d: &Decomposition, fields: &[ScalarField]) -> AnalysisOutput {
        let (ghosted, _) = exchange_ghosts(d, fields, 1);
        let parts: Vec<(usize, Bytes)> = (0..d.rank_count())
            .map(|r| {
                let vars = vec![("T".to_string(), fields[r].clone())];
                let ctx = InSituCtx {
                    rank: r,
                    step: 1,
                    decomp: d,
                    ghosted: &ghosted[r],
                    vars: &vars,
                };
                (r, a.in_situ(&ctx))
            })
            .collect();
        a.aggregate(1, &parts)
    }

    #[test]
    fn insitu_viz_equals_serial_render() {
        let (d, whole, fields) = setup([10, 8, 9], [2, 2, 1]);
        let view = View::full_res(whole.bbox(), ViewAxis::Z, false);
        let tf = TransferFunction::hot(0.0, 1.0);
        let a = InSituViz {
            view: view.clone(),
            tf: tf.clone(),
        };
        let out = run_analysis(&a, &d, &fields);
        let serial = sitra_viz::render_serial(&whole, &view, &tf);
        assert!(out.as_image().unwrap().max_abs_diff(&serial) < 1e-9);
    }

    #[test]
    fn insitu_viz_flipped_order_key() {
        let (d, whole, fields) = setup([8, 8, 8], [1, 1, 2]);
        let view = View {
            flip: true,
            ..View::full_res(whole.bbox(), ViewAxis::Z, false)
        };
        let tf = TransferFunction::hot(0.0, 1.0);
        let a = InSituViz {
            view: view.clone(),
            tf: tf.clone(),
        };
        let out = run_analysis(&a, &d, &fields);
        let serial = sitra_viz::render_serial(&whole, &view, &tf);
        assert!(out.as_image().unwrap().max_abs_diff(&serial) < 1e-9);
    }

    #[test]
    fn hybrid_viz_stride1_equals_serial() {
        let (d, whole, fields) = setup([10, 8, 9], [2, 2, 1]);
        let view = View::full_res(whole.bbox(), ViewAxis::Z, false);
        let tf = TransferFunction::hot(0.0, 1.0);
        let a = HybridViz {
            stride: 1,
            view: view.clone(),
            tf: tf.clone(),
        };
        let out = run_analysis(&a, &d, &fields);
        let serial = sitra_viz::render_serial(&whole, &view, &tf);
        assert!(out.as_image().unwrap().max_abs_diff(&serial) < 1e-9);
    }

    #[test]
    fn hybrid_viz_payload_shrinks_with_stride() {
        let (d, _, fields) = setup([16, 16, 16], [2, 2, 2]);
        let (ghosted, _) = exchange_ghosts(&d, &fields, 1);
        let sizes: Vec<usize> = [1usize, 4]
            .iter()
            .map(|&stride| {
                let a = HybridViz {
                    stride,
                    view: View::full_res(d.global(), ViewAxis::Z, false),
                    tf: TransferFunction::hot(0.0, 1.0),
                };
                (0..d.rank_count())
                    .map(|r| {
                        let ctx = InSituCtx {
                            rank: r,
                            step: 1,
                            decomp: &d,
                            ghosted: &ghosted[r],
                            vars: &[],
                        };
                        a.in_situ(&ctx).len()
                    })
                    .sum()
            })
            .collect();
        // 4³ = 64× fewer samples; headers damp the ratio on tiny blocks.
        assert!(sizes[0] > 20 * sizes[1], "sizes {sizes:?}");
    }

    #[test]
    fn stats_aggregation_equals_serial_learn() {
        let (d, whole, fields) = setup([9, 7, 6], [3, 1, 2]);
        let a = HybridStats::default();
        let out = run_analysis(&a, &d, &fields);
        let stats = out.as_stats().unwrap();
        assert_eq!(stats.len(), 1);
        let serial = derive(&sitra_stats::Moments::from_slice(whole.as_slice())).unwrap();
        let (name, got) = &stats[0];
        assert_eq!(name, "T");
        assert_eq!(got.count, serial.count);
        assert!((got.mean - serial.mean).abs() < 1e-12);
        assert!((got.variance - serial.variance).abs() < 1e-10);
        assert_eq!(got.min, serial.min);
        assert_eq!(got.max, serial.max);
    }

    #[test]
    fn stats_variable_selection() {
        let (d, _, fields) = setup([6, 6, 6], [2, 1, 1]);
        let (ghosted, _) = exchange_ghosts(&d, &fields, 1);
        let a = HybridStats {
            variables: vec!["P".to_string()],
        };
        let vars = vec![
            ("T".to_string(), fields[0].clone()),
            ("P".to_string(), fields[0].clone()),
        ];
        let ctx = InSituCtx {
            rank: 0,
            step: 1,
            decomp: &d,
            ghosted: &ghosted[0],
            vars: &vars,
        };
        let m = wire::decode_multimodel(a.in_situ(&ctx)).unwrap();
        assert_eq!(m.vars.len(), 1);
        assert_eq!(m.vars[0].0, "P");
    }

    #[test]
    fn topology_aggregation_equals_serial_tree() {
        let (d, whole, fields) = setup([9, 8, 7], [2, 2, 2]);
        for policy in [BoundaryPolicy::AllShared, BoundaryPolicy::BoundaryMaxima] {
            let a = HybridTopology {
                conn: Connectivity::Six,
                policy,
            };
            let out = run_analysis(&a, &d, &fields);
            let serial = sitra_topology::distributed::serial_merge_tree(&whole, Connectivity::Six)
                .canonical();
            assert_eq!(out.as_tree().unwrap(), &serial, "{policy:?}");
        }
    }

    #[test]
    fn feature_stats_equals_serial_per_feature_models() {
        // Two bumps: feature statistics must equal segmenting the whole
        // domain serially and learning one model per feature.
        let g = BBox3::from_dims([20, 10, 6]);
        let whole = ScalarField::from_fn(g, |p| {
            let b = |cx: f64, cy: f64, h: f64| {
                let dx = p[0] as f64 - cx;
                let dy = p[1] as f64 - cy;
                h * (-(dx * dx + dy * dy) / 8.0).exp()
            };
            b(5.0, 5.0, 10.0) + b(14.0, 5.0, 7.0) + 0.01 * p[2] as f64
        });
        let d = Decomposition::new(g, [2, 2, 2]);
        let fields: Vec<ScalarField> = (0..d.rank_count())
            .map(|r| whole.extract(&d.block(r)))
            .collect();
        let threshold = 2.0;
        let a = FeatureStats {
            threshold,
            conn: Connectivity::Six,
            policy: BoundaryPolicy::BoundaryMaxima,
        };
        let out = run_analysis(&a, &d, &fields);
        let got = out.as_stats().unwrap();

        // Serial reference.
        let seg =
            sitra_topology::segment_superlevel(&whole, &g, threshold, Connectivity::Six, None);
        let mut expect: std::collections::HashMap<u64, sitra_stats::Moments> =
            std::collections::HashMap::new();
        for p in g.iter() {
            if let Some(l) = seg.label(p) {
                expect.entry(l).or_default().push(whole.get(p));
            }
        }
        assert_eq!(got.len(), expect.len(), "feature count");
        assert_eq!(got.len(), 2, "two bumps above threshold");
        for (name, derived) in got {
            let rep: u64 = name.strip_prefix("feature:").unwrap().parse().unwrap();
            let reference = derive(&expect[&rep]).unwrap();
            assert_eq!(derived.count, reference.count, "{name}");
            assert!((derived.mean - reference.mean).abs() < 1e-9, "{name}");
            assert_eq!(derived.min, reference.min);
            assert_eq!(derived.max, reference.max);
        }
    }

    #[test]
    fn feature_stats_no_features_above_threshold() {
        let g = BBox3::from_dims([8, 8, 8]);
        let whole = ScalarField::new_fill(g, 1.0);
        let d = Decomposition::new(g, [2, 1, 1]);
        let fields: Vec<ScalarField> = (0..d.rank_count())
            .map(|r| whole.extract(&d.block(r)))
            .collect();
        let a = FeatureStats {
            threshold: 5.0,
            conn: Connectivity::Six,
            policy: BoundaryPolicy::AllShared,
        };
        let out = run_analysis(&a, &d, &fields);
        assert!(out.as_stats().unwrap().is_empty());
    }

    #[test]
    fn feature_stats_counts_every_cell_once() {
        // Total observation count across features == number of cells
        // above the threshold, regardless of block boundaries cutting
        // through features.
        let g = BBox3::from_dims([12, 12, 4]);
        let whole = ScalarField::from_fn(g, |p| ((p[0] * 31 + p[1] * 17 + p[2]) % 9) as f64);
        let d = Decomposition::new(g, [3, 2, 1]);
        let fields: Vec<ScalarField> = (0..d.rank_count())
            .map(|r| whole.extract(&d.block(r)))
            .collect();
        let threshold = 5.0;
        let a = FeatureStats {
            threshold,
            conn: Connectivity::Six,
            policy: BoundaryPolicy::BoundaryMaxima,
        };
        let out = run_analysis(&a, &d, &fields);
        let total: u64 = out.as_stats().unwrap().iter().map(|(_, d)| d.count).sum();
        let above = whole.as_slice().iter().filter(|&&v| v >= threshold).count() as u64;
        assert_eq!(total, above);
    }

    #[test]
    fn output_accessors() {
        let img = AnalysisOutput::Image(Image::new(2, 2));
        assert!(img.as_image().is_some());
        assert!(img.as_tree().is_none());
        assert!(img.as_stats().is_none());
        assert!(img.as_flow_map().is_none());
        let fm = AnalysisOutput::FlowMap(vec![]);
        assert!(fm.as_flow_map().is_some());
        assert!(fm.as_image().is_none());
    }

    fn flow_map_parts(
        d: &Decomposition,
        ghosted: &[ScalarField],
        a: &LagrangianFlowMap,
    ) -> Vec<(usize, Bytes)> {
        (0..d.rank_count())
            .map(|r| {
                let block = d.block(r);
                let vars = vec![
                    ("U".to_string(), ScalarField::new_fill(block, 0.9)),
                    ("V".to_string(), ScalarField::new_fill(block, 0.1)),
                    ("W".to_string(), ScalarField::new_fill(block, 0.0)),
                ];
                let ctx = InSituCtx {
                    rank: r,
                    step: 1,
                    decomp: d,
                    ghosted: &ghosted[r],
                    vars: &vars,
                };
                (r, a.in_situ(&ctx))
            })
            .collect()
    }

    #[test]
    fn flow_map_covers_global_lattice_once() {
        let (d, _, fields) = setup([12, 8, 6], [2, 2, 1]);
        let (ghosted, _) = exchange_ghosts(&d, &fields, 1);
        let a = LagrangianFlowMap::default();
        let parts = flow_map_parts(&d, &ghosted, &a);
        let out = a.aggregate(1, &parts);
        let recs = out.as_flow_map().unwrap();
        // Sorted strictly by seed: every global lattice point seeds in
        // exactly one rank's basis.
        assert!(recs.windows(2).all(|w| w[0].seed < w[1].seed));
        let g = d.global();
        let stride = a.opts.seed_stride;
        let expected: Vec<u64> = g
            .iter()
            .filter(|p| p.iter().all(|c| c % stride == 0))
            .map(|p| g.local_index(p) as u64)
            .collect();
        let got: Vec<u64> = recs.iter().map(|r| r.seed).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn flow_map_aggregation_is_order_independent() {
        let (d, _, fields) = setup([12, 8, 6], [2, 2, 1]);
        let (ghosted, _) = exchange_ghosts(&d, &fields, 1);
        let a = LagrangianFlowMap::default();
        let parts = flow_map_parts(&d, &ghosted, &a);
        let mut reversed = parts.clone();
        reversed.reverse();
        assert_eq!(a.aggregate(1, &parts), a.aggregate(1, &reversed));
    }
}
