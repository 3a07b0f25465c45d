//! Compact binary codecs for analysis intermediates and outputs.
//!
//! The intermediates are what actually moves from the primary to the
//! secondary resources, so their encodings are fixed-layout little-endian
//! binary (not JSON): the byte counts reported by the metrics are the
//! real transfer sizes, directly comparable to the paper's Table II
//! "data movement size" column.
//!
//! The layouts here are the analysis ones (the image serves steering
//! frames too); the cursor, the error and the shared layouts (strings,
//! bboxes, bounded counts) are `sitra_dataspaces::codec`'s, so every
//! decoder in the workspace reads through one [`Rd`]. Decoders are
//! total: any byte sequence — truncated, corrupted, or adversarial,
//! zero-dimension images included — yields a [`WireError`] rather than a
//! panic or an unbounded allocation. This matters once intermediates
//! cross process boundaries (the `sitra-net` remote staging path), where
//! a peer's bytes cannot be trusted to be well-formed.

use crate::analysis::AnalysisOutput;
use bytes::{BufMut, Bytes, BytesMut};
use sitra_dataspaces::codec::{put_bbox, put_str, Rd};
use sitra_flowmap::{FlowRecord, Termination};
use sitra_mesh::SampledBlock;
use sitra_stats::{CoMoments, Derived, Moments, MultiModel};
use sitra_topology::reduce::{Subtree, SubtreeVertex};
use sitra_topology::stream::{SourceId, StreamingMergeTree};
use sitra_topology::tree::CanonicalTree;
use sitra_topology::VertexId;

pub use sitra_dataspaces::codec::WireError;

/// Encode a down-sampled block (hybrid visualization intermediate).
pub fn encode_sampled_block(s: &SampledBlock) -> Bytes {
    let mut buf = BytesMut::with_capacity(s.data.len() * 8 + 112);
    put_bbox(&mut buf, &s.src_bbox);
    put_bbox(&mut buf, &s.coarse_bbox);
    buf.put_u64_le(s.stride as u64);
    buf.put_u64_le(s.data.len() as u64);
    for v in &s.data {
        buf.put_f64_le(*v);
    }
    buf.freeze()
}

/// Decode a down-sampled block.
pub fn decode_sampled_block(b: Bytes) -> Result<SampledBlock, WireError> {
    let mut rd = Rd::new(b);
    let src_bbox = rd.bbox("src_bbox")?;
    let coarse_bbox = rd.bbox("coarse_bbox")?;
    let stride = rd.u64("stride")? as usize;
    if stride == 0 {
        return Err(WireError::Malformed { field: "stride" });
    }
    let n = rd.count_u64(8, "data.len")?;
    // One value per coarse point: the renderer indexes `data` by
    // position in `coarse_bbox` (hostile dims may overflow the product).
    let d = coarse_bbox.dims();
    if d[0].checked_mul(d[1]).and_then(|v| v.checked_mul(d[2])) != Some(n) {
        return Err(WireError::Malformed { field: "data.len" });
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(rd.f64("data")?);
    }
    rd.finish()?;
    Ok(SampledBlock {
        src_bbox,
        stride,
        coarse_bbox,
        data,
    })
}

/// Encode a multi-variable statistics model (hybrid stats intermediate).
pub fn encode_multimodel(m: &MultiModel) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(m.vars.len() as u32);
    for (name, mom) in &m.vars {
        put_str(&mut buf, name);
        put_moments(&mut buf, mom);
    }
    buf.freeze()
}

/// A moment block: `u64` count, then min, max, mean, m2, m3, m4.
fn put_moments(buf: &mut BytesMut, m: &Moments) {
    buf.put_u64_le(m.n);
    for v in [m.min, m.max, m.mean, m.m2, m.m3, m.m4] {
        buf.put_f64_le(v);
    }
}

fn read_moments(rd: &mut Rd) -> Result<Moments, WireError> {
    let n = rd.u64("moments.n")?;
    let mut f = [0.0f64; 6];
    for v in &mut f {
        *v = rd.f64("moments")?;
    }
    Ok(Moments {
        n,
        min: f[0],
        max: f[1],
        mean: f[2],
        m2: f[3],
        m3: f[4],
        m4: f[5],
    })
}

/// Decode a multi-variable statistics model.
pub fn decode_multimodel(b: Bytes) -> Result<MultiModel, WireError> {
    let mut rd = Rd::new(b);
    // Each variable is at least a length prefix plus the moment block.
    let nvars = rd.count_u32(4 + 56, "nvars")?;
    let mut vars = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        let name = rd.string("name")?;
        vars.push((name, read_moments(&mut rd)?));
    }
    rd.finish()?;
    Ok(MultiModel { vars })
}

/// Encode a merge-tree subtree (hybrid topology intermediate).
pub fn encode_subtree(s: &Subtree) -> Bytes {
    let mut buf = BytesMut::with_capacity(s.bytes());
    buf.put_u32_le(s.source);
    buf.put_u64_le(s.verts.len() as u64);
    for v in &s.verts {
        buf.put_u64_le(v.id);
        buf.put_f64_le(v.value);
        buf.put_u32_le(v.degree);
        buf.put_u8(u8::from(v.pinned));
        buf.put_u32_le(v.potential.len() as u32);
        for p in &v.potential {
            buf.put_u32_le(*p);
        }
    }
    buf.put_u64_le(s.edges.len() as u64);
    for (a, bb) in &s.edges {
        buf.put_u64_le(*a);
        buf.put_u64_le(*bb);
    }
    buf.freeze()
}

/// A subtree as [`decode_subtree`] returns it: the fields of a
/// [`Subtree`], with the vertices' potential sets one after another in a
/// single list, so that decoding allocates a few lists per part instead
/// of one per vertex. It compares equal to the `Subtree` it encodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodedSubtree {
    /// The producing source (rank).
    pub source: SourceId,
    /// Kept vertices.
    pub verts: Vec<DecodedVertex>,
    /// Every vertex's potential set, in vertex order.
    pub potential: Vec<SourceId>,
    /// Edges between kept vertices, upper first.
    pub edges: Vec<(VertexId, VertexId)>,
}

/// One vertex of a [`DecodedSubtree`]: a [`SubtreeVertex`] whose
/// potential set ends at `potential_end` of the subtree's list and
/// starts where the previous vertex's ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedVertex {
    /// Global vertex id.
    pub id: VertexId,
    /// Field value.
    pub value: f64,
    /// Incident edge count within this subtree.
    pub degree: u32,
    /// Kept in the final tree even if globally regular.
    pub pinned: bool,
    /// End of this vertex's potential set in the subtree's list.
    pub potential_end: usize,
}

impl DecodedSubtree {
    /// The vertices, each with its potential set.
    pub fn vertices(&self) -> impl Iterator<Item = (&DecodedVertex, &[SourceId])> {
        let starts = std::iter::once(0).chain(self.verts.iter().map(|v| v.potential_end));
        (self.verts.iter().zip(starts))
            .map(|(v, start)| (v, &self.potential[start..v.potential_end]))
    }

    /// Feed this subtree into a streaming aggregator and announce its
    /// end, as [`Subtree::stream_into`] does.
    pub fn stream_into(&self, sink: &mut StreamingMergeTree) {
        let verts = self
            .vertices()
            .map(|(v, p)| (v.id, v.value, v.degree, v.pinned, p));
        sink.feed_source(self.source, verts, &self.edges);
    }
}

impl PartialEq<Subtree> for DecodedSubtree {
    fn eq(&self, s: &Subtree) -> bool {
        let same = |((d, p), v): ((&DecodedVertex, &[SourceId]), &SubtreeVertex)| {
            (d.id, d.value, d.degree, d.pinned, p)
                == (v.id, v.value, v.degree, v.pinned, &v.potential[..])
        };
        (self.source, &self.edges, self.verts.len()) == (s.source, &s.edges, s.verts.len())
            && self.vertices().zip(&s.verts).all(same)
    }
}

fn read_subtree(rd: &mut Rd) -> Result<DecodedSubtree, WireError> {
    let source = rd.u32("source")?;
    // A vertex is at least id + value + degree + pinned + potential.len.
    let nverts = rd.count_u64(8 + 8 + 4 + 1 + 4, "verts.len")?;
    let mut verts = Vec::with_capacity(nverts);
    // Most vertices are seen by their own source alone.
    let mut potential = Vec::with_capacity(nverts);
    for _ in 0..nverts {
        let id = rd.u64("vert.id")?;
        let value = rd.f64("vert.value")?;
        let degree = rd.u32("vert.degree")?;
        let pinned = rd.u8("vert.pinned")? != 0;
        for _ in 0..rd.count_u32(4, "potential.len")? {
            potential.push(rd.u32("potential")?);
        }
        let potential_end = potential.len();
        verts.push(DecodedVertex {
            id,
            value,
            degree,
            pinned,
            potential_end,
        });
    }
    let nedges = rd.count_u64(16, "edges.len")?;
    let mut edges = Vec::with_capacity(nedges);
    for _ in 0..nedges {
        let a = rd.u64("edge.a")?;
        let bb = rd.u64("edge.b")?;
        edges.push((a, bb));
    }
    Ok(DecodedSubtree {
        source,
        verts,
        potential,
        edges,
    })
}

/// Decode a merge-tree subtree.
pub fn decode_subtree(b: Bytes) -> Result<DecodedSubtree, WireError> {
    let mut rd = Rd::new(b);
    let sub = read_subtree(&mut rd)?;
    rd.finish()?;
    Ok(sub)
}

/// Encode a bivariate co-moment model (auto-correlative statistics
/// intermediate).
pub fn encode_comoments(m: &CoMoments) -> Bytes {
    let mut buf = BytesMut::with_capacity(48);
    buf.put_u64_le(m.n);
    for v in [m.mean_x, m.mean_y, m.m2x, m.m2y, m.cxy] {
        buf.put_f64_le(v);
    }
    buf.freeze()
}

/// Decode a bivariate co-moment model.
pub fn decode_comoments(b: Bytes) -> Result<CoMoments, WireError> {
    let mut rd = Rd::new(b);
    let n = rd.u64("n")?;
    let mut f = [0.0f64; 5];
    for v in &mut f {
        *v = rd.f64("comoments")?;
    }
    rd.finish()?;
    Ok(CoMoments {
        n,
        mean_x: f[0],
        mean_y: f[1],
        m2x: f[2],
        m2y: f[3],
        cxy: f[4],
    })
}

/// Encode a feature-statistics intermediate: a (pinned) subtree plus
/// per-local-feature partial moment models.
pub fn encode_feature_stats(sub: &Subtree, feats: &[(u64, Moments)]) -> Bytes {
    let tree_bytes = encode_subtree(sub);
    let mut buf = BytesMut::with_capacity(tree_bytes.len() + feats.len() * 64 + 16);
    buf.put_u64_le(tree_bytes.len() as u64);
    buf.put_slice(&tree_bytes);
    buf.put_u64_le(feats.len() as u64);
    for (id, m) in feats {
        buf.put_u64_le(*id);
        put_moments(&mut buf, m);
    }
    buf.freeze()
}

/// Decode a feature-statistics intermediate.
pub fn decode_feature_stats(b: Bytes) -> Result<(DecodedSubtree, Vec<(u64, Moments)>), WireError> {
    let mut rd = Rd::new(b);
    let tlen = rd.u64("subtree.len")? as usize;
    let tree_bytes = rd.take(tlen, "subtree")?;
    let sub = decode_subtree(tree_bytes)?;
    let n = rd.count_u64(8 + 56, "feats.len")?;
    let mut feats = Vec::with_capacity(n);
    for _ in 0..n {
        let id = rd.u64("feat.id")?;
        feats.push((id, read_moments(&mut rd)?));
    }
    rd.finish()?;
    Ok((sub, feats))
}

/// An image: `u64` width, `u64` height, then every pixel row-major as
/// four little-endian `f64` (premultiplied RGBA), to the end of the
/// frame.
pub fn put_image(buf: &mut BytesMut, img: &sitra_viz::Image) {
    buf.put_u64_le(img.width() as u64);
    buf.put_u64_le(img.height() as u64);
    for p in img.pixels() {
        for c in p {
            buf.put_f64_le(*c);
        }
    }
}

/// An image as [`put_image`] writes it, filling the rest of the frame.
/// A zero width or height is malformed.
pub fn read_image(rd: &mut Rd) -> Result<sitra_viz::Image, WireError> {
    let w = rd.u64("width")? as usize;
    let h = rd.u64("height")? as usize;
    let pixels = w
        .checked_mul(h)
        .filter(|&p| p > 0)
        .ok_or(WireError::Malformed { field: "dims" })?;
    // Validate the full pixel payload before allocating the image.
    if pixels.checked_mul(32) != Some(rd.remaining()) {
        return Err(WireError::Truncated { field: "pixels" });
    }
    let mut img = sitra_viz::Image::new(w, h);
    for c in img.pixels_mut().iter_mut().flatten() {
        *c = rd.f64("pixel")?;
    }
    Ok(img)
}

/// Encode a partial (premultiplied RGBA) image with its block's position
/// along the compositing axis (fully in-situ visualization intermediate).
pub fn encode_partial_image(order_key: i64, img: &sitra_viz::Image) -> Bytes {
    let mut buf = BytesMut::with_capacity(img.pixels().len() * 32 + 24);
    buf.put_i64_le(order_key);
    put_image(&mut buf, img);
    buf.freeze()
}

/// Decode a partial image.
pub fn decode_partial_image(b: Bytes) -> Result<(i64, sitra_viz::Image), WireError> {
    let mut rd = Rd::new(b);
    let key = rd.i64("order_key")?;
    let img = read_image(&mut rd)?;
    rd.finish()?;
    Ok((key, img))
}

/// Encoded size of one [`FlowRecord`]: seed id, six position doubles,
/// step count, termination code.
const FLOW_RECORD_SIZE: usize = 8 + 48 + 4 + 1;

fn put_flow_records(buf: &mut BytesMut, recs: &[FlowRecord]) {
    buf.put_u64_le(recs.len() as u64);
    for r in recs {
        buf.put_u64_le(r.seed);
        for c in r.start.iter().chain(r.end.iter()) {
            buf.put_f64_le(*c);
        }
        buf.put_u32_le(r.steps);
        buf.put_u8(r.reason.code());
    }
}

fn read_flow_records(rd: &mut Rd) -> Result<Vec<FlowRecord>, WireError> {
    let n = rd.count_u64(FLOW_RECORD_SIZE, "flow.len")?;
    let mut recs = Vec::with_capacity(n);
    for _ in 0..n {
        let seed = rd.u64("flow.seed")?;
        let mut c = [0.0f64; 6];
        for v in &mut c {
            *v = rd.f64("flow.pos")?;
        }
        let steps = rd.u32("flow.steps")?;
        let reason = Termination::from_code(rd.u8("flow.reason")?).ok_or(WireError::Malformed {
            field: "flow.reason",
        })?;
        recs.push(FlowRecord {
            seed,
            start: [c[0], c[1], c[2]],
            end: [c[3], c[4], c[5]],
            steps,
            reason,
        });
    }
    Ok(recs)
}

/// Encode a flow-map termination-record list (Lagrangian flow-map
/// intermediate).
pub fn encode_flow_records(recs: &[FlowRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + recs.len() * FLOW_RECORD_SIZE);
    put_flow_records(&mut buf, recs);
    buf.freeze()
}

/// Decode a flow-map termination-record list.
pub fn decode_flow_records(b: Bytes) -> Result<Vec<FlowRecord>, WireError> {
    let mut rd = Rd::new(b);
    let recs = read_flow_records(&mut rd)?;
    rd.finish()?;
    Ok(recs)
}

const OUT_IMAGE: u8 = 0;
const OUT_TREE: u8 = 1;
const OUT_STATS: u8 = 2;
const OUT_SCALARS: u8 = 3;
const OUT_FLOWMAP: u8 = 4;

/// Encode a completed analysis result for shipment from a remote staging
/// bucket back to the driver. Byte-for-byte deterministic: two equal
/// outputs always encode identically, which is what the remote-staging
/// integration test leans on to prove the TCP path exactly reproduces
/// the in-process pipeline.
pub fn encode_analysis_output(out: &AnalysisOutput) -> Bytes {
    // A tree's length is known: the tag, two counts, 16 B a node or arc.
    let mut buf = BytesMut::with_capacity(match out {
        AnalysisOutput::Tree(t) => 17 + 16 * (t.nodes.len() + t.arcs.len()),
        _ => 0,
    });
    match out {
        AnalysisOutput::Image(img) => {
            buf.put_u8(OUT_IMAGE);
            put_image(&mut buf, img);
        }
        AnalysisOutput::Tree(tree) => {
            buf.put_u8(OUT_TREE);
            buf.put_u64_le(tree.nodes.len() as u64);
            for (id, v) in &tree.nodes {
                buf.put_u64_le(*id);
                buf.put_f64_le(*v);
            }
            buf.put_u64_le(tree.arcs.len() as u64);
            for (a, b) in &tree.arcs {
                buf.put_u64_le(*a);
                buf.put_u64_le(*b);
            }
        }
        AnalysisOutput::Stats(rows) => {
            buf.put_u8(OUT_STATS);
            buf.put_u32_le(rows.len() as u32);
            for (name, d) in rows {
                put_str(&mut buf, name);
                buf.put_u64_le(d.count);
                for v in [
                    d.min,
                    d.max,
                    d.mean,
                    d.variance,
                    d.std_dev,
                    d.skewness,
                    d.kurtosis_excess,
                ] {
                    buf.put_f64_le(v);
                }
            }
        }
        AnalysisOutput::Scalars(rows) => {
            buf.put_u8(OUT_SCALARS);
            buf.put_u32_le(rows.len() as u32);
            for (name, v) in rows {
                put_str(&mut buf, name);
                buf.put_f64_le(*v);
            }
        }
        AnalysisOutput::FlowMap(recs) => {
            buf.put_u8(OUT_FLOWMAP);
            put_flow_records(&mut buf, recs);
        }
    }
    buf.freeze()
}

/// Decode an analysis result. Total: never panics on arbitrary input.
pub fn decode_analysis_output(b: Bytes) -> Result<AnalysisOutput, WireError> {
    let mut rd = Rd::new(b);
    let out = match rd.u8("output.tag")? {
        OUT_IMAGE => AnalysisOutput::Image(read_image(&mut rd)?),
        OUT_TREE => {
            let nnodes = rd.count_u64(16, "nodes.len")?;
            let mut nodes = Vec::with_capacity(nnodes);
            for _ in 0..nnodes {
                let id = rd.u64("node.id")?;
                let v = rd.f64("node.value")?;
                nodes.push((id, v));
            }
            let narcs = rd.count_u64(16, "arcs.len")?;
            let mut arcs = Vec::with_capacity(narcs);
            for _ in 0..narcs {
                let a = rd.u64("arc.a")?;
                let b = rd.u64("arc.b")?;
                arcs.push((a, b));
            }
            AnalysisOutput::Tree(CanonicalTree { nodes, arcs })
        }
        OUT_STATS => {
            // Each row is at least a name prefix plus count + 7 moments.
            let n = rd.count_u32(4 + 8 + 56, "stats.len")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let name = rd.string("stat.name")?;
                let count = rd.u64("stat.count")?;
                let mut f = [0.0f64; 7];
                for v in &mut f {
                    *v = rd.f64("stat")?;
                }
                rows.push((
                    name,
                    Derived {
                        count,
                        min: f[0],
                        max: f[1],
                        mean: f[2],
                        variance: f[3],
                        std_dev: f[4],
                        skewness: f[5],
                        kurtosis_excess: f[6],
                    },
                ));
            }
            AnalysisOutput::Stats(rows)
        }
        OUT_SCALARS => {
            let n = rd.count_u32(4 + 8, "scalars.len")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let name = rd.string("scalar.name")?;
                rows.push((name, rd.f64("scalar")?));
            }
            AnalysisOutput::Scalars(rows)
        }
        OUT_FLOWMAP => AnalysisOutput::FlowMap(read_flow_records(&mut rd)?),
        _ => {
            return Err(WireError::Malformed {
                field: "output.tag",
            })
        }
    };
    rd.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitra_mesh::{downsample, BBox3, ScalarField};

    #[test]
    fn sampled_block_roundtrip() {
        let b = BBox3::new([4, 0, 8], [12, 6, 14]);
        let f = ScalarField::from_fn(b, |p| p[0] as f64 * 1.5 - p[2] as f64);
        let s = downsample(&f, 2);
        let bytes = encode_sampled_block(&s);
        assert_eq!(decode_sampled_block(bytes).unwrap(), s);
    }

    #[test]
    fn multimodel_roundtrip() {
        let m = MultiModel::learn(&[("T", &[1.0, 2.0, 300.5][..]), ("Y_OH", &[0.001, 0.002][..])]);
        let bytes = encode_multimodel(&m);
        assert_eq!(bytes.len(), 4 + (4 + 1 + 56) + (4 + 4 + 56));
        assert_eq!(decode_multimodel(bytes).unwrap(), m);
    }

    #[test]
    fn subtree_roundtrip() {
        let s = Subtree {
            source: 3,
            verts: vec![
                SubtreeVertex {
                    id: 10,
                    value: 5.5,
                    degree: 1,
                    potential: vec![3],
                    pinned: true,
                },
                SubtreeVertex {
                    id: 20,
                    value: -1.0,
                    degree: 1,
                    potential: vec![1, 3, 7],
                    pinned: false,
                },
            ],
            edges: vec![(10, 20)],
        };
        assert_eq!(decode_subtree(encode_subtree(&s)).unwrap(), s);
    }

    #[test]
    fn empty_subtree_roundtrip() {
        let s = Subtree {
            source: 0,
            verts: vec![],
            edges: vec![],
        };
        assert_eq!(decode_subtree(encode_subtree(&s)).unwrap(), s);
    }

    #[test]
    fn comoments_roundtrip() {
        let m = CoMoments::from_slices(&[1.0, 2.0, 5.0], &[2.0, 4.0, 9.0]);
        let back = decode_comoments(encode_comoments(&m)).unwrap();
        assert_eq!(back, m);
        assert_eq!(encode_comoments(&m).len(), 48);
    }

    #[test]
    fn feature_stats_roundtrip() {
        let sub = Subtree {
            source: 1,
            verts: vec![SubtreeVertex {
                id: 5,
                value: 2.0,
                degree: 0,
                potential: vec![1],
                pinned: true,
            }],
            edges: vec![],
        };
        let feats = vec![(5u64, Moments::from_slice(&[1.0, 2.0, 3.0]))];
        let (s2, f2) = decode_feature_stats(encode_feature_stats(&sub, &feats)).unwrap();
        assert_eq!(s2, sub);
        assert_eq!(f2, feats);
    }

    #[test]
    fn image_roundtrip() {
        let mut img = sitra_viz::Image::new(3, 2);
        for (i, p) in img.pixels_mut().iter_mut().enumerate() {
            *p = [i as f64, 0.5, -1.0, 1.0];
        }
        let (key, back) = decode_partial_image(encode_partial_image(-7, &img)).unwrap();
        assert_eq!(key, -7);
        assert_eq!(back, img);
    }

    #[test]
    fn encoded_sizes_track_content() {
        let b = BBox3::from_dims([16, 16, 16]);
        let f = ScalarField::zeros(b);
        let s1 = encode_sampled_block(&downsample(&f, 1));
        let s4 = encode_sampled_block(&downsample(&f, 4));
        assert!(
            s1.len() > 40 * s4.len() / 2,
            "s1 {} s4 {}",
            s1.len(),
            s4.len()
        );
    }

    #[test]
    fn empty_buffers_error() {
        let e = Bytes::new();
        assert!(decode_sampled_block(e.clone()).is_err());
        assert!(decode_multimodel(e.clone()).is_err());
        assert!(decode_subtree(e.clone()).is_err());
        assert!(decode_comoments(e.clone()).is_err());
        assert!(decode_feature_stats(e.clone()).is_err());
        assert!(decode_flow_records(e.clone()).is_err());
        assert!(decode_partial_image(e).is_err());
    }

    fn sample_flow_records() -> Vec<FlowRecord> {
        vec![
            FlowRecord {
                seed: 12,
                start: [0.0, 4.0, 0.0],
                end: [7.25, 4.5, 0.125],
                steps: 9,
                reason: Termination::ExitedBlock,
            },
            FlowRecord {
                seed: 40,
                start: [8.0, 0.0, 4.0],
                end: [9.5, 0.25, 4.0],
                steps: 64,
                reason: Termination::MaxSteps,
            },
        ]
    }

    #[test]
    fn flow_records_roundtrip() {
        let recs = sample_flow_records();
        let enc = encode_flow_records(&recs);
        assert_eq!(enc.len(), 8 + recs.len() * FLOW_RECORD_SIZE);
        assert_eq!(decode_flow_records(enc.clone()).unwrap(), recs);
        // Determinism: equal lists encode identically.
        assert_eq!(encode_flow_records(&recs), enc);
        // Empty lists round-trip too.
        assert_eq!(
            decode_flow_records(encode_flow_records(&[])).unwrap(),
            vec![]
        );
        // Every truncation errors.
        for cut in 0..enc.len() {
            assert!(decode_flow_records(enc.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn flow_records_reject_hostile_count_and_bad_reason() {
        // A list claiming u64::MAX records in an 8-byte buffer.
        let mut buf = BytesMut::new();
        buf.put_u64_le(u64::MAX);
        assert_eq!(
            decode_flow_records(buf.freeze()),
            Err(WireError::Truncated { field: "flow.len" })
        );
        // An undefined termination code is malformed, not a panic.
        let mut recs = sample_flow_records();
        recs.truncate(1);
        let enc = encode_flow_records(&recs);
        let mut corrupt = enc.to_vec();
        *corrupt.last_mut().unwrap() = 9;
        assert_eq!(
            decode_flow_records(Bytes::from(corrupt)),
            Err(WireError::Malformed {
                field: "flow.reason"
            })
        );
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        // A subtree claiming u64::MAX vertices in a 16-byte buffer.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_u64_le(u64::MAX);
        buf.put_u32_le(0);
        assert_eq!(
            decode_subtree(buf.freeze()),
            Err(WireError::Truncated { field: "verts.len" })
        );
        // An image claiming enormous dimensions with no pixel payload.
        let mut buf = BytesMut::new();
        buf.put_i64_le(0);
        buf.put_u64_le(u64::MAX / 2);
        buf.put_u64_le(u64::MAX / 2);
        assert!(decode_partial_image(buf.freeze()).is_err());
    }

    #[test]
    fn inverted_bbox_is_malformed() {
        let mut buf = BytesMut::new();
        // lo = (9,9,9), hi = (1,1,1): violates the bbox invariant.
        for v in [9u64, 9, 9, 1, 1, 1] {
            buf.put_u64_le(v);
        }
        for v in [0u64; 12] {
            buf.put_u64_le(v);
        }
        assert_eq!(
            decode_sampled_block(buf.freeze()),
            Err(WireError::Malformed { field: "src_bbox" })
        );
    }

    #[test]
    fn analysis_output_roundtrip() {
        let mut img = sitra_viz::Image::new(2, 2);
        img.pixels_mut()[3] = [0.1, 0.2, 0.3, 1.0];
        let outs = vec![
            AnalysisOutput::Image(img),
            AnalysisOutput::Tree(CanonicalTree {
                nodes: vec![(1, 5.0), (9, -2.5)],
                arcs: vec![(9, 1)],
            }),
            AnalysisOutput::Stats(vec![(
                "T".to_string(),
                sitra_stats::derive(&Moments::from_slice(&[1.0, 2.0, 3.0, 4.0])).unwrap(),
            )]),
            AnalysisOutput::Scalars(vec![("corr(T,P)".to_string(), 0.93)]),
            AnalysisOutput::FlowMap(sample_flow_records()),
        ];
        for o in outs {
            let enc = encode_analysis_output(&o);
            assert_eq!(decode_analysis_output(enc.clone()).unwrap(), o);
            // Determinism: equal outputs encode identically.
            assert_eq!(encode_analysis_output(&o), enc);
        }
    }

    #[test]
    fn analysis_output_rejects_garbage() {
        assert!(decode_analysis_output(Bytes::new()).is_err());
        assert!(decode_analysis_output(Bytes::from_static(&[99])).is_err());
        // Hostile stats count with no payload.
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        buf.put_u32_le(u32::MAX);
        assert!(decode_analysis_output(buf.freeze()).is_err());
        // Truncations of a valid tree all error.
        let enc = encode_analysis_output(&AnalysisOutput::Tree(CanonicalTree {
            nodes: vec![(3, 1.0)],
            arcs: vec![],
        }));
        for cut in 0..enc.len() {
            assert!(decode_analysis_output(enc.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let m = CoMoments::from_slices(&[1.0, 2.0], &[3.0, 4.0]);
        let enc = encode_comoments(&m);
        let mut padded = BytesMut::new();
        padded.put_slice(&enc);
        padded.put_u8(0xAA);
        assert_eq!(
            decode_comoments(padded.freeze()),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }
}
