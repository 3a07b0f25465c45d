//! The byte layouts themselves, not just their round-trips.
//!
//! A round-trip still passes when an encoder and its decoder change
//! together, so `every_format_encodes_to_its_pinned_bytes` pins the
//! length and an FNV-1a hash of one fixed sample of every format that
//! crosses a process boundary: the intermediates and outputs of
//! `sitra_core::wire`, the task descriptor, the staging RPC's bulk
//! frames, a steering frame and a membership view. The encoded sizes
//! are what the metrics report as data movement, so a change here is a
//! change to the measured Table II column and must be deliberate.

use bytes::{BufMut, Bytes, BytesMut};
use sitra_cluster::{encode_msg, ClusterMsg, ClusterView, MemberInfo};
use sitra_core::analysis::AnalysisOutput;
use sitra_core::remote::{encode_task, RemoteTask};
use sitra_core::steer::{decode_steer_reply, encode_steer_reply, SteerReply};
use sitra_core::wire;
use sitra_dataspaces::remote::{encode_request, encode_response, Request, Response, TenantRow};
use sitra_flowmap::{FlowRecord, Termination};
use sitra_mesh::{downsample, BBox3, ScalarField};
use sitra_stats::{CoMoments, Moments, MultiModel};
use sitra_topology::reduce::{Subtree, SubtreeVertex};
use sitra_topology::tree::CanonicalTree;
use sitra_viz::Image;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn image(w: usize, h: usize) -> Image {
    let mut img = Image::new(w, h);
    for (i, p) in img.pixels_mut().iter_mut().enumerate() {
        *p = [i as f64 * 0.125, 0.5, -1.0, 1.0 / (i as f64 + 1.0)];
    }
    img
}

fn subtree() -> Subtree {
    Subtree {
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
                degree: 2,
                potential: vec![1, 3, 7],
                pinned: false,
            },
        ],
        edges: vec![(10, 20), (20, 31)],
    }
}

fn flow_records() -> Vec<FlowRecord> {
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

fn tenant_row(name: &str, quota: Option<u64>) -> TenantRow {
    TenantRow {
        name: name.into(),
        weight: 3,
        queued: 4,
        task_quota: quota,
        tasks_submitted: 11,
        tasks_assigned: 10,
        tasks_requeued: 1,
        tasks_shed: 2,
        tasks_rejected: 5,
        resident_bytes: 1 << 20,
        byte_quota: quota.map(|q| q * 1000),
    }
}

/// One fixed sample of every format, by name.
fn samples() -> Vec<(&'static str, Bytes)> {
    let field = ScalarField::from_fn(BBox3::new([4, 0, 8], [12, 6, 14]), |p| {
        p[0] as f64 * 1.5 - p[2] as f64
    });
    let model = MultiModel::learn(&[("T", &[1.0, 2.0, 300.5][..]), ("Y_OH", &[0.001, 0.002][..])]);
    let feats = vec![(10u64, Moments::from_slice(&[1.0, 2.0, 3.0]))];
    let tree = CanonicalTree {
        nodes: vec![(1, 5.0), (9, -2.5)],
        arcs: vec![(9, 1)],
    };
    let derived = sitra_stats::derive(&Moments::from_slice(&[1.0, 2.0, 3.0, 4.0])).unwrap();
    let piece = |lo: [usize; 3], n: u8| {
        let hi = [lo[0] + 1, lo[1] + 2, lo[2] + 3];
        (BBox3::new(lo, hi), Bytes::from(vec![n; 8 * usize::from(n)]))
    };
    vec![
        (
            "sampled_block",
            wire::encode_sampled_block(&downsample(&field, 2)),
        ),
        ("multimodel", wire::encode_multimodel(&model)),
        ("subtree", wire::encode_subtree(&subtree())),
        (
            "comoments",
            wire::encode_comoments(&CoMoments::from_slices(&[1.0, 2.0, 5.0], &[2.0, 4.0, 9.0])),
        ),
        (
            "feature_stats",
            wire::encode_feature_stats(&subtree(), &feats),
        ),
        (
            "partial_image",
            wire::encode_partial_image(-7, &image(3, 2)),
        ),
        ("flow_records", wire::encode_flow_records(&flow_records())),
        (
            "output.image",
            wire::encode_analysis_output(&AnalysisOutput::Image(image(2, 3))),
        ),
        (
            "output.tree",
            wire::encode_analysis_output(&AnalysisOutput::Tree(tree)),
        ),
        (
            "output.stats",
            wire::encode_analysis_output(&AnalysisOutput::Stats(vec![
                ("T".into(), derived),
                ("Y_OH".into(), derived),
            ])),
        ),
        (
            "output.scalars",
            wire::encode_analysis_output(&AnalysisOutput::Scalars(vec![(
                "corr(T,P)".into(),
                0.93,
            )])),
        ),
        (
            "output.flowmap",
            wire::encode_analysis_output(&AnalysisOutput::FlowMap(flow_records())),
        ),
        (
            "task",
            encode_task(&RemoteTask {
                analysis_idx: 2,
                step: 0x0102_0304_0506,
                n_ranks: 8,
            }),
        ),
        (
            "request.put",
            encode_request(&Request::Put {
                var: "viz.parts".into(),
                version: 17,
                bbox: BBox3::new([1, 2, 3], [4, 5, 6]),
                data: Bytes::from_static(b"payload bytes"),
            })
            .join(),
        ),
        (
            "response.pieces",
            encode_response(&Response::Pieces(vec![
                piece([0, 0, 0], 1),
                piece([7, 1, 2], 3),
            ]))
            .join(),
        ),
        (
            "response.tenant_rows",
            encode_response(&Response::TenantRows(vec![
                tenant_row("sim", Some(64)),
                tenant_row("viewer", None),
            ]))
            .join(),
        ),
        (
            "steer.frame",
            encode_steer_reply(&SteerReply::Frame {
                version: 9,
                rate: 2,
                image: image(3, 3),
            }),
        ),
        (
            "cluster.view",
            encode_msg(&ClusterMsg::View {
                view: ClusterView {
                    epoch: 7,
                    members: vec![
                        MemberInfo {
                            addr: "inproc://a".into(),
                        },
                        MemberInfo {
                            addr: "tcp://10.0.0.2:7788".into(),
                        },
                    ],
                },
            }),
        ),
    ]
}

/// `(format, encoded length, FNV-1a 64 of the encoding)`.
const PINNED: &[(&str, usize, u64)] = &[
    ("sampled_block", 400, 0x6515f6f75c3457a7),
    ("multimodel", 129, 0xa46263e55175862f),
    ("subtree", 118, 0x5ccff32c4766c956),
    ("comoments", 48, 0x05226657338887cc),
    ("feature_stats", 198, 0xdb2c1870f1557c25),
    ("partial_image", 216, 0xa4964faeab8dbe1b),
    ("flow_records", 130, 0xb631b95ad69a5089),
    ("output.image", 209, 0xbb5c2c605be5524f),
    ("output.tree", 65, 0xab99dff0bea9719f),
    ("output.stats", 146, 0x20b4aa10e0b55909),
    ("output.scalars", 26, 0xad04189ec7f3fca6),
    ("output.flowmap", 131, 0x0fbaf1f5fe5e98b3),
    ("task", 16, 0xc46ae0c68c74175e),
    ("request.put", 87, 0xfd202cef82a13d0e),
    ("response.pieces", 141, 0x04a29fb1c5256b11),
    ("response.tenant_rows", 178, 0x37fe07e3ec0d31e4),
    ("steer.frame", 317, 0x671e7f00c88e316a),
    ("cluster.view", 50, 0x93fc8220b5c7ba50),
];

#[test]
fn every_format_encodes_to_its_pinned_bytes() {
    let got: Vec<(&str, usize, u64)> = samples()
        .iter()
        .map(|(name, b)| (*name, b.len(), fnv1a(b)))
        .collect();
    let moved: Vec<String> = got
        .iter()
        .zip(PINNED)
        .filter(|(g, p)| g != p)
        .map(|((name, len, hash), _)| format!("(\"{name}\", {len}, {hash:#018x})"))
        .collect();
    assert!(moved.is_empty(), "layouts moved: {moved:#?}");
    assert_eq!(got.len(), PINNED.len());
}

/// An image header naming a zero width or height, with the (empty)
/// pixel payload that header implies: every image decoder must refuse
/// it, not build an image the viewer or compositor cannot index.
#[test]
fn zero_dimension_images_are_errors_not_panics() {
    let mut partial = BytesMut::new();
    partial.put_i64_le(0);
    partial.put_u64_le(3);
    partial.put_u64_le(0);
    assert!(wire::decode_partial_image(partial.freeze()).is_err());

    let mut output = BytesMut::new();
    output.put_u8(0);
    output.put_u64_le(0);
    output.put_u64_le(7);
    assert!(wire::decode_analysis_output(output.freeze()).is_err());

    let mut frame = BytesMut::new();
    frame.put_u8(101);
    frame.put_u64_le(1);
    frame.put_u32_le(1);
    frame.put_u64_le(0);
    frame.put_u64_le(5);
    assert!(decode_steer_reply(frame.freeze()).is_err());
}
