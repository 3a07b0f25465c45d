//! Property tests for the wire codecs: valid encodings round-trip,
//! and decoders are total — every strict prefix of a valid encoding
//! and arbitrary byte soup return `Err`, never panic and never
//! over-allocate.

use bytes::Bytes;
use proptest::prelude::*;
use sitra_cluster::{decode_msg, encode_msg, ClusterMsg, ClusterView, MemberInfo};
use sitra_core::analysis::AnalysisOutput;
use sitra_core::steer::{
    decode_steer_msg, decode_steer_reply, encode_steer_msg, encode_steer_reply, SteerMsg,
    SteerReply,
};
use sitra_core::wire;
use sitra_dataspaces::remote::{decode_request, decode_response, encode_request, Request};
use sitra_flowmap::{FlowRecord, Termination};
use sitra_mesh::{downsample, BBox3, ScalarField};
use sitra_stats::{CoMoments, Derived, Moments, MultiModel};
use sitra_topology::reduce::{Subtree, SubtreeVertex};
use sitra_topology::tree::CanonicalTree;

fn moments_strategy() -> impl Strategy<Value = Moments> {
    (any::<u64>(), prop::array::uniform3(-1.0e12..1.0e12f64)).prop_map(|(n, [a, b, c])| Moments {
        n,
        min: a.min(b),
        max: a.max(b),
        mean: (a + b) / 2.0,
        m2: c.abs(),
        m3: c,
        m4: c.abs() * 2.0,
    })
}

fn multimodel_strategy() -> impl Strategy<Value = MultiModel> {
    prop::collection::vec(
        (prop::collection::vec(0u8..128, 0..12), moments_strategy()),
        0..6,
    )
    .prop_map(|vars| MultiModel {
        vars: vars
            .into_iter()
            .map(|(name, m)| (String::from_utf8(name).unwrap(), m))
            .collect(),
    })
}

fn subtree_strategy() -> impl Strategy<Value = Subtree> {
    (
        any::<u32>(),
        prop::collection::vec(
            (
                any::<u64>(),
                -1.0e6..1.0e6f64,
                0u32..8,
                any::<bool>(),
                prop::collection::vec(any::<u32>(), 0..4),
            ),
            0..10,
        ),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..10),
    )
        .prop_map(|(source, verts, edges)| Subtree {
            source,
            verts: verts
                .into_iter()
                .map(|(id, value, degree, pinned, potential)| SubtreeVertex {
                    id,
                    value,
                    degree,
                    potential,
                    pinned,
                })
                .collect(),
            edges,
        })
}

fn derived_strategy() -> impl Strategy<Value = Derived> {
    (any::<u64>(), prop::array::uniform3(-1.0e9..1.0e9f64)).prop_map(|(count, [a, b, c])| Derived {
        count,
        min: a.min(b),
        max: a.max(b),
        mean: (a + b) / 2.0,
        variance: c.abs(),
        std_dev: c.abs().sqrt(),
        skewness: c,
        kurtosis_excess: -c,
    })
}

fn short_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..128, 0..10).prop_map(|raw| String::from_utf8(raw).unwrap())
}

fn flow_record_strategy() -> impl Strategy<Value = FlowRecord> {
    (
        any::<u64>(),
        prop::array::uniform3(-1.0e6..1.0e6f64),
        prop::array::uniform3(-1.0e6..1.0e6f64),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(|(seed, start, end, steps, exited)| FlowRecord {
            seed,
            start,
            end,
            steps,
            reason: if exited {
                Termination::ExitedBlock
            } else {
                Termination::MaxSteps
            },
        })
}

fn steer_image_strategy() -> impl Strategy<Value = sitra_viz::Image> {
    (1usize..5, 1usize..5, -1.0e3..1.0e3f64).prop_map(|(w, h, fill)| {
        let mut img = sitra_viz::Image::new(w, h);
        for (i, p) in img.pixels_mut().iter_mut().enumerate() {
            *p = [fill, i as f64, -fill, 1.0];
        }
        img
    })
}

fn steer_msg_strategy() -> proptest::BoxedStrategy<SteerMsg> {
    prop_oneof![
        (short_name(), 1u32..1000)
            .prop_map(|(subscriber, rate)| SteerMsg::Subscribe { subscriber, rate }),
        any::<u64>().prop_map(|after| SteerMsg::NextFrame { after }),
        (1u32..1000).prop_map(|rate| SteerMsg::Steer { rate }),
    ]
    .boxed()
}

fn steer_reply_strategy() -> proptest::BoxedStrategy<SteerReply> {
    prop_oneof![
        (1u32..1000).prop_map(|rate| SteerReply::SubAck { rate }),
        (any::<u64>(), 1u32..1000, steer_image_strategy()).prop_map(|(version, rate, image)| {
            SteerReply::Frame {
                version,
                rate,
                image,
            }
        }),
        (1u32..1000, any::<u64>()).prop_map(|(rate, latest_version)| SteerReply::SteerAck {
            rate,
            latest_version
        }),
        Just(SteerReply::NoFrame),
        short_name().prop_map(|reason| SteerReply::Error { reason }),
    ]
    .boxed()
}

fn analysis_output_strategy() -> proptest::BoxedStrategy<AnalysisOutput> {
    prop_oneof![
        (1usize..5, 1usize..5, -1.0e3..1.0e3f64).prop_map(|(w, h, fill)| {
            let mut img = sitra_viz::Image::new(w, h);
            for (i, p) in img.pixels_mut().iter_mut().enumerate() {
                *p = [fill, i as f64, -fill, 1.0];
            }
            AnalysisOutput::Image(img)
        }),
        (
            prop::collection::vec((any::<u64>(), -1.0e6..1.0e6f64), 0..8),
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        )
            .prop_map(|(nodes, arcs)| AnalysisOutput::Tree(CanonicalTree { nodes, arcs })),
        prop::collection::vec((short_name(), derived_strategy()), 0..6)
            .prop_map(AnalysisOutput::Stats),
        prop::collection::vec((short_name(), -1.0e9..1.0e9f64), 0..6)
            .prop_map(AnalysisOutput::Scalars),
        prop::collection::vec(flow_record_strategy(), 0..8).prop_map(AnalysisOutput::FlowMap),
    ]
    .boxed()
}

fn cluster_view_strategy() -> impl Strategy<Value = ClusterView> {
    (
        any::<u64>(),
        prop::collection::vec(prop::collection::vec(0u8..128, 0..24), 0..6),
    )
        .prop_map(|(epoch, addrs)| {
            let mut members: Vec<MemberInfo> = addrs
                .into_iter()
                .map(|raw| MemberInfo {
                    addr: String::from_utf8(raw).unwrap(),
                })
                .collect();
            members.sort();
            members.dedup();
            ClusterView { epoch, members }
        })
}

fn cluster_msg_strategy() -> proptest::BoxedStrategy<ClusterMsg> {
    prop_oneof![
        short_name().prop_map(|addr| ClusterMsg::Join {
            from: MemberInfo { addr }
        }),
        short_name().prop_map(|addr| ClusterMsg::Leave { addr }),
        (short_name(), any::<u64>())
            .prop_map(|(from, epoch)| ClusterMsg::Heartbeat { from, epoch }),
        cluster_view_strategy().prop_map(|view| ClusterMsg::View { view }),
        any::<u64>().prop_map(|epoch| ClusterMsg::Ack { epoch }),
    ]
    .boxed()
}

/// Every strict prefix of `enc` must decode to an error without panicking.
fn assert_prefixes_error<T, E>(enc: &Bytes, decode: impl Fn(Bytes) -> Result<T, E>) {
    for cut in 0..enc.len() {
        assert!(
            decode(enc.slice(0..cut)).is_err(),
            "prefix of {} bytes decoded successfully",
            cut
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sampled_block_roundtrips_and_prefixes_error(
        dims in prop::array::uniform3(1usize..8),
        stride in 1usize..4,
        seed in any::<u64>(),
    ) {
        let b = BBox3::from_dims(dims);
        let f = ScalarField::from_fn(b, |p| {
            (p[0] * 3 + p[1] * 5 + p[2] * 7) as f64 + seed as f64 * 1e-3
        });
        let s = downsample(&f, stride);
        let enc = wire::encode_sampled_block(&s);
        prop_assert_eq!(wire::decode_sampled_block(enc.clone()).unwrap(), s);
        assert_prefixes_error(&enc, wire::decode_sampled_block);

        // A block whose value count is not its coarse box's point count
        // (short, long, empty box with data) is malformed, not a
        // renderer panic waiting for the right pixel.
        let (mut long, mut short, mut hollow) = (s.clone(), s.clone(), s);
        long.data.push(seed as f64);
        short.data.pop();
        hollow.coarse_bbox = BBox3::new(hollow.coarse_bbox.lo, hollow.coarse_bbox.lo);
        for bad in [long, short, hollow] {
            prop_assert_eq!(
                wire::decode_sampled_block(wire::encode_sampled_block(&bad)),
                Err(wire::WireError::Malformed { field: "data.len" })
            );
        }
    }

    #[test]
    fn multimodel_roundtrips_and_prefixes_error(m in multimodel_strategy()) {
        let enc = wire::encode_multimodel(&m);
        prop_assert_eq!(wire::decode_multimodel(enc.clone()).unwrap(), m);
        assert_prefixes_error(&enc, wire::decode_multimodel);
    }

    #[test]
    fn subtree_roundtrips_and_prefixes_error(s in subtree_strategy()) {
        let enc = wire::encode_subtree(&s);
        // What the metrics count as moved is what is encoded.
        prop_assert_eq!(s.bytes(), enc.len());
        prop_assert_eq!(wire::decode_subtree(enc.clone()).unwrap(), s);
        assert_prefixes_error(&enc, wire::decode_subtree);
    }

    #[test]
    fn comoments_roundtrips_and_prefixes_error(
        xs in prop::collection::vec(-1.0e9..1.0e9f64, 1..32),
        ys in prop::collection::vec(-1.0e9..1.0e9f64, 1..32),
    ) {
        let n = xs.len().min(ys.len());
        let m = CoMoments::from_slices(&xs[..n], &ys[..n]);
        let enc = wire::encode_comoments(&m);
        prop_assert_eq!(wire::decode_comoments(enc.clone()).unwrap(), m);
        assert_prefixes_error(&enc, wire::decode_comoments);
    }

    #[test]
    fn feature_stats_roundtrips_and_prefixes_error(
        s in subtree_strategy(),
        feats in prop::collection::vec((any::<u64>(), moments_strategy()), 0..6),
    ) {
        let enc = wire::encode_feature_stats(&s, &feats);
        let (s2, f2) = wire::decode_feature_stats(enc.clone()).unwrap();
        prop_assert_eq!(s2, s);
        prop_assert_eq!(f2, feats);
        assert_prefixes_error(&enc, wire::decode_feature_stats);
    }

    #[test]
    fn partial_image_roundtrips_and_prefixes_error(
        w in 1usize..6,
        h in 1usize..6,
        key in any::<i64>(),
        fill in -1.0e3..1.0e3f64,
    ) {
        let mut img = sitra_viz::Image::new(w, h);
        for (i, p) in img.pixels_mut().iter_mut().enumerate() {
            *p = [fill, i as f64, -fill, 1.0];
        }
        let enc = wire::encode_partial_image(key, &img);
        let (k2, img2) = wire::decode_partial_image(enc.clone()).unwrap();
        prop_assert_eq!(k2, key);
        prop_assert_eq!(img2, img);
        assert_prefixes_error(&enc, wire::decode_partial_image);
    }

    /// The output codec — what crosses the wire from a remote bucket
    /// back to the driver — round-trips every variant, encodes
    /// deterministically, and errors on every strict prefix.
    #[test]
    fn analysis_output_roundtrips_and_prefixes_error(out in analysis_output_strategy()) {
        let enc = wire::encode_analysis_output(&out);
        prop_assert_eq!(wire::decode_analysis_output(enc.clone()).unwrap(), out);
        prop_assert_eq!(&wire::encode_analysis_output(
            &wire::decode_analysis_output(enc.clone()).unwrap()), &enc);
        assert_prefixes_error(&enc, wire::decode_analysis_output);
    }

    /// Single-byte corruption of a valid encoding must never panic a
    /// decoder: it either still decodes (the flipped byte landed in a
    /// payload value) or returns a structured error — both acceptable,
    /// a crash is not.
    #[test]
    fn corrupted_encodings_never_panic(
        out in analysis_output_strategy(),
        sub in subtree_strategy(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        for enc in [
            wire::encode_analysis_output(&out),
            wire::encode_subtree(&sub),
        ] {
            if enc.is_empty() {
                continue;
            }
            let mut raw = enc.to_vec();
            let i = (at as usize) % raw.len();
            raw[i] ^= flip;
            let b = Bytes::from(raw);
            let _ = wire::decode_analysis_output(b.clone());
            let _ = wire::decode_subtree(b.clone());
            let _ = wire::decode_feature_stats(b);
        }
    }

    /// The flow-map record list — the Lagrangian workload's in-transit
    /// intermediate *and* its final output payload — round-trips every
    /// record bit-exactly and errors on every strict prefix (the count
    /// prefix is validated against the bytes actually present before
    /// any allocation).
    #[test]
    fn flow_records_roundtrip_and_prefixes_error(
        recs in prop::collection::vec(flow_record_strategy(), 0..12),
    ) {
        let enc = wire::encode_flow_records(&recs);
        prop_assert_eq!(wire::decode_flow_records(enc.clone()).unwrap(), recs);
        assert_prefixes_error(&enc, wire::decode_flow_records);
    }

    /// Steering-feedback request frames (subscribe / next-frame /
    /// steer) round-trip and error on every strict prefix. Zero
    /// downsample rates are unrepresentable on the wire: the decoder
    /// rejects them before the server ever sees one.
    #[test]
    fn steer_msg_roundtrips_and_prefixes_error(msg in steer_msg_strategy()) {
        let enc = encode_steer_msg(&msg);
        prop_assert_eq!(decode_steer_msg(enc.clone()).unwrap(), msg);
        assert_prefixes_error(&enc, decode_steer_msg);
    }

    /// Steering reply frames — including full reduced-image frames —
    /// round-trip and error on every strict prefix (the pixel payload
    /// length is validated against the image dims before allocating).
    #[test]
    fn steer_reply_roundtrips_and_prefixes_error(reply in steer_reply_strategy()) {
        let enc = encode_steer_reply(&reply);
        prop_assert_eq!(decode_steer_reply(enc.clone()).unwrap(), reply);
        assert_prefixes_error(&enc, decode_steer_reply);
    }

    /// Single-byte corruption of flow-map and steering frames must
    /// never panic a decoder — the faulty transport hands exactly this
    /// to the staging service and the steering client.
    #[test]
    fn corrupted_flow_and_steer_frames_never_panic(
        recs in prop::collection::vec(flow_record_strategy(), 0..8),
        msg in steer_msg_strategy(),
        reply in steer_reply_strategy(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        for enc in [
            wire::encode_flow_records(&recs),
            encode_steer_msg(&msg),
            encode_steer_reply(&reply),
        ] {
            if enc.is_empty() {
                continue;
            }
            let mut raw = enc.to_vec();
            let i = (at as usize) % raw.len();
            raw[i] ^= flip;
            let b = Bytes::from(raw);
            let _ = wire::decode_flow_records(b.clone());
            let _ = decode_steer_msg(b.clone());
            let _ = decode_steer_reply(b);
        }
    }

    /// The membership/handoff control frames (`sitra-cluster`'s inner
    /// codec, carried opaquely inside dataspaces `Control` frames)
    /// hold to the same bar as the data-plane codecs: every message
    /// round-trips, and every strict prefix errors without panicking.
    #[test]
    fn cluster_msg_roundtrips_and_prefixes_error(msg in cluster_msg_strategy()) {
        let enc = encode_msg(&msg);
        prop_assert_eq!(decode_msg(enc.clone()).unwrap(), msg);
        assert_prefixes_error(&enc, decode_msg);
    }

    /// Single-byte corruption of a membership frame must never panic
    /// the decoder — a corrupted byte either still decodes (it landed
    /// in a payload value) or returns a structured `ProtoError`, and a
    /// node treats either as a malformed peer, not a crash.
    #[test]
    fn corrupted_cluster_msgs_never_panic(
        msg in cluster_msg_strategy(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let enc = encode_msg(&msg);
        prop_assert!(!enc.is_empty(), "every message carries at least a tag byte");
        let mut raw = enc.to_vec();
        let i = (at as usize) % raw.len();
        raw[i] ^= flip;
        let _ = decode_msg(Bytes::from(raw));
    }

    /// The data-ready read of the staging RPC: round-trips, errors on
    /// every strict prefix and on trailing bytes, refuses an inverted
    /// query region (a corrupted corner must not reach the space as a
    /// nonsense box), and survives a flipped byte whichever decoder
    /// the damaged frame reaches.
    #[test]
    fn get_wait_roundtrips_and_hostile_frames_error(
        var in short_name(),
        version in any::<u64>(),
        lo in prop::array::uniform3(0usize..64),
        ext in prop::array::uniform3(0usize..64),
        timeout_ms in any::<u64>(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let hi = [lo[0] + ext[0], lo[1] + ext[1], lo[2] + ext[2]];
        let req = Request::GetWait { var, version, bbox: BBox3::new(lo, hi), timeout_ms };
        let enc = encode_request(&req).join();
        prop_assert_eq!(decode_request(enc.clone()).unwrap(), req);
        assert_prefixes_error(&enc, decode_request);
        let mut raw = enc.to_vec();
        raw.push(0);
        prop_assert!(decode_request(Bytes::from(raw.clone())).is_err());
        raw.pop();
        // The bbox sits between the version and the trailing timeout:
        // swap its corners in place.
        let corners = raw.len() - 8 - 48;
        let (lo_bytes, hi_bytes) = raw[corners..corners + 48].split_at_mut(24);
        lo_bytes.swap_with_slice(hi_bytes);
        if ext != [0, 0, 0] {
            prop_assert!(decode_request(Bytes::from(raw.clone())).is_err());
        }
        let i = (at as usize) % raw.len();
        raw[i] ^= flip;
        let _ = decode_request(Bytes::from(raw.clone()));
        let _ = decode_response(Bytes::from(raw));
    }

    /// The receipt that hands an assignment back: same bar. It is an
    /// opcode and a sequence number, so a flipped byte either lands in
    /// the number (still a decline, of another task — the server checks
    /// it against the assignment it is waiting on) or in the opcode.
    #[test]
    fn decline_task_roundtrips_and_hostile_frames_error(
        seq in any::<u64>(),
        at in 0usize..9,
        flip in 1u8..=255,
    ) {
        let req = Request::DeclineTask { seq };
        let enc = encode_request(&req).join();
        prop_assert_eq!(enc.len(), 9);
        prop_assert_eq!(decode_request(enc.clone()).unwrap(), req);
        assert_prefixes_error(&enc, decode_request);
        let mut raw = enc.to_vec();
        raw.push(0);
        prop_assert!(decode_request(Bytes::from(raw.clone())).is_err());
        raw.pop();
        raw[at] ^= flip;
        match decode_request(Bytes::from(raw.clone())) {
            Ok(Request::DeclineTask { seq: other }) => prop_assert!(at > 0 && other != seq),
            Ok(other) => prop_assert!(at == 0, "a damaged sequence number became {:?}", other),
            Err(_) => prop_assert!(at == 0, "a damaged sequence number stopped decoding"),
        }
        let _ = decode_response(Bytes::from(raw));
    }

    /// The transport's frame decoder is total over arbitrary read
    /// coalescing: however the byte stream is cut into chunks (single
    /// bytes, whole-batch reads, anything between), the same frames
    /// come out in the same order with the same bytes. This is the
    /// invariant that lets the reader task feed whatever `read` hands
    /// it — batched small frames or a spanning large one — through one
    /// state machine.
    #[test]
    fn frame_decoder_is_chunking_invariant(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..10),
        cuts in prop::collection::vec(1usize..64, 1..40),
    ) {
        use sitra_net::frame::{encode_header, FrameDecoder};

        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_header(f.len()));
            stream.extend_from_slice(f);
        }
        // Decode the whole stream in one feed...
        let mut whole = Vec::new();
        let mut dec = FrameDecoder::new();
        dec.feed(Bytes::from(stream.clone()), &mut whole).unwrap();
        // ...and again cut at arbitrary points, cycling `cuts`.
        let mut split = Vec::new();
        let mut dec2 = FrameDecoder::new();
        let mut rest = Bytes::from(stream);
        let mut i = 0;
        while !rest.is_empty() {
            let take = cuts[i % cuts.len()].min(rest.len());
            i += 1;
            let chunk = rest.split_to(take);
            dec2.feed(chunk, &mut split).unwrap();
        }
        prop_assert!(dec2.is_at_boundary(), "stream ends on a frame boundary");
        prop_assert_eq!(whole.len(), frames.len());
        for ((w, s), f) in whole.iter().zip(&split).zip(&frames) {
            prop_assert_eq!(w.as_slice(), f.as_slice());
            prop_assert_eq!(s.as_slice(), f.as_slice());
        }
    }

    /// Arbitrary byte soup through the frame decoder, in arbitrary
    /// chunk splits, never panics and never allocates from a hostile
    /// length prefix: a frame claiming more than the cap errors out
    /// (and poisons the decoder) *before* any buffer is reserved.
    #[test]
    fn frame_decoder_never_panics_on_soup(
        raw in prop::collection::vec(any::<u8>(), 0..512),
        cuts in prop::collection::vec(1usize..32, 1..20),
        spike in any::<bool>(),
    ) {
        use sitra_net::frame::FrameDecoder;

        let mut raw = raw;
        if spike && raw.len() >= 4 {
            // A header claiming a ~4 GiB frame at the front.
            raw[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut rest = Bytes::from(raw);
        let mut i = 0;
        let mut poisoned = false;
        while !rest.is_empty() {
            let take = cuts[i % cuts.len()].min(rest.len());
            i += 1;
            let chunk = rest.split_to(take);
            match dec.feed(chunk, &mut out) {
                Ok(()) => {}
                Err(_) => { poisoned = true; break; }
            }
        }
        if spike && !poisoned {
            // The spiked header exceeds MAX_FRAME_LEN (1 GiB), so if we
            // fed at least the full header the decoder must have
            // rejected it.
            prop_assert!(i == 0, "hostile length prefix went unrejected");
        }
    }

    /// Arbitrary byte soup never panics any decoder. Length-prefix
    /// positions are seeded with large values often enough that hostile
    /// allocation sizes are exercised (the decoders cap allocations by
    /// the bytes actually present).
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(any::<u8>(), 0..256),
        spike_at in any::<u64>(),
    ) {
        let mut raw = raw;
        if !raw.is_empty() {
            // Overwrite 8 bytes somewhere with u64::MAX to fake a huge
            // length prefix.
            let at = (spike_at as usize) % raw.len();
            for i in at..raw.len().min(at + 8) {
                raw[i] = 0xFF;
            }
        }
        let b = Bytes::from(raw);
        let _ = wire::decode_sampled_block(b.clone());
        let _ = wire::decode_multimodel(b.clone());
        let _ = wire::decode_subtree(b.clone());
        let _ = wire::decode_comoments(b.clone());
        let _ = wire::decode_feature_stats(b.clone());
        let _ = wire::decode_partial_image(b.clone());
        let _ = wire::decode_analysis_output(b.clone());
        let _ = wire::decode_flow_records(b.clone());
        let _ = decode_steer_msg(b.clone());
        let _ = decode_steer_reply(b.clone());
        let _ = decode_msg(b);
    }
}
