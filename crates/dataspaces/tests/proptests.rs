//! Property-based tests for the staging service: the object space behaves
//! like a reference map with spatial queries, the scheduler is a
//! lossless FCFS queue under arbitrary interleavings, and the RPC wire
//! codecs — including the admission/backpressure control frames — are
//! total (any bytes decode to Ok or Err, never a panic) and round-trip
//! every representable frame. The one-pass assembly of a query's pieces
//! is bit-identical to the decode → extract → paste chain it replaced.

use bytes::Bytes;
use proptest::prelude::*;
use sitra_dataspaces::remote::{
    decode_request, decode_response, encode_request, encode_response, PoolStats, RemoteStats,
    Request, Response, TaskPoll, TenantRow,
};
use sitra_dataspaces::{
    codec, field_to_bytes, Admission, AdmissionPolicy, DataSpaces, Lease, RemoteSpace,
    ResidencyHint, Scheduler, SpaceServer, Submission, TenantSpec,
};
use sitra_mesh::{BBox3, ScalarField};
use std::time::Duration;

fn arb_box() -> impl Strategy<Value = BBox3> {
    (
        prop::array::uniform3(0usize..10),
        prop::array::uniform3(1usize..6),
    )
        .prop_map(|(lo, ext)| BBox3::new(lo, [lo[0] + ext[0], lo[1] + ext[1], lo[2] + ext[2]]))
}

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..48).prop_map(Bytes::from)
}

fn arb_var() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 0..12)
        .prop_map(|v| v.into_iter().map(|c| (b'a' + c) as char).collect())
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

// The wire carries Block's max_wait in whole milliseconds, so only
// ms-granular durations round-trip.
fn arb_policy() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        (0u64..100_000).prop_map(|ms| AdmissionPolicy::Block {
            max_wait: Duration::from_millis(ms)
        }),
        Just(AdmissionPolicy::ShedOldest),
        Just(AdmissionPolicy::RejectNew),
    ]
}

fn arb_admission() -> impl Strategy<Value = Admission> {
    prop_oneof![
        any::<u64>().prop_map(|seq| Admission::Accepted { seq }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, shed_seq)| Admission::AcceptedShed { seq, shed_seq }),
        Just(Admission::Rejected),
        Just(Admission::TimedOut),
        Just(Admission::Closed),
    ]
}

// A tenant name the server accepts: non-empty, no namespace separator.
fn arb_tenant_name() -> impl Strategy<Value = String> {
    (0u8..26, arb_var()).prop_map(|(c, rest)| format!("{}{rest}", (b'a' + c) as char))
}

fn arb_tenant_spec() -> impl Strategy<Value = TenantSpec> {
    (
        arb_tenant_name(),
        1u32..1000,
        arb_opt_u64(),
        arb_opt_u64(),
        (any::<bool>(), arb_policy()),
    )
        .prop_map(
            |(name, weight, byte_quota, task_quota, (has_policy, policy))| TenantSpec {
                name,
                weight,
                byte_quota,
                task_quota: task_quota.map(|t| t as usize),
                policy: has_policy.then_some(policy),
            },
        )
}

fn arb_tenant_row() -> impl Strategy<Value = TenantRow> {
    (
        arb_var(),
        any::<u32>(),
        arb_opt_u64(),
        arb_opt_u64(),
        prop::collection::vec(any::<u64>(), 7..8),
    )
        .prop_map(|(name, weight, task_quota, byte_quota, v)| TenantRow {
            name,
            weight,
            queued: v[0],
            task_quota,
            tasks_submitted: v[1],
            tasks_assigned: v[2],
            tasks_requeued: v[3],
            tasks_shed: v[4],
            tasks_rejected: v[5],
            resident_bytes: v[6],
            byte_quota,
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_var(), any::<u64>(), arb_box(), arb_bytes()).prop_map(|(var, version, bbox, data)| {
            Request::Put {
                var,
                version,
                bbox,
                data,
            }
        }),
        (arb_var(), any::<u64>(), arb_box()).prop_map(|(var, version, bbox)| Request::Get {
            var,
            version,
            bbox
        }),
        (arb_var(), any::<u64>(), arb_box(), any::<u64>()).prop_map(
            |(var, version, bbox, timeout_ms)| Request::GetWait {
                var,
                version,
                bbox,
                timeout_ms
            }
        ),
        arb_var().prop_map(|var| Request::LatestVersion { var }),
        (
            arb_bytes(),
            prop::collection::vec((arb_var(), any::<u64>()), 0..4)
        )
            .prop_map(|(data, hint)| Request::SubmitTask { data, hint }),
        (any::<u32>(), any::<u64>(), arb_var()).prop_map(|(bucket_id, timeout_ms, location)| {
            Request::RequestTask {
                bucket_id,
                timeout_ms,
                location,
            }
        }),
        any::<u64>().prop_map(|seq| Request::AckTask { seq }),
        any::<u64>().prop_map(|seq| Request::DeclineTask { seq }),
        Just(Request::Stats),
        any::<u64>().prop_map(|version| Request::EvictVersion { version }),
        Just(Request::CloseSched),
        arb_bytes().prop_map(|data| Request::Control { data }),
        arb_tenant_spec().prop_map(|spec| Request::SetTenant { spec }),
        Just(Request::TenantStats),
        Just(Request::PoolStats),
    ]
}

// Requests that may share a batch (answered exactly once, at once),
// over a domain small enough that puts, gets and evictions meet.
fn arb_batchable() -> impl Strategy<Value = Request> {
    let var = || (0u8..2).prop_map(|v| ["a", "b"][v as usize].to_string());
    prop_oneof![
        (var(), 0u64..3, arb_box(), arb_bytes()).prop_map(|(var, version, bbox, data)| {
            Request::Put {
                var,
                version,
                bbox,
                data,
            }
        }),
        (var(), 0u64..3, arb_box()).prop_map(|(var, version, bbox)| Request::Get {
            var,
            version,
            bbox
        }),
        var().prop_map(|var| Request::LatestVersion { var }),
        arb_bytes().prop_map(|data| Request::SubmitTask {
            data,
            hint: Vec::new()
        }),
        (0u64..3).prop_map(|version| Request::EvictVersion { version }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        prop::collection::vec((arb_box(), arb_bytes()), 0..4).prop_map(Response::Pieces),
        (
            arb_var(),
            any::<u64>(),
            prop::collection::vec((arb_box(), arb_bytes()), 0..4)
        )
            .prop_map(|(var, version, pieces)| Response::DataReady {
                var,
                version,
                pieces
            }),
        arb_opt_u64().prop_map(Response::Version),
        prop_oneof![
            (any::<u64>(), arb_bytes(), arb_var()).prop_map(|(seq, data, tenant)| Response::Task(
                TaskPoll::Assigned { seq, data, tenant }
            )),
            Just(Response::Task(TaskPoll::Empty)),
            Just(Response::Task(TaskPoll::Closed)),
            Just(Response::Task(TaskPoll::Retire)),
        ],
        prop::collection::vec(any::<u64>(), 7..8).prop_map(|v| {
            Response::Stats(RemoteStats {
                tasks_submitted: v[0],
                tasks_assigned: v[1],
                tasks_requeued: v[2],
                tasks_shed: v[3],
                tasks_rejected: v[4],
                objects: v[5],
                resident_bytes: v[6],
            })
        }),
        arb_admission().prop_map(Response::Admission),
        arb_bytes().prop_map(|data| Response::Control { data }),
        prop::collection::vec(arb_tenant_row(), 0..4).prop_map(Response::TenantRows),
        (prop::collection::vec(any::<u64>(), 5..6), arb_opt_u64()).prop_map(|(v, desired)| {
            Response::Pool(PoolStats {
                buckets: v[0],
                idle: v[1],
                desired,
                queue_depth: v[2],
                p99_wait_us: v[3],
                locality_bytes_saved: v[4],
            })
        }),
        arb_var().prop_map(Response::Error),
    ]
}

/// One step of a single-thread scheduler sequence.
#[derive(Debug, Clone)]
enum SchedOp {
    /// Submit as tenant `a` or `b`, with an optional residency hint
    /// `(member, bytes)`.
    Submit {
        tenant: usize,
        hint: Option<(usize, u64)>,
    },
    /// One zero-timeout lease poll by bucket `i` (modulo the roster).
    Poll(usize),
}

/// The assembly [`codec::assemble`] replaced, kept as its reference:
/// decode each intersecting piece into a field of its own, copy out the
/// overlap, then paste the copies in order over a filled field.
fn reference_assemble(query: &BBox3, pieces: &[(BBox3, Bytes)], fill: f64) -> ScalarField {
    let clipped: Vec<ScalarField> = pieces
        .iter()
        .filter_map(|(bbox, data)| {
            let clip = bbox.intersect(query)?;
            let values = data
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            Some(ScalarField::from_vec(*bbox, values).extract(&clip))
        })
        .collect();
    sitra_mesh::field::assemble(*query, &clipped, fill)
}

fn bits(f: &ScalarField) -> Vec<u64> {
    f.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_pass_assembly_matches_the_decode_extract_paste_chain(
        pieces in prop::collection::vec((arb_box(), any::<u64>()), 0..6),
        query in arb_box(),
        nan_fill in any::<bool>(),
    ) {
        // Boxes in 0..15 per axis: pieces overlap each other and cover
        // the query fully, partly or not at all. Every third piece is
        // NaNs with distinct payloads, the rest arbitrary bit patterns.
        let fill = if nan_fill { f64::NAN } else { -0.0 };
        let pieces: Vec<(BBox3, Bytes)> = pieces
            .into_iter()
            .map(|(bbox, seed)| {
                let field = ScalarField::from_fn(bbox, |p| {
                    let at = (p[0] as u64) << 40 | (p[1] as u64) << 20 | p[2] as u64;
                    match seed % 3 {
                        0 => f64::from_bits(0x7ff8_0000_0000_0000 | at),
                        _ => f64::from_bits(seed ^ at),
                    }
                });
                (bbox, field_to_bytes(&field))
            })
            .collect();
        let got = codec::assemble(&query, &pieces, fill).unwrap();
        let want = reference_assemble(&query, &pieces, fill);
        prop_assert_eq!(got.bbox(), want.bbox());
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn space_queries_match_reference(puts in prop::collection::vec((arb_box(), 0u64..3), 1..20),
                                     query in arb_box(),
                                     servers in 1usize..6) {
        let ds = DataSpaces::new(servers);
        // Last write wins per point is NOT the semantic (objects
        // accumulate); the reference is "every stored object intersecting
        // the query is returned".
        for (i, (bbox, version)) in puts.iter().enumerate() {
            let f = ScalarField::new_fill(*bbox, i as f64);
            ds.put_field("T", *version, &f);
        }
        for version in 0u64..3 {
            let got = ds.get("T", version, &query);
            let expect: Vec<BBox3> = puts
                .iter()
                .filter(|(b, v)| *v == version && b.intersect(&query).is_some())
                .map(|(b, _)| *b)
                .collect();
            prop_assert_eq!(got.len(), expect.len());
            for (b, data) in &got {
                prop_assert!(expect.contains(b));
                prop_assert_eq!(data.len(), b.count() * 8);
            }
        }
        // Total object count conserved across shards.
        let stats = ds.stats();
        prop_assert_eq!(stats.objects_per_server.iter().sum::<u64>() as usize, puts.len());
    }

    #[test]
    fn scheduler_lossless_fcfs_under_interleaving(schedule in prop::collection::vec(any::<bool>(), 1..60)) {
        // true = submit a task, false = a bucket requests (with timeout so
        // an excess of requests doesn't block).
        let s: Scheduler<u64> = Scheduler::new();
        let bucket = s.register_bucket(0);
        let mut submitted = 0u64;
        let mut received: Vec<u64> = Vec::new();
        for op in schedule {
            if op {
                s.submit(submitted);
                submitted += 1;
            } else if let Lease::Assigned { seq, task } =
                bucket.poll_task(Some(Duration::from_millis(5)))
            {
                prop_assert_eq!(seq, task, "seq equals payload by construction");
                received.push(task);
            }
        }
        // Drain the rest.
        while let Lease::Assigned { task, .. } = bucket.poll_task(Some(Duration::from_millis(5))) {
            received.push(task);
        }
        // FCFS: received in submission order, none lost.
        prop_assert_eq!(received, (0..submitted).collect::<Vec<_>>());
        let stats = s.stats();
        prop_assert_eq!(stats.tasks_submitted, submitted);
        prop_assert_eq!(stats.tasks_assigned, submitted);
    }

    #[test]
    fn hints_naming_no_bucket_location_change_nothing(
        located in prop::collection::vec(any::<bool>(), 1..4),
        capacity in 1usize..6,
        shed in any::<bool>(),
        ops in prop::collection::vec(
            prop_oneof![
                (0usize..2, any::<bool>(), 0usize..3, 1u64..1 << 20).prop_map(
                    |(tenant, hinted, member, bytes)| SchedOp::Submit {
                        tenant,
                        hint: hinted.then_some((member, bytes)),
                    }
                ),
                (0usize..4).prop_map(SchedOp::Poll),
            ],
            1..80,
        ),
    ) {
        // One pass of `ops` on a fresh scheduler, with or without the
        // hints: every verdict, every lease, and the stats.
        let run = |hinted: bool| {
            let policy = if shed { AdmissionPolicy::ShedOldest } else { AdmissionPolicy::RejectNew };
            let s: Scheduler<usize> = Scheduler::bounded(capacity, policy);
            let buckets: Vec<_> = located
                .iter()
                .enumerate()
                .map(|(i, &at)| {
                    let location = format!("tcp://bucket{i}:7000");
                    s.register_bucket_at(i as u32, at.then_some(location.as_str()))
                })
                .collect();
            let mut seen = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    SchedOp::Submit { tenant, hint } => {
                        let hint = hint.filter(|_| hinted).map_or_else(
                            ResidencyHint::default,
                            |(member, bytes)| {
                                ResidencyHint::single(format!("tcp://member{member}:7000"), bytes)
                            },
                        );
                        let tenant = ["a", "b"][tenant];
                        let verdict = s.submit(Submission { tenant, hint, task: i });
                        seen.push(format!("{verdict:?}"));
                    }
                    SchedOp::Poll(b) => {
                        let lease = buckets[b % buckets.len()].poll_task(Some(Duration::ZERO));
                        seen.push(format!("{lease:?}"));
                    }
                }
            }
            (seen, s.stats())
        };
        let (plain_seen, plain) = run(false);
        let (hinted_seen, hinted) = run(true);
        prop_assert_eq!(hinted_seen, plain_seen);
        prop_assert_eq!(hinted.tasks_assigned, plain.tasks_assigned);
        prop_assert_eq!(hinted.locality_bytes_saved, 0);
    }

    #[test]
    fn batch_replies_match_the_same_requests_issued_one_by_one(
        reqs in prop::collection::vec(arb_batchable(), 0..40),
    ) {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let serve = |side: &str| {
            let addr = format!("inproc://prop-batch-{case}-{side}").parse().unwrap();
            let server = SpaceServer::start(&addr, 2).unwrap();
            let client = RemoteSpace::connect(&server.addr()).unwrap();
            (server, client)
        };
        let (batched_server, batched) = serve("batched");
        let (serial_server, serial) = serve("serial");
        let got = batched.batch(&reqs).unwrap();
        let want: Vec<Response> = reqs
            .iter()
            .flat_map(|r| serial.batch(std::slice::from_ref(r)).unwrap())
            .collect();
        prop_assert_eq!(got, want);
        batched_server.shutdown();
        serial_server.shutdown();
    }

    #[test]
    fn request_codec_roundtrips(req in arb_request()) {
        let enc = encode_request(&req).join();
        prop_assert_eq!(decode_request(enc).unwrap(), req);
    }

    #[test]
    fn response_codec_roundtrips(resp in arb_response()) {
        let enc = encode_response(&resp).join();
        prop_assert_eq!(decode_response(enc).unwrap(), resp);
    }

    #[test]
    fn codecs_total_on_arbitrary_bytes(raw in prop::collection::vec(any::<u8>(), 0..256)) {
        // Any byte soup — including frames claiming payloads far larger
        // than the buffer — must decode to Ok or Err, never panic.
        let _ = decode_request(Bytes::from(raw.clone()));
        let _ = decode_response(Bytes::from(raw));
    }

    #[test]
    fn truncated_frames_error_not_panic(resp in arb_response(),
                                        req in arb_request(),
                                        cut in any::<usize>()) {
        // Every strict prefix of a valid frame is an error: the codecs
        // have no optional trailing fields.
        let enc = encode_response(&resp).join();
        let n = cut % enc.len();
        prop_assert!(decode_response(enc.slice(..n)).is_err());
        let enc = encode_request(&req).join();
        let n = cut % enc.len();
        prop_assert!(decode_request(enc.slice(..n)).is_err());
    }

    #[test]
    fn corrupted_frames_never_panic(resp in arb_response(),
                                    req in arb_request(),
                                    at in any::<usize>(),
                                    flip in 1u8..=255) {
        // A flipped byte either still decodes (it landed in a payload
        // value) or is a structured error — never a panic, whichever
        // decoder the damaged frame reaches.
        for enc in [encode_response(&resp).join(), encode_request(&req).join()] {
            let mut raw = enc.to_vec();
            let i = at % raw.len();
            raw[i] ^= flip;
            let _ = decode_response(Bytes::from(raw.clone()));
            let _ = decode_request(Bytes::from(raw));
        }
    }

    #[test]
    fn oversized_frames_error_not_panic(resp in arb_response(),
                                        req in arb_request(),
                                        extra in prop::collection::vec(any::<u8>(), 1..16)) {
        // Trailing garbage after a complete frame must be rejected
        // (`finish` trailing-bytes check), not silently absorbed.
        let mut buf = encode_response(&resp).join().to_vec();
        buf.extend_from_slice(&extra);
        prop_assert!(decode_response(Bytes::from(buf)).is_err());
        let mut buf = encode_request(&req).join().to_vec();
        buf.extend_from_slice(&extra);
        prop_assert!(decode_request(Bytes::from(buf)).is_err());
    }
}
