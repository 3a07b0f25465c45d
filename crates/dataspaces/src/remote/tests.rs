//! Codec and over-the-wire tests of the staging RPC.

use super::*;
use crate::sched::{Admission, AdmissionPolicy, Scheduler};
use crate::space::DataSpaces;
use crate::tenant::{TenantSpec, DEFAULT_TENANT};
use bytes::Bytes;
use sitra_mesh::{BBox3, ScalarField};
use sitra_net::{Addr, Backoff};
use std::sync::Arc;
use std::time::Duration;

fn mk_bbox(lo: [usize; 3], hi: [usize; 3]) -> BBox3 {
    BBox3::new(lo, hi)
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Put {
            var: "T".into(),
            version: 9,
            bbox: mk_bbox([0, 1, 2], [3, 4, 5]),
            data: Bytes::from_static(b"\x01\x02"),
        },
        Request::Get {
            var: "ρ".into(),
            version: 0,
            bbox: mk_bbox([0, 0, 0], [0, 0, 0]),
        },
        Request::LatestVersion { var: "x".into() },
        Request::SubmitTask {
            data: Bytes::from_static(b"task"),
            hint: vec![],
        },
        Request::RequestTask {
            bucket_id: 7,
            timeout_ms: 1500,
            location: String::new(),
        },
        Request::AckTask { seq: 42 },
        Request::Stats,
        Request::EvictVersion { version: 3 },
        Request::CloseSched,
        Request::Control {
            data: Bytes::from_static(b"\x00opaque"),
        },
        Request::SetTenant {
            spec: TenantSpec::new("viz")
                .with_weight(3)
                .with_byte_quota(1 << 20)
                .with_task_quota(8)
                .with_policy(AdmissionPolicy::Block {
                    max_wait: Duration::from_millis(40),
                }),
        },
        Request::SetTenant {
            spec: TenantSpec::new("plain"),
        },
        Request::TenantStats,
        Request::PoolStats,
        Request::SubmitTask {
            data: Bytes::from_static(b"task-hinted"),
            hint: vec![("tcp://m0:7000".into(), 4096), ("tcp://m1:7000".into(), 64)],
        },
        Request::RequestTask {
            bucket_id: 3,
            timeout_ms: 250,
            location: "tcp://m1:7000".into(),
        },
        Request::GetWait {
            var: "sitra.o/viz".into(),
            version: 12,
            bbox: mk_bbox([0, 0, 0], [1, 1, 1]),
            timeout_ms: 60_000,
        },
        Request::DeclineTask { seq: 42 },
    ]
}

#[test]
fn request_codec_roundtrip() {
    for r in sample_requests() {
        assert_eq!(decode_request(encode_request(&r).join()).unwrap(), r);
    }
}

#[test]
fn response_codec_roundtrip() {
    let resps = vec![
        Response::Ok,
        Response::Pieces(vec![
            (mk_bbox([0, 0, 0], [1, 1, 1]), Bytes::from_static(b"abc")),
            (mk_bbox([2, 0, 0], [3, 1, 1]), Bytes::new()),
        ]),
        Response::DataReady {
            var: "sitra.o/viz".into(),
            version: 12,
            pieces: vec![(mk_bbox([0, 0, 0], [1, 1, 1]), Bytes::from_static(b"out"))],
        },
        Response::DataReady {
            var: "v".into(),
            version: 0,
            pieces: vec![],
        },
        Response::Version(Some(8)),
        Response::Version(None),
        Response::Task(TaskPoll::Assigned {
            seq: 5,
            data: Bytes::from_static(b"t"),
            tenant: "acme".into(),
        }),
        Response::Task(TaskPoll::Empty),
        Response::Task(TaskPoll::Closed),
        Response::Task(TaskPoll::Retire),
        Response::Pool(PoolStats {
            buckets: 4,
            idle: 2,
            desired: Some(6),
            queue_depth: 9,
            p99_wait_us: 1500,
            locality_bytes_saved: 1 << 20,
        }),
        Response::Pool(PoolStats::default()),
        Response::Stats(RemoteStats {
            tasks_submitted: 1,
            tasks_assigned: 2,
            tasks_requeued: 3,
            tasks_shed: 6,
            tasks_rejected: 7,
            objects: 4,
            resident_bytes: 5,
        }),
        Response::Admission(Admission::Accepted { seq: 11 }),
        Response::Admission(Admission::AcceptedShed {
            seq: 12,
            shed_seq: 2,
        }),
        Response::Admission(Admission::Rejected),
        Response::Admission(Admission::TimedOut),
        Response::Admission(Admission::Closed),
        Response::Control {
            data: Bytes::from_static(b"reply"),
        },
        Response::TenantRows(vec![
            TenantRow {
                name: "default".into(),
                weight: 1,
                ..TenantRow::default()
            },
            TenantRow {
                name: "viz".into(),
                weight: 3,
                queued: 2,
                task_quota: Some(8),
                tasks_submitted: 10,
                tasks_assigned: 7,
                tasks_requeued: 1,
                tasks_shed: 1,
                tasks_rejected: 2,
                resident_bytes: 4096,
                byte_quota: Some(1 << 20),
            },
        ]),
        Response::TenantRows(vec![]),
        Response::Error("boom".into()),
    ];
    for r in resps {
        assert_eq!(decode_response(encode_response(&r).join()).unwrap(), r);
    }
}

#[test]
fn codecs_reject_garbage_without_panicking() {
    for len in 0..64 {
        let junk = Bytes::from(vec![0xFEu8; len]);
        assert!(decode_request(junk.clone()).is_err());
        assert!(decode_response(junk).is_err());
    }
    // Truncations of every valid message error out too (a policy-less
    // SetTenant cut inside its filler policy used to decode).
    for r in sample_requests() {
        let enc = encode_request(&r).join();
        for cut in 0..enc.len() {
            assert!(
                decode_request(enc.slice(0..cut)).is_err(),
                "{r:?} cut {cut}"
            );
        }
    }
}

#[test]
fn server_put_get_over_inproc() {
    let addr: Addr = "inproc://space-putget".parse().unwrap();
    let server = SpaceServer::start(&addr, 4).unwrap();
    let client = RemoteSpace::connect(&server.addr()).unwrap();
    let b = mk_bbox([0, 0, 0], [3, 3, 3]);
    let f = ScalarField::from_fn(b, |p| p[0] as f64 + 0.5 * p[1] as f64);
    client.put_field("T", 2, &f).unwrap();
    assert_eq!(client.latest_version("T").unwrap(), Some(2));
    assert_eq!(client.latest_version("nope").unwrap(), None);
    let got = client.get_assembled("T", 2, &b, f64::NAN).unwrap();
    assert_eq!(got, f);
    client.evict_version(2).unwrap();
    assert!(client.get("T", 2, &b).unwrap().is_empty());
    server.shutdown();
}

#[test]
fn get_assembled_refuses_a_piece_that_does_not_fill_its_box() {
    // The server stores opaque bytes: one client's put must not make
    // another client's assembly panic.
    let addr: Addr = "inproc://space-short-piece".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).unwrap();
    let writer = RemoteSpace::connect(&server.addr()).unwrap();
    let reader = RemoteSpace::connect(&server.addr()).unwrap();
    let b = mk_bbox([0, 0, 0], [2, 2, 2]);
    writer
        .put("T", 1, b, Bytes::from_static(b"7 bytes"))
        .unwrap();
    let got = reader.get_assembled("T", 1, &b, f64::NAN);
    assert!(matches!(got, Err(RemoteError::Proto(_))), "{got:?}");
    server.shutdown();
}

#[test]
fn scheduler_verbs_over_inproc() {
    let addr: Addr = "inproc://space-sched".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).unwrap();
    let producer = RemoteSpace::connect(&server.addr()).unwrap();
    let bucket = RemoteSpace::connect(&server.addr()).unwrap();

    // Empty poll times out.
    assert_eq!(
        bucket.request_task(0, Duration::from_millis(40)).unwrap(),
        TaskPoll::Empty
    );
    let adm = producer
        .submit_task_admission(Bytes::from_static(b"job-0"))
        .unwrap();
    assert_eq!(adm.seq(), Some(0));
    assert_eq!(
        bucket.request_task(0, Duration::from_secs(2)).unwrap(),
        TaskPoll::Assigned {
            seq: 0,
            data: Bytes::from_static(b"job-0"),
            tenant: DEFAULT_TENANT.into(),
        }
    );
    producer.close_sched().unwrap();
    assert_eq!(
        bucket.request_task(0, Duration::from_secs(2)).unwrap(),
        TaskPoll::Closed
    );
    let stats = producer.stats().unwrap();
    assert_eq!(stats.tasks_submitted, 1);
    assert_eq!(stats.tasks_assigned, 1);
    assert_eq!(stats.tasks_requeued, 0);
    server.shutdown();
}

#[test]
fn dropped_consumer_connection_requeues_task() {
    let addr: Addr = "inproc://space-requeue".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).unwrap();
    let producer = RemoteSpace::connect(&server.addr()).unwrap();
    producer
        .submit_task_admission(Bytes::from_static(b"precious"))
        .unwrap();

    // A consumer asks for the task and dies before acknowledging: its
    // request goes out and the connection closes with the reply unread
    // (every scheme delivers what is queued ahead of a close).
    let doomed = sitra_net::connect(&server.addr()).unwrap();
    doomed
        .send(encode_request(&Request::RequestTask {
            bucket_id: 9,
            timeout_ms: 2_000,
            location: String::new(),
        }))
        .unwrap();
    doomed.close();
    // Its handler thread may not have run yet: a survivor that asked
    // now could be served first, and the doomed request never assigned.
    let t0 = std::time::Instant::now();
    while producer.stats().unwrap().tasks_requeued == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "never requeued");
        std::thread::yield_now();
    }

    // The replacement consumer still gets the task.
    let survivor = RemoteSpace::connect(&server.addr()).unwrap();
    let polled = survivor.request_task(1, Duration::from_secs(5)).unwrap();
    assert_eq!(
        polled,
        TaskPoll::Assigned {
            seq: 0,
            data: Bytes::from_static(b"precious"),
            tenant: DEFAULT_TENANT.into(),
        }
    );
    let stats = producer.stats().unwrap();
    assert_eq!(stats.tasks_submitted, 1);
    assert_eq!(stats.tasks_requeued, 1);
    assert_eq!(stats.tasks_assigned, 2); // once to the doomed, once to the survivor
    server.shutdown();
}

/// A connection bound to `tenant`.
fn bound_to(server: &SpaceServer, tenant: &str) -> RemoteSpace {
    let conn = RemoteSpace::connect(&server.addr()).unwrap();
    conn.set_tenant(&TenantSpec::new(tenant)).unwrap();
    conn
}

#[test]
fn zero_timeout_request_still_looks_at_the_queue() {
    // The deadline used to be tested before the first look, so a
    // non-blocking request answered Empty over a waiting task.
    let addr: Addr = "inproc://space-zero-timeout".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).unwrap();
    let client = RemoteSpace::connect(&server.addr()).unwrap();
    assert_eq!(
        client.request_task(0, Duration::ZERO).unwrap(),
        TaskPoll::Empty
    );
    client
        .submit_task_admission(Bytes::from_static(b"waiting"))
        .unwrap();
    assert_eq!(
        client.request_task(0, Duration::ZERO).unwrap(),
        TaskPoll::Assigned {
            seq: 0,
            data: Bytes::from_static(b"waiting"),
            tenant: DEFAULT_TENANT.into(),
        }
    );
    server.shutdown();
}

#[test]
fn declined_task_returns_to_the_queue_head_and_the_connection_lives() {
    let addr: Addr = "inproc://space-decline".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).unwrap();
    let producer = bound_to(&server, "acme");
    for t in [&b"first"[..], b"second"] {
        producer
            .submit_task_admission(Bytes::copy_from_slice(t))
            .unwrap();
    }
    let busy = RemoteSpace::connect(&server.addr()).unwrap();
    let TaskPoll::Assigned { seq, data, tenant } = busy
        .request_task_held(1, Duration::from_secs(5), "")
        .unwrap()
    else {
        panic!("a task was queued");
    };
    assert_eq!(
        (seq, &data[..], tenant.as_str()),
        (0, &b"first"[..], "acme")
    );
    busy.decline_task(seq).unwrap();
    // A decline has no reply; a round trip on the same connection is
    // served after it, so the requeue below has happened.
    busy.stats().unwrap();

    // Head position, sequence number and tenant attribution are kept:
    // the next bucket gets the declined task, not the one behind it.
    let idle = RemoteSpace::connect(&server.addr()).unwrap();
    assert_eq!(
        idle.request_task(2, Duration::from_secs(5)).unwrap(),
        TaskPoll::Assigned {
            seq: 0,
            data: Bytes::from_static(b"first"),
            tenant: "acme".into(),
        }
    );
    // The declining connection was not torn down: it serves on.
    assert_eq!(
        busy.request_task(1, Duration::from_secs(5)).unwrap(),
        TaskPoll::Assigned {
            seq: 1,
            data: Bytes::from_static(b"second"),
            tenant: "acme".into(),
        }
    );
    let stats = producer.stats().unwrap();
    assert_eq!(stats.tasks_submitted, 2);
    assert_eq!(stats.tasks_requeued, 1);
    assert_eq!(stats.tasks_assigned, 3);
    let acme = producer.tenant_stats().unwrap();
    let acme = acme.iter().find(|r| r.name == "acme").unwrap();
    assert_eq!((acme.tasks_requeued, acme.tasks_assigned), (1, 3));
    // A receipt with nothing to answer is refused, not obeyed.
    busy.decline_task(7).unwrap();
    assert!(matches!(busy.stats(), Err(RemoteError::Server(_))));
    server.shutdown();
}

#[test]
fn get_wait_over_the_wire_is_woken_by_a_put_and_scoped_to_the_tenant() {
    let addr: Addr = "inproc://space-getwait".parse().unwrap();
    let server = SpaceServer::start(&addr, 2).unwrap();
    let b = mk_bbox([0, 0, 0], [1, 1, 1]);
    let waiter = bound_to(&server, "acme");
    let t0 = std::time::Instant::now();
    assert!(waiter
        .get_wait("out", 3, &b, Duration::from_millis(40))
        .unwrap()
        .is_empty());
    assert!(t0.elapsed() >= Duration::from_millis(40));

    // The put goes in once the wait is parked (one waiter registered);
    // a put that overtook it would be found by the wait's first look.
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let writer = bound_to(&server, "acme");
            // Another tenant's same-named object must not end the wait.
            server
                .space()
                .put("out", 3, b, Bytes::from_static(b"other"));
            writer
                .put("out", 3, b, Bytes::from_static(b"mine"))
                .unwrap();
        });
        let got = waiter
            .get_wait("out", 3, &b, Duration::from_secs(30))
            .unwrap();
        assert_eq!(got, vec![(b, Bytes::from_static(b"mine"))]);
        writer.join().unwrap();
    });
    assert!(t0.elapsed() < Duration::from_secs(10));
    server.shutdown();
}

#[test]
fn admission_verbs_over_inproc() {
    let addr: Addr = "inproc://space-admission".parse().unwrap();
    let sched = Scheduler::bounded(2, AdmissionPolicy::ShedOldest);
    let server =
        SpaceServer::start_custom(&addr, Arc::new(DataSpaces::new(1)), sched, None).unwrap();
    let producer = RemoteSpace::connect(&server.addr()).unwrap();
    assert_eq!(
        producer
            .submit_task_admission(Bytes::from_static(b"t0"))
            .unwrap(),
        Admission::Accepted { seq: 0 }
    );
    assert_eq!(
        producer
            .submit_task_admission(Bytes::from_static(b"t1"))
            .unwrap(),
        Admission::Accepted { seq: 1 }
    );
    // Queue full: the oldest task is shed to admit the new one.
    assert_eq!(
        producer
            .submit_task_admission(Bytes::from_static(b"t2"))
            .unwrap(),
        Admission::AcceptedShed {
            seq: 2,
            shed_seq: 0
        }
    );
    let stats = producer.stats().unwrap();
    assert_eq!(stats.tasks_shed, 1);
    assert_eq!(stats.tasks_rejected, 0);
    // The survivors drain FCFS; the shed task is gone.
    let bucket = RemoteSpace::connect(&server.addr()).unwrap();
    assert_eq!(
        bucket.request_task(0, Duration::from_secs(2)).unwrap(),
        TaskPoll::Assigned {
            seq: 1,
            data: Bytes::from_static(b"t1"),
            tenant: DEFAULT_TENANT.into(),
        }
    );
    assert_eq!(
        bucket.request_task(0, Duration::from_secs(2)).unwrap(),
        TaskPoll::Assigned {
            seq: 2,
            data: Bytes::from_static(b"t2"),
            tenant: DEFAULT_TENANT.into(),
        }
    );
    producer.close_sched().unwrap();
    assert_eq!(
        producer
            .submit_task_admission(Bytes::from_static(b"late"))
            .unwrap(),
        Admission::Closed
    );
    server.shutdown();
}

#[test]
fn reject_new_over_rpc_reports_rejection() {
    let addr: Addr = "inproc://space-reject".parse().unwrap();
    let sched = Scheduler::bounded(1, AdmissionPolicy::RejectNew);
    let server =
        SpaceServer::start_custom(&addr, Arc::new(DataSpaces::new(1)), sched, None).unwrap();
    let producer = RemoteSpace::connect(&server.addr()).unwrap();
    assert_eq!(
        producer
            .submit_task_admission(Bytes::from_static(b"a"))
            .unwrap(),
        Admission::Accepted { seq: 0 }
    );
    assert_eq!(
        producer
            .submit_task_admission(Bytes::from_static(b"b"))
            .unwrap(),
        Admission::Rejected
    );
    assert_eq!(producer.stats().unwrap().tasks_rejected, 1);
    server.shutdown();
}

#[test]
fn server_survives_malformed_frames() {
    let addr: Addr = "inproc://space-garbage".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).unwrap();
    let bad = sitra_net::connect(&server.addr()).unwrap();
    bad.send(Bytes::from_static(b"\xFF\xFF\xFF")).unwrap();
    // Server answers with an error then hangs up.
    let resp = decode_response(bad.recv().unwrap()).unwrap();
    assert!(matches!(resp, Response::Error(_)));
    // A fresh, well-behaved client is unaffected.
    let good = RemoteSpace::connect(&server.addr()).unwrap();
    assert_eq!(good.latest_version("T").unwrap(), None);
    server.shutdown();
}

#[test]
fn control_frames_reach_the_installed_handler() {
    let addr: Addr = "inproc://space-control".parse().unwrap();
    let handler: ControlHandler = Arc::new(|data: Bytes| {
        let mut out = data.to_vec();
        out.reverse();
        Bytes::from(out)
    });
    let server = SpaceServer::start_custom(
        &addr,
        Arc::new(DataSpaces::new(1)),
        Scheduler::new(),
        Some(handler),
    )
    .unwrap();
    let client = RemoteSpace::connect(&server.addr()).unwrap();
    assert_eq!(
        client.control(Bytes::from_static(b"abc")).unwrap(),
        Bytes::from_static(b"cba")
    );
    // The data-plane verbs coexist on the same connection.
    assert_eq!(client.latest_version("T").unwrap(), None);
    server.shutdown();
}

#[test]
fn control_without_handler_is_a_server_error() {
    let addr: Addr = "inproc://space-nocontrol".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).unwrap();
    let client = RemoteSpace::connect(&server.addr()).unwrap();
    assert!(matches!(
        client.control(Bytes::from_static(b"x")),
        Err(RemoteError::Server(_))
    ));
    server.shutdown();
}

#[test]
fn tenant_binding_scopes_the_connection() {
    let addr: Addr = "inproc://space-tenant".parse().unwrap();
    let server = SpaceServer::start(&addr, 2).unwrap();
    let b = mk_bbox([0, 0, 0], [1, 1, 1]);
    let data = Bytes::from(vec![1u8; 64]);

    // Two tenants and one legacy client all put "T" version 1.
    let viz = RemoteSpace::connect(&server.addr()).unwrap();
    viz.set_tenant(&TenantSpec::new("viz").with_weight(2))
        .unwrap();
    let stats_client = RemoteSpace::connect(&server.addr()).unwrap();
    stats_client.set_tenant(&TenantSpec::new("stats")).unwrap();
    let legacy = RemoteSpace::connect(&server.addr()).unwrap();
    viz.put("T", 1, b, data.clone()).unwrap();
    stats_client.put("T", 1, b, data.clone()).unwrap();
    legacy.put("T", 1, b, data.clone()).unwrap();

    // Each sees exactly its own piece under the same name.
    assert_eq!(viz.get("T", 1, &b).unwrap().len(), 1);
    assert_eq!(stats_client.get("T", 1, &b).unwrap().len(), 1);
    assert_eq!(legacy.get("T", 1, &b).unwrap().len(), 1);

    // Tenant-scoped eviction spares the neighbours.
    viz.evict_version(1).unwrap();
    assert!(viz.get("T", 1, &b).unwrap().is_empty());
    assert_eq!(stats_client.get("T", 1, &b).unwrap().len(), 1);
    assert_eq!(legacy.get("T", 1, &b).unwrap().len(), 1);

    // Task submissions are attributed per tenant.
    viz.submit_task_admission(Bytes::from_static(b"v0"))
        .unwrap();
    stats_client
        .submit_task_admission(Bytes::from_static(b"s0"))
        .unwrap();
    legacy
        .submit_task_admission(Bytes::from_static(b"l0"))
        .unwrap();
    let rows = viz.tenant_stats().unwrap();
    let row = |name: &str| rows.iter().find(|r| r.name == name).unwrap().clone();
    assert_eq!(row("viz").tasks_submitted, 1);
    assert_eq!(row("viz").weight, 2);
    assert_eq!(row("stats").tasks_submitted, 1);
    assert_eq!(row("default").tasks_submitted, 1);
    assert_eq!(row("stats").resident_bytes, 64);
    assert_eq!(row("viz").resident_bytes, 0, "evicted");
    server.shutdown();
}

#[test]
fn byte_quota_refusal_is_a_server_error() {
    let addr: Addr = "inproc://space-bytequota".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).unwrap();
    let c = RemoteSpace::connect(&server.addr()).unwrap();
    c.set_tenant(&TenantSpec::new("small").with_byte_quota(100))
        .unwrap();
    let b = mk_bbox([0, 0, 0], [1, 1, 1]);
    c.put("T", 1, b, Bytes::from(vec![0u8; 80])).unwrap();
    let err = c.put("T", 2, b, Bytes::from(vec![0u8; 80])).unwrap_err();
    assert!(matches!(err, RemoteError::Server(_)), "{err}");
    assert!(!err.is_retryable(), "quota refusal must not be retried");
    // Redelivery of the SAME piece replaces and stays admitted.
    c.put("T", 1, b, Bytes::from(vec![1u8; 80])).unwrap();
    server.shutdown();
}

#[test]
fn pool_verbs_over_inproc() {
    let addr: Addr = "inproc://space-pool".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).unwrap();
    let producer = RemoteSpace::connect(&server.addr()).unwrap();

    // Empty located poll: bucket registers at its location, times out.
    let bucket = RemoteSpace::connect(&server.addr()).unwrap();
    assert_eq!(
        bucket
            .request_task_held(0, Duration::from_millis(40), "tcp://m0:1")
            .unwrap(),
        TaskPoll::Empty
    );
    // A hinted submission lands on the co-located bucket and the
    // saved bytes show up in pool stats.
    assert_eq!(
        producer
            .submit_task_hinted(
                Bytes::from_static(b"near"),
                vec![("tcp://m0:1".into(), 2048)],
            )
            .unwrap(),
        Admission::Accepted { seq: 0 }
    );
    let poll = bucket
        .request_task_held(0, Duration::from_secs(2), "tcp://m0:1")
        .unwrap();
    bucket.ack_task(0).unwrap();
    assert_eq!(
        poll,
        TaskPoll::Assigned {
            seq: 0,
            data: Bytes::from_static(b"near"),
            tenant: DEFAULT_TENANT.into(),
        }
    );
    let pool = producer.pool_stats().unwrap();
    assert_eq!(pool.buckets, 1);
    assert_eq!(pool.queue_depth, 0);
    assert_eq!(pool.locality_bytes_saved, 2048);
    assert_eq!(pool.desired, None);

    // Draining the bucket turns its next poll into Retire; other
    // verbs keep working on the same connection afterwards.
    assert_eq!(server.scheduler().drain_one_bucket(), Some(0));
    assert_eq!(
        bucket
            .request_task_held(0, Duration::from_secs(2), "tcp://m0:1")
            .unwrap(),
        TaskPoll::Retire
    );
    assert_eq!(producer.pool_stats().unwrap().buckets, 0);
    server.shutdown();
}

#[test]
fn works_over_tcp_loopback() {
    let bind: Addr = "tcp://127.0.0.1:0".parse().unwrap();
    let server = SpaceServer::start(&bind, 2).unwrap();
    let client = RemoteSpace::connect_retry(&server.addr(), &Backoff::default()).unwrap();
    let b = mk_bbox([0, 0, 0], [2, 2, 2]);
    client
        .put("T", 1, b, Bytes::from(vec![7u8; 27 * 8]))
        .unwrap();
    let pieces = client.get("T", 1, &b).unwrap();
    assert_eq!(pieces.len(), 1);
    assert_eq!(pieces[0].1.len(), 27 * 8);
    let cs = client.conn_stats();
    assert_eq!(cs.frames_sent, 2);
    assert_eq!(cs.frames_recv, 2);
    server.shutdown();
}

/// A batch of `n` puts of `"P"@1`, one unit cell each along x.
fn put_batch(n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| Request::Put {
            var: "P".into(),
            version: 1,
            bbox: mk_bbox([i, 0, 0], [i + 1, 1, 1]),
            data: Bytes::from(vec![i as u8; 65]),
        })
        .collect()
}

/// A scripted server: accept one connection on `bind`, read
/// `expected.len()` requests — all of them before writing anything, so a
/// client that waited for a reply between two requests would sit out
/// the read timeout — check them, send `replies`, and hold the
/// connection until the client hangs up.
fn scripted_server(
    bind: &str,
    expected: Vec<Request>,
    replies: Vec<Response>,
) -> (Addr, std::thread::JoinHandle<()>) {
    let listener = sitra_net::Listener::bind(&bind.parse().unwrap()).unwrap();
    let addr = listener.local_addr();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let got: Vec<Request> = (0..expected.len())
            .map(|i| {
                let frame = conn
                    .recv_timeout(Duration::from_secs(5))
                    .unwrap_or_else(|e| panic!("request {i} never came: {e}"));
                decode_request(frame).unwrap()
            })
            .collect();
        assert_eq!(got, expected);
        for reply in &replies {
            conn.send(encode_response(reply)).unwrap();
        }
        let _ = conn.recv();
    });
    (addr, server)
}

/// Three puts and the submit of the task they feed.
fn ship_batch() -> Vec<Request> {
    let mut reqs = put_batch(3);
    reqs.push(Request::SubmitTask {
        data: Bytes::from_static(b"job"),
        hint: Vec::new(),
    });
    reqs
}

#[test]
fn a_batch_is_flushed_whole_before_any_reply_is_read() {
    for bind in ["inproc://space-batch-script", "tcp://127.0.0.1:0"] {
        let reqs = ship_batch();
        let verdict = Response::Admission(Admission::Accepted { seq: 7 });
        let script = vec![Response::Ok, Response::Ok, Response::Ok, verdict.clone()];
        let (addr, server) = scripted_server(bind, reqs.clone(), script.clone());
        let client = RemoteSpace::connect(&addr).unwrap();
        assert_eq!(client.batch(&reqs).unwrap(), script, "{bind}");
        let cs = client.conn_stats();
        assert_eq!((cs.frames_sent, cs.frames_recv), (4, 4), "{bind}");
        client.close();
        server.join().unwrap();
    }
}

#[test]
fn a_reply_of_the_wrong_kind_fails_the_batch() {
    // Replies carry only their order. A duplicated put leaves one `Ok`
    // too many ahead of the verdict; taking that for the submit's
    // answer would leave the verdict to be read as the next batch's
    // first reply, and every later reply one request late.
    let reqs = ship_batch();
    let slipped = vec![Response::Ok; 4];
    let (addr, server) = scripted_server("inproc://space-batch-slip", reqs.clone(), slipped);
    let client = RemoteSpace::connect(&addr).unwrap();
    assert!(matches!(client.batch(&reqs), Err(RemoteError::Proto(_))));
    client.close();
    server.join().unwrap();
}

#[test]
fn a_batch_longer_than_the_window_completes_over_tcp() {
    // 2,000 requests against queues 256 frames deep: the client must
    // reap as it goes, or both ends wedge on full reply queues.
    let server = SpaceServer::start(&"tcp://127.0.0.1:0".parse().unwrap(), 2).unwrap();
    let client = RemoteSpace::connect(&server.addr()).unwrap();
    let reqs = put_batch(2000);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| tx.send(client.batch(&reqs)).unwrap());
        let replies = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the batch wedged")
            .unwrap();
        assert_eq!(replies, vec![Response::Ok; 2000]);
    });
    let all = mk_bbox([0, 0, 0], [2000, 1, 1]);
    let pieces = client.get("P", 1, &all).unwrap();
    assert_eq!(pieces.len(), 2000);
    assert!(pieces
        .iter()
        .enumerate()
        .all(|(i, (b, d))| b.lo[0] == i && d.as_slice() == [i as u8; 65]));
    server.shutdown();
}

#[test]
fn bulk_windows_complete_over_tcp() {
    // The two shapes the window's no-wedge argument covers, at sizes no
    // socket buffer absorbs: bulk requests with small replies, past the
    // window; and small requests with bulk replies.
    const BULK: usize = 256 * 1024;
    let server = SpaceServer::start(&"tcp://127.0.0.1:0".parse().unwrap(), 2).unwrap();
    let client = RemoteSpace::connect(&server.addr()).unwrap();
    let cell = |i: usize| mk_bbox([i, 0, 0], [i + 1, 1, 1]);
    let puts: Vec<Request> = (0..2 * sitra_net::PIPELINE_DEPTH)
        .map(|i| Request::Put {
            var: "B".into(),
            version: 1,
            bbox: cell(i),
            data: Bytes::from(vec![i as u8; BULK]),
        })
        .collect();
    let gets: Vec<Request> = (0..64)
        .map(|i| Request::Get {
            var: "B".into(),
            version: 1,
            bbox: cell(i),
        })
        .collect();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            tx.send(client.batch(&puts)).unwrap();
            tx.send(client.batch(&gets)).unwrap();
        });
        let next = || {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("the batch wedged")
                .unwrap()
        };
        assert_eq!(next(), vec![Response::Ok; puts.len()]);
        for (i, reply) in next().into_iter().enumerate() {
            let pieces = reply.into_pieces().unwrap();
            assert_eq!(pieces.len(), 1);
            assert!(pieces[0].1.as_slice() == vec![i as u8; BULK]);
        }
    });
    server.shutdown();
}

#[test]
fn replies_to_one_read_leave_in_one_write() {
    // What the server loop does with `reqs`, seen from both ends of one
    // tcp:// connection: (client stats, server stats).
    let space = SpaceServer::start(&"inproc://space-flush-count".parse().unwrap(), 1).unwrap();
    let exchange = |reqs: &[Request]| {
        let listener = sitra_net::Listener::bind(&"tcp://127.0.0.1:0".parse().unwrap()).unwrap();
        let client = RemoteSpace::connect(&listener.local_addr()).unwrap();
        std::thread::scope(|s| {
            let serving = s.spawn(|| {
                let conn = listener.accept().unwrap();
                space.serve_here(&conn);
                conn.stats()
            });
            let replies = client.batch(reqs).unwrap();
            assert!(replies.iter().all(|r| !matches!(r, Response::Error(_))));
            let stats = client.conn_stats();
            client.close();
            (stats, serving.join().unwrap())
        })
    };
    // Three puts and the submit they feed: one write there; and back,
    // one write per read the batch arrived in — two at the very most.
    let (client, server) = exchange(&ship_batch());
    assert_eq!((client.frames_sent, client.writes), (4, 1));
    assert_eq!(server.frames_sent, 4);
    assert!(
        server.writes <= server.reads.min(2),
        "{} writes after {} reads",
        server.writes,
        server.reads
    );
    // A lone put: one write and one read on each side.
    let (client, server) = exchange(&put_batch(1));
    assert_eq!((client.writes, client.reads), (1, 1));
    assert_eq!((server.writes, server.reads), (1, 1));
    space.shutdown();
}

#[test]
fn a_refused_request_does_not_strand_the_rest_of_its_batch() {
    let addr: Addr = "inproc://space-batch-refusal".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).unwrap();
    let client = RemoteSpace::connect(&server.addr()).unwrap();
    client
        .set_tenant(&TenantSpec::new("tiny").with_byte_quota(100))
        .unwrap();
    // The second 65-byte put breaks the 100-byte quota; the third
    // request is answered all the same and the connection stays usable.
    let mut reqs = put_batch(2);
    reqs.push(Request::LatestVersion { var: "P".into() });
    let replies = client.batch(&reqs).unwrap();
    assert_eq!(replies[0], Response::Ok);
    assert!(matches!(
        replies[1].clone().into_ok(),
        Err(RemoteError::Server(_))
    ));
    assert_eq!(replies[2], Response::Version(Some(1)));
    assert_eq!(client.latest_version("P").unwrap(), Some(1));
    server.shutdown();
}
