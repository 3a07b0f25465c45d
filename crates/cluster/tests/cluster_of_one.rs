//! A single server is a cluster of one: a one-member [`ClusterClient`]
//! uses nothing but plain `RemoteSpace` verbs (no `Control` frames), so
//! it must work against a bare [`SpaceServer`] with no `ClusterNode`
//! behind it — the deployment `StagingMode::Remote` and
//! `run_bucket_worker` lower to.

use bytes::Bytes;
use sitra_cluster::{ClusterClient, Shipped, DEFAULT_SEED, DEFAULT_VNODES};
use sitra_dataspaces::{scoped_var, Admission, SpaceServer, TaskPoll, TenantSpec, DEFAULT_TENANT};
use sitra_mesh::BBox3;
use sitra_net::{Addr, Backoff};
use std::time::Duration;

fn roundtrip(name: &str, tenant: Option<TenantSpec>) {
    let addr: Addr = format!("inproc://cluster-of-one-{name}").parse().unwrap();
    let server = SpaceServer::start(&addr, 2).unwrap();
    let mut client = ClusterClient::new(
        DEFAULT_SEED,
        DEFAULT_VNODES,
        [server.addr().to_string()],
        Backoff::default(),
    )
    .unwrap();
    if let Some(spec) = tenant.clone() {
        client = client.with_tenant(spec);
    }
    assert_eq!(client.member_count(), 1);
    assert!(client.alive());
    let tenant_name = tenant.map_or(DEFAULT_TENANT.to_string(), |t| t.name);

    // put / get, and the piece lands in the client's namespace.
    let bbox = BBox3::new([0, 0, 0], [1, 1, 1]);
    client
        .put("T", 3, bbox, Bytes::from_static(b"piece"))
        .unwrap();
    assert_eq!(
        client.get("T", 3, &bbox).unwrap(),
        vec![(bbox, Bytes::from_static(b"piece"))]
    );
    assert_eq!(client.latest_version("T").unwrap(), Some(3));
    assert_eq!(
        server
            .space()
            .get(&scoped_var(&tenant_name, "T"), 3, &bbox)
            .len(),
        1
    );

    // ship (parts + task, as the driver sends them) / request: on one
    // member the submit rides the puts' batch.
    let shipped = client
        .ship(
            "T",
            4,
            &[(bbox, Bytes::from_static(b"part"))],
            "route",
            4,
            Bytes::from_static(b"task"),
        )
        .unwrap();
    assert_eq!(
        shipped,
        Shipped {
            member: 0,
            admission: Admission::Accepted { seq: 0 },
            members: 1,
            round_trips: 1,
        }
    );
    assert_eq!(
        server.space().get(&scoped_var(&tenant_name, "T"), 4, &bbox),
        vec![(bbox, Bytes::from_static(b"part"))]
    );
    assert_eq!(
        client.request_task(0, 9, Duration::from_secs(2)).unwrap(),
        TaskPoll::Assigned {
            seq: 0,
            data: Bytes::from_static(b"task"),
            tenant: tenant_name,
        }
    );
    assert_eq!(
        client
            .request_task(0, 9, Duration::from_millis(20))
            .unwrap(),
        TaskPoll::Empty
    );
    assert_eq!(client.stats().totals.tasks_assigned, 1);

    // evict / close.
    client.evict_versions([3, 4]);
    assert!(client.get("T", 3, &bbox).unwrap().is_empty());
    assert_eq!(server.space().stats().resident_bytes, 0);
    client.close_sched();
    assert!(server.scheduler().is_closed());
    assert_eq!(
        client.request_task(0, 9, Duration::from_secs(2)).unwrap(),
        TaskPoll::Closed
    );
    server.shutdown();
}

#[test]
fn one_member_client_roundtrips_against_a_bare_server() {
    roundtrip("plain", None);
}

#[test]
fn one_member_client_with_tenant_roundtrips_against_a_bare_server() {
    roundtrip("tenant", Some(TenantSpec::new("acme").with_weight(2)));
}

#[test]
fn a_member_that_fails_its_dial_fails_fast_until_a_dial_succeeds() {
    // Nothing listens: the first operation pays the (short) backoff and
    // marks the member down; afterwards the client reports the staging
    // area lost and operations fail on a single connect attempt.
    let addr: Addr = "inproc://cluster-of-one-late".parse().unwrap();
    let client = ClusterClient::new(
        DEFAULT_SEED,
        DEFAULT_VNODES,
        [addr.to_string()],
        Backoff {
            initial: Duration::from_millis(100),
            max: Duration::from_millis(100),
            attempts: 3,
        },
    )
    .unwrap();
    assert!(client.alive(), "nothing dialed yet");
    assert!(client.latest_version("T").is_err());
    assert!(!client.alive());
    let t0 = std::time::Instant::now();
    assert!(client.latest_version("T").is_err());
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "a down member must not pay the backoff again: {:?}",
        t0.elapsed()
    );

    // The server comes up: the next operation's single attempt lands
    // and clears the flag.
    let server = SpaceServer::start(&addr, 1).unwrap();
    assert_eq!(client.latest_version("T").unwrap(), None);
    assert!(client.alive());
    server.shutdown();
}
