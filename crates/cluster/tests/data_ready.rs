//! The client's data-ready read: [`ClusterClient::get_wait`] parks on
//! the ring owner and is woken by the put, finds a piece that sits on
//! another member at its timeout, and can be cut short from another
//! thread with [`ClusterClient::interrupt`].

use bytes::Bytes;
use sitra_cluster::{ClusterClient, HashRing, ShardKey, DEFAULT_SEED, DEFAULT_VNODES};
use sitra_dataspaces::SpaceServer;
use sitra_mesh::BBox3;
use sitra_net::{Addr, Backoff};
use std::time::{Duration, Instant};

const LONG: Duration = Duration::from_secs(30);

fn trio(tag: &str) -> (Vec<SpaceServer>, Vec<String>) {
    let servers: Vec<SpaceServer> = (0..3)
        .map(|i| {
            let addr: Addr = format!("inproc://data-ready-{tag}-{i}").parse().unwrap();
            SpaceServer::start(&addr, 1).unwrap()
        })
        .collect();
    let endpoints = servers.iter().map(|s| s.addr().to_string()).collect();
    (servers, endpoints)
}

fn client(endpoints: &[String]) -> ClusterClient {
    ClusterClient::new(
        DEFAULT_SEED,
        DEFAULT_VNODES,
        endpoints.iter().cloned(),
        Backoff::default(),
    )
    .unwrap()
}

fn unit() -> BBox3 {
    BBox3::new([0, 0, 0], [1, 1, 1])
}

#[test]
fn get_wait_is_woken_by_the_put_on_the_ring_owner() {
    let (servers, endpoints) = trio("woken");
    let (waiter, writer) = (client(&endpoints), client(&endpoints));
    let t0 = Instant::now();
    // Several versions, so that every member gets to be the owner.
    for version in 0..6u64 {
        std::thread::scope(|s| {
            let parked = s.spawn(|| waiter.get_wait("out", version, &unit(), LONG));
            writer
                .put("out", version, unit(), Bytes::from(vec![version as u8]))
                .unwrap();
            assert_eq!(
                parked.join().unwrap().unwrap(),
                vec![(unit(), Bytes::from(vec![version as u8]))]
            );
        });
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "a wait sat out its timeout"
    );
    servers.into_iter().for_each(SpaceServer::shutdown);
}

#[test]
fn get_wait_finds_a_piece_off_its_owner_at_the_timeout() {
    let (servers, endpoints) = trio("moved");
    let waiter = client(&endpoints);
    let ring = HashRing::new(DEFAULT_SEED, DEFAULT_VNODES, endpoints.iter().cloned());
    let owner = ring.owner_index(&ShardKey::new("out", 1, &unit())).unwrap();
    // As a rebalance would leave it: on a member that is not the
    // static ring's owner.
    let elsewhere = &servers[(owner + 1) % 3];
    elsewhere
        .space()
        .put("out", 1, unit(), Bytes::from_static(b"moved"));
    let t0 = Instant::now();
    let got = waiter
        .get_wait("out", 1, &unit(), Duration::from_millis(50))
        .unwrap();
    assert_eq!(got, vec![(unit(), Bytes::from_static(b"moved"))]);
    assert!(
        t0.elapsed() >= Duration::from_millis(50),
        "the owner was not waited on"
    );
    // Nothing anywhere: empty, not an error.
    assert!(waiter
        .get_wait("out", 2, &unit(), Duration::from_millis(20))
        .unwrap()
        .is_empty());
    servers.into_iter().for_each(SpaceServer::shutdown);
}

#[test]
fn interrupt_cuts_a_parked_wait_short_until_resumed() {
    let (servers, endpoints) = trio("interrupt");
    let waiter = client(&endpoints);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let parked = s.spawn(|| waiter.get_wait("never", 1, &unit(), LONG));
        // Whether the wait is already parked or still dialing, the
        // interrupt must end it: the flag catches what the close misses.
        std::thread::sleep(Duration::from_millis(20));
        waiter.interrupt();
        assert!(parked.join().unwrap().is_err());
    });
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the wait was sat out"
    );
    // Sticky: nothing is dialed or waited on until the caller says so.
    assert!(waiter.get_wait("never", 1, &unit(), LONG).is_err());
    assert!(waiter.put("T", 1, unit(), Bytes::new()).is_err());
    assert!(t0.elapsed() < Duration::from_secs(5));
    waiter.resume();
    waiter
        .put("T", 1, unit(), Bytes::from_static(b"back"))
        .unwrap();
    assert_eq!(
        waiter.get_wait("T", 1, &unit(), LONG).unwrap(),
        vec![(unit(), Bytes::from_static(b"back"))]
    );
    assert!(waiter.alive(), "an interrupt is not a failed dial");
    servers.into_iter().for_each(SpaceServer::shutdown);
}
