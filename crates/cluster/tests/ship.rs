//! [`ClusterClient::ship`]: one flush and one wait on a single server,
//! puts to every member at once and the submit only after the last
//! acknowledgement on several, a whole-batch retry across a cut link,
//! ring-order fail-over of the submit, and queued evictions riding the
//! batches (no extra round trip; a member the ship sends nothing else
//! gets them in the same exchange over an open connection, is never
//! dialed for them alone, and never fails the ship).

use bytes::Bytes;
use parking_lot::Mutex;
use sitra_cluster::{ClusterClient, HashRing, ShardKey, DEFAULT_SEED, DEFAULT_VNODES};
use sitra_dataspaces::remote::{decode_request, encode_response, Request, Response};
use sitra_dataspaces::{Admission, RemoteError, SpaceServer, TaskPoll};
use sitra_mesh::BBox3;
use sitra_net::{install_fault_injector, Backoff, FaultAction, FaultInjector, Frame, Listener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const VAR: &str = "stats.int";
const ROUTE: &str = "stats";

/// The fault injector is process-global: tests that install one take
/// turns. Each injector acts on one server's address only, so the other
/// tests of this file pass through it untouched.
static INJECTOR: Mutex<()> = Mutex::new(());

fn client(endpoints: &[String]) -> ClusterClient {
    let quick = Backoff {
        initial: Duration::from_millis(10),
        max: Duration::from_millis(10),
        attempts: 2,
    };
    ClusterClient::new(
        DEFAULT_SEED,
        DEFAULT_VNODES,
        endpoints.iter().cloned(),
        quick,
    )
    .unwrap()
}

fn tcp_servers(n: usize) -> (Vec<SpaceServer>, Vec<String>) {
    let servers: Vec<SpaceServer> = (0..n)
        .map(|_| SpaceServer::start(&"tcp://127.0.0.1:0".parse().unwrap(), 1).unwrap())
        .collect();
    let endpoints = servers.iter().map(|s| s.addr().to_string()).collect();
    (servers, endpoints)
}

fn rank_bbox(rank: usize) -> BBox3 {
    BBox3::new([rank, 0, 0], [rank + 1, 1, 1])
}

/// `n` rank parts, 512 bytes each.
fn parts(n: usize) -> Vec<(BBox3, Bytes)> {
    (0..n)
        .map(|r| (rank_bbox(r), Bytes::from(vec![r as u8; 512])))
        .collect()
}

/// Where the ring (in the client's sorted member order) puts a step's
/// task and its `n` parts.
fn placement(endpoints: &[String], step: u64, n: usize) -> (usize, Vec<usize>) {
    let ring = HashRing::new(DEFAULT_SEED, DEFAULT_VNODES, endpoints.iter().cloned());
    let owners = (0..n)
        .map(|r| {
            ring.owner_index(&ShardKey::new(VAR, step, &rank_bbox(r)))
                .unwrap()
        })
        .collect();
    (ring.task_owner_index(ROUTE, step).unwrap(), owners)
}

/// The first step whose placement satisfies `want`.
fn step_where(
    endpoints: &[String],
    n: usize,
    want: impl Fn(usize, &[usize]) -> bool,
) -> (u64, usize, Vec<usize>) {
    (0..10_000)
        .find_map(|step| {
            let (task_owner, owners) = placement(endpoints, step, n);
            want(task_owner, &owners).then_some((step, task_owner, owners))
        })
        .expect("no step with the wanted placement")
}

#[test]
fn shipping_to_one_server_is_one_flush_and_one_wait() {
    // The server reads the parts and the submit before it writes any
    // reply: a client that waited for an acknowledgement in between
    // would sit out the read timeout.
    let listener = Listener::bind(&"tcp://127.0.0.1:0".parse().unwrap()).unwrap();
    let endpoint = listener.local_addr().to_string();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let got: Vec<Request> = (0..5)
            .map(|i| {
                let frame = conn
                    .recv_timeout(Duration::from_secs(5))
                    .unwrap_or_else(|e| panic!("request {i} never came: {e}"));
                decode_request(frame).unwrap()
            })
            .collect();
        assert!(got[..4].iter().all(|r| matches!(r, Request::Put { .. })));
        assert!(
            matches!(&got[4], Request::SubmitTask { hint, .. } if hint[0].1 == 4 * 512),
            "{:?}",
            got[4]
        );
        for _ in 0..4 {
            conn.send(encode_response(&Response::Ok)).unwrap();
        }
        let verdict = Response::Admission(Admission::Accepted { seq: 3 });
        conn.send(encode_response(&verdict)).unwrap();
        let _ = conn.recv();
    });
    let client = client(std::slice::from_ref(&endpoint));
    let shipped = client
        .ship(VAR, 7, &parts(4), ROUTE, 7, Bytes::from_static(b"task"))
        .unwrap();
    assert_eq!(shipped.admission, Admission::Accepted { seq: 3 });
    assert_eq!((shipped.members, shipped.round_trips), (1, 1));
    // One flush, counted: every write of every connection this process
    // has to the server, which is the four parts and the submit in one.
    let peer = endpoint.trim_start_matches("tcp://");
    let writes = sitra_obs::counter(&format!("net.conn.writes{{peer={peer}}}"));
    assert_eq!(writes.get(), 1);
    drop(client);
    server.join().unwrap();
}

/// Acts on frames sent to `peer` only: the `nth` of them gets `action`,
/// and so does every later one if `sticky`; frames under `min_len`
/// bytes are neither counted nor touched. Notes which connections sent.
struct OnPeer {
    peer: String,
    min_len: usize,
    nth: usize,
    sticky: bool,
    action: FaultAction,
    frames: AtomicUsize,
    conns: Mutex<std::collections::BTreeSet<u64>>,
}

impl FaultInjector for OnPeer {
    fn on_frame(&self, conn: u64, peer: &str, frame: &Frame) -> FaultAction {
        if peer != self.peer || frame.len() < self.min_len {
            return FaultAction::Deliver;
        }
        self.conns.lock().insert(conn);
        let i = self.frames.fetch_add(1, Ordering::SeqCst);
        if i == self.nth || (self.sticky && i > self.nth) {
            self.action
        } else {
            FaultAction::Deliver
        }
    }
}

#[test]
fn a_cut_mid_batch_costs_one_reconnect_and_the_whole_batch_again() {
    let _turn = INJECTOR.lock();
    let (servers, endpoints) = tcp_servers(1);
    let injector = Arc::new(OnPeer {
        peer: endpoints[0].trim_start_matches("tcp://").to_string(),
        min_len: 0,
        nth: 2, // the third of four puts; the submit is never reached
        sticky: false,
        action: FaultAction::Cut,
        frames: AtomicUsize::new(0),
        conns: Mutex::default(),
    });
    let previous = install_fault_injector(Some(injector.clone()));
    let client = client(&endpoints);
    let shipped = client.ship(VAR, 1, &parts(4), ROUTE, 1, Bytes::from_static(b"task"));
    install_fault_injector(previous);

    let shipped = shipped.unwrap();
    assert_eq!(shipped.admission, Admission::Accepted { seq: 0 });
    assert_eq!(injector.conns.lock().len(), 2, "one reconnect");
    // Two puts, the cut, then the whole batch: four puts and the submit.
    assert_eq!(injector.frames.load(Ordering::SeqCst), 3 + 5);
    let all = BBox3::new([0, 0, 0], [4, 1, 1]);
    assert_eq!(servers[0].space().get(VAR, 1, &all), parts(4));
    assert_eq!(servers[0].sched_stats().tasks_submitted, 1);
    servers.into_iter().for_each(SpaceServer::shutdown);
}

#[test]
fn a_task_is_not_visible_before_its_slowest_put_is_acknowledged() {
    let _turn = INJECTOR.lock();
    let (servers, endpoints) = tcp_servers(3);
    // Parts on all three members, and a slow member that is not the
    // task's owner: were the submit sent along with the puts, it would
    // be queued long before the held put lands.
    let (step, task_owner, owners) = step_where(&endpoints, 6, |_, owners| {
        (0..3).all(|m| owners.contains(&m))
    });
    let slow = (task_owner + 1) % 3;
    let ring = HashRing::new(DEFAULT_SEED, DEFAULT_VNODES, endpoints.iter().cloned());
    let injector = Arc::new(OnPeer {
        peer: ring.members()[slow]
            .trim_start_matches("tcp://")
            .to_string(),
        min_len: 256, // the puts; a worker's small get is not held up
        nth: 0,
        sticky: true,
        action: FaultAction::Delay(Duration::from_millis(150)),
        frames: AtomicUsize::new(0),
        conns: Mutex::default(),
    });
    let previous = install_fault_injector(Some(injector.clone()));
    let (driver, worker) = (client(&endpoints), client(&endpoints));
    let all = BBox3::new([0, 0, 0], [6, 1, 1]);
    let (shipped, seen) = std::thread::scope(|s| {
        // A worker parked on the task's owner, which looks for the
        // parts the moment it is handed the task.
        let parked = s.spawn(|| {
            let poll = worker.request_task(task_owner, 9, Duration::from_secs(20));
            assert!(matches!(poll, Ok(TaskPoll::Assigned { .. })), "{poll:?}");
            worker.get(VAR, step, &all).unwrap()
        });
        let shipped = driver.ship(
            VAR,
            step,
            &parts(6),
            ROUTE,
            step,
            Bytes::from_static(b"task"),
        );
        (shipped, parked.join().unwrap())
    });
    install_fault_injector(previous);

    let shipped = shipped.unwrap();
    assert_eq!((shipped.member, shipped.members), (task_owner, 3));
    assert_eq!(shipped.round_trips, 2, "puts to all, then the submit");
    assert!(
        injector.frames.load(Ordering::SeqCst) >= 1,
        "nothing was held"
    );
    assert_eq!(seen, parts(6), "placement {owners:?}, slow member {slow}");
    servers.into_iter().for_each(SpaceServer::shutdown);
}

#[test]
fn an_unreachable_task_owner_makes_the_submit_fall_over_in_ring_order() {
    let (mut servers, endpoints) = tcp_servers(3);
    let (step, task_owner, _) = step_where(&endpoints, 2, |task_owner, owners| {
        !owners.contains(&task_owner)
    });
    let ring = HashRing::new(DEFAULT_SEED, DEFAULT_VNODES, endpoints.iter().cloned());
    let at = |member: usize| {
        let endpoint = &ring.members()[member];
        servers
            .iter()
            .position(|s| &s.addr().to_string() == endpoint)
            .unwrap()
    };
    servers.remove(at(task_owner)).shutdown();
    let next = (task_owner + 1) % 3;
    let client = client(&endpoints);
    let shipped = client
        .ship(
            VAR,
            step,
            &parts(2),
            ROUTE,
            step,
            Bytes::from_static(b"task"),
        )
        .unwrap();
    assert_eq!(shipped.member, next);
    assert_eq!(
        shipped.round_trips, 3,
        "puts, the dead owner, its successor"
    );
    assert_eq!(client.stats().totals.tasks_submitted, 1);
    assert_eq!(client.stats().totals.objects, 2);
    servers.into_iter().for_each(SpaceServer::shutdown);
}

#[test]
fn with_every_member_down_the_ship_fails_and_the_client_reports_it() {
    let (servers, endpoints) = tcp_servers(3);
    servers.into_iter().for_each(SpaceServer::shutdown);
    let (step, ..) = step_where(&endpoints, 6, |_, owners| {
        (0..3).all(|m| owners.contains(&m))
    });
    let client = client(&endpoints);
    let shipped = client.ship(
        VAR,
        step,
        &parts(6),
        ROUTE,
        step,
        Bytes::from_static(b"task"),
    );
    assert!(matches!(shipped, Err(RemoteError::Net(_))), "{shipped:?}");
    assert!(!client.alive(), "the driver degrades at once from here on");
}

/// The counter `net.conn.{metric}` of every connection this process has
/// to `endpoint`.
fn conn_counter(metric: &str, endpoint: &str) -> u64 {
    let peer = endpoint.trim_start_matches("tcp://");
    sitra_obs::counter(&format!("net.conn.{metric}{{peer={peer}}}")).get()
}

/// The servers of `endpoints`, in the client's (ring) member order.
fn in_ring_order(servers: &[SpaceServer], endpoints: &[String]) -> Vec<usize> {
    let ring = HashRing::new(DEFAULT_SEED, DEFAULT_VNODES, endpoints.iter().cloned());
    ring.members()
        .iter()
        .map(|ep| {
            servers
                .iter()
                .position(|s| &s.addr().to_string() == ep)
                .unwrap()
        })
        .collect()
}

/// Objects a server holds at `version` of [`VAR`].
fn held(server: &SpaceServer, version: u64) -> usize {
    let all = BBox3::new([0, 0, 0], [64, 1, 1]);
    server.space().get(VAR, version, &all).len()
}

#[test]
fn queued_evictions_ride_the_batch_and_cost_no_round_trip() {
    let (servers, endpoints) = tcp_servers(1);
    let client = client(&endpoints);
    let task = Bytes::from_static(b"task");
    client
        .ship(VAR, 1, &parts(4), ROUTE, 1, task.clone())
        .unwrap();
    assert_eq!(held(&servers[0], 1), 4);

    client.queue_eviction(1);
    assert_eq!(held(&servers[0], 1), 4, "queueing sends nothing");
    let writes = conn_counter("writes", &endpoints[0]);
    let shipped = client.ship(VAR, 2, &parts(4), ROUTE, 2, task).unwrap();
    assert_eq!(shipped.admission, Admission::Accepted { seq: 1 });
    assert_eq!((shipped.members, shipped.round_trips), (1, 1));
    assert_eq!(
        conn_counter("writes", &endpoints[0]) - writes,
        1,
        "one flush"
    );
    assert_eq!(held(&servers[0], 1), 0, "the eviction rode the batch");
    assert_eq!(held(&servers[0], 2), 4, "after this ship's own puts");
    servers.into_iter().for_each(SpaceServer::shutdown);
}

#[test]
fn the_verdict_is_read_past_the_evictions_whether_or_not_the_submit_rides() {
    let (servers, endpoints) = tcp_servers(3);
    let at = in_ring_order(&servers, &endpoints);
    // One part on the task's owner (the submit rides), then six parts
    // over all three members (it follows the puts).
    let (riding, owner_a, _) =
        step_where(&endpoints, 1, |task_owner, owners| owners == [task_owner]);
    let (following, owner_b, _) = step_where(&endpoints, 6, |_, owners| {
        (0..3).all(|m| owners.contains(&m))
    });
    for s in &servers {
        s.space()
            .put(VAR, 1000, rank_bbox(0), Bytes::from_static(b"old"));
        s.space()
            .put(VAR, 1001, rank_bbox(0), Bytes::from_static(b"old"));
    }
    let client = client(&endpoints);
    let task = Bytes::from_static(b"task");

    client.queue_eviction(1000);
    let shipped = client
        .ship(VAR, riding, &parts(1), ROUTE, riding, task.clone())
        .unwrap();
    assert_eq!(shipped.member, owner_a);
    assert_eq!(shipped.admission, Admission::Accepted { seq: 0 });
    assert_eq!(shipped.round_trips, 1);
    for m in 0..3 {
        let want = usize::from(m != owner_a);
        assert_eq!(held(&servers[at[m]], 1000), want, "member {m}");
    }

    client.queue_eviction(1001);
    let shipped = client
        .ship(VAR, following, &parts(6), ROUTE, following, task)
        .unwrap();
    assert_eq!(shipped.member, owner_b);
    let seq = u64::from(owner_b == owner_a);
    assert_eq!(shipped.admission, Admission::Accepted { seq });
    assert_eq!((shipped.members, shipped.round_trips), (3, 2));
    for s in &servers {
        assert_eq!((held(s, 1000), held(s, 1001)), (0, 0));
    }
    assert_eq!(client.stats().totals.tasks_submitted, 2);
    servers.into_iter().for_each(SpaceServer::shutdown);
}

/// Cuts every frame sent to `addr` and refuses, and counts, every
/// dial to it: a member that went away under an open connection.
struct Partition {
    addr: String,
    dials: AtomicUsize,
}

impl FaultInjector for Partition {
    fn on_frame(&self, _conn: u64, peer: &str, _frame: &Frame) -> FaultAction {
        if self.addr.trim_start_matches("tcp://") == peer {
            FaultAction::Cut
        } else {
            FaultAction::Deliver
        }
    }

    fn allow_connect(&self, addr: &str) -> bool {
        if addr != self.addr {
            return true;
        }
        self.dials.fetch_add(1, Ordering::SeqCst);
        false
    }
}

#[test]
fn a_member_no_put_goes_to_gets_its_evictions_only_over_an_open_connection() {
    let (servers, endpoints) = tcp_servers(3);
    let at = in_ring_order(&servers, &endpoints);
    let members = HashRing::new(DEFAULT_SEED, DEFAULT_VNODES, endpoints.iter().cloned())
        .members()
        .to_vec();
    let lone = |owner: usize, after: u64| {
        (after + 1..10_000)
            .find(|&step| placement(&endpoints, step, 1) == (owner, vec![owner]))
            .expect("a step whose one part and task share a member")
    };
    let (step, owner, _) = step_where(&endpoints, 1, |task_owner, owners| owners == [task_owner]);
    let others: Vec<usize> = (0..3).filter(|&m| m != owner).collect();
    for s in &servers {
        for version in [1000, 1001, 1002] {
            s.space()
                .put(VAR, version, rank_bbox(0), Bytes::from_static(b"old"));
        }
    }
    let client = client(&endpoints);
    let task = Bytes::from_static(b"task");
    let ship = |step: u64| {
        let shipped = client
            .ship(VAR, step, &parts(1), ROUTE, step, task.clone())
            .unwrap();
        assert_eq!(
            (shipped.member, shipped.members, shipped.round_trips),
            (owner, 1, 1)
        );
    };

    // Nothing is open to the other members yet: none is dialed, and
    // each keeps its queue.
    client.queue_eviction(1000);
    ship(step);
    assert_eq!(held(&servers[at[owner]], 1000), 0);
    for &m in &others {
        assert_eq!(conn_counter("opened", &members[m]), 0, "member {m}");
        assert_eq!(held(&servers[at[m]], 1000), 1, "member {m}");
    }

    // Once a connection is open to them, the next ship carries their
    // queue in the same exchange.
    client.stats();
    let step = lone(owner, step);
    ship(step);
    for s in &servers {
        assert_eq!(held(s, 1000), 0, "{}", s.addr());
        assert_eq!(held(s, 1001), 1, "not queued, not evicted");
    }

    // A member cut off under its open connection fails its
    // eviction-only batch without failing the ship, is not dialed for
    // evictions, and keeps them queued.
    let _turn = INJECTOR.lock();
    let (cut, live) = (others[0], others[1]);
    let partition = Arc::new(Partition {
        addr: members[cut].clone(),
        dials: AtomicUsize::new(0),
    });
    let previous = install_fault_injector(Some(partition.clone()));
    client.queue_eviction(1001);
    let step = lone(owner, step);
    ship(step);
    ship(lone(owner, step));
    install_fault_injector(previous);
    assert_eq!(
        partition.dials.load(Ordering::SeqCst),
        0,
        "dialed for evictions"
    );
    assert_eq!(held(&servers[at[owner]], 1001), 0);
    assert_eq!(held(&servers[at[live]], 1001), 0);
    assert_eq!(held(&servers[at[cut]], 1001), 1, "still queued");

    // What no ship took is swept by the end-of-run eviction.
    client.queue_eviction(1002);
    client.evict_versions([]);
    for s in &servers {
        assert_eq!((held(s, 1001), held(s, 1002)), (0, 0), "{}", s.addr());
    }
    assert_eq!(client.stats().totals.tasks_submitted, 4);
    servers.into_iter().for_each(SpaceServer::shutdown);
}
