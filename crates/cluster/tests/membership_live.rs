//! Live three-member cluster tests over in-process transport: join
//! with shard handoff, graceful leave with backlog forwarding, and
//! heartbeat suspicion after a whole-instance crash.

use bytes::Bytes;
use sitra_cluster::{Bootstrap, ClusterClient, ClusterNode, ClusterNodeOpts};
use sitra_dataspaces::{RemoteSpace, TenantSpec};
use sitra_mesh::BBox3;
use sitra_net::{Addr, Backoff};
use std::time::{Duration, Instant};

fn opts() -> ClusterNodeOpts {
    ClusterNodeOpts {
        heartbeat_every: Duration::from_millis(10),
        suspect_after: 3,
        ..ClusterNodeOpts::default()
    }
}

fn addr(name: &str) -> Addr {
    format!("inproc://{name}").parse().unwrap()
}

fn client(endpoints: &[String]) -> ClusterClient {
    ClusterClient::new(
        sitra_cluster::DEFAULT_SEED,
        sitra_cluster::DEFAULT_VNODES,
        endpoints.iter().cloned(),
        Backoff::default(),
    )
    .unwrap()
}

fn piece(i: usize) -> (String, u64, BBox3, Bytes) {
    let var = if i.is_multiple_of(2) { "T" } else { "pressure" };
    let lo = [i % 8, (i / 8) % 4, 0];
    (
        var.to_string(),
        (i / 16) as u64,
        BBox3::new(lo, [lo[0] + 1, lo[1] + 1, 1]),
        Bytes::from(vec![i as u8; 64]),
    )
}

fn wait_until(what: &str, deadline: Duration, mut ok: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !ok() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn seeded_trio_spreads_pieces_and_serves_fanout_gets() {
    let _obs = sitra_obs::isolate();
    let names = ["trio-a", "trio-b", "trio-c"];
    let seeds: Vec<String> = names.iter().map(|n| addr(n).to_string()).collect();
    let nodes: Vec<ClusterNode> = names
        .iter()
        .map(|n| ClusterNode::start(&addr(n), Bootstrap::Seeds(seeds.clone()), opts()).unwrap())
        .collect();
    for node in &nodes {
        assert_eq!(node.view().addrs(), seeds, "all members share the view");
        assert_eq!(node.view().epoch, 1);
    }
    let cli = client(&seeds);
    let n_pieces = 32;
    for i in 0..n_pieces {
        let (var, version, bbox, data) = piece(i);
        cli.put(&var, version, bbox, data).unwrap();
    }
    // Placement spread the keys over more than one instance...
    let holding = nodes
        .iter()
        .filter(|n| n.space().stats().objects_per_server.iter().sum::<u64>() > 0)
        .count();
    assert!(holding >= 2, "only {holding} members hold data");
    // ...and the fan-out get reassembles every piece of each variable.
    let all = BBox3::new([0, 0, 0], [64, 64, 64]);
    for version in 0..2u64 {
        let t = cli.get("T", version, &all).unwrap();
        let p = cli.get("pressure", version, &all).unwrap();
        assert_eq!(t.len() + p.len(), 16, "version {version}");
    }
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn joiner_receives_its_shards_via_handoff() {
    let _obs = sitra_obs::isolate();
    let founders = ["join-a", "join-b"];
    let seeds: Vec<String> = founders.iter().map(|n| addr(n).to_string()).collect();
    let a = ClusterNode::start(&addr("join-a"), Bootstrap::Seeds(seeds.clone()), opts()).unwrap();
    let b = ClusterNode::start(&addr("join-b"), Bootstrap::Seeds(seeds.clone()), opts()).unwrap();
    let duo = client(&seeds);
    let n_pieces = 24;
    for i in 0..n_pieces {
        let (var, version, bbox, data) = piece(i);
        duo.put(&var, version, bbox, data).unwrap();
    }

    let c = ClusterNode::start(
        &addr("join-c"),
        Bootstrap::Join(addr("join-a").to_string()),
        opts(),
    )
    .unwrap();
    let mut trio_addrs = seeds.clone();
    trio_addrs.push(addr("join-c").to_string());
    trio_addrs.sort();
    wait_until(
        "views to converge on three members",
        Duration::from_secs(5),
        || [&a, &b, &c].iter().all(|n| n.view().addrs() == trio_addrs),
    );
    // The founders drained the joiner's shards to it.
    wait_until(
        "handoff to reach the joiner",
        Duration::from_secs(5),
        || c.space().stats().objects_per_server.iter().sum::<u64>() > 0,
    );
    assert!(
        sitra_obs::global()
            .snapshot()
            .counter("cluster.handoff.pieces")
            > 0,
        "handoff moved no pieces"
    );
    // Nothing was lost in flight: a full-cluster client still sees all.
    let trio = client(&trio_addrs);
    let all = BBox3::new([0, 0, 0], [64, 64, 64]);
    let mut total = 0;
    for version in 0..2u64 {
        total += trio.get("T", version, &all).unwrap().len();
        total += trio.get("pressure", version, &all).unwrap().len();
    }
    assert_eq!(total, n_pieces);
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn graceful_leave_hands_off_shards_and_forwards_backlog() {
    let _obs = sitra_obs::isolate();
    let names = ["leave-a", "leave-b", "leave-c"];
    let seeds: Vec<String> = names.iter().map(|n| addr(n).to_string()).collect();
    let a = ClusterNode::start(&addr("leave-a"), Bootstrap::Seeds(seeds.clone()), opts()).unwrap();
    let b = ClusterNode::start(&addr("leave-b"), Bootstrap::Seeds(seeds.clone()), opts()).unwrap();
    let c = ClusterNode::start(&addr("leave-c"), Bootstrap::Seeds(seeds.clone()), opts()).unwrap();
    let cli = client(&seeds);
    let n_pieces = 24;
    for i in 0..n_pieces {
        let (var, version, bbox, data) = piece(i);
        cli.put(&var, version, bbox, data).unwrap();
    }
    // Park a task backlog on the leaver.
    let direct = RemoteSpace::connect(&addr("leave-b")).unwrap();
    for i in 0..3u8 {
        direct.submit_task_admission(Bytes::from(vec![i])).unwrap();
    }
    drop(direct);

    b.leave();
    let survivors: Vec<String> = seeds
        .iter()
        .filter(|s| **s != addr("leave-b").to_string())
        .cloned()
        .collect();
    wait_until(
        "survivors to drop the leaver",
        Duration::from_secs(5),
        || a.view().addrs() == survivors && c.view().addrs() == survivors,
    );
    // The backlog moved to the survivors rather than dying with b.
    assert_eq!(
        sitra_obs::global()
            .snapshot()
            .counter("cluster.tasks.forwarded"),
        3
    );
    let duo = client(&survivors);
    assert_eq!(duo.stats().totals.tasks_submitted, 3);
    // Every piece survived the departure.
    let all = BBox3::new([0, 0, 0], [64, 64, 64]);
    let mut total = 0;
    for version in 0..2u64 {
        total += duo.get("T", version, &all).unwrap().len();
        total += duo.get("pressure", version, &all).unwrap().len();
    }
    assert_eq!(total, n_pieces);
    a.shutdown();
    c.shutdown();
}

#[test]
fn forwarded_backlog_keeps_tenant_attribution() {
    let _obs = sitra_obs::isolate();
    let acme = TenantSpec::new("acme").with_weight(3);
    let beta = TenantSpec::new("beta");
    let tenant_opts = ClusterNodeOpts {
        tenants: vec![acme.clone(), beta.clone()],
        ..opts()
    };
    let names = ["tleave-a", "tleave-b", "tleave-c"];
    let seeds: Vec<String> = names.iter().map(|n| addr(n).to_string()).collect();
    let a = ClusterNode::start(
        &addr("tleave-a"),
        Bootstrap::Seeds(seeds.clone()),
        tenant_opts.clone(),
    )
    .unwrap();
    let b = ClusterNode::start(
        &addr("tleave-b"),
        Bootstrap::Seeds(seeds.clone()),
        tenant_opts.clone(),
    )
    .unwrap();
    let c = ClusterNode::start(
        &addr("tleave-c"),
        Bootstrap::Seeds(seeds.clone()),
        tenant_opts,
    )
    .unwrap();
    // Park a mixed-tenant backlog on the leaver: two acme tasks, one
    // beta task, interleaved so forwarding has to re-declare bindings.
    let direct = RemoteSpace::connect(&addr("tleave-b")).unwrap();
    direct.set_tenant(&acme).unwrap();
    direct
        .submit_task_admission(Bytes::from_static(b"a0"))
        .unwrap();
    direct.set_tenant(&beta).unwrap();
    direct
        .submit_task_admission(Bytes::from_static(b"b0"))
        .unwrap();
    direct.set_tenant(&acme).unwrap();
    direct
        .submit_task_admission(Bytes::from_static(b"a1"))
        .unwrap();
    drop(direct);

    b.leave();
    let survivors: Vec<String> = seeds
        .iter()
        .filter(|s| **s != addr("tleave-b").to_string())
        .cloned()
        .collect();
    wait_until(
        "survivors to drop the leaver",
        Duration::from_secs(5),
        || a.view().addrs() == survivors && c.view().addrs() == survivors,
    );
    assert_eq!(
        sitra_obs::global()
            .snapshot()
            .counter("cluster.tasks.forwarded"),
        3
    );
    // The survivors' per-tenant counters carry the original owners.
    let duo = client(&survivors);
    let rows = duo.tenant_stats();
    let submitted = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.tasks_submitted)
            .unwrap_or(0)
    };
    assert_eq!(submitted("acme"), 2, "rows: {rows:?}");
    assert_eq!(submitted("beta"), 1, "rows: {rows:?}");
    assert_eq!(submitted("default"), 0, "rows: {rows:?}");
    // The survivors also kept acme's configured weight (registered at
    // start, not invented during forwarding).
    let acme_row = rows.iter().find(|r| r.name == "acme").unwrap();
    assert_eq!(acme_row.weight, 3);
    a.shutdown();
    c.shutdown();
}

#[test]
fn crashed_member_is_suspected_and_evicted() {
    let _obs = sitra_obs::isolate();
    let names = ["crash-a", "crash-b", "crash-c"];
    let seeds: Vec<String> = names.iter().map(|n| addr(n).to_string()).collect();
    let a = ClusterNode::start(&addr("crash-a"), Bootstrap::Seeds(seeds.clone()), opts()).unwrap();
    let b = ClusterNode::start(&addr("crash-b"), Bootstrap::Seeds(seeds.clone()), opts()).unwrap();
    let c = ClusterNode::start(&addr("crash-c"), Bootstrap::Seeds(seeds.clone()), opts()).unwrap();

    c.kill();
    let survivors: Vec<String> = seeds
        .iter()
        .filter(|s| **s != addr("crash-c").to_string())
        .cloned()
        .collect();
    wait_until(
        "heartbeats to suspect the crashed member",
        Duration::from_secs(10),
        || a.view().addrs() == survivors && b.view().addrs() == survivors,
    );
    assert!(sitra_obs::global().snapshot().counter("cluster.suspects") >= 1);
    a.shutdown();
    b.shutdown();
}

#[test]
fn members_bound_to_port_zero_publish_under_their_real_ports() {
    let obs = sitra_obs::isolate();
    let any: Addr = "tcp://127.0.0.1:0".parse().unwrap();
    let nodes: Vec<ClusterNode> = (0..2)
        .map(|_| {
            let seeds = vec![any.to_string()];
            ClusterNode::start(&any, Bootstrap::Seeds(seeds), ClusterNodeOpts::default()).unwrap()
        })
        .collect();
    let text = obs.registry().snapshot().render_text();
    let mut lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("cluster_members{"))
        .collect();
    lines.sort_unstable();
    let mut want: Vec<String> = nodes
        .iter()
        .map(|n| format!("cluster_members{{member={}}} 1", n.addr()))
        .collect();
    want.sort_unstable();
    assert_ne!(want[0], want[1], "two binds, two ports");
    assert_eq!(lines, want, "{text}");
    for n in nodes {
        n.shutdown();
    }
}
