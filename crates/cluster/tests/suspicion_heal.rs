//! False suspicion heals. A member the others cannot dial for a while
//! is evicted from their views, but it is alive: its own heartbeats
//! get it re-added, and a newer view that evicted it is adopted with
//! itself put back. Alone in its binary: the fault injector is
//! process-global.

use sitra_cluster::{
    decode_msg, encode_msg, Bootstrap, ClusterMsg, ClusterNode, ClusterNodeOpts, ClusterView,
    MemberInfo,
};
use sitra_dataspaces::RemoteSpace;
use sitra_net::{install_fault_injector, Addr, FaultAction, FaultInjector, Frame};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn addr(name: &str) -> Addr {
    format!("inproc://{name}").parse().unwrap()
}

/// Three seeded members; the last heartbeats every `last_every`, the
/// others every 10 ms.
fn trio(names: [&str; 3], last_every: Duration) -> (Vec<String>, Vec<ClusterNode>) {
    let seeds: Vec<String> = names.iter().map(|n| addr(n).to_string()).collect();
    let nodes = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let opts = ClusterNodeOpts {
                heartbeat_every: if i == 2 {
                    last_every
                } else {
                    Duration::from_millis(10)
                },
                suspect_after: 3,
                ..ClusterNodeOpts::default()
            };
            ClusterNode::start(&addr(n), Bootstrap::Seeds(seeds.clone()), opts)
        })
        .collect::<Result<_, _>>()
        .unwrap();
    (seeds, nodes)
}

fn wait_until(what: &str, deadline: Duration, mut ok: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !ok() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Whether every node's view holds exactly `members`, all at one epoch.
fn agreed(nodes: &[ClusterNode], members: &[String]) -> bool {
    let views: Vec<ClusterView> = nodes.iter().map(ClusterNode::view).collect();
    views
        .iter()
        .all(|v| v.addrs() == members && v.epoch == views[0].epoch)
}

/// Refuses every dial to `addr` while `cut` is set: the member still
/// dials out, so it is alive but cannot be probed. (Each heartbeat it
/// sends resets the receiver's miss streak for it, so the test gives
/// it a slow heartbeat: the others reach their threshold in between.)
struct Unreachable {
    addr: String,
    cut: AtomicBool,
}

impl FaultInjector for Unreachable {
    fn on_frame(&self, _conn: u64, _peer: &str, _frame: &Frame) -> FaultAction {
        FaultAction::Deliver
    }

    fn allow_connect(&self, addr: &str) -> bool {
        addr != self.addr || !self.cut.load(Ordering::SeqCst)
    }
}

#[test]
fn a_member_evicted_while_unreachable_is_readded_by_its_heartbeats() {
    let obs = sitra_obs::isolate();
    let suspects = || obs.registry().snapshot().counter("cluster.suspects");
    let (seeds, nodes) = trio(["heal-a", "heal-b", "heal-c"], Duration::from_millis(200));
    let partition = Arc::new(Unreachable {
        addr: addr("heal-c").to_string(),
        cut: AtomicBool::new(true),
    });
    let previous = install_fault_injector(Some(partition.clone()));
    wait_until("heal-c to be suspected", Duration::from_secs(5), || {
        suspects() > 0
    });
    partition.cut.store(false, Ordering::SeqCst);
    wait_until(
        "every view to hold all three at one epoch",
        Duration::from_secs(10),
        || agreed(&nodes, &seeds),
    );
    install_fault_injector(previous);
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn a_member_adopting_a_view_that_evicted_it_readds_itself() {
    let _obs = sitra_obs::isolate();
    let (seeds, nodes) = trio(["self-a", "self-b", "self-c"], Duration::from_millis(10));
    // A newer view without self-c, as a peer that suspected it would
    // gossip it.
    let evicted = ClusterView {
        epoch: 100,
        members: seeds[..2]
            .iter()
            .map(|addr| MemberInfo { addr: addr.clone() })
            .collect(),
    };
    let conn = RemoteSpace::connect(&addr("self-c")).unwrap();
    let reply = conn
        .control(encode_msg(&ClusterMsg::View { view: evicted }))
        .unwrap();
    assert_eq!(decode_msg(reply).unwrap(), ClusterMsg::Ack { epoch: 101 });
    let view = nodes[2].view();
    assert_eq!((view.addrs(), view.epoch), (seeds.clone(), 101));
    // Anti-entropy carries the re-added view to the others.
    wait_until(
        "every view to hold all three at epoch 101 or later",
        Duration::from_secs(5),
        || agreed(&nodes, &seeds) && nodes[0].view().epoch >= 101,
    );
    for node in nodes {
        node.shutdown();
    }
}
