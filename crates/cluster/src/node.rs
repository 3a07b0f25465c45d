//! One cluster member: a [`SpaceServer`] plus the membership layer —
//! heartbeats, suspicion, view gossip, and shard handoff.
//!
//! Every view change — a join, a leave, a suspicion eviction, a
//! heartbeat that re-adds an evicted member, an adopted newer view —
//! goes through one function, `transition`: it installs the view,
//! journals the event, publishes the `cluster.members`/`cluster.epoch`
//! gauges, gossips when asked, and hands off the shards the new ring
//! moves. Every message to another member dials through `dial`.
//!
//! # Safety argument (why a wrong view never loses data)
//!
//! Clients fan spatial gets out to every member of their *static*
//! endpoint list and deduplicate by region, so a piece is reachable as
//! long as it lives on *some* member a client can dial. Handoff drains
//! a piece locally and immediately re-puts it on the new owner (or back
//! locally when the push fails), so the only risk window is one RPC
//! long, and a get that races it sees a short piece list — which the
//! aggregation workers detect (piece count != rank count) and turn into
//! a driver-side deadline degrade, never a wrong output. False
//! suspicion is likewise harmless: an evicted-but-alive member still
//! answers the static client ring, and its own heartbeats get it
//! re-added to the view.

use crate::membership::Suspicion;
use crate::proto::{decode_msg, encode_msg, ClusterMsg, ClusterView, MemberInfo};
use crate::ring::{HashRing, ShardKey};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use sitra_dataspaces::remote::ControlHandler;
use sitra_dataspaces::{
    AdmissionPolicy, DataSpaces, RemoteError, RemoteSpace, SchedStats, Scheduler, SpaceServer,
    TenantSpec,
};
use sitra_net::{Addr, Backoff, NetError};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Failure starting or operating a cluster node.
#[derive(Debug)]
pub enum ClusterError {
    /// Transport failure.
    Net(NetError),
    /// A control RPC failed.
    Remote(RemoteError),
    /// The node was misconfigured (bad seed list, malformed reply, ...).
    Config(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Net(e) => write!(f, "transport: {e}"),
            ClusterError::Remote(e) => write!(f, "control rpc: {e}"),
            ClusterError::Config(s) => write!(f, "cluster config: {s}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> Self {
        ClusterError::Net(e)
    }
}

impl From<RemoteError> for ClusterError {
    fn from(e: RemoteError) -> Self {
        ClusterError::Remote(e)
    }
}

/// How a node learns its initial membership.
#[derive(Debug, Clone)]
pub enum Bootstrap {
    /// A static seed list every founding member starts with. Must
    /// contain this node's own advertised address.
    Seeds(Vec<String>),
    /// Join an existing cluster by announcing to one of its members.
    Join(String),
}

/// Tunables of one cluster member.
#[derive(Debug, Clone)]
pub struct ClusterNodeOpts {
    /// In-process space shards inside this member.
    pub shards: usize,
    /// Task-queue capacity (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Admission policy at capacity.
    pub policy: AdmissionPolicy,
    /// Placement seed; every member and client must agree.
    pub seed: u64,
    /// Virtual nodes per member on the placement ring.
    pub vnodes: u32,
    /// Heartbeat period.
    pub heartbeat_every: Duration,
    /// Consecutive missed heartbeats before a peer is declared suspect
    /// and evicted from the view.
    pub suspect_after: u32,
    /// Tenants registered on this member at start (weights, quotas,
    /// per-tenant admission policy). Every member should carry the same
    /// list, or fail-over lands tenants on default weight-1 treatment.
    pub tenants: Vec<TenantSpec>,
}

impl Default for ClusterNodeOpts {
    fn default() -> Self {
        ClusterNodeOpts {
            shards: 1,
            capacity: None,
            policy: AdmissionPolicy::RejectNew,
            seed: crate::ring::DEFAULT_SEED,
            vnodes: crate::ring::DEFAULT_VNODES,
            heartbeat_every: Duration::from_millis(50),
            suspect_after: 3,
            tenants: Vec::new(),
        }
    }
}

/// Live observability handles, resolved once per node.
struct NodeObs {
    handoff_pieces: sitra_obs::Counter,
    handoff_bytes: sitra_obs::Counter,
    tasks_forwarded: sitra_obs::Counter,
    suspects: sitra_obs::Counter,
    proto_errors: sitra_obs::Counter,
}

impl NodeObs {
    fn resolve() -> Self {
        let reg = sitra_obs::global();
        NodeObs {
            handoff_pieces: reg.counter("cluster.handoff.pieces"),
            handoff_bytes: reg.counter("cluster.handoff.bytes"),
            tasks_forwarded: reg.counter("cluster.tasks.forwarded"),
            suspects: reg.counter("cluster.suspects"),
            proto_errors: reg.counter("cluster.control.proto_errors"),
        }
    }
}

struct NodeState {
    self_addr: RwLock<String>,
    seed: u64,
    vnodes: u32,
    space: Arc<DataSpaces>,
    sched: Scheduler<Bytes>,
    view: Mutex<ClusterView>,
    suspicion: Mutex<Suspicion>,
    /// Serializes handoffs so two view changes cannot interleave their
    /// drain/push cycles.
    handoff_lock: Mutex<()>,
    /// Set once, by whatever takes the member down; the heartbeat
    /// thread waits out its period on `stop_signal`, so it sees the
    /// stop at once instead of after a sleep.
    stop: Mutex<bool>,
    stop_signal: Condvar,
    obs: NodeObs,
    /// Tenant specs this member was configured with, consulted when
    /// forwarding backlog so the declaration sent to a survivor carries
    /// the real weight/quota rather than a made-up default.
    tenants: Vec<TenantSpec>,
}

impl NodeState {
    fn self_addr(&self) -> String {
        self.self_addr.read().clone()
    }

    fn stop(&self) {
        *self.stop.lock() = true;
        self.stop_signal.notify_all();
    }

    fn stopped(&self) -> bool {
        *self.stop.lock()
    }

    /// Wait out one heartbeat period, or less if the member stops;
    /// whether it has.
    fn stopped_within(&self, period: Duration) -> bool {
        let mut stopped = self.stop.lock();
        if !*stopped {
            self.stop_signal.wait_for(&mut stopped, period);
        }
        *stopped
    }

    /// `cluster.members` and `cluster.epoch`, labelled with the
    /// member's address as it stands: after the bind that is the bound
    /// one, so a `tcp://…:0` member reports under its real port.
    fn publish_view_gauges(&self) {
        let reg = sitra_obs::global();
        let me = self.self_addr();
        let view = self.view.lock();
        reg.gauge(&format!("cluster.members{{member={me}}}"))
            .set(view.members.len() as i64);
        reg.gauge(&format!("cluster.epoch{{member={me}}}"))
            .set(view.epoch as i64);
    }
}

/// One member of a staging cluster.
pub struct ClusterNode {
    state: Arc<NodeState>,
    server: Option<SpaceServer>,
    hb: Option<JoinHandle<()>>,
    addr: Addr,
}

/// Backoff for cluster-internal dials (gossip, handoff pushes): short
/// and bounded, because the heartbeat loop will retry anything that
/// matters.
const PEER_BACKOFF: Backoff = Backoff {
    initial: Duration::from_millis(2),
    max: Duration::from_millis(10),
    attempts: 3,
};

/// Every dial from one member to another: one attempt when `backoff`
/// is `None` (a heartbeat probe, which must not outlast its period),
/// else retried per `backoff`.
fn dial(peer: &str, backoff: Option<&Backoff>) -> Result<RemoteSpace, ClusterError> {
    let addr: Addr = peer
        .parse()
        .map_err(|_| ClusterError::Config(format!("unparseable member address `{peer}`")))?;
    Ok(match backoff {
        None => RemoteSpace::connect(&addr)?,
        Some(backoff) => RemoteSpace::connect_retry(&addr, backoff)?,
    })
}

/// Send `peer` one control message over a fresh [`dial`] and decode
/// its reply.
fn tell(
    peer: &str,
    backoff: Option<&Backoff>,
    msg: &ClusterMsg,
) -> Result<ClusterMsg, ClusterError> {
    let reply = dial(peer, backoff)?.control(encode_msg(msg))?;
    decode_msg(reply).map_err(|e| ClusterError::Config(e.to_string()))
}

impl ClusterNode {
    /// Bind `listen`, start serving the data plane, and bring up
    /// membership per `bootstrap`.
    pub fn start(
        listen: &Addr,
        bootstrap: Bootstrap,
        opts: ClusterNodeOpts,
    ) -> Result<ClusterNode, ClusterError> {
        let initial_view = match &bootstrap {
            Bootstrap::Seeds(seeds) => {
                if seeds.is_empty() {
                    return Err(ClusterError::Config("empty cluster seed list".into()));
                }
                if !seeds.iter().any(|s| s == &listen.to_string()) {
                    return Err(ClusterError::Config(format!(
                        "own address `{listen}` missing from seed list {seeds:?}"
                    )));
                }
                ClusterView::bootstrap(seeds.iter().cloned())
            }
            // A joiner starts alone at epoch 0; any seeded view wins.
            Bootstrap::Join(_) => ClusterView {
                epoch: 0,
                members: vec![MemberInfo {
                    addr: listen.to_string(),
                }],
            },
        };
        let space = Arc::new(DataSpaces::new(opts.shards.max(1)));
        let sched = match opts.capacity {
            Some(cap) => Scheduler::bounded(cap, opts.policy),
            None => Scheduler::new(),
        };
        for spec in &opts.tenants {
            sched.register_tenant(spec);
            space.set_tenant_byte_quota(&spec.name, spec.byte_quota);
        }
        let state = Arc::new(NodeState {
            self_addr: RwLock::new(listen.to_string()),
            seed: opts.seed,
            vnodes: opts.vnodes,
            space: Arc::clone(&space),
            sched: sched.clone(),
            view: Mutex::new(initial_view),
            suspicion: Mutex::new(Suspicion::new(opts.suspect_after)),
            handoff_lock: Mutex::new(()),
            stop: Mutex::new(false),
            stop_signal: Condvar::new(),
            obs: NodeObs::resolve(),
            tenants: opts.tenants.clone(),
        });
        let handler_state = Arc::clone(&state);
        let handler: ControlHandler = Arc::new(move |data| handle_control(&handler_state, data));
        let server = SpaceServer::start_custom(listen, space, sched, Some(handler))?;
        let bound = server.addr();
        // A `tcp://…:0` bind resolves to its OS-assigned port only now;
        // no peer can have dialed the unknown port yet, so the late
        // correction races nothing.
        if bound.to_string() != listen.to_string() {
            let mut view = state.view.lock();
            for m in &mut view.members {
                if m.addr == listen.to_string() {
                    m.addr = bound.to_string();
                }
            }
            view.members.sort();
            drop(view);
            *state.self_addr.write() = bound.to_string();
        }
        if let Bootstrap::Join(contact) = &bootstrap {
            let from = MemberInfo {
                addr: state.self_addr(),
            };
            match tell(
                contact,
                Some(&Backoff::default()),
                &ClusterMsg::Join { from },
            )? {
                ClusterMsg::View { view } => adopt_view(&state, view),
                other => {
                    return Err(ClusterError::Config(format!(
                        "join answered with {other:?}, expected a view"
                    )))
                }
            }
        }
        state.publish_view_gauges();
        let hb_state = Arc::clone(&state);
        let every = opts.heartbeat_every;
        let hb = std::thread::spawn(move || heartbeat_loop(&hb_state, every));
        Ok(ClusterNode {
            state,
            server: Some(server),
            hb: Some(hb),
            addr: bound,
        })
    }

    /// Where this member listens (its identity in the cluster).
    pub fn addr(&self) -> Addr {
        self.addr.clone()
    }

    /// Snapshot of the membership view.
    pub fn view(&self) -> ClusterView {
        self.state.view.lock().clone()
    }

    /// Direct access to the member's space (same-process convenience).
    pub fn space(&self) -> &DataSpaces {
        &self.state.space
    }

    /// Scheduler counters.
    pub fn sched_stats(&self) -> SchedStats {
        self.state.sched.stats()
    }

    /// This member's task scheduler, for operator-side configuration
    /// (tenants, capacity targets, drain commands).
    pub fn scheduler(&self) -> &Scheduler<Bytes> {
        &self.state.sched
    }

    /// Has a client closed this member's scheduler? (`sitra-staged`
    /// exits on this.)
    pub fn closed(&self) -> bool {
        self.state.sched.is_closed()
    }

    fn stop_heartbeats(&mut self) {
        self.state.stop();
        if let Some(h) = self.hb.take() {
            let _ = h.join();
        }
    }

    /// Graceful departure: hand every local shard to its new ring owner,
    /// forward the queued task backlog to the surviving members,
    /// announce the leave, and stop serving.
    pub fn leave(mut self) {
        self.stop_heartbeats();
        let me = self.state.self_addr();
        // No gossip: the survivors hear of it as a `Leave` below.
        transition(&self.state, Change::Leave(&me), false, |view| {
            view.without_member(&me)
        });
        let survivors = self.state.view.lock().addrs();
        forward_backlog(&self.state, &survivors);
        for peer in &survivors {
            let _ = tell(
                peer,
                Some(&PEER_BACKOFF),
                &ClusterMsg::Leave { addr: me.clone() },
            );
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    /// Whole-instance crash: the scheduler backlog is *dropped* (the
    /// tasks die with the instance) and the listener stops. Producers
    /// observe the loss as failed RPCs and degrade; the chaos oracles
    /// assert they never silently lose an output.
    pub fn kill(mut self) {
        self.stop_heartbeats();
        let lost = self.state.sched.drain_queued().len();
        if lost > 0 {
            sitra_obs::emit(
                "cluster",
                "member.crash",
                &[
                    ("member", self.state.self_addr()),
                    ("tasks_lost", lost.to_string()),
                ],
            );
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    /// Plain end-of-run stop: no handoff, no announcements (the whole
    /// cluster is coming down).
    pub fn shutdown(mut self) {
        self.stop_heartbeats();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for ClusterNode {
    fn drop(&mut self) {
        self.stop_heartbeats();
        // The SpaceServer's own Drop stops the listener.
    }
}

/// Serve one control frame (runs on the data-plane connection threads).
fn handle_control(state: &Arc<NodeState>, data: Bytes) -> Bytes {
    let Ok(msg) = decode_msg(data) else {
        state.obs.proto_errors.inc();
        return encode_msg(&ClusterMsg::Ack {
            epoch: state.view.lock().epoch,
        });
    };
    // Whether the sender gets our view back rather than an `Ack`.
    let send_view = match msg {
        ClusterMsg::Join { from } => {
            join(state, &from.addr);
            true
        }
        ClusterMsg::Leave { addr } => {
            if transition(state, Change::Leave(&addr), true, |view| {
                view.without_member(&addr)
            }) {
                state.suspicion.lock().forget(&addr);
            }
            false
        }
        ClusterMsg::Heartbeat { from, epoch } => {
            // A heartbeat from a member our view evicted proves it
            // alive: re-add it (healing false suspicion).
            join(state, &from);
            state.view.lock().epoch > epoch
        }
        ClusterMsg::View { view } => {
            adopt_view(state, view);
            false
        }
        ClusterMsg::Ack { .. } => false,
    };
    let view = state.view.lock();
    encode_msg(&if send_view {
        ClusterMsg::View { view: view.clone() }
    } else {
        ClusterMsg::Ack { epoch: view.epoch }
    })
}

/// Why a member's view changed; names the journal event that says so.
enum Change<'a> {
    /// `member.join`: the member announced itself or proved alive.
    Join(&'a str),
    /// `member.leave`: the member left gracefully.
    Leave(&'a str),
    /// `member.suspect`: the member missed too many heartbeats.
    Suspect(&'a str),
    /// `view.adopt`: a newer view arrived from a peer.
    Adopt,
}

/// The one membership transition: install the view `next` derives
/// from the current one (nothing happens when it derives none), journal
/// `change`, publish the view gauges, gossip the view when asked, and
/// hand off the shards the new ring moves. Whether the view changed.
fn transition(
    state: &Arc<NodeState>,
    change: Change,
    gossip: bool,
    next: impl FnOnce(&ClusterView) -> Option<ClusterView>,
) -> bool {
    let next = {
        let mut view = state.view.lock();
        let Some(next) = next(&view) else {
            return false;
        };
        *view = next.clone();
        next
    };
    let epoch = ("epoch", next.epoch.to_string());
    let (event, attrs) = match change {
        Change::Join(member) => ("member.join", vec![("member", member.into()), epoch]),
        Change::Leave(member) => ("member.leave", vec![("member", member.into()), epoch]),
        Change::Suspect(member) => {
            state.obs.suspects.inc();
            let by = ("by", state.self_addr());
            ("member.suspect", vec![("member", member.into()), by, epoch])
        }
        Change::Adopt => {
            let members = ("members", next.members.len().to_string());
            (
                "view.adopt",
                vec![("member", state.self_addr()), epoch, members],
            )
        }
    };
    sitra_obs::emit("cluster", event, &attrs);
    state.publish_view_gauges();
    if gossip {
        // Best-effort: a peer we cannot reach right now learns the
        // epoch from heartbeat anti-entropy instead.
        let me = state.self_addr();
        let msg = ClusterMsg::View { view: next.clone() };
        for peer in next.addrs().iter().filter(|p| **p != me) {
            let _ = tell(peer, Some(&PEER_BACKOFF), &msg);
        }
    }
    rebalance(state);
    true
}

/// Add `member` to the view unless it is there already, and gossip it.
fn join(state: &Arc<NodeState>, member: &str) {
    let info = MemberInfo {
        addr: member.to_string(),
    };
    transition(state, Change::Join(member), true, |view| {
        view.with_member(info)
    });
}

/// Adopt `incoming` when its epoch is newer. A view that evicted *us*
/// gets ourselves re-added (we are demonstrably alive) so false
/// suspicion heals instead of sticking.
fn adopt_view(state: &Arc<NodeState>, incoming: ClusterView) {
    let me = MemberInfo {
        addr: state.self_addr(),
    };
    transition(state, Change::Adopt, false, |view| {
        (incoming.epoch > view.epoch).then(|| incoming.with_member(me).unwrap_or(incoming))
    });
}

/// Shard handoff: drain every local piece the current ring no longer
/// assigns to us and push each to its new owner. A piece whose push
/// fails is re-put locally — it must never be in-flight-only.
fn rebalance(state: &Arc<NodeState>) {
    let _serial = state.handoff_lock.lock();
    let view = state.view.lock().clone();
    let self_addr = state.self_addr();
    // When we are out of the view (graceful leave) the ring simply owns
    // us nothing and everything drains.
    let ring = HashRing::new(state.seed, state.vnodes, view.addrs());
    if ring.is_empty() {
        return;
    }
    let moved = state.space.drain_matching(|var, version, bbox| {
        ring.owner(&ShardKey::new(var, version, bbox)) != Some(self_addr.as_str())
    });
    if moved.is_empty() {
        return;
    }
    // Group by new owner so each target costs one connection.
    let mut by_owner: BTreeMap<String, Vec<(String, u64, sitra_mesh::BBox3, Bytes)>> =
        BTreeMap::new();
    for piece in moved {
        let owner = ring
            .owner(&ShardKey::new(&piece.0, piece.1, &piece.2))
            .expect("non-empty ring owns every key")
            .to_string();
        by_owner.entry(owner).or_default().push(piece);
    }
    let mut pushed_pieces = 0u64;
    let mut pushed_bytes = 0u64;
    for (owner, pieces) in by_owner {
        let conn = dial(&owner, Some(&PEER_BACKOFF)).ok();
        for (var, version, bbox, data) in pieces {
            let len = data.len() as u64;
            let delivered = conn
                .as_ref()
                .is_some_and(|c| c.put(&var, version, bbox, data.clone()).is_ok());
            if delivered {
                pushed_pieces += 1;
                pushed_bytes += len;
            } else {
                // Unreachable owner: keep the piece; fan-out gets still
                // find it here and a later rebalance retries.
                state.space.put(&var, version, bbox, data);
            }
        }
    }
    if pushed_pieces > 0 {
        state.obs.handoff_pieces.add(pushed_pieces);
        state.obs.handoff_bytes.add(pushed_bytes);
        sitra_obs::emit(
            "cluster",
            "handoff",
            &[
                ("member", self_addr),
                ("pieces", pushed_pieces.to_string()),
                ("bytes", pushed_bytes.to_string()),
                ("epoch", view.epoch.to_string()),
            ],
        );
    }
}

/// Re-submit the queued (never-assigned) task backlog round-robin over
/// `survivors`, preserving each task's tenant: the forwarding
/// connection declares the task's tenant before submitting, so the
/// survivor's weighted scheduler and quotas see the task under its real
/// owner, not under whoever happened to forward it. A task no survivor
/// admits is requeued locally (under its own tenant) so the two-phase
/// hand-off invariant (admitted tasks are never silently dropped by
/// *this* layer) holds; it then drains to any bucket still connected to
/// us.
fn forward_backlog(state: &Arc<NodeState>, survivors: &[String]) {
    if survivors.is_empty() {
        return;
    }
    let backlog = state.sched.drain_queued();
    if backlog.is_empty() {
        return;
    }
    let conns: Vec<Option<RemoteSpace>> = survivors
        .iter()
        .map(|peer| dial(peer, Some(&PEER_BACKOFF)).ok())
        .collect();
    // Which tenant each survivor connection is currently bound to. A
    // binding is per-connection state, so it only has to be re-sent
    // when consecutive tasks belong to different tenants.
    let mut bound: Vec<Option<String>> = vec![None; conns.len()];
    let mut forwarded = 0u64;
    for (i, (tenant, seq, task)) in backlog.into_iter().enumerate() {
        let mut delivered = false;
        for k in 0..conns.len() {
            let j = (i + k) % conns.len();
            if let Some(c) = &conns[j] {
                if bound[j].as_deref() != Some(tenant.as_str()) {
                    let spec = state
                        .tenants
                        .iter()
                        .find(|s| s.name == tenant)
                        .cloned()
                        .unwrap_or_else(|| TenantSpec::new(&tenant));
                    if c.set_tenant(&spec).is_err() {
                        continue;
                    }
                    bound[j] = Some(tenant.clone());
                }
                if matches!(c.submit_task_admission(task.clone()), Ok(verdict) if verdict.seq().is_some())
                {
                    delivered = true;
                    break;
                }
            }
        }
        if delivered {
            forwarded += 1;
        } else {
            state.sched.requeue_front(&tenant, seq, task);
        }
    }
    if forwarded > 0 {
        state.obs.tasks_forwarded.add(forwarded);
        sitra_obs::emit(
            "cluster",
            "tasks.forwarded",
            &[
                ("member", state.self_addr()),
                ("count", forwarded.to_string()),
            ],
        );
    }
}

/// The heartbeat loop: probe every peer each period; evict peers that
/// miss `suspect_after` probes in a row; adopt newer views carried back
/// by anti-entropy. Each probe is a fresh dial: a killed member stops
/// its listener but keeps serving connections already open, so only a
/// new connection notices it is gone.
fn heartbeat_loop(state: &Arc<NodeState>, every: Duration) {
    while !state.stopped_within(every) {
        let from = state.self_addr();
        let (peers, epoch) = {
            let view = state.view.lock();
            (view.addrs(), view.epoch)
        };
        let probe = ClusterMsg::Heartbeat {
            from: from.clone(),
            epoch,
        };
        for peer in peers.iter().filter(|p| **p != from) {
            if state.stopped() {
                return;
            }
            match tell(peer, None, &probe) {
                Ok(reply) => {
                    state.suspicion.lock().record_ok(peer);
                    if let ClusterMsg::View { view } = reply {
                        adopt_view(state, view);
                    }
                }
                Err(_) => {
                    if state.suspicion.lock().record_miss(peer) {
                        transition(state, Change::Suspect(peer), true, |view| {
                            view.without_member(peer)
                        });
                    }
                }
            }
        }
    }
}
