//! The fabric, endpoints and registered regions.

use crate::model::NetworkModel;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifies a registered endpoint (node).
pub type EndpointId = u64;
/// Identifies an exported memory region within an endpoint.
pub type RegionKey = u64;
/// Identifies one transfer transaction.
pub type TransferId = u64;

/// Which data path a transfer used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Path {
    /// FMA short-message path: lowest latency, direct OS-bypass.
    Smsg,
    /// Block Transfer Engine: bulk RDMA get/put.
    Bte,
}

/// Errors returned by transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DartError {
    /// The peer endpoint is not (or no longer) registered.
    UnknownEndpoint(EndpointId),
    /// The peer has not exported the requested region.
    UnknownRegion(EndpointId, RegionKey),
    /// The fabric has been shut down.
    Closed,
}

impl std::fmt::Display for DartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DartError::UnknownEndpoint(e) => write!(f, "unknown endpoint {e}"),
            DartError::UnknownRegion(e, k) => write!(f, "unknown region {k} on endpoint {e}"),
            DartError::Closed => write!(f, "fabric closed"),
        }
    }
}
impl std::error::Error for DartError {}

/// Event notifications delivered to endpoint event queues.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A small message arrived (SMSG path).
    Message {
        /// Sender endpoint.
        from: EndpointId,
        /// Payload.
        data: Bytes,
        /// Simulated network time the message spent in flight.
        sim_time: f64,
    },
    /// A `get` this endpoint issued has completed (destination-side
    /// completion).
    GetComplete {
        /// Transfer transaction id.
        id: TransferId,
        /// The region owner.
        from: EndpointId,
        /// The pulled data.
        data: Bytes,
        /// Simulated transfer duration.
        sim_time: f64,
    },
    /// A peer pulled one of this endpoint's regions (source-side
    /// completion — fired without this endpoint's participation).
    GetServed {
        /// Transfer transaction id.
        id: TransferId,
        /// Which peer pulled.
        by: EndpointId,
        /// Which region.
        key: RegionKey,
    },
    /// A `put` this endpoint issued has been written at the target
    /// (source-side completion).
    PutComplete {
        /// Transfer transaction id.
        id: TransferId,
        /// The written peer.
        to: EndpointId,
        /// Simulated transfer duration.
        sim_time: f64,
    },
    /// A peer wrote into one of this endpoint's regions (destination-side
    /// completion).
    PutReceived {
        /// Transfer transaction id.
        id: TransferId,
        /// The writer.
        from: EndpointId,
        /// The region written.
        key: RegionKey,
    },
}

/// Aggregate transfer statistics of a fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FabricStats {
    /// Messages sent on the SMSG path.
    pub smsg_messages: u64,
    /// Bytes moved on the SMSG path.
    pub smsg_bytes: u64,
    /// Transactions on the BTE path.
    pub bte_transfers: u64,
    /// Bytes moved on the BTE path.
    pub bte_bytes: u64,
    /// Total simulated network seconds across all transfers.
    pub sim_seconds: f64,
}

struct EndpointShared {
    regions: RwLock<HashMap<RegionKey, Bytes>>,
    events: Sender<Event>,
}

/// Live counters mirroring [`FabricStats`] into the global
/// [`sitra_obs`] registry, so a metrics endpoint can watch fabric
/// traffic without polling `Fabric::stats()`.
struct FabricObs {
    smsg_messages: sitra_obs::Counter,
    smsg_bytes: sitra_obs::Counter,
    bte_transfers: sitra_obs::Counter,
    bte_bytes: sitra_obs::Counter,
}

impl FabricObs {
    fn resolve() -> Self {
        let reg = sitra_obs::global();
        FabricObs {
            smsg_messages: reg.counter("dart.fabric.smsg_messages"),
            smsg_bytes: reg.counter("dart.fabric.smsg_bytes"),
            bte_transfers: reg.counter("dart.fabric.bte_transfers"),
            bte_bytes: reg.counter("dart.fabric.bte_bytes"),
        }
    }
}

struct FabricInner {
    endpoints: RwLock<HashMap<EndpointId, Arc<EndpointShared>>>,
    model: NetworkModel,
    stats: Mutex<FabricStats>,
    obs: FabricObs,
    next_endpoint: AtomicU64,
    next_transfer: AtomicU64,
    closed: AtomicBool,
}

impl FabricInner {
    /// Charge one BTE transfer of `len` bytes to the statistics and
    /// return its simulated duration.
    fn charge_bte(&self, len: usize) -> f64 {
        let sim = self.model.transfer_time(len, Path::Bte);
        {
            let mut s = self.stats.lock();
            s.bte_transfers += 1;
            s.bte_bytes += len as u64;
            s.sim_seconds += sim;
        }
        self.obs.bte_transfers.inc();
        self.obs.bte_bytes.add(len as u64);
        sim
    }
}

/// The transport fabric: a registry of endpoints. Bulk transfers are
/// served on the issuing thread; completion is reported through the
/// endpoints' event queues.
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// Bring up a fabric with the given network model.
    pub fn new(model: NetworkModel) -> Arc<Self> {
        Arc::new(Self {
            inner: Arc::new(FabricInner {
                endpoints: RwLock::new(HashMap::new()),
                model,
                stats: Mutex::new(FabricStats::default()),
                obs: FabricObs::resolve(),
                next_endpoint: AtomicU64::new(1),
                next_transfer: AtomicU64::new(1),
                closed: AtomicBool::new(false),
            }),
        })
    }

    /// Register a new endpoint (node) on the fabric.
    pub fn register(self: &Arc<Self>) -> Endpoint {
        let id = self.inner.next_endpoint.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        let shared = Arc::new(EndpointShared {
            regions: RwLock::new(HashMap::new()),
            events: tx,
        });
        self.inner.endpoints.write().insert(id, shared);
        Endpoint {
            id,
            fabric: Arc::clone(&self.inner),
            events: rx,
        }
    }

    /// Cumulative transfer statistics.
    pub fn stats(&self) -> FabricStats {
        *self.inner.stats.lock()
    }

    /// The network model in force.
    pub fn model(&self) -> NetworkModel {
        self.inner.model
    }

    /// Close the fabric to bulk transfers (idempotent): every later
    /// `rdma_get`/`rdma_put` fails with [`DartError::Closed`].
    pub fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
    }
}

/// One registered node on the fabric.
pub struct Endpoint {
    id: EndpointId,
    fabric: Arc<FabricInner>,
    events: Receiver<Event>,
}

impl Endpoint {
    /// This endpoint's id.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// Export a memory region under `key`, making it available for peers
    /// to `get` without involving this endpoint's CPU. Re-exporting a key
    /// replaces the region (e.g. for double-buffered timesteps).
    pub fn export(&self, key: RegionKey, data: Bytes) {
        let eps = self.fabric.endpoints.read();
        let me = eps.get(&self.id).expect("own endpoint alive");
        me.regions.write().insert(key, data);
    }

    /// Withdraw an exported region.
    pub fn unexport(&self, key: RegionKey) {
        let eps = self.fabric.endpoints.read();
        if let Some(me) = eps.get(&self.id) {
            me.regions.write().remove(&key);
        }
    }

    /// One-sided pull of `key` from `peer` (BTE RDMA get), served on
    /// the calling thread without involving `peer`. When this returns
    /// `Ok`, [`Event::GetComplete`] is already queued on this endpoint
    /// and [`Event::GetServed`] on the peer; a region or peer that does
    /// not exist fails here, so an issued get always completes.
    pub fn rdma_get(&self, peer: EndpointId, key: RegionKey) -> Result<TransferId, DartError> {
        if self.fabric.closed.load(Ordering::Acquire) {
            return Err(DartError::Closed);
        }
        let eps = self.fabric.endpoints.read();
        let owner = eps.get(&peer).ok_or(DartError::UnknownEndpoint(peer))?;
        let data = owner.regions.read().get(&key).cloned();
        let data = data.ok_or(DartError::UnknownRegion(peer, key))?;
        let id = self.fabric.next_transfer.fetch_add(1, Ordering::Relaxed);
        let sim = self.fabric.charge_bte(data.len());
        let _ = owner.events.send(Event::GetServed {
            id,
            by: self.id,
            key,
        });
        let _ = eps[&self.id].events.send(Event::GetComplete {
            id,
            from: peer,
            data,
            sim_time: sim,
        });
        Ok(id)
    }

    /// One-sided write of `data` into `peer`'s region `key` (BTE RDMA
    /// put), served on the calling thread. The region is created at the
    /// target if absent. When this returns `Ok`, [`Event::PutComplete`]
    /// is queued on this endpoint and [`Event::PutReceived`] on the peer.
    pub fn rdma_put(
        &self,
        peer: EndpointId,
        key: RegionKey,
        data: Bytes,
    ) -> Result<TransferId, DartError> {
        if self.fabric.closed.load(Ordering::Acquire) {
            return Err(DartError::Closed);
        }
        let eps = self.fabric.endpoints.read();
        let target = eps.get(&peer).ok_or(DartError::UnknownEndpoint(peer))?;
        let id = self.fabric.next_transfer.fetch_add(1, Ordering::Relaxed);
        let sim = self.fabric.charge_bte(data.len());
        target.regions.write().insert(key, data);
        let _ = target.events.send(Event::PutReceived {
            id,
            from: self.id,
            key,
        });
        let _ = eps[&self.id].events.send(Event::PutComplete {
            id,
            to: peer,
            sim_time: sim,
        });
        Ok(id)
    }

    /// Send a small message (SMSG path): delivered synchronously to the
    /// peer's event queue with the small-message latency charged.
    pub fn smsg_send(&self, peer: EndpointId, data: Bytes) -> Result<(), DartError> {
        let eps = self.fabric.endpoints.read();
        let p = eps.get(&peer).ok_or(DartError::UnknownEndpoint(peer))?;
        let sim = self.fabric.model.transfer_time(data.len(), Path::Smsg);
        {
            let mut s = self.fabric.stats.lock();
            s.smsg_messages += 1;
            s.smsg_bytes += data.len() as u64;
            s.sim_seconds += sim;
        }
        self.fabric.obs.smsg_messages.inc();
        self.fabric.obs.smsg_bytes.add(data.len() as u64);
        p.events
            .send(Event::Message {
                from: self.id,
                data,
                sim_time: sim,
            })
            .map_err(|_| DartError::Closed)
    }

    /// Size-based automatic path selection, as DART does on Gemini: data
    /// at or below the model's SMSG threshold goes as a message; larger
    /// payloads are exported and written to the peer via BTE put.
    /// Returns the path taken.
    pub fn send_auto(
        &self,
        peer: EndpointId,
        key: RegionKey,
        data: Bytes,
    ) -> Result<Path, DartError> {
        match self.fabric.model.path_for(data.len()) {
            Path::Smsg => {
                self.smsg_send(peer, data)?;
                Ok(Path::Smsg)
            }
            Path::Bte => {
                self.rdma_put(peer, key, data)?;
                Ok(Path::Bte)
            }
        }
    }

    /// Read one of this endpoint's own regions (e.g. after a peer `put`).
    pub fn read_region(&self, key: RegionKey) -> Option<Bytes> {
        let eps = self.fabric.endpoints.read();
        let data = eps.get(&self.id)?.regions.read().get(&key).cloned();
        data
    }

    /// Blocking event poll with timeout.
    pub fn poll_event(&self, timeout: Duration) -> Option<Event> {
        self.events.recv_timeout(timeout).ok()
    }

    /// Non-blocking event poll.
    pub fn try_event(&self) -> Option<Event> {
        self.events.try_recv().ok()
    }

    /// Unregister from the fabric; pending events are dropped.
    pub fn unregister(self) {
        self.fabric.endpoints.write().remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Arc<Fabric> {
        Fabric::new(NetworkModel::gemini())
    }

    const T: Duration = Duration::from_secs(5);

    #[test]
    fn smsg_roundtrip() {
        let f = fabric();
        let a = f.register();
        let b = f.register();
        a.smsg_send(b.id(), Bytes::from_static(b"hello")).unwrap();
        match b.poll_event(T) {
            Some(Event::Message {
                from,
                data,
                sim_time,
            }) => {
                assert_eq!(from, a.id());
                assert_eq!(&data[..], b"hello");
                assert!(sim_time > 0.0);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn rdma_get_fires_both_completions() {
        let f = fabric();
        let owner = f.register();
        let puller = f.register();
        let payload = Bytes::from(vec![7u8; 100_000]);
        owner.export(42, payload.clone());
        let id = puller.rdma_get(owner.id(), 42).unwrap();
        match puller.poll_event(T) {
            Some(Event::GetComplete {
                id: gid,
                from,
                data,
                sim_time,
            }) => {
                assert_eq!(gid, id);
                assert_eq!(from, owner.id());
                assert_eq!(data, payload);
                assert!(sim_time > 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match owner.poll_event(T) {
            Some(Event::GetServed { id: gid, by, key }) => {
                assert_eq!(gid, id);
                assert_eq!(by, puller.id());
                assert_eq!(key, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rdma_get_is_zero_copy() {
        let f = fabric();
        let owner = f.register();
        let puller = f.register();
        let payload = Bytes::from(vec![1u8; 4096]);
        let src_ptr = payload.as_ptr();
        owner.export(1, payload);
        puller.rdma_get(owner.id(), 1).unwrap();
        match puller.poll_event(T) {
            Some(Event::GetComplete { data, .. }) => {
                assert_eq!(data.as_ptr(), src_ptr, "payload was deep-copied");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rdma_put_writes_target_region() {
        let f = fabric();
        let a = f.register();
        let b = f.register();
        let id = a
            .rdma_put(b.id(), 9, Bytes::from_static(b"payload"))
            .unwrap();
        match a.poll_event(T) {
            Some(Event::PutComplete { id: pid, to, .. }) => {
                assert_eq!((pid, to), (id, b.id()));
            }
            other => panic!("unexpected {other:?}"),
        }
        match b.poll_event(T) {
            Some(Event::PutReceived { from, key, .. }) => {
                assert_eq!((from, key), (a.id(), 9));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(&b.read_region(9).unwrap()[..], b"payload");
    }

    #[test]
    fn errors_for_unknown_targets() {
        let f = fabric();
        let a = f.register();
        let b = f.register();
        assert_eq!(a.rdma_get(9999, 1), Err(DartError::UnknownEndpoint(9999)));
        assert_eq!(
            a.rdma_get(b.id(), 77),
            Err(DartError::UnknownRegion(b.id(), 77))
        );
        let bid = b.id();
        b.unregister();
        assert_eq!(
            a.smsg_send(bid, Bytes::new()).unwrap_err(),
            DartError::UnknownEndpoint(bid)
        );
    }

    #[test]
    fn auto_path_selection() {
        let f = fabric();
        let a = f.register();
        let b = f.register();
        let small = Bytes::from(vec![0u8; 64]);
        let big = Bytes::from(vec![0u8; 1 << 20]);
        assert_eq!(a.send_auto(b.id(), 1, small).unwrap(), Path::Smsg);
        assert_eq!(a.send_auto(b.id(), 2, big).unwrap(), Path::Bte);
        // Both events arrive.
        let mut got_msg = false;
        let mut got_put = false;
        for _ in 0..2 {
            match b.poll_event(T) {
                Some(Event::Message { .. }) => got_msg = true,
                Some(Event::PutReceived { .. }) => got_put = true,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(got_msg && got_put);
        let stats = f.stats();
        assert_eq!(stats.smsg_messages, 1);
        assert_eq!(stats.bte_transfers, 1);
        assert_eq!(stats.bte_bytes, 1 << 20);
        assert!(stats.sim_seconds > 0.0);
    }

    #[test]
    fn reexport_replaces_region() {
        let f = fabric();
        let o = f.register();
        let p = f.register();
        o.export(5, Bytes::from_static(b"v1"));
        o.export(5, Bytes::from_static(b"v2"));
        p.rdma_get(o.id(), 5).unwrap();
        match p.poll_event(T) {
            Some(Event::GetComplete { data, .. }) => assert_eq!(&data[..], b"v2"),
            other => panic!("unexpected {other:?}"),
        }
        o.unexport(5);
        assert_eq!(
            p.rdma_get(o.id(), 5),
            Err(DartError::UnknownRegion(o.id(), 5))
        );
    }

    #[test]
    fn concurrent_pullers_each_get_completion() {
        let f = fabric();
        let owner = f.register();
        owner.export(1, Bytes::from(vec![9u8; 200_000]));
        let oid = owner.id();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ep = f.register();
                std::thread::spawn(move || {
                    ep.rdma_get(oid, 1).unwrap();
                    match ep.poll_event(T) {
                        Some(Event::GetComplete { data, .. }) => data.len(),
                        other => panic!("unexpected {other:?}"),
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 200_000);
        }
        // Owner saw 8 served events, all queued before the gets returned.
        let mut served = 0;
        while let Some(Event::GetServed { .. }) = owner.try_event() {
            served += 1;
        }
        assert_eq!(served, 8);
        assert_eq!(f.stats().bte_transfers, 8);
    }

    #[test]
    fn shutdown_is_idempotent_and_closes() {
        let f = fabric();
        let a = f.register();
        let b = f.register();
        f.shutdown();
        f.shutdown();
        // Bulk ops now fail with Closed; SMSG (synchronous) still works.
        assert_eq!(
            a.rdma_put(b.id(), 1, Bytes::new()).unwrap_err(),
            DartError::Closed
        );
        a.smsg_send(b.id(), Bytes::from_static(b"hi")).unwrap();
    }

    #[test]
    fn rdma_get_after_shutdown_is_closed() {
        let f = fabric();
        let owner = f.register();
        let puller = f.register();
        owner.export(3, Bytes::from_static(b"data"));
        f.shutdown();
        assert_eq!(puller.rdma_get(owner.id(), 3), Err(DartError::Closed));
        assert_eq!(puller.try_event(), None);
        assert_eq!(owner.try_event(), None);
        assert_eq!(f.stats().bte_transfers, 0);
    }

    #[test]
    fn both_completions_are_queued_when_rdma_get_returns() {
        let f = fabric();
        let owner = f.register();
        let puller = f.register();
        owner.export(4, Bytes::from_static(b"block"));
        let id = puller.rdma_get(owner.id(), 4).unwrap();
        match puller.try_event() {
            Some(Event::GetComplete { id: gid, data, .. }) => {
                assert_eq!(gid, id);
                assert_eq!(&data[..], b"block");
            }
            other => panic!("GetComplete not queued at return: {other:?}"),
        }
        match owner.try_event() {
            Some(Event::GetServed { id: gid, by, key }) => {
                assert_eq!((gid, by, key), (id, puller.id(), 4));
            }
            other => panic!("GetServed not queued at return: {other:?}"),
        }
        assert_eq!(puller.try_event(), None);
        assert_eq!(owner.try_event(), None);
    }

    #[test]
    fn gets_racing_an_unexport_err_at_issue_or_complete_once() {
        const ROUNDS: u64 = 500;
        let f = fabric();
        let owner = f.register();
        let oid = owner.id();
        for key in 0..ROUNDS {
            owner.export(key, Bytes::from(vec![key as u8; 64]));
        }
        let pullers: Vec<_> = (0..2)
            .map(|_| {
                let ep = f.register();
                std::thread::spawn(move || {
                    let mut issued = Vec::new();
                    for key in 0..ROUNDS {
                        match ep.rdma_get(oid, key) {
                            Ok(id) => issued.push(id),
                            Err(e) => assert_eq!(e, DartError::UnknownRegion(oid, key)),
                        }
                    }
                    let mut completed = Vec::new();
                    while let Some(ev) = ep.try_event() {
                        match ev {
                            Event::GetComplete { id, .. } => completed.push(id),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    assert_eq!(completed, issued, "every issued get completes once");
                    issued.len()
                })
            })
            .collect();
        let withdraw = std::thread::spawn(move || {
            for key in 0..ROUNDS {
                owner.unexport(key);
            }
            owner
        });
        let issued: usize = pullers.into_iter().map(|h| h.join().unwrap()).sum();
        let owner = withdraw.join().unwrap();
        let mut served = 0;
        while let Some(Event::GetServed { .. }) = owner.try_event() {
            served += 1;
        }
        assert_eq!(served, issued);
        assert_eq!(f.stats().bte_transfers as usize, issued);
    }
}
