//! The connection handle: length-prefixed frames over any backend,
//! with per-connection traffic counters.
//!
//! This is a *blocking facade over asynchronous plumbing*. A TCP
//! connection's socket lives with a reader task and a writer task on
//! the shared transport runtime ([`crate::rt`]); `send` enqueues onto
//! the writer's bounded queue and `recv` dequeues whole frames from
//! the reader's — both ends of hybrid channels that work from plain
//! threads and async tasks alike. The in-process backend stays a pair
//! of channels, and the shared-memory backend a pair of SPSC rings;
//! all three meet the same contract, so everything above `sitra-net`
//! is transport-agnostic.
//!
//! Fault injection rides the same seam: the injector is consulted
//! synchronously in `send` (keeping scheduled-fault decision streams
//! deterministic), but `Delay`/`Reorder` are realized with *runtime
//! timers*, not sender sleeps — a delayed frame parks in the outbound
//! queue (or a timer task) while the sender carries on immediately.

use crate::fault::{self, FaultAction};
use crate::shm;
use crate::tcp::{self, WriteItem};
use crate::NetError;
use bytes::Bytes;
use crossbeam::channel::{
    Receiver as CbReceiver, RecvTimeoutError as CbRecvTimeoutError, Sender as CbSender,
};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::sync::mpsc;
use tokio::sync::mpsc::error::RecvTimeoutError as ChanRecvTimeoutError;

/// Process-unique connection ids, assigned at construction. Fault
/// injectors key their per-connection decision streams on this.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// Frames larger than this are rejected on both send and receive — a
/// corrupt or hostile length prefix must not drive an allocation.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Per-connection traffic counters (monotonic snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Frames successfully sent.
    pub frames_sent: u64,
    /// Frames successfully received.
    pub frames_recv: u64,
    /// Payload bytes sent (excluding the 4-byte header).
    pub bytes_sent: u64,
    /// Payload bytes received (excluding the 4-byte header).
    pub bytes_recv: u64,
}

#[derive(Default)]
struct Counters {
    frames_sent: AtomicU64,
    frames_recv: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
}

/// Global-registry handles for this connection, resolved once at
/// creation so the per-frame cost is a pair of relaxed atomic adds.
/// Series are labelled by peer (`net.conn.frames_sent{peer=…}`).
struct ObsCounters {
    frames_sent: sitra_obs::Counter,
    frames_recv: sitra_obs::Counter,
    bytes_sent: sitra_obs::Counter,
    bytes_recv: sitra_obs::Counter,
    timeouts: sitra_obs::Counter,
    desyncs: sitra_obs::Counter,
}

impl ObsCounters {
    fn resolve(peer: &str) -> ObsCounters {
        let reg = sitra_obs::global();
        let named = |metric: &str| reg.counter(&format!("net.conn.{metric}{{peer={peer}}}"));
        reg.counter(&format!("net.conn.opened{{peer={peer}}}"))
            .inc();
        ObsCounters {
            frames_sent: named("frames_sent"),
            frames_recv: named("frames_recv"),
            bytes_sent: named("bytes_sent"),
            bytes_recv: named("bytes_recv"),
            timeouts: named("timeouts"),
            desyncs: named("desyncs"),
        }
    }
}

/// One unit of work for an in-process outbound sequencer task.
enum SeqItem {
    /// Forward now (in queue order).
    Now(Bytes),
    /// Hold the queue until the deadline, then forward.
    Held(Bytes, Instant),
}

/// Spawn the outbound sequencer for a channel-like backend: a runtime
/// task that forwards frames in queue order, sleeping through holds.
/// Exists only while a fault injector wants `Delay`/`Reorder` timing;
/// fault-free connections never pay for it.
fn spawn_sequencer<F>(forward: F) -> mpsc::UnboundedSender<SeqItem>
where
    F: Fn(Bytes) + Send + 'static,
{
    let (tx, mut rx) = mpsc::unbounded_channel();
    crate::rt::handle().spawn(async move {
        while let Some(item) = rx.recv().await {
            match item {
                SeqItem::Now(b) => forward(b),
                SeqItem::Held(b, deadline) => {
                    tokio::time::sleep_until(deadline).await;
                    forward(b);
                }
            }
        }
    });
    tx
}

enum Inner {
    InProc {
        // `Option` so close() can drop the halves, which is how the
        // peer observes the hangup.
        tx: Mutex<Option<CbSender<Bytes>>>,
        rx: Mutex<Option<CbReceiver<Bytes>>>,
        /// A spare sender into this side's *own* inbound queue, shared
        /// with the peer. `close()` pushes one empty frame through it
        /// so a `recv` blocked on another thread wakes and sees the
        /// close latch; whichever side closes first takes it, so the
        /// queue still disconnects when the peer hangs up.
        wake: Arc<Mutex<Option<CbSender<Bytes>>>>,
        /// The peer's `wake`, dropped on close with `tx`.
        peer_wake: Arc<Mutex<Option<CbSender<Bytes>>>>,
        /// Outbound sequencer, created by the first held send; once it
        /// exists every delivery routes through it so held frames keep
        /// their place in the order.
        seq: Mutex<Option<mpsc::UnboundedSender<SeqItem>>>,
    },
    Tcp {
        outbound: mpsc::Sender<WriteItem>,
        inbound: Mutex<mpsc::Receiver<Result<Bytes, NetError>>>,
        /// Direct handle for close() when the writer queue is wedged.
        stream: Arc<tokio::net::TcpStream>,
        /// Shared with the writer task: cancels parked holds on close.
        writer_closed: Arc<AtomicBool>,
        peer: SocketAddr,
    },
    Shm {
        /// Both ring halves; `close()` severs them lock-free, so it
        /// lands even mid-send/mid-recv.
        io: Arc<shm::ShmConn>,
        /// Outbound sequencer for fault `Delay`/`Reorder` timing, same
        /// lifecycle as the in-process one.
        seq: Mutex<Option<mpsc::UnboundedSender<SeqItem>>>,
        peer: String,
    },
}

/// One frame-oriented, bidirectional connection.
pub struct Connection {
    id: u64,
    peer_label: String,
    inner: Inner,
    counters: Counters,
    obs: ObsCounters,
    /// Local close() latch: operations after close fail fast.
    closed: AtomicBool,
}

impl Connection {
    pub(crate) fn inproc_pair() -> (Connection, Connection) {
        let (a2b_tx, a2b_rx) = crossbeam::channel::unbounded();
        let (b2a_tx, b2a_rx) = crossbeam::channel::unbounded();
        let a_wake = Arc::new(Mutex::new(Some(b2a_tx.clone())));
        let b_wake = Arc::new(Mutex::new(Some(a2b_tx.clone())));
        let mk = |tx, rx, wake, peer_wake| Connection {
            id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
            peer_label: "inproc".to_string(),
            inner: Inner::InProc {
                tx: Mutex::new(Some(tx)),
                rx: Mutex::new(Some(rx)),
                wake,
                peer_wake,
                seq: Mutex::new(None),
            },
            counters: Counters::default(),
            obs: ObsCounters::resolve("inproc"),
            closed: AtomicBool::new(false),
        };
        (
            mk(a2b_tx, b2a_rx, Arc::clone(&a_wake), Arc::clone(&b_wake)),
            mk(b2a_tx, a2b_rx, b_wake, a_wake),
        )
    }

    pub(crate) fn from_tcp(stream: std::net::TcpStream) -> Result<Connection, NetError> {
        let peer = stream.peer_addr()?;
        let parts = tcp::spawn_io(stream)?;
        Ok(Connection {
            id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
            peer_label: peer.to_string(),
            inner: Inner::Tcp {
                outbound: parts.outbound,
                inbound: Mutex::new(parts.inbound),
                stream: parts.stream,
                writer_closed: parts.closed,
                peer,
            },
            counters: Counters::default(),
            obs: ObsCounters::resolve(&peer.to_string()),
            closed: AtomicBool::new(false),
        })
    }

    pub(crate) fn from_shm(io: shm::ShmConn, peer: String) -> Connection {
        Connection {
            id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
            peer_label: peer.clone(),
            obs: ObsCounters::resolve(&peer),
            inner: Inner::Shm {
                io: Arc::new(io),
                seq: Mutex::new(None),
                peer,
            },
            counters: Counters::default(),
            closed: AtomicBool::new(false),
        }
    }

    /// This connection's process-unique id (stable for its lifetime;
    /// what fault injectors key their decision streams on).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Send one frame. When a [`crate::fault::FaultInjector`] is
    /// installed it decides this frame's fate first; see the fault
    /// module docs for each action's semantics.
    pub fn send(&self, payload: Bytes) -> Result<(), NetError> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(NetError::FrameTooLarge(payload.len()));
        }
        if self.closed.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        match fault::frame_action(self.id, &self.peer_label, payload.len()) {
            FaultAction::Deliver => self.enqueue(payload, None),
            FaultAction::Drop => {
                // Loss on a reliable transport: the frame vanishes and
                // the link dies with it (see fault module docs). The
                // sender believes the send succeeded.
                self.close();
                Ok(())
            }
            FaultAction::Delay(d) => self.enqueue(payload, Some(Instant::now() + d)),
            FaultAction::Reorder(d) => self.enqueue_reordered(payload, d),
            FaultAction::Duplicate => {
                self.enqueue(payload.clone(), None)?;
                self.enqueue(payload, None)
            }
            FaultAction::Cut => {
                self.close();
                Err(NetError::Closed)
            }
        }
    }

    /// Queue one frame for delivery, optionally held until a deadline
    /// (fault `Delay`: the queue stalls behind it, the sender does not).
    fn enqueue(&self, payload: Bytes, hold_until: Option<Instant>) -> Result<(), NetError> {
        let len = payload.len();
        match &self.inner {
            Inner::InProc { tx, seq, .. } => {
                let guard = tx.lock();
                let sender = guard.as_ref().ok_or(NetError::Closed)?;
                let mut seq_guard = seq.lock();
                if hold_until.is_some() && seq_guard.is_none() {
                    let fwd = sender.clone();
                    *seq_guard = Some(spawn_sequencer(move |b| {
                        let _ = fwd.send(b);
                    }));
                }
                match (&*seq_guard, hold_until) {
                    (Some(s), Some(deadline)) => s
                        .send(SeqItem::Held(payload, deadline))
                        .map_err(|_| NetError::Closed)?,
                    (Some(s), None) => s
                        .send(SeqItem::Now(payload))
                        .map_err(|_| NetError::Closed)?,
                    // Fault-free fast path: straight into the channel.
                    (None, _) => sender.send(payload).map_err(|_| NetError::Closed)?,
                }
            }
            Inner::Tcp { outbound, .. } => {
                let item = match hold_until {
                    Some(deadline) => WriteItem::Held(payload, deadline),
                    None => WriteItem::Frame(payload),
                };
                outbound.blocking_send(item).map_err(|_| NetError::Closed)?;
            }
            Inner::Shm { io, seq, .. } => {
                let mut seq_guard = seq.lock();
                if hold_until.is_some() && seq_guard.is_none() {
                    let fwd = Arc::clone(io);
                    *seq_guard = Some(spawn_sequencer(move |b: Bytes| {
                        let _ = fwd.producer.lock().send(&b);
                    }));
                }
                match (&*seq_guard, hold_until) {
                    (Some(s), Some(deadline)) => s
                        .send(SeqItem::Held(payload, deadline))
                        .map_err(|_| NetError::Closed)?,
                    (Some(s), None) => s
                        .send(SeqItem::Now(payload))
                        .map_err(|_| NetError::Closed)?,
                    // Fault-free fast path: straight into the ring.
                    (None, _) => io.producer.lock().send(&payload)?,
                }
            }
        }
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(len as u64, Ordering::Relaxed);
        self.obs.frames_sent.inc();
        self.obs.bytes_sent.add(len as u64);
        Ok(())
    }

    /// Fault `Reorder`: park the frame on a runtime timer and return
    /// immediately; frames sent in the meantime overtake it.
    fn enqueue_reordered(&self, payload: Bytes, delay: Duration) -> Result<(), NetError> {
        let len = payload.len();
        match &self.inner {
            Inner::InProc { tx, seq, .. } => {
                let guard = tx.lock();
                let sender = guard.as_ref().ok_or(NetError::Closed)?;
                let mut seq_guard = seq.lock();
                if seq_guard.is_none() {
                    let fwd = sender.clone();
                    *seq_guard = Some(spawn_sequencer(move |b| {
                        let _ = fwd.send(b);
                    }));
                }
                let seq_tx = seq_guard.as_ref().expect("sequencer just created").clone();
                crate::rt::handle().spawn(async move {
                    tokio::time::sleep(delay).await;
                    let _ = seq_tx.send(SeqItem::Now(payload));
                });
            }
            Inner::Tcp { outbound, .. } => {
                let out = outbound.clone();
                crate::rt::handle().spawn(async move {
                    tokio::time::sleep(delay).await;
                    let _ = out.send(WriteItem::Frame(payload)).await;
                });
            }
            Inner::Shm { io, seq, .. } => {
                let mut seq_guard = seq.lock();
                if seq_guard.is_none() {
                    let fwd = Arc::clone(io);
                    *seq_guard = Some(spawn_sequencer(move |b: Bytes| {
                        let _ = fwd.producer.lock().send(&b);
                    }));
                }
                let seq_tx = seq_guard.as_ref().expect("sequencer just created").clone();
                crate::rt::handle().spawn(async move {
                    tokio::time::sleep(delay).await;
                    let _ = seq_tx.send(SeqItem::Now(payload));
                });
            }
        }
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(len as u64, Ordering::Relaxed);
        self.obs.frames_sent.inc();
        self.obs.bytes_sent.add(len as u64);
        Ok(())
    }

    /// Receive the next frame, blocking until one arrives or the peer
    /// hangs up.
    pub fn recv(&self) -> Result<Bytes, NetError> {
        let payload = match &self.inner {
            Inner::InProc { rx, .. } => {
                let guard = rx.lock();
                let receiver = guard.as_ref().ok_or(NetError::Closed)?;
                let payload = receiver.recv().map_err(|_| NetError::Closed)?;
                if self.closed.load(Ordering::Acquire) {
                    return Err(NetError::Closed); // woken by close()
                }
                payload
            }
            Inner::Tcp { inbound, .. } => {
                let mut rx = inbound.lock();
                match rx.blocking_recv() {
                    Some(Ok(b)) => b,
                    Some(Err(e)) => {
                        self.obs_classify(&e);
                        return Err(e);
                    }
                    None => return Err(NetError::Closed),
                }
            }
            Inner::Shm { io, .. } => io.consumer.lock().recv(None).inspect_err(|e| {
                self.obs_classify(e);
            })?,
        };
        self.counters.frames_recv.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_recv
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.obs.frames_recv.inc();
        self.obs.bytes_recv.add(payload.len() as u64);
        Ok(payload)
    }

    /// Route an error into the right observability counter: a frame cap
    /// violation means the stream is desynchronized (corrupt or hostile
    /// length prefix); a timeout is a timeout.
    fn obs_classify(&self, e: &NetError) {
        match e {
            NetError::FrameTooLarge(_) => self.obs.desyncs.inc(),
            NetError::Timeout => self.obs.timeouts.inc(),
            _ => {}
        }
    }

    /// Receive the next frame, giving up after `timeout`. The timeout
    /// applies to the *start* of a frame; the reader task assembles
    /// partial frames off to the side, so a timeout here never leaves
    /// the stream desynchronized mid-frame.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, NetError> {
        let payload = self
            .recv_timeout_inner(timeout)
            .inspect_err(|e| self.obs_classify(e))?;
        self.counters.frames_recv.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_recv
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.obs.frames_recv.inc();
        self.obs.bytes_recv.add(payload.len() as u64);
        Ok(payload)
    }

    fn recv_timeout_inner(&self, timeout: Duration) -> Result<Bytes, NetError> {
        match &self.inner {
            Inner::InProc { rx, .. } => {
                let guard = rx.lock();
                let receiver = guard.as_ref().ok_or(NetError::Closed)?;
                let payload = receiver.recv_timeout(timeout).map_err(|e| match e {
                    CbRecvTimeoutError::Timeout => NetError::Timeout,
                    CbRecvTimeoutError::Disconnected => NetError::Closed,
                })?;
                if self.closed.load(Ordering::Acquire) {
                    return Err(NetError::Closed); // woken by close()
                }
                Ok(payload)
            }
            Inner::Tcp { inbound, .. } => {
                let mut rx = inbound.lock();
                match rx.blocking_recv_timeout(timeout) {
                    Ok(Ok(b)) => Ok(b),
                    Ok(Err(e)) => Err(e),
                    Err(ChanRecvTimeoutError::Timeout) => Err(NetError::Timeout),
                    Err(ChanRecvTimeoutError::Disconnected) => Err(NetError::Closed),
                }
            }
            Inner::Shm { io, .. } => io.consumer.lock().recv(Some(timeout)),
        }
    }

    /// Close the connection. Frames already queued are flushed first
    /// (`Close` travels the writer queue behind them); parked holds are
    /// cancelled. The peer's pending and future receives fail with
    /// [`NetError::Closed`]; local operations do too.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        match &self.inner {
            Inner::InProc {
                tx,
                rx,
                wake,
                peer_wake,
                seq,
            } => {
                // Dropping the sequencer sender lets its task drain the
                // queued frames, then release its channel clone — the
                // same flush-then-close the TCP writer provides.
                seq.lock().take();
                tx.lock().take();
                peer_wake.lock().take();
                // A recv blocked on another thread holds the `rx` lock:
                // wake it first, or taking `rx` would wait it out.
                if let Some(wake) = wake.lock().take() {
                    let _ = wake.send(Bytes::new());
                }
                rx.lock().take();
            }
            Inner::Tcp {
                outbound,
                stream,
                writer_closed,
                ..
            } => {
                writer_closed.store(true, Ordering::Release);
                if outbound.try_send(WriteItem::Close).is_err() {
                    // Writer queue full (wedged peer) or writer gone:
                    // close the socket out from under it.
                    let _ = stream.shutdown_std(std::net::Shutdown::Both);
                }
            }
            Inner::Shm { io, seq, .. } => {
                // Everything sent is already in the ring, so severing
                // the channels *is* flush-then-close; parked holds on
                // the sequencer die with it.
                seq.lock().take();
                io.close();
            }
        }
    }

    /// Snapshot of this connection's traffic counters.
    pub fn stats(&self) -> ConnStats {
        ConnStats {
            frames_sent: self.counters.frames_sent.load(Ordering::Relaxed),
            frames_recv: self.counters.frames_recv.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: self.counters.bytes_recv.load(Ordering::Relaxed),
        }
    }

    /// Peer description for diagnostics.
    pub fn peer(&self) -> String {
        match &self.inner {
            Inner::InProc { .. } => "inproc".to_string(),
            Inner::Tcp { peer, .. } => peer.to_string(),
            Inner::Shm { peer, .. } => peer.clone(),
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.close();
    }
}

pub(crate) fn shm_connect(name: &str) -> Result<Connection, NetError> {
    // The fault-injection partition check happens inside the
    // rendezvous (it needs the label anyway).
    let io = shm::shm_connect(name)?;
    Ok(Connection::from_shm(io, format!("shm://{name}")))
}

pub(crate) fn tcp_connect(sa: SocketAddr) -> Result<Connection, NetError> {
    // A fault injector can refuse the dial outright — a partition.
    if !fault::connect_allowed(&format!("tcp://{sa}")) {
        return Err(NetError::Refused(sa.to_string()));
    }
    match std::net::TcpStream::connect(sa) {
        Ok(s) => Connection::from_tcp(s),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
            Err(NetError::Refused(sa.to_string()))
        }
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Arc as StdArc;

    #[test]
    fn inproc_roundtrip_and_counters() {
        let (a, b) = Connection::inproc_pair();
        a.send(Bytes::from_static(b"hello")).unwrap();
        a.send(Bytes::new()).unwrap();
        assert_eq!(b.recv().unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(b.recv().unwrap(), Bytes::new());
        b.send(Bytes::from_static(b"yo")).unwrap();
        assert_eq!(a.recv().unwrap(), Bytes::from_static(b"yo"));
        let sa = a.stats();
        assert_eq!((sa.frames_sent, sa.bytes_sent), (2, 5));
        assert_eq!((sa.frames_recv, sa.bytes_recv), (1, 2));
        let sb = b.stats();
        assert_eq!((sb.frames_sent, sb.frames_recv), (1, 2));
    }

    #[test]
    fn inproc_close_wakes_peer() {
        let (a, b) = Connection::inproc_pair();
        let h = std::thread::spawn(move || b.recv());
        std::thread::sleep(Duration::from_millis(20));
        a.close();
        assert!(matches!(h.join().unwrap(), Err(NetError::Closed)));
        assert!(matches!(a.send(Bytes::new()), Err(NetError::Closed)));
    }

    #[test]
    fn inproc_recv_timeout() {
        let (a, b) = Connection::inproc_pair();
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        ));
        a.send(Bytes::from_static(b"x")).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)).unwrap(),
            Bytes::from_static(b"x")
        );
    }

    #[test]
    fn hostile_length_prefix_rejected_without_allocating() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let sa = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // A header claiming a 4 GiB-1 frame.
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(50));
        });
        let c = tcp_connect(sa).unwrap();
        assert!(matches!(c.recv(), Err(NetError::FrameTooLarge(_))));
        server.join().unwrap();
    }

    #[test]
    fn tcp_roundtrip_large_frame() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let sa = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let c = Connection::from_tcp(s).unwrap();
            let m = c.recv().unwrap();
            c.send(m).unwrap();
            let stats = c.stats();
            // Flush before the connection drops: wait for the peer to
            // hang up after reading our echo.
            let _ = c.recv();
            stats
        });
        let c = tcp_connect(sa).unwrap();
        // Larger than any socket buffer so the write exercises partial
        // progress on both sides.
        let big = Bytes::from((0..1_000_000u32).map(|i| i as u8).collect::<Vec<_>>());
        c.send(big.clone()).unwrap();
        assert_eq!(c.recv().unwrap(), big);
        c.close();
        let stats = server.join().unwrap();
        assert_eq!(stats.bytes_recv, 1_000_000);
        assert_eq!(stats.frames_sent, 1);
    }

    #[test]
    fn tcp_small_frame_does_not_pin_the_read_buffer() {
        // A receiver that keeps a small payload (the staging space
        // does) must keep about that many bytes, not the 16 KiB scratch
        // buffer the read went into.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let sa = listener.local_addr().unwrap();
        let payload = [7u8; 65];
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut wire = crate::frame::encode_header(payload.len()).to_vec();
            wire.extend_from_slice(&payload);
            s.write_all(&wire).unwrap();
            s.flush().unwrap();
            wire.len()
        });
        let c = tcp_connect(sa).unwrap();
        let frame = c.recv().unwrap();
        let read = server.join().unwrap();
        assert_eq!(frame.as_slice(), &payload[..]);
        assert!(
            frame.storage_capacity() <= read,
            "a {}-byte frame keeps {} bytes allocated",
            frame.len(),
            frame.storage_capacity()
        );
    }

    #[test]
    fn tcp_peer_close_is_observed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let sa = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let c = Connection::from_tcp(s).unwrap();
            drop(c); // hang up immediately
        });
        let c = tcp_connect(sa).unwrap();
        server.join().unwrap();
        assert!(matches!(c.recv(), Err(NetError::Closed)));
    }

    #[test]
    fn tcp_recv_timeout_preserves_framing() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let sa = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(60));
            // Write the frame in two chunks with a pause in between so a
            // client timeout can land mid-header.
            let payload = b"delayed";
            let header = (payload.len() as u32).to_le_bytes();
            s.write_all(&header[..2]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(40));
            s.write_all(&header[2..]).unwrap();
            s.write_all(payload).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(100));
        });
        let c = StdArc::new(tcp_connect(sa).unwrap());
        // First waits time out without consuming header bytes...
        assert!(matches!(
            c.recv_timeout(Duration::from_millis(15)),
            Err(NetError::Timeout)
        ));
        // ...so the frame still arrives intact afterwards.
        assert_eq!(
            c.recv_timeout(Duration::from_millis(500)).unwrap(),
            Bytes::from_static(b"delayed")
        );
        server.join().unwrap();
    }

    #[test]
    fn tcp_send_then_close_still_delivers() {
        // The close travels the writer queue behind queued frames, so
        // nothing sent before close() is lost.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let sa = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let c = Connection::from_tcp(s).unwrap();
            let mut got = Vec::new();
            while let Ok(m) = c.recv() {
                got.push(m);
            }
            got
        });
        let c = tcp_connect(sa).unwrap();
        for i in 0..64u8 {
            c.send(Bytes::from(vec![i; 100])).unwrap();
        }
        c.close();
        let got = server.join().unwrap();
        assert_eq!(got.len(), 64);
        for (i, m) in got.iter().enumerate() {
            assert_eq!(m.as_slice(), &vec![i as u8; 100][..]);
        }
    }
}
