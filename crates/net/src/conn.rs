//! The connection handle: length-prefixed frames over any backend,
//! with per-connection traffic counters.
//!
//! Every operation runs on the calling thread, on both backends: a TCP
//! connection owns its socket ([`crate::tcp`]) — `send` is a `write`,
//! `recv` a `read` — and the in-process backend is a pair of channels.
//! Both meet the same contract, so everything above `sitra-net` is
//! transport-agnostic.
//!
//! A frame is sent as a [`Frame`], parts whose concatenation is the
//! payload (`Bytes` is the one-part case). A fault-free `tcp://` link
//! writes the parts as they are; they are joined once, into one
//! allocation, where a frame has to be one buffer: on the `inproc://`
//! queue, on entering the sequencer, and for a frame the injector
//! faults — which it sees once, at its full length.
//!
//! Fault injection rides the same seam: the injector is consulted
//! synchronously in `send` (keeping scheduled-fault decision streams
//! deterministic), but `Delay`/`Reorder` never sleep the sender. The
//! first held frame gives its connection an outbound *sequencer* — a
//! thread of its own, `net-seq-<id>`, that from then on forwards
//! everything the connection sends, in order, waiting out holds in a
//! timed receive — so a delayed frame stalls the frames behind it
//! while the sender carries on immediately, and a write blocked on one
//! connection stalls no other. It is the same on every backend, and
//! fault-free connections never pay for it.

use crate::fault::{self, FaultAction};
use crate::frame::Frame;
use crate::tcp::TcpIo;
use crate::NetError;
use bytes::Bytes;
use crossbeam::channel::{
    Receiver as CbReceiver, RecvTimeoutError as CbRecvTimeoutError, Sender as CbSender,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Socket writes that moved bytes (`0` on `inproc://`): what "one
    /// flush" means, as a count.
    pub writes: u64,
    /// Socket reads that moved bytes (`0` on `inproc://`).
    pub reads: u64,
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
/// Series are labelled by peer: `net.conn.frames_sent{peer=10.0.0.7:7788}`
/// on a dialed `tcp://` connection, `{peer=10.0.0.9}` on an accepted one.
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

/// What a connection's sequencer is to do with one frame.
#[derive(Clone, Copy)]
enum Hold {
    /// Forward it in line.
    None,
    /// Forward it in line, holding the line until then (fault `Delay`).
    Line(Instant),
    /// Park it off to the side until then, when it joins the line
    /// (fault `Reorder`).
    Aside(Instant),
}

enum Backend {
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
    },
    Tcp(TcpIo),
}

/// What a connection shares with its sequencer thread: the backend and
/// the close latch.
struct Link {
    backend: Backend,
    /// Local close() latch: operations after close fail fast.
    closed: AtomicBool,
}

impl Link {
    /// Hand `frames` to the backend, in order, on the calling thread.
    fn deliver(&self, frames: &[Frame]) -> Result<(), NetError> {
        match &self.backend {
            Backend::InProc { tx, .. } => {
                let guard = tx.lock();
                let sender = guard.as_ref().ok_or(NetError::Closed)?;
                for frame in frames {
                    sender.send(frame.join()).map_err(|_| NetError::Closed)?;
                }
                Ok(())
            }
            Backend::Tcp(io) => io.write_frames(frames),
        }
    }

    /// Sever both directions. Everything delivered so far still reaches
    /// the peer, ahead of the hangup.
    fn sever(&self) {
        match &self.backend {
            Backend::InProc {
                tx,
                rx,
                wake,
                peer_wake,
            } => {
                tx.lock().take();
                peer_wake.lock().take();
                // A recv blocked on another thread holds the `rx` lock:
                // wake it first, or taking `rx` would wait it out.
                if let Some(wake) = wake.lock().take() {
                    let _ = wake.send(Bytes::new());
                }
                rx.lock().take();
            }
            Backend::Tcp(io) => io.shutdown(),
        }
    }
}

/// Start connection `id`'s outbound sequencer, a thread of its own
/// (`net-seq-<id>`), and return the sender it serves. The thread is
/// detached: one blocked writing to a peer that stopped reading ends
/// only when that peer goes, and `close()` must not wait for it.
fn spawn_sequencer(id: u64, link: Arc<Link>) -> std::io::Result<CbSender<(Bytes, Hold)>> {
    let (tx, rx) = crossbeam::channel::unbounded();
    std::thread::Builder::new()
        .name(format!("net-seq-{id}"))
        .spawn(move || sequence(&rx, &link))?;
    Ok(tx)
}

/// The sequencer's loop. It forwards frames in the order they were
/// sent, holding the line until a `Delay`ed frame is due; a `Reorder`ed
/// frame waits off to the side and, once released, goes behind every
/// frame sent before its release. Its only wait is the receive, with
/// the next hold or release as deadline, so `close()` — which drops the
/// last sender — wakes it at once. A forward is the backend's blocking
/// write: a peer that stops reading stalls this connection and no other.
fn sequence(rx: &CbReceiver<(Bytes, Hold)>, link: &Link) {
    // Entries carry their send index: the close rule cuts on it.
    let mut line: VecDeque<(u64, Bytes, Option<Instant>)> = VecDeque::new();
    let mut aside: BTreeMap<(Instant, u64), Bytes> = BTreeMap::new();
    for n in 0u64.. {
        let now = Instant::now();
        while let Some(due) = aside.first_entry().filter(|e| e.key().0 <= now) {
            let ((_, sent), frame) = due.remove_entry();
            line.push_back((sent, frame, None));
        }
        while line.front().is_some_and(|e| e.2.is_none_or(|t| t <= now)) {
            let (_, frame, _) = line.pop_front().expect("front exists");
            let _ = link.deliver(&[frame.into()]);
        }
        let wake = line.front().and_then(|e| e.2);
        let wake = wake.into_iter().chain(aside.keys().map(|k| k.0)).min();
        let next = match wake {
            Some(deadline) => rx.recv_deadline(deadline),
            None => rx.recv().map_err(|_| CbRecvTimeoutError::Disconnected),
        };
        match next {
            Ok((frame, Hold::None)) => line.push_back((n, frame, None)),
            Ok((frame, Hold::Line(t))) => line.push_back((n, frame, Some(t))),
            Ok((frame, Hold::Aside(t))) => {
                aside.insert((t, n), frame);
            }
            Err(CbRecvTimeoutError::Timeout) => {}
            Err(CbRecvTimeoutError::Disconnected) => break,
        }
    }
    // Closed. A frame still goes out only if it was sent before the
    // first `Delay` still parked: the peer sees a prefix of what was
    // sent, never a gap, and then the hang-up.
    let cut = line
        .iter()
        .find(|e| e.2.is_some())
        .map_or(u64::MAX, |e| e.0);
    let lined = line.into_iter().map(|(n, frame, _)| (n, frame));
    let parked = aside.into_iter().map(|((_, n), frame)| (n, frame));
    let rest: Vec<Frame> = lined
        .chain(parked)
        .filter_map(|(n, frame)| (n < cut).then(|| frame.into()))
        .collect();
    let _ = link.deliver(&rest);
    link.sever();
}

/// One frame-oriented, bidirectional connection.
pub struct Connection {
    id: u64,
    peer_label: String,
    link: Arc<Link>,
    /// Outbound sequencer, created by the first held send; once it
    /// exists every delivery routes through it so held frames keep
    /// their place in the order.
    seq: Mutex<Option<CbSender<(Bytes, Hold)>>>,
    counters: Counters,
    obs: ObsCounters,
}

impl Connection {
    fn new(backend: Backend, peer_label: String) -> Connection {
        Connection {
            id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
            obs: ObsCounters::resolve(&peer_label),
            peer_label,
            link: Arc::new(Link {
                backend,
                closed: AtomicBool::new(false),
            }),
            seq: Mutex::new(None),
            counters: Counters::default(),
        }
    }

    pub(crate) fn inproc_pair() -> (Connection, Connection) {
        let (a2b_tx, a2b_rx) = crossbeam::channel::unbounded();
        let (b2a_tx, b2a_rx) = crossbeam::channel::unbounded();
        let a_wake = Arc::new(Mutex::new(Some(b2a_tx.clone())));
        let b_wake = Arc::new(Mutex::new(Some(a2b_tx.clone())));
        let mk = |tx, rx, wake, peer_wake| {
            Connection::new(
                Backend::InProc {
                    tx: Mutex::new(Some(tx)),
                    rx: Mutex::new(Some(rx)),
                    wake,
                    peer_wake,
                },
                "inproc".to_string(),
            )
        };
        (
            mk(a2b_tx, b2a_rx, Arc::clone(&a_wake), Arc::clone(&b_wake)),
            mk(b2a_tx, a2b_rx, b_wake, a_wake),
        )
    }

    /// An `accepted` connection is labelled by the peer's IP alone, so
    /// one host registers the same `net.conn.*` series however many
    /// connections it opens (a heartbeat dials once a period); a dialed
    /// one keeps `host:port`, which names the server.
    pub(crate) fn from_tcp(
        stream: std::net::TcpStream,
        accepted: bool,
    ) -> Result<Connection, NetError> {
        let peer = stream.peer_addr()?;
        let peer = if accepted {
            peer.ip().to_string()
        } else {
            peer.to_string()
        };
        Ok(Connection::new(
            Backend::Tcp(TcpIo::new(stream, &peer)),
            peer,
        ))
    }

    /// This connection's process-unique id (stable for its lifetime;
    /// what fault injectors key their decision streams on).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// What every send checks before the injector sees the frame.
    fn sendable(&self, payload: &Frame) -> Result<(), NetError> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(NetError::FrameTooLarge(payload.len()));
        }
        if self.link.closed.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        Ok(())
    }

    /// Send one frame: [`Self::send_all`] of one. When a
    /// [`crate::fault::FaultInjector`] is installed it decides this
    /// frame's fate first; see the fault module docs for each action's
    /// semantics.
    pub fn send(&self, payload: impl Into<Frame>) -> Result<(), NetError> {
        self.send_all(&[payload.into()])
    }

    /// Send `frames` back to back — over `tcp://` as one vectored
    /// write, which is what makes a batch one flush. The injector is
    /// consulted once per frame, in order: the frames ahead of the
    /// first fault share the write, the faulted one (joined) and those
    /// behind it go one at a time.
    pub fn send_all(&self, frames: &[Frame]) -> Result<(), NetError> {
        frames.iter().try_for_each(|frame| self.sendable(frame))?;
        let mut clean = 0;
        let mut faulted = None;
        for frame in frames {
            match fault::frame_action(self.id, &self.peer_label, frame) {
                FaultAction::Deliver => clean += 1,
                action => {
                    faulted = Some(action);
                    break;
                }
            }
        }
        self.dispatch(&frames[..clean], Hold::None)?;
        if let Some(action) = faulted {
            self.apply(action, frames[clean].join())?;
            for frame in &frames[clean + 1..] {
                self.send(frame.clone())?;
            }
        }
        Ok(())
    }

    /// Carry out the injector's decision for one frame.
    fn apply(&self, action: FaultAction, payload: Bytes) -> Result<(), NetError> {
        let frame = Frame::from(payload);
        match action {
            FaultAction::Deliver => self.dispatch(&[frame], Hold::None),
            FaultAction::Drop => {
                // Loss on a reliable transport: the frame vanishes and
                // the link dies with it (see fault module docs). The
                // sender believes the send succeeded.
                self.close();
                Ok(())
            }
            FaultAction::Delay(d) => self.dispatch(&[frame], Hold::Line(Instant::now() + d)),
            FaultAction::Reorder(d) => self.dispatch(&[frame], Hold::Aside(Instant::now() + d)),
            FaultAction::Duplicate => self.dispatch(&[frame.clone(), frame], Hold::None),
            FaultAction::Cut => {
                self.close();
                Err(NetError::Closed)
            }
        }
    }

    /// This connection's sequencer, if it has one — or, for a frame
    /// that must be held, in any case.
    fn sequencer(&self, create: bool) -> Result<Option<CbSender<(Bytes, Hold)>>, NetError> {
        let mut seq = self.seq.lock();
        if create && seq.is_none() {
            *seq = Some(spawn_sequencer(self.id, Arc::clone(&self.link))?);
        }
        Ok(seq.clone())
    }

    /// Deliver `frames` in order (fault `Delay` and `Reorder`: held as
    /// `hold` says, while the sender carries on): straight to the
    /// backend, or through the sequencer once there is one.
    fn dispatch(&self, frames: &[Frame], hold: Hold) -> Result<(), NetError> {
        match self.sequencer(!matches!(hold, Hold::None))? {
            Some(seq) => {
                for frame in frames {
                    seq.send((frame.join(), hold))
                        .map_err(|_| NetError::Closed)?;
                }
            }
            // Fault-free fast path.
            None => self.link.deliver(frames)?,
        }
        self.count_sent(frames);
        Ok(())
    }

    fn count_sent(&self, frames: &[Frame]) {
        let bytes: usize = frames.iter().map(Frame::len).sum();
        self.counters
            .frames_sent
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.obs.frames_sent.add(frames.len() as u64);
        self.obs.bytes_sent.add(bytes as u64);
    }

    /// Receive the next frame, blocking until one arrives or the peer
    /// hangs up.
    pub fn recv(&self) -> Result<Bytes, NetError> {
        self.recv_within(None)
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

    /// Receive the next frame, giving up after `timeout`; a zero
    /// timeout is one non-blocking look that returns a frame only if it
    /// has already arrived. A timeout never leaves the stream
    /// desynchronized mid-frame: what has been read of a partial frame
    /// stays with the connection.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, NetError> {
        self.recv_within(Some(timeout))
    }

    fn recv_within(&self, timeout: Option<Duration>) -> Result<Bytes, NetError> {
        let payload = self
            .recv_inner(timeout)
            .inspect_err(|e| self.obs_classify(e))?;
        self.counters.frames_recv.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_recv
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.obs.frames_recv.inc();
        self.obs.bytes_recv.add(payload.len() as u64);
        Ok(payload)
    }

    fn recv_inner(&self, timeout: Option<Duration>) -> Result<Bytes, NetError> {
        if self.link.closed.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        match &self.link.backend {
            Backend::InProc { rx, .. } => {
                let guard = rx.lock();
                let receiver = guard.as_ref().ok_or(NetError::Closed)?;
                let payload = match timeout {
                    None => receiver.recv().map_err(|_| NetError::Closed)?,
                    Some(t) => receiver.recv_timeout(t).map_err(|e| match e {
                        CbRecvTimeoutError::Timeout => NetError::Timeout,
                        CbRecvTimeoutError::Disconnected => NetError::Closed,
                    })?,
                };
                if self.link.closed.load(Ordering::Acquire) {
                    return Err(NetError::Closed); // woken by close()
                }
                Ok(payload)
            }
            Backend::Tcp(io) => io.read_frame(timeout),
        }
    }

    /// Whether the next receive would return a frame without waiting
    /// *or* a syscall: one this connection has already read off its
    /// socket and decoded. Always `false` on `inproc://`, where a send
    /// costs no syscall and so there is nothing to batch.
    pub fn has_decoded_frame(&self) -> bool {
        match &self.link.backend {
            Backend::Tcp(io) => io.has_decoded_frame(),
            _ => false,
        }
    }

    /// Close the connection. Everything sent before is delivered first
    /// — up to a `Delay` still parked, which is cancelled with all sent
    /// behind it (a sequencer, woken by the close, severs the link
    /// itself). The peer's pending and future receives fail with
    /// [`NetError::Closed`]; local operations do too, including a
    /// `recv` blocked on another thread.
    pub fn close(&self) {
        if self.link.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        if self.seq.lock().take().is_none() {
            self.link.sever();
        }
    }

    /// Snapshot of this connection's traffic counters.
    pub fn stats(&self) -> ConnStats {
        let (writes, reads) = match &self.link.backend {
            Backend::Tcp(io) => io.syscalls(),
            _ => (0, 0),
        };
        ConnStats {
            frames_sent: self.counters.frames_sent.load(Ordering::Relaxed),
            frames_recv: self.counters.frames_recv.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: self.counters.bytes_recv.load(Ordering::Relaxed),
            writes,
            reads,
        }
    }

    /// Peer description for diagnostics.
    pub fn peer(&self) -> String {
        self.peer_label.clone()
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.close();
    }
}

pub(crate) fn tcp_connect(sa: SocketAddr) -> Result<Connection, NetError> {
    // A fault injector can refuse the dial outright — a partition.
    if !fault::connect_allowed(&format!("tcp://{sa}")) {
        return Err(NetError::Refused(sa.to_string()));
    }
    match std::net::TcpStream::connect(sa) {
        Ok(s) => Connection::from_tcp(s, false),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
            Err(NetError::Refused(sa.to_string()))
        }
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tcp_pair;
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
            let c = Connection::from_tcp(s, true).unwrap();
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
    fn tcp_kept_spanning_frame_does_not_pin_a_larger_spare() {
        // A connection reads a large frame into its last large frame's
        // buffer once that is free; a much smaller frame that the
        // receiver keeps must not land in (and pin) a buffer sized for
        // the large one, whether it is short of the spare threshold or
        // past it.
        const KEPT: [usize; 2] = [100 << 10, 300 << 10];
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let sa = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let c = Connection::from_tcp(s, true).unwrap();
            for len in KEPT {
                c.send(Bytes::from(vec![1u8; 1 << 20])).unwrap();
                // The next frame goes out once the large one is dropped.
                assert_eq!(c.recv().unwrap(), b"dropped"[..]);
                c.send(Bytes::from(vec![2u8; len])).unwrap();
            }
            let _ = c.recv();
        });
        let c = tcp_connect(sa).unwrap();
        let mut kept = Vec::new();
        for len in KEPT {
            assert_eq!(c.recv().unwrap().len(), 1 << 20);
            c.send(Bytes::from_static(b"dropped")).unwrap();
            let frame = c.recv().unwrap();
            assert_eq!(frame.as_slice(), &vec![2u8; len][..]);
            assert!(
                frame.storage_capacity() <= 2 * frame.len(),
                "a {}-byte frame keeps {} bytes allocated",
                frame.len(),
                frame.storage_capacity()
            );
            kept.push(frame);
        }
        c.close();
        server.join().unwrap();
    }

    #[test]
    fn tcp_peer_close_is_observed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let sa = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let c = Connection::from_tcp(s, true).unwrap();
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
        // Every send has handed its frame to the kernel by the time it
        // returns, so nothing sent before close() is lost.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let sa = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let c = Connection::from_tcp(s, true).unwrap();
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

    /// The payload sender `who` puts in its `seq`-th frame: recomputable
    /// by the receiver from the first eight bytes alone.
    fn patterned(who: u32, seq: u32) -> Vec<u8> {
        let len = [8, 100, 3_000, 40_000][(seq % 4) as usize];
        let mut v = Vec::with_capacity(len);
        v.extend_from_slice(&who.to_le_bytes());
        v.extend_from_slice(&seq.to_le_bytes());
        let mut x = u64::from(who) << 32 | u64::from(seq);
        while v.len() < len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push((x >> 56) as u8);
        }
        v
    }

    #[test]
    fn concurrent_senders_never_interleave_frames() {
        const PER_SENDER: u32 = 5_000;
        let (a, b) = tcp_pair();
        std::thread::scope(|s| {
            for who in 0..2u32 {
                let a = &a;
                s.spawn(move || {
                    for seq in 0..PER_SENDER {
                        a.send(Bytes::from(patterned(who, seq))).unwrap();
                    }
                });
            }
            // Every frame is whole and each sender's frames are in
            // order; only the two streams interleave.
            let mut next = [0u32; 2];
            for _ in 0..2 * PER_SENDER {
                let frame = b.recv().unwrap();
                let who = u32::from_le_bytes(frame.as_slice()[..4].try_into().unwrap());
                let seq = u32::from_le_bytes(frame.as_slice()[4..8].try_into().unwrap());
                assert_eq!(seq, next[who as usize], "sender {who} out of order");
                assert!(
                    frame.as_slice() == patterned(who, seq),
                    "frame {who}/{seq} torn"
                );
                next[who as usize] += 1;
            }
        });
        assert_eq!(b.stats().frames_recv, u64::from(2 * PER_SENDER));
    }

    #[test]
    fn a_large_batch_reaches_a_reader_of_single_bytes_intact() {
        // 1 MiB and two thousand five-byte frames behind it, in one
        // `send_all`, against a reader that takes one byte at a time:
        // however the kernel cuts the write up, the stream is whole.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let c = tcp_connect(listener.local_addr().unwrap()).unwrap();
        let (mut raw, _) = listener.accept().unwrap();
        let mut batch = vec![Bytes::from(patterned(7, 3).repeat(27))];
        batch.extend((0..2_000u32).map(|i| Bytes::from(vec![i as u8])));
        let wire_len: usize = batch
            .iter()
            .map(|f| crate::frame::HEADER_LEN + f.len())
            .sum();
        let got = std::thread::scope(|s| {
            let reader = s.spawn(move || {
                use std::io::Read;
                let mut dec = crate::frame::FrameDecoder::new();
                let mut frames = Vec::new();
                let mut byte = [0u8; 1];
                for _ in 0..wire_len {
                    raw.read_exact(&mut byte).unwrap();
                    dec.feed(Bytes::from(byte.to_vec()), &mut frames).unwrap();
                }
                assert!(dec.is_at_boundary());
                frames
            });
            let frames: Vec<Frame> = batch.iter().cloned().map(Frame::from).collect();
            c.send_all(&frames).unwrap();
            reader.join().unwrap()
        });
        assert!(got == batch);
    }

    #[test]
    fn tcp_counts_the_syscalls_that_moved_bytes() {
        let (a, b) = tcp_pair();
        // A lone round trip: one write and one read per side.
        a.send(Bytes::from_static(b"ping")).unwrap();
        b.send(b.recv().unwrap()).unwrap();
        a.recv().unwrap();
        for stats in [a.stats(), b.stats()] {
            assert_eq!((stats.writes, stats.reads), (1, 1));
        }
        // A batch is one write, and what one read decoded is handed
        // out without going back to the socket.
        let batch: Vec<Bytes> = (0..5u8).map(|i| Bytes::from(vec![i; 65])).collect();
        let frames: Vec<Frame> = batch.iter().cloned().map(Frame::from).collect();
        a.send_all(&frames).unwrap();
        assert_eq!(a.stats().writes, 2);
        assert!(!b.has_decoded_frame());
        for want in &batch {
            assert_eq!(&b.recv().unwrap(), want);
        }
        assert!(!b.has_decoded_frame());
        assert_eq!(b.stats().frames_recv, 6);
        assert!(
            b.stats().reads < 6,
            "{} reads for one write",
            b.stats().reads
        );
        // inproc:// has no socket to count.
        let (x, y) = Connection::inproc_pair();
        x.send(Bytes::from_static(b"x")).unwrap();
        y.recv().unwrap();
        assert_eq!((x.stats().writes, y.stats().reads), (0, 0));
    }
}
