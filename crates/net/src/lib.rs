//! # sitra-net
//!
//! A framed, connection-oriented message transport for the remote
//! staging deployment mode: the same staging framework the paper runs
//! over DART/Gemini, carried here over plain sockets so the staging
//! area can live in a different process (or machine) from the
//! simulation.
//!
//! Two pluggable backends behind one [`Connection`] / [`Listener`]
//! API:
//!
//! * **`inproc://name`** — crossbeam channels through a process-global
//!   registry. Deterministic, zero-syscall; what unit tests use.
//! * **`tcp://host:port`** — a socket the connection owns and the
//!   calling thread drives: `send` is one vectored `write`
//!   ([`Connection::send_all`] puts a whole batch in it), `recv` a
//!   `read` through the connection's own frame decoder. A frame goes
//!   out as a [`Frame`] of parts, gathered by the write rather than
//!   joined, and comes in as one [`bytes::Bytes`] (a zero-copy slice
//!   out of a coalesced read). There is no runtime, reactor or I/O
//!   thread: a harness that holds thousands of connections drives them
//!   from a few threads of its own.
//!
//! The paper's DART/RDMA data movement is modelled by `sitra-dart`;
//! this crate only carries the staging protocol between processes.
//!
//! Every connection carries [`ConnStats`] counters (frames/bytes in
//! each direction, and the socket syscalls that moved them), and [`connect_retry`] layers bounded
//! exponential-backoff reconnection over any backend — the
//! mechanism remote staging clients use to survive a dropped
//! connection without losing tasks (the server side requeues any task
//! whose hand-off was never acknowledged).

#![deny(unsafe_code)]

mod conn;
pub mod fault;
pub mod frame;
mod listener;
mod sys;
mod tcp;

pub use conn::{ConnStats, Connection, MAX_FRAME_LEN};
pub use fault::{install_fault_injector, FaultAction, FaultInjector};
pub use frame::Frame;
pub use listener::{serve, Listener, ServerHandle};
pub use tcp::PIPELINE_DEPTH;

use std::net::SocketAddr;
use std::time::Duration;

/// Transport-layer failure.
#[derive(Debug)]
pub enum NetError {
    /// Peer closed the connection (or it was closed locally).
    Closed,
    /// A timed operation elapsed without completing.
    Timeout,
    /// A frame exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// An address string did not parse.
    BadAddr(String),
    /// No listener at the target address.
    Refused(String),
    /// Underlying socket error.
    Io(std::io::Error),
}

impl NetError {
    /// Whether the failure is transient: reconnecting (or simply
    /// retrying) can succeed. A closed or refused connection may come
    /// back (server restart), and a timeout may clear; a bad address or
    /// an oversized frame will fail identically every time.
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::Closed | NetError::Timeout | NetError::Refused(_) | NetError::Io(_) => true,
            NetError::FrameTooLarge(_) | NetError::BadAddr(_) => false,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Closed => write!(f, "connection closed"),
            NetError::Timeout => write!(f, "operation timed out"),
            NetError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds the frame cap"),
            NetError::BadAddr(s) => write!(f, "unparseable address `{s}`"),
            NetError::Refused(s) => write!(f, "connection to `{s}` refused"),
            NetError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotConnected => NetError::Closed,
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout,
            _ => NetError::Io(e),
        }
    }
}

/// A transport address: which backend, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// In-process endpoint named in the global registry.
    InProc(String),
    /// TCP socket address.
    Tcp(SocketAddr),
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::InProc(name) => write!(f, "inproc://{name}"),
            Addr::Tcp(sa) => write!(f, "tcp://{sa}"),
        }
    }
}

impl std::str::FromStr for Addr {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, NetError> {
        if let Some(name) = s.strip_prefix("inproc://") {
            if name.is_empty() {
                return Err(NetError::BadAddr(s.to_string()));
            }
            return Ok(Addr::InProc(name.to_string()));
        }
        if let Some(sa) = s.strip_prefix("tcp://") {
            return sa
                .parse::<SocketAddr>()
                .map(Addr::Tcp)
                .map_err(|_| NetError::BadAddr(s.to_string()));
        }
        Err(NetError::BadAddr(s.to_string()))
    }
}

/// Bounded exponential backoff policy for [`connect_retry`].
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// Delay before the first retry.
    pub initial: Duration,
    /// Ceiling on any single delay.
    pub max: Duration,
    /// Total connection attempts (>= 1).
    pub attempts: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            initial: Duration::from_millis(10),
            max: Duration::from_millis(500),
            attempts: 8,
        }
    }
}

/// Open a connection to `addr` with a single attempt.
pub fn connect(addr: &Addr) -> Result<Connection, NetError> {
    match addr {
        Addr::InProc(name) => listener::inproc_connect(name),
        Addr::Tcp(sa) => conn::tcp_connect(*sa),
    }
}

/// Open a connection, retrying with bounded exponential backoff
/// (doubling from `initial` up to `max`, at most `attempts` tries).
///
/// Reconnection is observable: every failed attempt increments
/// `net.connect.failures{peer=…}`, and a success after at least one
/// failure increments `net.connect.reconnects{peer=…}` — the signal a
/// live deployment watches to spot flapping staging links.
pub fn connect_retry(addr: &Addr, backoff: &Backoff) -> Result<Connection, NetError> {
    let reg = sitra_obs::global();
    let failures = reg.counter(&format!("net.connect.failures{{peer={addr}}}"));
    let reconnects = reg.counter(&format!("net.connect.reconnects{{peer={addr}}}"));
    let mut delay = backoff.initial;
    let mut last = NetError::Refused(addr.to_string());
    for attempt in 0..backoff.attempts.max(1) {
        match connect(addr) {
            Ok(c) => {
                if attempt > 0 {
                    reconnects.inc();
                }
                return Ok(c);
            }
            Err(e) => {
                failures.inc();
                last = e;
            }
        }
        if attempt + 1 < backoff.attempts.max(1) {
            std::thread::sleep(delay);
            delay = (delay * 2).min(backoff.max);
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// A connected pair on every scheme — `(scheme, dialled, accepted)`
    /// — on endpoints named after `tag`.
    pub(crate) fn pairs(tag: &str) -> Vec<(&'static str, Connection, Connection)> {
        [
            ("inproc", format!("inproc://{tag}")),
            ("tcp", "tcp://127.0.0.1:0".to_string()),
        ]
        .into_iter()
        .map(|(scheme, addr)| {
            let l = Listener::bind(&addr.parse().unwrap()).unwrap();
            let (dialled, accepted) = std::thread::scope(|s| {
                let accepting = s.spawn(|| l.accept().unwrap());
                let dialled = connect_retry(&l.local_addr(), &Backoff::default()).unwrap();
                (dialled, accepting.join().unwrap())
            });
            (scheme, dialled, accepted)
        })
        .collect()
    }

    /// A connected loopback pair: `(dialled, accepted)`.
    pub(crate) fn tcp_pair() -> (Connection, Connection) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dialled = conn::tcp_connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (dialled, Connection::from_tcp(accepted, true).unwrap())
    }

    #[test]
    fn addr_parse_roundtrip() {
        let a: Addr = "inproc://stage-0".parse().unwrap();
        assert_eq!(a, Addr::InProc("stage-0".into()));
        assert_eq!(a.to_string(), "inproc://stage-0");
        let t: Addr = "tcp://127.0.0.1:9000".parse().unwrap();
        assert_eq!(t.to_string(), "tcp://127.0.0.1:9000");
        assert!(matches!(
            "shm://stage-0".parse::<Addr>(),
            Err(NetError::BadAddr(_))
        ));
        assert!("inproc://".parse::<Addr>().is_err());
        assert!("udp://x".parse::<Addr>().is_err());
        assert!("tcp://nonsense".parse::<Addr>().is_err());
    }

    #[test]
    fn connect_retry_eventually_succeeds() {
        let addr: Addr = "inproc://late-bind".parse().unwrap();
        let a2 = addr.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            let l = Listener::bind(&a2).unwrap();
            let c = l.accept().unwrap();
            let m = c.recv().unwrap();
            c.send(m).unwrap();
        });
        let c = connect_retry(
            &addr,
            &Backoff {
                initial: Duration::from_millis(5),
                max: Duration::from_millis(50),
                attempts: 20,
            },
        )
        .unwrap();
        c.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(c.recv().unwrap(), Bytes::from_static(b"ping"));
        h.join().unwrap();
    }

    #[test]
    fn local_close_wakes_a_recv_blocked_on_another_thread() {
        // Cancelling a parked long-poll is closing its connection from
        // the side: on every scheme the blocked receive must come back
        // with an error at once, the peer having sent nothing.
        for (addr, c, _silent_peer) in pairs("close-wakes-recv") {
            let t0 = std::time::Instant::now();
            std::thread::scope(|s| {
                let blocked = s.spawn(|| c.recv_timeout(Duration::from_secs(30)));
                // Not a synchronisation: close() must work whether the
                // receive is already parked or about to be.
                std::thread::sleep(Duration::from_millis(20));
                c.close();
                let got = blocked.join().unwrap();
                assert!(got.is_err(), "{addr}: {got:?}");
            });
            assert!(matches!(c.recv(), Err(NetError::Closed)), "{addr}");
            assert!(t0.elapsed() < Duration::from_secs(5), "{addr}");
        }
    }

    #[test]
    fn a_zero_timeout_is_one_non_blocking_look() {
        for (addr, c, peer) in pairs("zero-timeout") {
            // Nothing has been sent: the look comes back empty-handed.
            assert!(
                matches!(c.recv_timeout(Duration::ZERO), Err(NetError::Timeout)),
                "{addr}"
            );
            // A frame that has arrived is returned by a look alone — no
            // receive with time to wait is ever posted. (Over tcp:// the
            // frame is the kernel's to deliver once `send` returns;
            // looking again is the only way to see it land.)
            peer.send(Bytes::from_static(b"landed")).unwrap();
            let t0 = std::time::Instant::now();
            let got = loop {
                match c.recv_timeout(Duration::ZERO) {
                    Err(NetError::Timeout) if t0.elapsed() < Duration::from_secs(5) => {
                        std::thread::yield_now()
                    }
                    other => break other,
                }
            };
            assert_eq!(got.unwrap(), Bytes::from_static(b"landed"), "{addr}");
            assert!(
                matches!(c.recv_timeout(Duration::ZERO), Err(NetError::Timeout)),
                "{addr}"
            );
        }
    }

    #[test]
    fn a_frame_given_as_parts_arrives_as_their_concatenation() {
        // Parts of every size class: empty, a few bytes, and bulk large
        // enough that the receiver assembles it across reads.
        let bulk: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let parts: [&[u8]; 5] = [b"head", b"", &bulk, b"x", &bulk[..1000]];
        let mut frame = Frame::new();
        for part in parts {
            frame.push(Bytes::copy_from_slice(part));
        }
        let want = parts.concat();
        for (scheme, a, b) in pairs("gathered-frame") {
            let batch = [
                frame.clone(),
                Bytes::from_static(b"after").into(),
                frame.clone(),
            ];
            std::thread::scope(|s| {
                s.spawn(|| a.send_all(&batch).unwrap());
                for expect in [&want[..], b"after", &want[..]] {
                    let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
                    assert!(got.as_slice() == expect, "{scheme}");
                }
            });
            assert_eq!(a.stats().bytes_sent, 2 * want.len() as u64 + 5, "{scheme}");
        }
    }

    #[test]
    fn connect_retry_gives_up() {
        let addr: Addr = "inproc://nobody-home".parse().unwrap();
        let err = connect_retry(
            &addr,
            &Backoff {
                initial: Duration::from_millis(1),
                max: Duration::from_millis(2),
                attempts: 3,
            },
        );
        assert!(matches!(err, Err(NetError::Refused(_))));
    }

    #[test]
    fn error_classification_retryable_vs_fatal() {
        assert!(NetError::Closed.is_retryable());
        assert!(NetError::Timeout.is_retryable());
        assert!(NetError::Refused("tcp://x:1".into()).is_retryable());
        assert!(NetError::Io(std::io::Error::other("transient")).is_retryable());
        assert!(!NetError::FrameTooLarge(1 << 40).is_retryable());
        assert!(!NetError::BadAddr("garbage://".into()).is_retryable());
    }
}
