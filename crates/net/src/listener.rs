//! Listening sockets: the in-process registry and the TCP acceptor,
//! plus [`serve`] — the threaded acceptor/dispatcher servers build on.

use crate::conn::Connection;
use crate::{Addr, NetError};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-global registry of in-proc listeners: name → channel on
/// which the listener receives the server half of each new connection.
fn registry() -> &'static Mutex<HashMap<String, Sender<Connection>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Sender<Connection>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

pub(crate) fn inproc_connect(name: &str) -> Result<Connection, NetError> {
    // A fault injector can refuse the dial outright — a partition.
    if !crate::fault::connect_allowed(&format!("inproc://{name}")) {
        return Err(NetError::Refused(format!("inproc://{name}")));
    }
    let guard = registry().lock();
    let tx = guard
        .get(name)
        .ok_or_else(|| NetError::Refused(format!("inproc://{name}")))?;
    let (client, server) = Connection::inproc_pair();
    tx.send(server)
        .map_err(|_| NetError::Refused(format!("inproc://{name}")))?;
    Ok(client)
}

enum ListenerInner {
    InProc {
        name: String,
        rx: Receiver<Connection>,
    },
    Tcp(TcpListener),
}

/// A bound listening endpoint producing [`Connection`]s.
pub struct Listener {
    inner: ListenerInner,
}

impl Listener {
    /// Bind to `addr`. For `tcp://host:0` the OS picks a free port —
    /// read it back with [`Listener::local_addr`].
    pub fn bind(addr: &Addr) -> Result<Listener, NetError> {
        match addr {
            Addr::InProc(name) => {
                let mut guard = registry().lock();
                if guard.contains_key(name) {
                    return Err(NetError::BadAddr(format!("inproc://{name} already bound")));
                }
                let (tx, rx) = unbounded();
                guard.insert(name.clone(), tx);
                Ok(Listener {
                    inner: ListenerInner::InProc {
                        name: name.clone(),
                        rx,
                    },
                })
            }
            Addr::Tcp(sa) => {
                let l = TcpListener::bind(sa)?;
                Ok(Listener {
                    inner: ListenerInner::Tcp(l),
                })
            }
        }
    }

    /// The bound address (with the OS-assigned port for TCP).
    pub fn local_addr(&self) -> Addr {
        match &self.inner {
            ListenerInner::InProc { name, .. } => Addr::InProc(name.clone()),
            ListenerInner::Tcp(l) => Addr::Tcp(l.local_addr().expect("bound socket has addr")),
        }
    }

    /// Accept the next inbound connection, blocking. While a fault
    /// injector partitions this endpoint, inbound connections are
    /// closed on arrival instead of being handed out (the accept keeps
    /// blocking for the next one).
    pub fn accept(&self) -> Result<Connection, NetError> {
        let local = self.local_addr().to_string();
        loop {
            let conn = match &self.inner {
                ListenerInner::InProc { rx, .. } => rx.recv().map_err(|_| NetError::Closed)?,
                ListenerInner::Tcp(l) => {
                    let (stream, _) = l.accept()?;
                    Connection::from_tcp(stream, true)?
                }
            };
            if crate::fault::connect_allowed(&local) {
                return Ok(conn);
            }
            conn.close();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let ListenerInner::InProc { name, .. } = &self.inner {
            registry().lock().remove(name);
        }
    }
}

/// Handle to a running [`serve`] loop; dropping it does NOT stop the
/// server — call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: Addr,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Where the server is listening.
    pub fn addr(&self) -> Addr {
        self.addr.clone()
    }

    /// Stop accepting and join the acceptor thread. Connections already
    /// dispatched run to completion on their own threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake a blocking accept.
        match &self.addr {
            Addr::InProc(name) => {
                registry().lock().remove(name);
            }
            Addr::Tcp(sa) => {
                let _ = TcpStream::connect(sa);
            }
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Spawn the acceptor/dispatcher pattern: an acceptor thread takes
/// inbound connections from `listener` and hands each to `handler` on
/// its own named thread. Returns immediately.
pub fn serve<F>(listener: Listener, handler: F) -> ServerHandle
where
    F: Fn(Connection) + Send + Sync + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr();
    let stop2 = Arc::clone(&stop);
    let handler = Arc::new(handler);
    let acceptor = std::thread::Builder::new()
        .name("net-acceptor".into())
        .spawn(move || {
            let mut conn_no = 0u64;
            while !stop2.load(Ordering::SeqCst) {
                let conn = match listener.accept() {
                    Ok(c) => c,
                    Err(_) => break, // listener torn down
                };
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                conn_no += 1;
                let h = Arc::clone(&handler);
                let _ = std::thread::Builder::new()
                    .name(format!("net-conn-{conn_no}"))
                    .spawn(move || h(conn));
            }
        })
        .expect("spawn acceptor");
    ServerHandle {
        stop,
        addr,
        acceptor: Some(acceptor),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connect, Backoff};
    use bytes::Bytes;
    use std::time::Duration;

    #[test]
    fn inproc_bind_conflict() {
        let a: Addr = "inproc://conflict".parse().unwrap();
        let _l = Listener::bind(&a).unwrap();
        assert!(matches!(Listener::bind(&a), Err(NetError::BadAddr(_))));
    }

    #[test]
    fn unbinding_refuses_new_connections() {
        let a: Addr = "inproc://transient".parse().unwrap();
        {
            let l = Listener::bind(&a).unwrap();
            drop(l);
        }
        assert!(matches!(connect(&a), Err(NetError::Refused(_))));
    }

    #[test]
    fn serve_echo_inproc_many_clients() {
        let a: Addr = "inproc://echo-farm".parse().unwrap();
        let l = Listener::bind(&a).unwrap();
        let server = serve(l, |conn| {
            while let Ok(m) = conn.recv() {
                if conn.send(m).is_err() {
                    break;
                }
            }
        });
        let clients: Vec<_> = (0..6)
            .map(|i| {
                let a = a.clone();
                std::thread::spawn(move || {
                    let c = connect(&a).unwrap();
                    for round in 0..20u32 {
                        let msg = Bytes::from(format!("client-{i}-{round}"));
                        c.send(msg.clone()).unwrap();
                        assert_eq!(c.recv().unwrap(), msg);
                    }
                    c.stats().frames_recv
                })
            })
            .collect();
        for h in clients {
            assert_eq!(h.join().unwrap(), 20);
        }
        server.shutdown();
        assert!(matches!(connect(&a), Err(NetError::Refused(_))));
    }

    #[test]
    fn serve_echo_tcp() {
        let bind: Addr = "tcp://127.0.0.1:0".parse().unwrap();
        let l = Listener::bind(&bind).unwrap();
        let server = serve(l, |conn| {
            while let Ok(m) = conn.recv() {
                if conn.send(m).is_err() {
                    break;
                }
            }
        });
        let addr = server.addr();
        let c = crate::connect_retry(&addr, &Backoff::default()).unwrap();
        c.send(Bytes::from_static(b"over tcp")).unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_secs(5)).unwrap(),
            Bytes::from_static(b"over tcp")
        );
        server.shutdown();
    }
}
