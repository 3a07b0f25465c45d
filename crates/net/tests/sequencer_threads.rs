//! Blocking connections do their own socket I/O: a fault-free
//! connection runs no thread of its own, and a fault hold gives its
//! connection exactly one sequencer thread, which ends with the
//! connection. Alone in its test binary, because it reads the process's
//! thread list; the tests here serialize on a lock for the same reason.

use bytes::Bytes;
use sitra_net::{
    connect, install_fault_injector, serve, FaultAction, FaultInjector, Frame, Listener,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

fn sequencers() -> usize {
    let names = thread_names();
    assert!(
        names.iter().any(|n| n.starts_with("net-acceptor")),
        "thread names unreadable: {names:?}"
    );
    names.iter().filter(|n| n.starts_with("net-seq")).count()
}

/// A `tcp://` echo server and a connection to it.
fn echo() -> (sitra_net::ServerHandle, sitra_net::Connection) {
    let listener = Listener::bind(&"tcp://127.0.0.1:0".parse().unwrap()).unwrap();
    let server = serve(listener, |conn| {
        while let Ok(frame) = conn.recv() {
            if conn.send(frame).is_err() {
                break;
            }
        }
    });
    let conn = connect(&server.addr()).unwrap();
    (server, conn)
}

#[test]
fn a_fault_free_tcp_echo_starts_no_sequencer_thread() {
    let _g = LOCK.lock();
    let (server, conn) = echo();
    for i in 0..1_000u32 {
        let frame = Bytes::from(i.to_le_bytes().to_vec());
        conn.send(frame.clone()).unwrap();
        assert_eq!(conn.recv().unwrap(), frame);
    }
    let stats = conn.stats();
    assert_eq!((stats.writes, stats.reads), (1_000, 1_000));
    assert_eq!(sequencers(), 0);
    conn.close();
    server.shutdown();
}

#[test]
fn a_delayed_connection_has_one_sequencer_thread_until_it_closes() {
    struct DelayOne(u64);
    impl FaultInjector for DelayOne {
        fn on_frame(&self, conn: u64, _: &str, _: &Frame) -> FaultAction {
            if conn == self.0 {
                FaultAction::Delay(Duration::from_millis(5))
            } else {
                FaultAction::Deliver
            }
        }
    }
    let _g = LOCK.lock();
    let (server, conn) = echo();
    let prev = install_fault_injector(Some(Arc::new(DelayOne(conn.id()))));
    for i in 0..3u8 {
        conn.send(Bytes::from(vec![i])).unwrap();
    }
    for i in 0..3u8 {
        assert_eq!(conn.recv().unwrap(), Bytes::from(vec![i]));
    }
    install_fault_injector(prev);
    assert_eq!(sequencers(), 1);
    conn.close();
    let t0 = Instant::now();
    while sequencers() > 0 && t0.elapsed() < Duration::from_secs(1) {
        std::thread::yield_now();
    }
    assert_eq!(sequencers(), 0, "the sequencer outlived its connection");
    server.shutdown();
}
