//! Blocking connections do their own socket I/O: a process that holds
//! nothing else never starts the shared transport runtime. Alone in its
//! test binary, because the runtime is process-global and any test that
//! injects a fault hold or opens an `AsyncConnection` starts it.

use bytes::Bytes;
use sitra_net::{connect, serve, Listener};

/// Names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn a_blocking_tcp_echo_starts_no_runtime_thread() {
    let listener = Listener::bind(&"tcp://127.0.0.1:0".parse().unwrap()).unwrap();
    let server = serve(listener, |conn| {
        while let Ok(frame) = conn.recv() {
            if conn.send(frame).is_err() {
                break;
            }
        }
    });
    let conn = connect(&server.addr()).unwrap();
    for i in 0..1_000u32 {
        let frame = Bytes::from(i.to_le_bytes().to_vec());
        conn.send(frame.clone()).unwrap();
        assert_eq!(conn.recv().unwrap(), frame);
    }
    let stats = conn.stats();
    assert_eq!((stats.writes, stats.reads), (1_000, 1_000));
    let names = thread_names();
    assert!(
        names.iter().any(|n| n.starts_with("net-conn")),
        "thread names unreadable: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("sitra-net-rt")),
        "runtime threads running: {names:?}"
    );
    conn.close();
    server.shutdown();
}
