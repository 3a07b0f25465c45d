//! The `net.conn.*` series of an accepted `tcp://` connection are
//! labelled by the peer's IP alone, so a host that dials once a period
//! (a cluster heartbeat) does not grow the metric registry. Alone in its
//! binary: it counts the process-global registry's series.

use bytes::Bytes;
use sitra_net::{connect, Listener};

fn conn_series() -> usize {
    let snap = sitra_obs::global().snapshot();
    snap.metrics
        .keys()
        .filter(|name| name.starts_with("net.conn."))
        .count()
}

#[test]
fn connections_accepted_from_one_host_add_no_series_after_the_first() {
    let listener = Listener::bind(&"tcp://127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = listener.local_addr();
    let mut after_first = None;
    for i in 0..50 {
        let dialed = connect(&addr).unwrap();
        let accepted = listener.accept().unwrap();
        dialed.send(Bytes::from_static(b"beat")).unwrap();
        assert_eq!(accepted.recv().unwrap(), Bytes::from_static(b"beat"));
        drop((dialed, accepted));
        let series = conn_series();
        let first = *after_first.get_or_insert(series);
        assert_eq!(series, first, "connection {i} added series");
    }
    assert_eq!(
        sitra_obs::global()
            .snapshot()
            .counter("net.conn.opened{peer=127.0.0.1}"),
        50
    );
}
