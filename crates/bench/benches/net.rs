//! Criterion benchmarks of the sitra-net socket transport and the
//! remote staging RPC layer: framed round-trips on both backends and
//! space put/get through a `SpaceServer`.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use sitra_dataspaces::remote::RemoteSpace;
use sitra_dataspaces::SpaceServer;
use sitra_mesh::BBox3;
use sitra_net::{connect, serve, Addr, Listener};
use std::hint::black_box;

fn echo_server(addr: &Addr) -> (sitra_net::ServerHandle, Addr) {
    let listener = Listener::bind(addr).expect("bind");
    let bound = listener.local_addr();
    let handle = serve(listener, |conn| {
        while let Ok(frame) = conn.recv() {
            if conn.send(frame).is_err() {
                break;
            }
        }
    });
    (handle, bound)
}

fn bench_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("net");
    group.sample_size(30);

    for (label, addr) in [
        ("inproc", "inproc://bench-echo".to_string()),
        ("tcp", "tcp://127.0.0.1:0".to_string()),
    ] {
        let (handle, bound) = echo_server(&addr.parse().expect("addr"));
        let conn = connect(&bound).expect("connect");

        group.bench_function(&format!("{label}_roundtrip_64B"), |b| {
            let payload = Bytes::from(vec![1u8; 64]);
            b.iter(|| {
                conn.send(payload.clone()).unwrap();
                black_box(conn.recv().unwrap());
            })
        });

        group.bench_function(&format!("{label}_roundtrip_1MiB"), |b| {
            let payload = Bytes::from(vec![2u8; 1 << 20]);
            b.iter(|| {
                conn.send(payload.clone()).unwrap();
                black_box(conn.recv().unwrap());
            })
        });

        conn.close();
        handle.shutdown();
    }
    group.finish();
}

fn bench_remote_space(c: &mut Criterion) {
    let mut group = c.benchmark_group("remote_space");
    group.sample_size(30);

    for (label, addr) in [
        ("inproc", "inproc://bench-space".to_string()),
        ("tcp", "tcp://127.0.0.1:0".to_string()),
    ] {
        let server = SpaceServer::start(&addr.parse().expect("addr"), 4).expect("start");
        let client = RemoteSpace::connect(&server.addr()).expect("connect");
        let bbox = BBox3::from_dims([16, 16, 16]);
        let payload = Bytes::from(vec![3u8; 16 * 16 * 16 * 8]);

        group.bench_function(&format!("{label}_put_32KiB"), |b| {
            let mut version = 0u64;
            b.iter(|| {
                version += 1;
                client.put("bench", version, bbox, payload.clone()).unwrap();
            })
        });

        client.put("read", 1, bbox, payload.clone()).unwrap();
        group.bench_function(&format!("{label}_get_32KiB"), |b| {
            b.iter(|| {
                black_box(client.get("read", 1, &bbox).unwrap());
            })
        });

        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_frames, bench_remote_space);
criterion_main!(benches);
