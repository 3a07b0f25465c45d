//! Criterion benchmarks of the data-movement substrates: DART transfers
//! on both paths and DataSpaces put/get/query.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use sitra_dart::{Event, Fabric, NetworkModel};
use sitra_dataspaces::DataSpaces;
use sitra_mesh::{BBox3, Decomposition, ScalarField};
use std::hint::black_box;
use std::time::Duration;

fn bench_dart(c: &mut Criterion) {
    let mut group = c.benchmark_group("dart");
    group.sample_size(20);
    let fabric = Fabric::new(NetworkModel::gemini());
    let a = fabric.register();
    let b = fabric.register();

    group.bench_function("smsg_roundtrip_64B", |bch| {
        let payload = Bytes::from(vec![1u8; 64]);
        bch.iter(|| {
            a.smsg_send(b.id(), payload.clone()).unwrap();
            black_box(b.poll_event(Duration::from_secs(5)).unwrap());
        })
    });

    // An inline serve: the get completes on the calling thread, so both
    // completions are queued when `rdma_get` returns. The owner's
    // `GetServed` is drained too, or it piles up across iterations.
    group.bench_function("rdma_get_1MiB", |bch| {
        b.export(7, Bytes::from(vec![2u8; 1 << 20]));
        bch.iter(|| {
            a.rdma_get(b.id(), 7).unwrap();
            match a.try_event() {
                Some(Event::GetComplete { data, .. }) => black_box(data),
                other => panic!("unexpected {other:?}"),
            };
            match b.try_event() {
                Some(Event::GetServed { id, .. }) => black_box(id),
                other => panic!("unexpected {other:?}"),
            };
        })
    });
    group.finish();
    fabric.shutdown();
}

fn bench_dataspaces(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataspaces");
    group.sample_size(20);
    let g = BBox3::from_dims([64, 64, 32]);
    let whole = ScalarField::from_fn(g, |p| (p[0] + p[1] * 2 + p[2] * 3) as f64);
    let d = Decomposition::new(g, [4, 4, 2]);

    group.bench_function("put_32_blocks", |bch| {
        bch.iter(|| {
            let ds = DataSpaces::new(4);
            for r in 0..d.rank_count() {
                ds.put_field("T", 1, &whole.extract(&d.block(r)));
            }
            black_box(ds.stats().resident_bytes)
        })
    });

    let ds = DataSpaces::new(4);
    for r in 0..d.rank_count() {
        ds.put_field("T", 1, &whole.extract(&d.block(r)));
    }
    group.bench_function("get_assembled_center_query", |bch| {
        let q = BBox3::new([16, 16, 8], [48, 48, 24]);
        bch.iter(|| black_box(ds.get_assembled("T", 1, &q, f64::NAN).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_dart, bench_dataspaces);
criterion_main!(benches);
