//! Page faults of a bulk `tcp://` read on a warm connection.
//!
//! A 1 MiB `get_assembled` whose reply and field are dropped before
//! the next one should run in memory the thread already has mapped.
//! When each reply lands in a fresh buffer, freeing it and the field
//! lets the allocator hand the top of the heap back to the kernel, and
//! the next call faults every page in again: about 480 minor faults
//! per call, against a handful once the connection reuses its receive
//! buffer. Alone in its binary so no other test's threads or
//! allocations share the count; glibc-only, since the heap trimming it
//! guards against is glibc's. A sanitizer's allocator maps every large
//! block afresh whoever frees it, so under one (the check for that runs
//! only after the count, so it cannot warm the heap) the count says
//! nothing about the receive path and is not asserted.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use sitra_dataspaces::{RemoteSpace, SpaceServer};
use sitra_mesh::{BBox3, Decomposition, ScalarField};

/// 64×64×32 doubles = 1 MiB, put as four 32×32×32 blocks of 256 KiB.
const DIMS: [usize; 3] = [64, 64, 32];
const WARMUP: u64 = 10;
const TIMED: u64 = 50;
/// Faults per call allowed: a few pages of per-call bookkeeping, far
/// below the 256 pages of one freshly mapped 1 MiB buffer.
const MAX_FAULTS_PER_CALL: f64 = 32.0;

/// Minor faults taken by the calling thread so far (field 10 of
/// `/proc/thread-self/stat`).
fn thread_minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("thread stat");
    // Fields 3.. follow the parenthesised command name, which may hold
    // spaces; field 10 is the eighth of them.
    let after_name = &stat[stat.rfind(')').expect("command name") + 1..];
    after_name
        .split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

/// Minor faults of writing a fresh 1 MiB block, once the allocator
/// has seen a few: about none where freed memory stays mapped, 256 or
/// more where every large block is mapped anew.
fn faults_per_fresh_mib() -> u64 {
    let mut faults = 0;
    for round in 0..8 {
        let before = thread_minor_faults();
        drop(std::hint::black_box(vec![1u8; 1 << 20]));
        if round >= 4 {
            faults += thread_minor_faults() - before;
        }
    }
    faults / 4
}

#[test]
fn a_warm_bulk_get_faults_in_almost_nothing() {
    let server = SpaceServer::start(&"tcp://127.0.0.1:0".parse().unwrap(), 1).unwrap();
    let writer = RemoteSpace::connect(&server.addr()).unwrap();
    let reader = RemoteSpace::connect(&server.addr()).unwrap();
    let global = BBox3::from_dims(DIMS);
    let decomp = Decomposition::new(global, [2, 2, 1]);
    let blocks: Vec<ScalarField> = (0..decomp.rank_count())
        .map(|r| ScalarField::from_fn(decomp.block(r), |p| (p[0] + 3 * p[1] + 7 * p[2]) as f64))
        .collect();
    // As coupled codes run it: a writer thread puts each version, and
    // this thread reads it whole, drops it and evicts it.
    let (ready, versions) = std::sync::mpsc::sync_channel(2);
    let faults = std::thread::scope(|s| {
        let (writer, blocks) = (&writer, &blocks);
        s.spawn(move || {
            for version in 0..WARMUP + TIMED {
                for block in blocks {
                    writer.put_field("bulk", version, block).unwrap();
                }
                ready.send(version).unwrap();
            }
        });
        let mut faults = 0;
        for version in versions.iter() {
            let before = thread_minor_faults();
            let field = reader
                .get_assembled("bulk", version, &global, f64::NAN)
                .unwrap();
            assert_eq!(field.get([63, 63, 31]), (63 + 3 * 63 + 7 * 31) as f64);
            drop(field);
            if version >= WARMUP {
                faults += thread_minor_faults() - before;
            }
            reader.evict_version(version).unwrap();
        }
        faults
    });
    let per_call = faults as f64 / TIMED as f64;
    let fresh = faults_per_fresh_mib();
    if fresh as f64 > MAX_FAULTS_PER_CALL {
        eprintln!(
            "not asserted: this allocator faults {fresh} pages into every fresh 1 MiB block \
             ({per_call:.1} minor faults per get_assembled)"
        );
    } else {
        assert!(
            per_call <= MAX_FAULTS_PER_CALL,
            "{per_call:.1} minor faults per 1 MiB get_assembled (at most {MAX_FAULTS_PER_CALL})"
        );
    }
    writer.close();
    reader.close();
    server.shutdown();
}
