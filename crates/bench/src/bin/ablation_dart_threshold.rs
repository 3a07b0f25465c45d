//! Ablation: the DART SMSG/BTE message-size crossover.
//!
//! DART on Gemini selects the FMA/SMSG path for small messages and the
//! BTE bulk path for large transfers. This sweep shows why: modeled
//! transfer time per path across message sizes, the analytic crossover,
//! and a live check that the fabric's automatic selection routes
//! messages to the right path.

use bytes::Bytes;
use serde::Serialize;
use sitra_bench::{print_table, write_json};
use sitra_dart::{Fabric, NetworkModel, Path};

#[derive(Serialize)]
struct Row {
    bytes: usize,
    smsg_us: f64,
    bte_us: f64,
    chosen: String,
}

fn main() {
    let model = NetworkModel::gemini();
    let mut rows = Vec::new();
    let mut size = 64usize;
    while size <= 64 << 20 {
        rows.push(Row {
            bytes: size,
            smsg_us: model.transfer_time(size, Path::Smsg) * 1e6,
            bte_us: model.transfer_time(size, Path::Bte) * 1e6,
            chosen: format!("{:?}", model.path_for(size)),
        });
        size *= 4;
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                if r.bytes < 1 << 20 {
                    format!("{} KiB", r.bytes / 1024)
                } else {
                    format!("{} MiB", r.bytes >> 20)
                },
                format!("{:.2}", r.smsg_us),
                format!("{:.2}", r.bte_us),
                r.chosen.clone(),
            ]
        })
        .collect();
    print_table(
        "DART path selection — modeled transfer time per path",
        &["size", "SMSG (µs)", "BTE (µs)", "selected"],
        &table,
    );
    println!(
        "\nanalytic crossover: {:.0} bytes (threshold set to {} bytes)",
        model.crossover_bytes(),
        model.smsg_threshold
    );

    // Live check: the fabric routes by size and the counters agree.
    let fabric = Fabric::new(model);
    let a = fabric.register();
    let b = fabric.register();
    let mut expected_bte = 0;
    for r in &rows {
        let path = a
            .send_auto(b.id(), r.bytes as u64, Bytes::from(vec![0u8; r.bytes]))
            .unwrap();
        assert_eq!(format!("{path:?}"), r.chosen, "live routing disagrees");
        if path == Path::Bte {
            expected_bte += 1;
        }
    }
    // A bulk put completes before `send_auto` returns: its destination
    // event is already queued.
    let received = std::iter::from_fn(|| b.try_event())
        .filter(|e| matches!(e, sitra_dart::Event::PutReceived { .. }))
        .count();
    assert_eq!(received, expected_bte, "a BTE put left no completion");
    let stats = fabric.stats();
    println!(
        "live fabric: {} SMSG messages ({} B), {} BTE transfers ({} B) — routing verified",
        stats.smsg_messages, stats.smsg_bytes, stats.bte_transfers, stats.bte_bytes
    );
    fabric.shutdown();
    write_json("ablation_dart_threshold", &rows);
}
