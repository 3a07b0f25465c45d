//! Regenerates **Table II**: per-step timing and data movement of the
//! five analytics variants at the 4896-core configuration.
//!
//! The analytics kernels are the real implementations, timed on this
//! host over a calibration block, then projected to the paper's per-core
//! block size (100×49×43) and rank count (4480). The paper's values are
//! printed alongside for shape comparison.

use serde::Serialize;
use sitra_bench::{calibrate, paper, print_table, project_table2, write_json, MovementModel};

#[derive(Serialize)]
struct Output {
    rates: sitra_bench::KernelRates,
    rows: Vec<sitra_bench::Table2Row>,
}

fn main() {
    println!("calibrating kernels on a 96^3 proxy domain (2x2x2 ranks, 48^3 blocks) ...");
    let rates = calibrate([96, 96, 96], 42);
    println!("{rates:#?}");
    let ranks = paper::PARTS_4896.iter().product::<usize>() as f64;
    println!(
        "glue: seconds per vertex ∝ ranks^{:.2} (fitted on 8 to {} ranks); at {ranks} ranks a \
         vertex costs {:.1}x what it does at {}",
        rates.glue_rank_exponent,
        rates.glue_ranks,
        (ranks / rates.glue_ranks).powf(rates.glue_rank_exponent),
        rates.glue_ranks
    );
    let rows = project_table2(&rates, &MovementModel::default());

    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(paper::TABLE2.iter())
        .map(|(r, p)| {
            vec![
                r.label.clone(),
                format!("{:.2} [{}]", r.insitu_secs, p.1),
                if r.movement_secs > 0.0 {
                    format!("{:.3} [{}]", r.movement_secs, p.2)
                } else {
                    "—".into()
                },
                if r.movement_mb > 0.0 {
                    format!("{:.2} [{}]", r.movement_mb, p.3)
                } else {
                    "—".into()
                },
                if r.intransit_secs > 0.0 {
                    format!("{:.2} [{}]", r.intransit_secs, p.4)
                } else {
                    "—".into()
                },
            ]
        })
        .collect();
    print_table(
        "Table II — analytics timing & movement at 4896 cores ([paper] values bracketed)",
        &[
            "variant",
            "in-situ (s)",
            "movement (s)",
            "movement (MB)",
            "in-transit (s)",
        ],
        &table,
    );

    // The qualitative claims the reproduction must preserve.
    let get = |label: &str| rows.iter().find(|r| r.label.contains(label)).unwrap();
    println!("\nshape checks:");
    println!(
        "  hybrid viz in-situ stage is {:.0}x cheaper than full in-situ rendering",
        get("in-situ visualization").insitu_secs / get("hybrid visualization").insitu_secs
    );
    println!(
        "  topology moves {:.1}x more intermediate data than hybrid stats",
        get("hybrid topology").movement_mb / get("hybrid descriptive").movement_mb
    );
    println!(
        "  topology in-transit stage is {:.0}x its in-situ stage (async, off the critical path)",
        get("hybrid topology").intransit_secs / get("hybrid topology").insitu_secs
    );
    write_json("table2", &Output { rates, rows });
}
