//! `obs_report` — replay an observability journal into the paper-style
//! per-stage breakdown.
//!
//! ```text
//! obs_report target/journal.jsonl
//! ```
//!
//! Reads the JSONL journal a run wrote (`sitra-staged --journal`, or any
//! process that installed a journal sink), reconstructs the per-step and
//! per-(analysis, step) timings from the `driver`/`worker` span events,
//! and prints the same tables `fig6_breakdown` derives from live
//! `PipelineMetrics` — plus a per-analysis mean summary. Because kv
//! values are journaled with `Display` (exact for `f64`), the replayed
//! numbers match the live run bit-for-bit.

use sitra_bench::print_table;
use sitra_bench::replay::{read_journal, replay};

fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let program = argv.first().map(String::as_str).unwrap_or("obs_report");
    let Some(path) = argv.get(1).filter(|a| !a.starts_with('-')) else {
        eprintln!("usage: {program} JOURNAL.jsonl");
        std::process::exit(2);
    };
    let events = match read_journal(std::path::Path::new(path)) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{program}: {e}");
            std::process::exit(1);
        }
    };
    let r = replay(&events);
    println!(
        "{} event(s): {} step(s), {} stage row(s), {} other",
        events.len(),
        r.steps.len(),
        r.stages.len(),
        r.other_events
    );
    if r.degraded_stages() > 0 {
        println!(
            "{} task(s) on {} step(s) degraded to in-situ fallback (staging path failed)",
            r.degraded_stages(),
            r.degraded_steps()
        );
    }

    if !r.steps.is_empty() {
        let rows: Vec<Vec<String>> = r
            .steps
            .iter()
            .map(|s| {
                vec![
                    s.step.to_string(),
                    format!("{:.6}", s.sim_secs),
                    format!("{:.6}", s.ghost_secs),
                    format!("{:.6}", s.blocked_secs),
                ]
            })
            .collect();
        print_table(
            "per-step timings (s)",
            &[
                "step",
                "simulation",
                "ghost exchange",
                "blocked on analysis",
            ],
            &rows,
        );
    }

    if !r.stages.is_empty() {
        let rows: Vec<Vec<String>> = r
            .stages
            .iter()
            .map(|s| {
                vec![
                    s.analysis.clone(),
                    s.step.to_string(),
                    s.placement.clone(),
                    format!("{:.6}", s.insitu_secs),
                    format!("{:.6}", s.ship_secs),
                    human_bytes(s.movement_bytes),
                    format!("{:.6}", s.movement_sim_secs),
                    format!("{:.6}", s.aggregate_secs),
                    s.bucket
                        .map(|b| b.to_string())
                        .unwrap_or_else(|| "-".into()),
                    format!("{:.6}", s.latency_secs),
                    if s.degraded { "yes" } else { "-" }.to_string(),
                ]
            })
            .collect();
        print_table(
            "per-stage breakdown (the paper's Table II columns, per step)",
            &[
                "analysis",
                "step",
                "placement",
                "in-situ s",
                "ship s",
                "movement",
                "movement sim s",
                "in-transit s",
                "bucket",
                "latency s",
                "degraded",
            ],
            &rows,
        );

        let means: Vec<Vec<String>> = r
            .analyses()
            .iter()
            .map(|a| {
                vec![
                    a.to_string(),
                    format!("{:.6}", r.mean_insitu_secs(a)),
                    format!("{:.6}", r.mean_aggregate_secs(a)),
                ]
            })
            .collect();
        print_table(
            "per-analysis means across steps (s)",
            &["analysis", "mean in-situ", "mean in-transit"],
            &means,
        );
    }
}
