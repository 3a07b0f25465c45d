//! `e2e`: the end-to-end and per-layer benchmark of the hybrid
//! pipeline. See `README.md` beside this package for the workloads,
//! the metrics and the predictions they are meant to test, and
//! `/BENCHMARK.json` for the contract the numbers are gated by.

mod hops;
mod measure;
mod pipeline;
mod probe;
mod report;
mod space_rw;
mod stats;
mod trace;

use measure::{pipeline_e2e, pipeline_traced, space_e2e, space_traced};
use pipeline::{Backend, PipelineWorkload, Roster};
use report::{host_facts, result_line, write_results, Facts, Row};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// A workload by name, with the one-line reason it exists.
struct Workload {
    name: &'static str,
    why: &'static str,
    kind: Kind,
}

enum Kind {
    Pipeline(PipelineWorkload),
    SpaceRw,
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "stats-tcp",
        why: "16^3 HybridStats every step, one tcp:// server, 1 worker: ~65 B parts, so fixed \
              per-task cost (RPCs, hand-off, polling) is nearly all of insight_ms",
        kind: Kind::Pipeline(PipelineWorkload {
            dims: [16, 16, 16],
            roster: Roster::Stats,
            backend: Backend::Tcp { workers: 1 },
            warmup: 60,
            steps_per_second: 200.0,
        }),
    },
    Workload {
        name: "topo-local",
        why: "48^3 HybridTopology, StagingMode::Local, 2 buckets: heaviest in-situ stage and \
              mover through dart + in-process scheduler; bypasses net and RPC, so must not move",
        kind: Kind::Pipeline(PipelineWorkload {
            dims: [48, 48, 48],
            roster: Roster::Topology,
            backend: Backend::Local { buckets: 2 },
            warmup: 5,
            steps_per_second: 12.5,
        }),
    },
    Workload {
        name: "viz-cluster3",
        why: "40^3 HybridViz stride 2 on 3 inproc:// ClusterNodes, one cluster worker: ring puts, \
              fan-out gets, split poll budget, real in-transit render; decides 3 members vs 1",
        kind: Kind::Pipeline(PipelineWorkload {
            dims: [40, 40, 40],
            roster: Roster::Viz,
            backend: Backend::Cluster3,
            warmup: 10,
            steps_per_second: 30.0,
        }),
    },
    Workload {
        name: "mixed-tcp",
        why: "32^3, the five-analysis roster of benches/pipeline.rs on one tcp:// server with 2 \
              workers: what users run; a gain for one analysis at another's cost shows here",
        kind: Kind::Pipeline(PipelineWorkload {
            dims: [32, 32, 32],
            roster: Roster::Mixed,
            backend: Backend::Tcp { workers: 2 },
            warmup: 8,
            steps_per_second: 24.0,
        }),
    },
    Workload {
        name: "space-rw-tcp",
        why: "no pipeline: writer puts 4x256 KiB per version, reader get_assembled + verify, \
              window 4, 2 tcp:// connections; bulk reads beside writes expose bandwidth costs",
        kind: Kind::SpaceRw,
    },
];

/// End-to-end metrics with the share by which each may worsen; the
/// same values as `/BENCHMARK.json` (a unit test compares them).
const END_TO_END: [(&str, &str, f64); 4] = [
    ("step_ms", "ms", 0.25),
    ("insight_ms", "ms", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.2),
];

/// Per-layer metrics every workload reports on its last line; the full
/// set of a workload's layer rows is in the table above that line.
const PER_LAYER: [(&str, &str); 7] = [
    ("produce_ms", "ms"),
    ("ship_wait_ms", "ms"),
    ("consume_ms", "ms"),
    ("path_busy_ms", "ms"),
    ("wait_gap_ms", "ms"),
    ("moved_bytes_per_step", "B"),
    ("trace_overhead_pct", "%"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    list: bool,
    out: PathBuf,
}

fn usage() -> String {
    "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] \
     [--selfcheck] [--list] [--out DIR]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
        list: false,
        out: PathBuf::from("e2e/out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be within (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.seconds = 2.0,
            "--selfcheck" => a.selfcheck = true,
            "--list" => a.list = true,
            "--out" => a.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if let Some(name) = &a.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload `{name}`; try --list"));
        }
    }
    Ok(a)
}

/// Run one workload in this process.
fn run_workload(w: &Workload, args: &Args) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let started = Instant::now();
    let report = match (&w.kind, args.trace) {
        (Kind::Pipeline(wl), false) => pipeline_e2e(wl, args.seed, args.seconds)?,
        (Kind::Pipeline(wl), true) => {
            pipeline_traced(w.name, wl, args.seed, args.seconds, &args.out)?
        }
        (Kind::SpaceRw, false) => space_e2e(args.seed, args.seconds)?,
        (Kind::SpaceRw, true) => space_traced(args.seed, args.seconds, &args.out)?,
    };
    host_facts().print("host");
    let mut run = Facts::default();
    run.add("workload", w.name);
    run.add("seed", args.seed);
    run.add("seconds", args.seconds);
    run.add("traced", args.trace);
    run.print("run");
    report.facts.print("run");
    println!("# run wall_s: {:.3}", started.elapsed().as_secs_f64());
    println!("workload metric value unit n tail");
    for row in &report.rows {
        row.print(w.name);
    }
    let metrics: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    println!("{}", result_line(&report, &metrics)?);
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "e2e: {}: {} of {} operations failed their checks",
            w.name, report.failed, report.attempted
        );
        ExitCode::FAILURE
    })
}

/// The table rows of a run of every workload, by workload.
type WorkloadRows = Vec<(&'static str, Vec<Row>)>;

/// Run every workload, each in a child process of its own so that
/// `peak_rss_mb` is per workload. Returns the rows by workload and
/// whether every child exited cleanly.
fn run_all(args: &Args, trace: bool) -> Result<(WorkloadRows, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut rows = Vec::new();
        for line in stdout.lines() {
            if line.starts_with('#') {
                // The host is the same for every child: say it once.
                if all.is_empty() || !line.starts_with("# host") {
                    println!("{line}");
                }
            } else if let Some(row) = Row::parse(w.name, line) {
                row.print(w.name);
                rows.push(row);
            }
        }
        if !output.status.success() {
            eprintln!("e2e: workload {} failed ({})", w.name, output.status);
            ok = false;
        }
        all.push((w.name, rows));
    }
    Ok((all, ok))
}

/// Two untraced runs of every workload; each end-to-end metric must
/// agree within its bound, or it is unresolved.
fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let (first, ok_a) = run_all(args, false)?;
    let (second, ok_b) = run_all(args, false)?;
    let mut unresolved = 0;
    println!("workload metric first second gap bound verdict");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for (metric, _, bound) in END_TO_END {
            let find = |rows: &[Row]| rows.iter().find(|r| r.metric == metric).map(|r| r.value);
            let (Some(x), Some(y)) = (find(a), find(b)) else {
                println!("{name} {metric} - - - {bound} unresolved");
                unresolved += 1;
                continue;
            };
            let gap = stats::relative_gap(x, y);
            let verdict = if gap <= bound {
                "within-bound"
            } else {
                "unresolved"
            };
            if gap > bound {
                unresolved += 1;
            }
            println!("{name} {metric} {x:.6} {y:.6} {gap:.4} {bound} {verdict}");
        }
    }
    Ok(if unresolved == 0 && ok_a && ok_b {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: selfcheck: {unresolved} metric(s) unresolved");
        ExitCode::FAILURE
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.list {
        for w in &WORKLOADS {
            println!("{}\t{}", w.name, w.why);
        }
        return Ok(ExitCode::SUCCESS);
    }
    if args.selfcheck {
        return selfcheck(args);
    }
    if let Some(name) = &args.workload {
        let w = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .expect("parse_args checked the name");
        return run_workload(w, args);
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("workload metric value unit n tail");
    let (all, ok) = run_all(args, args.trace)?;
    let file = if args.trace {
        "layers.json"
    } else {
        "results.json"
    };
    let path = args.out.join(file);
    write_results(&path, (args.seed, args.seconds, args.trace), &all)?;
    println!("# wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_file_carries_the_same_names_bounds_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}"
            );
            assert!(contract.contains(&entry), "missing or different: {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\"}}");
            assert!(contract.contains(&entry), "missing or different: {entry}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} characters",
                w.name,
                w.why.len()
            );
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(contract.contains(&entry), "missing or different: {entry}");
        }
    }

    #[test]
    fn table_lines_round_trip() {
        let row = Row {
            metric: "insight_ms".into(),
            value: 4.25,
            unit: "ms".into(),
            n: 1999,
            tail: Some((99.0, 7.5)),
        };
        let line = "stats-tcp insight_ms 4.250000 ms 1999 p99=7.500000";
        assert_eq!(Row::parse("stats-tcp", line), Some(row));
        assert_eq!(Row::parse("topo-local", line), None);
        assert_eq!(Row::parse("stats-tcp", "# run seed: 1"), None);
        let plain = Row::parse("stats-tcp", "stats-tcp peak_rss_mb 41.5 MB 1 -").unwrap();
        assert_eq!((plain.value, plain.tail), (41.5, None));
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
            parse_args(&argv).map(|a| (a.trace, a.seed, a.seconds))
        };
        assert_eq!(parse("--trace 0 --seed 3").unwrap(), (false, 3, 10.0));
        assert_eq!(parse("--seed 3 --trace 1").unwrap(), (true, 3, 10.0));
        assert_eq!(parse("--trace --smoke").unwrap(), (true, 1, 2.0));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
    }
}
