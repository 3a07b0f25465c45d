//! What a run reports and how it is printed: the table rows, the facts
//! about host and run, and the contract's result line.

use crate::stats::{self, Summary};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One line of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub metric: String,
    pub value: f64,
    pub unit: String,
    pub n: usize,
    pub tail: Option<(f64, f64)>,
}

impl Row {
    pub fn timing(metric: &str, unit: &str, samples: &[f64]) -> Option<Row> {
        stats::summarize(samples).map(|Summary { n, median, tail }| Row {
            metric: metric.to_string(),
            value: median,
            unit: unit.to_string(),
            n,
            tail,
        })
    }

    pub fn count(metric: &str, unit: &str, value: f64) -> Row {
        Row {
            metric: metric.to_string(),
            value,
            unit: unit.to_string(),
            n: 1,
            tail: None,
        }
    }

    pub fn print(&self, workload: &str) {
        let tail = self
            .tail
            .map_or("-".to_string(), |(p, v)| format!("p{p}={v:.6}"));
        println!(
            "{workload} {} {:.6} {} {} {tail}",
            self.metric, self.value, self.unit, self.n
        );
    }

    /// Parse a table line of `workload`; `None` for any other line.
    pub fn parse(workload: &str, line: &str) -> Option<Row> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 6 || f[0] != workload {
            return None;
        }
        let tail = f[5].strip_prefix('p').and_then(|t| {
            let (p, v) = t.split_once('=')?;
            Some((p.parse().ok()?, v.parse().ok()?))
        });
        Some(Row {
            metric: f[1].to_string(),
            value: f[2].parse().ok()?,
            unit: f[3].to_string(),
            n: f[4].parse().ok()?,
            tail,
        })
    }
}

/// Facts about host or run, printed as `# <prefix> <key>: <value>`.
#[derive(Default)]
pub struct Facts(Vec<(String, String)>);

impl Facts {
    pub fn add(&mut self, key: &str, value: impl std::fmt::Display) {
        self.0.push((key.to_string(), value.to_string()));
    }

    /// A wall time in seconds.
    pub fn secs(&mut self, key: &str, seconds: f64) {
        self.add(key, format_args!("{seconds:.3}"));
    }

    pub fn print(&self, prefix: &str) {
        for (k, v) in &self.0 {
            println!("# {prefix} {k}: {v}");
        }
    }
}

/// What one run of one workload reports.
pub struct Report {
    pub rows: Vec<Row>,
    pub attempted: usize,
    pub failed: usize,
    /// Step counts, threads, connections, wall times.
    pub facts: Facts,
}

impl Report {
    /// Every output passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn value(&self, metric: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.value)
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn host_facts() -> Facts {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |k| k.trim().to_string());
    let mut facts = Facts::default();
    facts.add(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    facts.add("cpu", cpu);
    facts.add("kernel", kernel);
    facts.add("rustc", command_line("rustc", &["-V"]));
    facts.add("commit", command_line("git", &["rev-parse", "HEAD"]));
    facts
}

/// The last line of a single-workload run: the contract's result object.
pub fn result_line(report: &Report, metrics: &[(&str, &str)]) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, unit)) in metrics.iter().enumerate() {
        let value = report
            .value(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a string");
    }
    line.push_str("}}");
    Ok(line)
}

/// Every row of a run of all workloads, as one JSON document.
pub fn write_results(
    path: &Path,
    (seed, seconds, trace): (u64, f64, bool),
    all: &[(&str, Vec<Row>)],
) -> Result<(), String> {
    let mut doc = String::from("{\n");
    for (k, v) in host_facts().0 {
        writeln!(doc, "  \"{k}\": \"{}\",", v.replace('"', "'")).expect("writing to a string");
    }
    writeln!(
        doc,
        "  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"traced\": {trace},"
    )
    .expect("writing to a string");
    doc.push_str("  \"workloads\": {\n");
    for (wi, (name, rows)) in all.iter().enumerate() {
        writeln!(doc, "    \"{name}\": {{").expect("writing to a string");
        for (ri, r) in rows.iter().enumerate() {
            let tail = r.tail.map_or(String::new(), |(p, v)| {
                format!(", \"tail_percent\": {p}, \"tail\": {v}")
            });
            let comma = if ri + 1 == rows.len() { "" } else { "," };
            writeln!(
                doc,
                "      \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}{tail}}}{comma}",
                r.metric, r.value, r.unit, r.n
            )
            .expect("writing to a string");
        }
        let comma = if wi + 1 == all.len() { "" } else { "," };
        writeln!(doc, "    }}{comma}").expect("writing to a string");
    }
    doc.push_str("  }\n}\n");
    std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))
}
