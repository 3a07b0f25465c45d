//! The four kinds of run: untraced and traced, of a pipeline workload
//! and of `space-rw-tcp`.

use crate::pipeline::{self, PipelineWorkload};
use crate::report::{peak_rss_mb, Facts, Report, Row};
use crate::{hops, probe, space_rw, stats, trace};
use std::path::Path;
use std::time::{Duration, Instant};

/// An untraced run is this many segments, each a set-up, a warm-up and
/// a share of the timed work on its own seed derived from `--seed`
/// (the first on `--seed` itself). `setup_s` is the median of the
/// segments' set-ups, and what differs from one seed to the next —
/// how many features the field has, how many kernels are alight —
/// averages over the segments instead of moving the whole run.
const SEGMENTS: usize = 8;

/// The seed of segment `i` of a run on `seed`.
fn segment_seed(seed: u64, i: usize) -> u64 {
    match i {
        0 => seed,
        _ => stats::splitmix64(seed.wrapping_add(i as u64)),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Step periods and times-to-insight of the timed steps of a pass.
fn timed_samples(board: &probe::Board, warmup: usize) -> (Vec<f64>, Vec<f64>) {
    let first = warmup as u64 + 1;
    let last = board.steps() as u64;
    let step_ms = (first..last)
        .filter_map(|s| Some(ms(board.step_entry(s + 1)? - board.step_entry(s)?)))
        .collect();
    let insight_ms = board
        .entries()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.hybrid)
        .flat_map(|(a, _)| (first..=last).filter_map(move |s| board.insight_ns(a, s)))
        .map(ms)
        .collect();
    (step_ms, insight_ms)
}

fn verdict_facts(v: &pipeline::Verdict, facts: &mut Facts) {
    facts.add("staged_tasks", v.attempted);
    facts.add("degraded", v.degraded);
    facts.add("dropped", v.dropped);
    facts.add(
        "golden",
        format_args!(
            "{} of {} outputs of the first {} steps byte-identical to the in-situ run",
            v.golden_compared - v.golden_mismatches,
            v.golden_compared,
            pipeline::GOLDEN_STEPS
        ),
    );
    facts.add("output_count_ok", v.output_count_ok);
}

fn pipeline_facts(wl: &PipelineWorkload, steps: usize, facts: &mut Facts) {
    facts.add("dims", format_args!("{:?}", wl.dims));
    facts.add("ranks", format_args!("{:?}", pipeline::PARTS));
    facts.add("steps_per_pass", steps);
    facts.add("warmup_steps_per_pass", wl.warmup);
    facts.add("staging_threads", wl.staging_threads());
    facts.add("connections", wl.connections());
    facts.add("max_inflight", 4);
}

fn failed_share_row(attempted: usize, failed: usize) -> Row {
    Row {
        n: attempted,
        ..Row::count(
            "failed_share",
            "share",
            failed as f64 / attempted.max(1) as f64,
        )
    }
}

/// The untraced run of a pipeline workload: the end-to-end metrics.
pub fn pipeline_e2e(wl: &PipelineWorkload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut facts = Facts::default();
    let steps = wl.warmup + wl.timed_steps(seconds).div_ceil(SEGMENTS);
    let (mut setups, mut step_ms, mut insight_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut verdict: Option<pipeline::Verdict> = None;
    let (mut pass_wall, mut verify_wall) = (0.0, 0.0);
    for i in 0..SEGMENTS {
        let seed = segment_seed(seed, i);
        let pass = pipeline::run_pass(wl, seed, steps, false)?;
        setups.push(pass.setup.as_secs_f64());
        pass_wall += pass.wall.as_secs_f64();
        let t_verify = Instant::now();
        let v = pipeline::verify(wl, seed, &pass, i == 0)?;
        verify_wall += t_verify.elapsed().as_secs_f64();
        match &mut verdict {
            Some(total) => total.absorb(&v),
            None => verdict = Some(v),
        }
        let (steps, insights) = timed_samples(&pass.board, wl.warmup);
        step_ms.extend(steps);
        insight_ms.extend(insights);
    }
    let verdict = verdict.expect("at least one segment");
    pipeline_facts(wl, steps, &mut facts);
    verdict_facts(&verdict, &mut facts);
    facts.add("segments", SEGMENTS);
    facts.secs("passes_wall_s", pass_wall);
    facts.secs("verify_wall_s", verify_wall);

    let rows = vec![
        Row::timing("step_ms", "ms", &step_ms).ok_or("no step was timed")?,
        Row::timing("insight_ms", "ms", &insight_ms).ok_or("no staged task was delivered")?,
        failed_share_row(verdict.attempted, verdict.failed),
        Row::timing("setup_s", "s", &setups).expect("set-ups were measured"),
        Row::count("peak_rss_mb", "MB", peak_rss_mb()?),
    ];
    Ok(Report {
        rows,
        attempted: verdict.attempted,
        failed: verdict.failed,
        facts,
    })
}

/// Write the traced pass's spans beside the other results of the run.
fn write_spans(
    out: &Path,
    workload: &str,
    spans: &[trace::Span],
    facts: &mut Facts,
) -> Result<(), String> {
    let jsonl = out.join(format!("trace-{workload}.jsonl"));
    trace::write_jsonl(&jsonl, workload, spans).map_err(|e| format!("{}: {e}", jsonl.display()))?;
    facts.add(
        "spans",
        format_args!("{} in {}", spans.len(), jsonl.display()),
    );
    Ok(())
}

/// Rows every traced run ends with: the busy path, the gap, and the
/// overhead of tracing itself.
fn derived_rows(
    rows: &mut Vec<Row>,
    h: &hops::Hops,
    insight_ms: f64,
    aggregate_ms: f64,
    plain_step_ms: f64,
    traced_step_ms: f64,
) {
    for hop in &h.hops {
        rows.extend(Row::timing(&hop.name, hop.unit, &hop.samples));
    }
    for (name, value, unit) in &h.counts {
        rows.push(Row::count(name, unit, *value));
    }
    let path_busy = h.median("path_busy_ms").unwrap_or(0.0);
    rows.push(Row::count(
        "wait_gap_ms",
        "ms",
        insight_ms - aggregate_ms - path_busy,
    ));
    rows.push(Row::count("untraced_step_ms", "ms", plain_step_ms));
    rows.push(Row::count(
        "trace_overhead_pct",
        "%",
        100.0 * (traced_step_ms - plain_step_ms) / plain_step_ms,
    ));
}

/// The traced run of a pipeline workload: live spans, hand-stepped
/// hops, counts, and what is derived from them.
pub fn pipeline_traced(
    name: &str,
    wl: &PipelineWorkload,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<Report, String> {
    let mut facts = Facts::default();
    let steps = wl.warmup + wl.timed_steps(seconds / 2.0);
    let plain = pipeline::run_pass(wl, seed, steps, false)?;
    let traced = pipeline::run_pass(wl, seed, steps, true)?;
    let verdict = pipeline::verify(wl, seed, &traced, true)?;
    pipeline_facts(wl, steps, &mut facts);
    verdict_facts(&verdict, &mut facts);
    facts.secs("untraced_pass_wall_s", plain.wall.as_secs_f64());
    facts.secs("traced_pass_wall_s", traced.wall.as_secs_f64());

    let board = &traced.board;
    let first = wl.warmup as u64 + 1;
    let last = steps as u64;
    let spans = board.spans(first);
    write_spans(out, name, &spans, &mut facts)?;

    let self_ns = trace::self_times(&spans);
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.duration_ns()))
            .collect()
    };
    let aggregate_self: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "aggregate")
        .map(|s| ms(self_ns[&s.id]))
        .collect();

    // The three live parts must sum to each task's whole.
    let mut identity_broken = 0;
    let mut split_tasks = 0;
    for (a, _) in board.entries().iter().enumerate().filter(|(_, e)| e.hybrid) {
        for step in first..=last {
            match board.task_times(a, step).and_then(|t| t.split()) {
                Some(s) if s.identity_holds() => split_tasks += 1,
                _ => identity_broken += 1,
            }
        }
    }
    facts.add(
        "split_identity",
        format_args!(
            "ship_wait + aggregate + collect_wait = insight within 1 % on {split_tasks} tasks, \
             broken on {identity_broken}"
        ),
    );

    let (plain_step, _) = timed_samples(&plain.board, wl.warmup);
    let (step_ms, insight_ms) = timed_samples(board, wl.warmup);
    let produce: Vec<f64> = (first..=last).map(|s| ms(board.insitu_ns(s))).collect();
    let moved: Vec<f64> = (first..=last)
        .map(|s| board.moved_bytes(s) as f64)
        .collect();
    let (ship_wait, aggregate) = (durations("ship_wait"), durations("aggregate"));
    let mut rows: Vec<Row> = [
        Row::timing("step_ms", "ms", &step_ms),
        Row::timing("insight_ms", "ms", &insight_ms),
        Row::timing("core.insitu_ms", "ms", &durations("in_situ")),
        Row::timing("core.ship_wait_ms", "ms", &ship_wait),
        Row::timing("core.aggregate_ms", "ms", &aggregate),
        Row::timing("core.aggregate_self_ms", "ms", &aggregate_self),
        Row::timing("core.collect_wait_ms", "ms", &durations("collect_wait")),
        Row::timing("produce_ms", "ms", &produce),
        Row::timing("ship_wait_ms", "ms", &ship_wait),
        Row::timing("consume_ms", "ms", &aggregate),
        Row::timing("moved_bytes_per_step", "B", &moved),
    ]
    .into_iter()
    .flatten()
    .collect();
    rows.push(failed_share_row(verdict.attempted, verdict.failed));
    rows.push(Row::count(
        "sched.requeued",
        "count",
        traced.requeued as f64,
    ));
    rows.push(Row::count(
        "sched.max_queue_depth",
        "count",
        traced.max_queue_depth as f64,
    ));
    rows.push(Row::count("degraded", "count", verdict.degraded as f64));
    rows.push(Row::count("dropped", "count", verdict.dropped as f64));

    let t_hops = Instant::now();
    let h = hops::pipeline_hops(wl, seed, Duration::from_secs_f64(seconds * 0.3))?;
    facts.secs("hops_wall_s", t_hops.elapsed().as_secs_f64());
    derived_rows(
        &mut rows,
        &h,
        stats::median(&insight_ms),
        stats::median(&aggregate),
        stats::median(&plain_step),
        stats::median(&step_ms),
    );
    Ok(Report {
        rows,
        attempted: verdict.attempted,
        failed: verdict.failed + identity_broken,
        facts,
    })
}

/// Samples of the timed versions of `space-rw-tcp` passes.
#[derive(Default)]
struct SpaceSamples {
    step_ms: Vec<f64>,
    insight_ms: Vec<f64>,
    produce_ms: Vec<f64>,
    ship_wait_ms: Vec<f64>,
    consume_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
}

impl SpaceSamples {
    fn absorb(&mut self, other: SpaceSamples) {
        self.step_ms.extend(other.step_ms);
        self.insight_ms.extend(other.insight_ms);
        self.produce_ms.extend(other.produce_ms);
        self.ship_wait_ms.extend(other.ship_wait_ms);
        self.consume_ms.extend(other.consume_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn space_samples(pass: &space_rw::Pass, expected: usize) -> SpaceSamples {
    let timed = &pass.versions[space_rw::WARMUP.min(pass.versions.len())..];
    let unverified = pass.versions.iter().filter(|v| !v.verified).count();
    SpaceSamples {
        step_ms: timed
            .windows(2)
            .map(|w| ms(w[1].started - w[0].started))
            .collect(),
        insight_ms: timed
            .iter()
            .map(|v| ms(v.get_return - v.last_put_return))
            .collect(),
        produce_ms: timed
            .iter()
            .map(|v| ms(v.last_put_return - v.started))
            .collect(),
        ship_wait_ms: timed
            .iter()
            .map(|v| ms(v.get_entry - v.last_put_return))
            .collect(),
        consume_ms: timed
            .iter()
            .map(|v| ms(v.get_return - v.get_entry))
            .collect(),
        attempted: expected,
        // A version the reader never saw failed as surely as one that
        // read back wrong.
        failed: unverified + (expected - pass.versions.len()) + pass.errors.len().min(1),
    }
}

fn space_facts(versions: usize, facts: &mut Facts) {
    facts.add(
        "field",
        format_args!("{:?} doubles in 4 blocks of 256 KiB", space_rw::DIMS),
    );
    facts.add("versions_per_pass", versions);
    facts.add("warmup_versions_per_pass", space_rw::WARMUP);
    facts.add("window", space_rw::WINDOW);
    facts.add("threads", "2 (writer, reader)");
    facts.add("connections", 2);
}

/// The untraced run of `space-rw-tcp`.
pub fn space_e2e(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut facts = Facts::default();
    let versions = space_rw::WARMUP + space_rw::timed_versions(seconds).div_ceil(SEGMENTS);
    let mut setups = Vec::new();
    let mut s = SpaceSamples::default();
    let mut pass_wall = 0.0;
    for i in 0..SEGMENTS {
        let pass = space_rw::run_pass(segment_seed(seed, i), versions)?;
        setups.push(pass.setup.as_secs_f64());
        pass_wall += pass.wall.as_secs_f64();
        for e in pass.errors.iter().take(3) {
            facts.add("error", e);
        }
        s.absorb(space_samples(&pass, versions));
    }
    space_facts(versions, &mut facts);
    facts.add("segments", SEGMENTS);
    facts.secs("passes_wall_s", pass_wall);
    let rows = vec![
        Row::timing("step_ms", "ms", &s.step_ms).ok_or("no version was timed")?,
        Row::timing("insight_ms", "ms", &s.insight_ms).ok_or("no version was read")?,
        failed_share_row(s.attempted, s.failed),
        Row::timing("setup_s", "s", &setups).expect("set-ups were measured"),
        Row::count("peak_rss_mb", "MB", peak_rss_mb()?),
    ];
    Ok(Report {
        rows,
        attempted: s.attempted,
        failed: s.failed,
        facts,
    })
}

/// The traced run of `space-rw-tcp`. Its stamps are the same on every
/// run (there is no wrapper to switch), so the traced pass differs
/// from the untraced one only in keeping the spans.
pub fn space_traced(seed: u64, seconds: f64, out: &Path) -> Result<Report, String> {
    let mut facts = Facts::default();
    let versions = space_rw::WARMUP + space_rw::timed_versions(seconds / 2.0);
    let plain = space_rw::run_pass(seed, versions)?;
    let traced = space_rw::run_pass(seed, versions)?;
    space_facts(versions, &mut facts);
    facts.secs("untraced_pass_wall_s", plain.wall.as_secs_f64());
    facts.secs("traced_pass_wall_s", traced.wall.as_secs_f64());

    let mut spans = Vec::new();
    for (v, t) in traced.versions.iter().enumerate().skip(space_rw::WARMUP) {
        let task = 3 * v as u64;
        for (id, parent, name, start_ns, end_ns) in [
            (task, None, "task", t.last_put_return, t.get_return),
            (
                task + 1,
                Some(task),
                "ship_wait",
                t.last_put_return,
                t.get_entry,
            ),
            (
                task + 2,
                Some(task),
                "get_assembled",
                t.get_entry,
                t.get_return,
            ),
        ] {
            spans.push(trace::Span {
                id,
                parent,
                name,
                layer: "dataspaces",
                start_ns,
                end_ns,
                label: "coupled/field".into(),
                step: v as u64,
            });
        }
    }
    write_spans(out, "space-rw-tcp", &spans, &mut facts)?;

    let p = space_samples(&plain, versions);
    let s = space_samples(&traced, versions);
    let mut rows: Vec<Row> = [
        Row::timing("step_ms", "ms", &s.step_ms),
        Row::timing("insight_ms", "ms", &s.insight_ms),
        Row::timing("produce_ms", "ms", &s.produce_ms),
        Row::timing("ship_wait_ms", "ms", &s.ship_wait_ms),
        Row::timing("consume_ms", "ms", &s.consume_ms),
    ]
    .into_iter()
    .flatten()
    .collect();
    rows.push(Row::count(
        "moved_bytes_per_step",
        "B",
        (4 * space_rw::BLOCK_BYTES) as f64,
    ));
    let failed = s.failed + p.failed;
    rows.push(failed_share_row(s.attempted, failed));
    let t_hops = Instant::now();
    let h = hops::space_rw_hops(seed)?;
    facts.secs("hops_wall_s", t_hops.elapsed().as_secs_f64());
    // Nothing aggregates here: the read is the whole consumer, and it
    // is also the only hop inside insight, so the gap is what a read
    // costs beyond one that has the server to itself, plus the wait.
    derived_rows(
        &mut rows,
        &h,
        stats::median(&s.insight_ms),
        0.0,
        stats::median(&p.step_ms),
        stats::median(&s.step_ms),
    );
    Ok(Report {
        rows,
        attempted: s.attempted,
        failed,
        facts,
    })
}
