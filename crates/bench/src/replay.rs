//! Replay an observability journal (JSONL of [`ObsEvent`]) into the
//! paper-style per-stage breakdown.
//!
//! The driver journals two event families per analysis row —
//! `analysis.insitu` (the simulation-side half) and `analysis.aggregate`
//! (the staging-side half) — plus one `step` event per timestep, and a
//! `staging.ship` event per task shipped to a remote staging area. Every
//! numeric value is stringified with `Display`, which round-trips `f64`
//! exactly, so the rows reconstructed here agree bit-for-bit with the
//! `PipelineMetrics` the live run returned (the agreement test in
//! `tests/obs_report.rs` asserts exactly that).

use serde::Serialize;
use sitra_core::StepMetrics;
use sitra_dataspaces::{TenantSchedStats, TenantSnapshot, DEFAULT_TENANT};
use sitra_obs::ObsEvent;
use std::path::Path;

/// One `(analysis, step)` row rebuilt from the journal, mirroring
/// `sitra_core::AnalysisMetrics`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StageRow {
    /// Analysis label.
    pub analysis: String,
    /// Simulation step.
    pub step: u64,
    /// `insitu`, `hybrid`, or `hybrid-remote` (empty when the journal
    /// only holds the aggregation half, e.g. a worker-side journal).
    pub placement: String,
    /// Wall seconds of the in-situ stage (max over ranks).
    pub insitu_secs: f64,
    /// In-situ seconds summed over ranks.
    pub insitu_core_secs: f64,
    /// Wall seconds the simulation thread spent shipping the task to a
    /// remote staging area (`staging.ship` event; 0 elsewhere).
    pub ship_secs: f64,
    /// Bytes shipped to the aggregation stage.
    pub movement_bytes: u64,
    /// Simulated network seconds for the movement.
    pub movement_sim_secs: f64,
    /// Wall seconds of the aggregation stage.
    pub aggregate_secs: f64,
    /// Which bucket aggregated (None for synchronous in-situ).
    pub bucket: Option<u32>,
    /// Streaming aggregation was used.
    pub streamed: bool,
    /// Step completion → output availability.
    pub latency_secs: f64,
    /// The staging path failed and the driver re-ran the aggregation
    /// in-situ (`analysis.degraded` event).
    pub degraded: bool,
}

/// Everything a journal replay reconstructs.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Replay {
    /// Per-step rows, in journal order (`degraded` from the
    /// `step.degraded` event).
    pub steps: Vec<StepMetrics>,
    /// Per-(analysis, step) rows, in first-seen order.
    pub stages: Vec<StageRow>,
    /// Events that were not part of the driver/worker span families
    /// (net frames, scheduler internals, …) — counted, not dropped
    /// silently.
    pub other_events: usize,
}

/// Read a JSONL journal. Unparseable lines are an error: a journal is
/// machine-written, so garbage means truncation or corruption.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<ObsEvent>> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev: ObsEvent = serde_json::from_str(line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}:{}: bad journal line: {e}", path.display(), i + 1),
            )
        })?;
        events.push(ev);
    }
    Ok(events)
}

/// Rebuild per-step and per-stage rows from a stream of events.
pub fn replay(events: &[ObsEvent]) -> Replay {
    let mut out = Replay::default();
    for ev in events {
        match (ev.component.as_str(), ev.name.as_str()) {
            ("driver", "step") => {
                let row = step_row(&mut out.steps, ev.u64("step").unwrap_or(0));
                row.sim_secs = ev.f64("sim_secs").unwrap_or(0.0);
                row.ghost_secs = ev.f64("ghost_secs").unwrap_or(0.0);
                row.blocked_secs = ev.f64("blocked_secs").unwrap_or(0.0);
            }
            // Degradation can be journaled before the step event (in
            // the step's analysis loop) or after every step event (in
            // the end-of-run drain), hence find-or-create both ways.
            ("driver", "step.degraded") => {
                step_row(&mut out.steps, ev.u64("step").unwrap_or(0)).degraded = true;
            }
            ("driver", "analysis.insitu") => {
                let row = stage_row(&mut out.stages, ev);
                row.placement = ev.get("placement").unwrap_or("").to_string();
                row.insitu_secs = ev.f64("insitu_secs").unwrap_or(0.0);
                row.insitu_core_secs = ev.f64("insitu_core_secs").unwrap_or(0.0);
                row.movement_bytes = ev.u64("movement_bytes").unwrap_or(0);
                row.movement_sim_secs = ev.f64("movement_sim_secs").unwrap_or(0.0);
            }
            ("driver", "staging.ship") => {
                stage_row(&mut out.stages, ev).ship_secs = ev.f64("ship_secs").unwrap_or(0.0);
            }
            ("driver" | "worker", "analysis.aggregate") => {
                let row = stage_row(&mut out.stages, ev);
                // A degraded row is driver-owned: the live run retires
                // every task exactly once, so an aggregate event landing
                // on a degraded row can only be abandoned worker-side
                // work (the worker finished after the driver's deadline
                // expired and its output was never collected). Keep the
                // driver's authoritative half.
                if row.degraded {
                    continue;
                }
                row.aggregate_secs = ev.f64("aggregate_secs").unwrap_or(0.0);
                row.bucket = ev.get("bucket").and_then(|b| b.parse().ok());
                row.streamed = ev.get("streamed") == Some("true");
                row.latency_secs = ev.f64("latency_secs").unwrap_or(0.0);
                // The bucket measures the movement too (its pulls);
                // merge with max(), exactly as the live driver does.
                row.movement_sim_secs = row
                    .movement_sim_secs
                    .max(ev.f64("movement_sim_secs").unwrap_or(0.0));
            }
            ("driver", "analysis.degraded") => {
                // The staging path failed this task; the driver re-ran
                // the aggregation in-situ. Mirrors the live driver's
                // in-place row update — including voiding any bucket
                // assignment a since-abandoned remote aggregation may
                // have journaled before the degradation.
                let row = stage_row(&mut out.stages, ev);
                row.aggregate_secs = ev.f64("aggregate_secs").unwrap_or(0.0);
                row.latency_secs = ev.f64("latency_secs").unwrap_or(0.0);
                row.bucket = None;
                row.streamed = false;
                row.degraded = true;
            }
            _ => out.other_events += 1,
        }
    }
    out
}

/// The row for this step, created on first sight.
fn step_row(steps: &mut Vec<StepMetrics>, step: u64) -> &mut StepMetrics {
    if let Some(i) = steps.iter().position(|r| r.step == step) {
        return &mut steps[i];
    }
    steps.push(StepMetrics {
        step,
        ..StepMetrics::default()
    });
    steps.last_mut().unwrap()
}

/// The row for this event's `(analysis, step)`, created on first sight.
fn stage_row<'a>(stages: &'a mut Vec<StageRow>, ev: &ObsEvent) -> &'a mut StageRow {
    let analysis = ev.get("analysis").unwrap_or("").to_string();
    let step = ev.u64("step").unwrap_or(0);
    if let Some(i) = stages
        .iter()
        .position(|r| r.analysis == analysis && r.step == step)
    {
        return &mut stages[i];
    }
    stages.push(StageRow {
        analysis,
        step,
        ..StageRow::default()
    });
    stages.last_mut().unwrap()
}

impl Replay {
    /// Mean in-situ seconds of one analysis across its steps.
    pub fn mean_insitu_secs(&self, analysis: &str) -> f64 {
        mean(self.rows(analysis).map(|r| r.insitu_secs))
    }

    /// Mean aggregation seconds of one analysis across its steps.
    pub fn mean_aggregate_secs(&self, analysis: &str) -> f64 {
        mean(self.rows(analysis).map(|r| r.aggregate_secs))
    }

    /// Distinct analysis labels, in first-seen order.
    pub fn analyses(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.stages {
            if !seen.contains(&r.analysis.as_str()) {
                seen.push(r.analysis.as_str());
            }
        }
        seen
    }

    /// Steps on which at least one hybrid analysis degraded to in-situ
    /// fallback.
    pub fn degraded_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.degraded).count()
    }

    /// Stage rows that degraded to in-situ fallback.
    pub fn degraded_stages(&self) -> usize {
        self.stages.iter().filter(|s| s.degraded).count()
    }

    fn rows<'a>(&'a self, analysis: &'a str) -> impl Iterator<Item = &'a StageRow> {
        self.stages.iter().filter(move |r| r.analysis == analysis)
    }
}

/// Rebuild the per-tenant scheduler table from the journal's `sched`
/// event families (`tenant.register`, `tenant.admit`, `tenant.assign`,
/// `tenant.requeue`, `task.shed`), bit-identical to what the live
/// `Scheduler::tenant_stats` reported at the same point in the event
/// stream. `queued` is derived from the conservation identity
/// (`submitted + requeued == assigned + shed + queued`), which the
/// scheduler maintains atomically under its lock.
///
/// Row order matches the live snapshot: the default tenant is seeded at
/// index 0 (it exists from construction without journaling anything),
/// and every other tenant's first scheduler interaction — registration
/// or first submission — journals an event naming it, so first-seen
/// order here is first-touch order there.
pub fn replay_tenants(events: &[ObsEvent]) -> Vec<TenantSnapshot> {
    let mut rows = vec![TenantSnapshot {
        name: DEFAULT_TENANT.to_string(),
        weight: 1,
        queued: 0,
        task_quota: None,
        stats: TenantSchedStats::default(),
    }];
    fn row<'a>(rows: &'a mut Vec<TenantSnapshot>, name: &str) -> &'a mut TenantSnapshot {
        if let Some(i) = rows.iter().position(|r| r.name == name) {
            return &mut rows[i];
        }
        rows.push(TenantSnapshot {
            name: name.to_string(),
            weight: 1,
            queued: 0,
            task_quota: None,
            stats: TenantSchedStats::default(),
        });
        rows.last_mut().unwrap()
    }
    for ev in events {
        if ev.component != "sched" {
            continue;
        }
        let Some(tenant) = ev.get("tenant").map(str::to_string) else {
            continue;
        };
        match ev.name.as_str() {
            "tenant.register" => {
                let r = row(&mut rows, &tenant);
                r.weight = ev.u64("weight").unwrap_or(1) as u32;
                r.task_quota = match ev.get("task_quota") {
                    None | Some("none") => None,
                    Some(q) => q.parse().ok(),
                };
            }
            "tenant.admit" => {
                let r = row(&mut rows, &tenant);
                match ev.get("verdict") {
                    // "shed" is AcceptedShed: the submission was
                    // admitted (the victim's eviction is journaled
                    // separately as `task.shed`).
                    Some("accepted") | Some("shed") => r.stats.tasks_submitted += 1,
                    Some("rejected") => r.stats.tasks_rejected += 1,
                    _ => {}
                }
            }
            "tenant.assign" => row(&mut rows, &tenant).stats.tasks_assigned += 1,
            "tenant.requeue" => row(&mut rows, &tenant).stats.tasks_requeued += 1,
            "task.shed" => row(&mut rows, &tenant).stats.tasks_shed += 1,
            _ => {}
        }
    }
    for r in &mut rows {
        r.queued = (r.stats.tasks_submitted + r.stats.tasks_requeued)
            - (r.stats.tasks_assigned + r.stats.tasks_shed);
    }
    rows
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(component: &str, name: &str, kv: &[(&str, &str)]) -> ObsEvent {
        ObsEvent {
            ts_ns: 0,
            component: component.into(),
            name: name.into(),
            kv: kv
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn merges_insitu_and_aggregate_halves() {
        let events = vec![
            ev(
                "driver",
                "staging.ship",
                &[
                    ("analysis", "viz"),
                    ("step", "1"),
                    ("parts", "4"),
                    ("members", "1"),
                    ("round_trips", "1"),
                    ("ship_secs", "0.0625"),
                ],
            ),
            ev(
                "driver",
                "analysis.insitu",
                &[
                    ("analysis", "viz"),
                    ("step", "1"),
                    ("placement", "hybrid"),
                    ("insitu_secs", "0.25"),
                    ("insitu_core_secs", "1.0"),
                    ("movement_bytes", "4096"),
                    ("movement_sim_secs", "0.125"),
                ],
            ),
            ev(
                "driver",
                "step",
                &[
                    ("step", "1"),
                    ("sim_secs", "2.5"),
                    ("ghost_secs", "0.5"),
                    ("blocked_secs", "0.25"),
                ],
            ),
            ev(
                "worker",
                "analysis.aggregate",
                &[
                    ("analysis", "viz"),
                    ("step", "1"),
                    ("aggregate_secs", "0.75"),
                    ("bucket", "3"),
                    ("streamed", "true"),
                    ("latency_secs", "1.5"),
                ],
            ),
            ev("net", "frame", &[("bytes", "64")]),
        ];
        let r = replay(&events);
        assert_eq!(r.steps.len(), 1);
        assert_eq!(r.steps[0].sim_secs, 2.5);
        assert_eq!(r.stages.len(), 1);
        let s = &r.stages[0];
        assert_eq!(s.analysis, "viz");
        assert_eq!(s.placement, "hybrid");
        assert_eq!(s.insitu_secs, 0.25);
        assert_eq!(s.ship_secs, 0.0625);
        assert_eq!(s.movement_bytes, 4096);
        assert_eq!(s.aggregate_secs, 0.75);
        assert_eq!(s.bucket, Some(3));
        assert!(s.streamed);
        assert_eq!(s.latency_secs, 1.5);
        assert_eq!(r.other_events, 1);
        assert_eq!(r.analyses(), vec!["viz"]);
        assert_eq!(r.mean_insitu_secs("viz"), 0.25);
        assert_eq!(r.mean_aggregate_secs("viz"), 0.75);
    }

    #[test]
    fn insitu_placement_keeps_bucket_none() {
        let events = vec![ev(
            "driver",
            "analysis.aggregate",
            &[
                ("analysis", "stats"),
                ("step", "2"),
                ("aggregate_secs", "0.1"),
                ("bucket", "-"),
                ("streamed", "false"),
                ("latency_secs", "0"),
            ],
        )];
        let r = replay(&events);
        assert_eq!(r.stages[0].bucket, None);
        assert!(!r.stages[0].streamed);
    }

    #[test]
    fn degradation_events_mark_rows_in_any_order() {
        // step.degraded lands before its step event (in-step shed) for
        // step 1, and after all step events (drain) for step 2.
        let events = vec![
            ev(
                "driver",
                "analysis.degraded",
                &[
                    ("analysis", "viz"),
                    ("step", "1"),
                    ("reason", "shed"),
                    ("aggregate_secs", "0.125"),
                    ("latency_secs", "0.5"),
                ],
            ),
            ev("driver", "step.degraded", &[("step", "1")]),
            ev(
                "driver",
                "step",
                &[
                    ("step", "1"),
                    ("sim_secs", "2.0"),
                    ("ghost_secs", "0.25"),
                    ("blocked_secs", "0.375"),
                ],
            ),
            ev(
                "driver",
                "step",
                &[
                    ("step", "2"),
                    ("sim_secs", "2.0"),
                    ("ghost_secs", "0.25"),
                    ("blocked_secs", "0"),
                ],
            ),
            ev(
                "driver",
                "analysis.degraded",
                &[
                    ("analysis", "viz"),
                    ("step", "2"),
                    ("reason", "deadline"),
                    ("aggregate_secs", "0.25"),
                    ("latency_secs", "1.0"),
                ],
            ),
            ev("driver", "step.degraded", &[("step", "2")]),
        ];
        let r = replay(&events);
        assert_eq!(r.steps.len(), 2);
        assert!(r.steps.iter().all(|s| s.degraded));
        assert_eq!(r.steps[0].sim_secs, 2.0);
        assert_eq!(r.steps[0].blocked_secs, 0.375);
        assert_eq!(r.degraded_steps(), 2);
        assert_eq!(r.degraded_stages(), 2);
        let s = &r.stages[0];
        assert!(s.degraded);
        assert_eq!(s.aggregate_secs, 0.125);
        assert_eq!(s.latency_secs, 0.5);
        assert_eq!(r.other_events, 0);
    }

    #[test]
    fn abandoned_worker_aggregation_never_clobbers_a_degraded_row() {
        let degraded = ev(
            "driver",
            "analysis.degraded",
            &[
                ("analysis", "viz"),
                ("step", "1"),
                ("reason", "deadline"),
                ("aggregate_secs", "0.125"),
                ("latency_secs", "0.5"),
            ],
        );
        let abandoned = ev(
            "worker",
            "analysis.aggregate",
            &[
                ("analysis", "viz"),
                ("step", "1"),
                ("aggregate_secs", "9.0"),
                ("bucket", "3"),
                ("streamed", "true"),
                ("latency_secs", "9.0"),
            ],
        );
        // Either journal order — worker finished after the driver's
        // deadline (degraded first), or the degradation raced past an
        // already-journaled aggregation (aggregate first) — must
        // reconstruct the same driver-owned row.
        for events in [
            vec![degraded.clone(), abandoned.clone()],
            vec![abandoned.clone(), degraded.clone()],
        ] {
            let r = replay(&events);
            assert_eq!(r.stages.len(), 1);
            let s = &r.stages[0];
            assert!(s.degraded);
            assert_eq!(s.aggregate_secs, 0.125);
            assert_eq!(s.latency_secs, 0.5);
            assert_eq!(s.bucket, None);
            assert!(!s.streamed);
        }
    }

    #[test]
    fn tenant_table_rebuilds_from_sched_events() {
        let events = vec![
            ev(
                "sched",
                "tenant.register",
                &[("tenant", "acme"), ("weight", "3"), ("task_quota", "none")],
            ),
            ev(
                "sched",
                "tenant.register",
                &[("tenant", "hog"), ("weight", "1"), ("task_quota", "2")],
            ),
            ev(
                "sched",
                "tenant.admit",
                &[("tenant", "acme"), ("verdict", "accepted")],
            ),
            ev(
                "sched",
                "tenant.admit",
                &[("tenant", "acme"), ("verdict", "shed")],
            ),
            ev(
                "sched",
                "tenant.admit",
                &[("tenant", "hog"), ("verdict", "rejected")],
            ),
            ev("sched", "task.shed", &[("seq", "0"), ("tenant", "acme")]),
            ev(
                "sched",
                "tenant.assign",
                &[("tenant", "acme"), ("seq", "1")],
            ),
            ev(
                "sched",
                "tenant.requeue",
                &[("tenant", "acme"), ("seq", "1")],
            ),
            ev("driver", "step", &[("step", "1")]),
        ];
        let rows = replay_tenants(&events);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].name, DEFAULT_TENANT);
        assert_eq!(rows[0].stats, TenantSchedStats::default());
        let acme = &rows[1];
        assert_eq!(acme.name, "acme");
        assert_eq!(acme.weight, 3);
        assert_eq!(acme.task_quota, None);
        assert_eq!(acme.stats.tasks_submitted, 2);
        assert_eq!(acme.stats.tasks_assigned, 1);
        assert_eq!(acme.stats.tasks_requeued, 1);
        assert_eq!(acme.stats.tasks_shed, 1);
        // submitted 2 + requeued 1 == assigned 1 + shed 1 + queued 1
        assert_eq!(acme.queued, 1);
        let hog = &rows[2];
        assert_eq!(hog.task_quota, Some(2));
        assert_eq!(hog.stats.tasks_rejected, 1);
        assert_eq!(hog.queued, 0);
    }

    #[test]
    fn journal_roundtrip_through_file() {
        let path = std::env::temp_dir().join(format!("sitra-replay-{}.jsonl", std::process::id()));
        let e = ev("driver", "step", &[("step", "7"), ("sim_secs", "0.5")]);
        std::fs::write(&path, format!("{}\n\n", serde_json::to_string(&e).unwrap())).unwrap();
        let events = read_journal(&path).unwrap();
        assert_eq!(events, vec![e]);
        std::fs::write(&path, "not json\n").unwrap();
        assert!(read_journal(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
