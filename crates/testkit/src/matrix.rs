//! The scenario matrix: every registered analysis × every staging
//! backend × every admission policy × a pinned fault-plan subset, each
//! combination judged by the invariant oracles.
//!
//! Where `tests/chaos.rs` explores *depth* (one fixture roster under an
//! open-ended fault corpus, with shrinking), the matrix pins *breadth*:
//! the full five-analysis roster — the frozen chaos fixture plus the
//! Lagrangian flow map and the steerable visualization workload — runs
//! under every backend/policy combination, and every cell must hold
//! the four chaos oracles plus one per workload its roster registers:
//!
//! * **flow-map golden endpoints** — the decoded flow-map termination
//!   records of every backend run are identical, record for record, to
//!   the fault-free fully-in-situ golden run (communication-free
//!   extraction means the backend cannot change a single endpoint);
//! * **steer-ack monotonicity** — once the subscriber's feedback is
//!   acknowledged, every frame it receives afterwards must be reduced
//!   under the new rate (frames are reduced at delivery time, so an
//!   acked rate can never be overtaken by an older frame).
//!
//! The matrix keeps its plans **out of the frozen chaos corpus**: plans
//! here are normalized to transport faults only (drops, delays,
//! duplicates, reorders, partitions) — crash/restart and elasticity
//! schedules remain `tests/chaos.rs` territory, so the pinned seeds
//! there keep mapping to the exact same schedules.

use crate::fixture;
use crate::plan::FaultPlan;
use crate::scenario::{self, Backend};
use sitra_cluster::ClusterNodeOpts;
use sitra_core::{
    AnalysisSpec, HybridViz, LagrangianFlowMap, PipelineConfig, PipelineResult, Placement,
};
use sitra_dataspaces::{AdmissionPolicy, SteerClient, SteerFrame};
use sitra_flowmap::FlowRecord;
use sitra_mesh::BBox3;
use sitra_net::{Addr, Backoff};
use sitra_obs::ObsEvent;
use sitra_sim::Variable;
use sitra_viz::{TransferFunction, View, ViewAxis};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Label of the flow-map registration in the matrix roster.
pub const FLOWMAP_LABEL: &str = "flow-map";
/// Label of the steerable-visualization registration.
pub const STEER_LABEL: &str = "viz-steer";
/// Subscriber name the matrix's steering client declares.
pub const STEER_SUBSCRIBER: &str = "matrix-viewer";
/// Initial downsample rate the subscriber declares.
pub const STEER_RATE_INITIAL: u32 = 2;
/// Rate the subscriber steers to after its first frame.
pub const STEER_RATE_STEERED: u32 = 3;

/// The matrix roster: the frozen chaos fixture (`fixture::specs`)
/// plus the two new workloads. Both additions are `Placement::Hybrid`
/// — the fixture's replay checker maps only the `stats` label to
/// in-situ placement — and both aggregate deterministically from any
/// part arrival order, so golden-output byte-identity holds across
/// backends.
pub fn matrix_specs() -> Vec<AnalysisSpec> {
    let mut specs = fixture::specs();
    specs.push(AnalysisSpec::new(
        Arc::new(LagrangianFlowMap::default()),
        Placement::Hybrid,
        2,
    ));
    specs.push(
        AnalysisSpec::new(
            Arc::new(HybridViz {
                stride: 4,
                view: View::full_res(BBox3::from_dims(fixture::DIMS), ViewAxis::Z, false),
                tf: TransferFunction::hot(250.0, 2500.0),
            }),
            Placement::Hybrid,
            1,
        )
        .with_label(STEER_LABEL),
    );
    specs
}

/// The matrix pipeline configuration: the fixture geometry with the
/// matrix roster and the velocity components materialized per block
/// (the flow map advects through them).
pub fn matrix_config(buckets: usize, specs: Vec<AnalysisSpec>) -> PipelineConfig {
    let mut cfg = PipelineConfig::new([2, 2, 1], buckets, fixture::STEPS);
    cfg.analyses = specs;
    cfg.extra_variables = vec![Variable::VelU, Variable::VelV, Variable::VelW];
    cfg
}

/// The admission-policy axis: `(name, queue capacity, policy)`.
pub fn admission_policies() -> Vec<(&'static str, Option<usize>, AdmissionPolicy)> {
    vec![
        (
            "block",
            Some(4),
            AdmissionPolicy::Block {
                max_wait: Duration::from_millis(500),
            },
        ),
        ("reject-new", Some(3), AdmissionPolicy::RejectNew),
        ("shed-oldest", Some(3), AdmissionPolicy::ShedOldest),
    ]
}

/// The pinned fault-plan axis: one fault-free plan (the control row)
/// and one seeded transport-fault plan. [`scenario_matrix`] normalizes
/// whatever it is given to transport faults only.
pub fn pinned_fault_subset() -> Vec<FaultPlan> {
    vec![FaultPlan::fault_free(1), FaultPlan::from_seed(42)]
}

/// What the matrix's steering subscriber observed, judged by the
/// steer-ack monotonicity oracle.
#[derive(Debug, Clone, Default)]
pub struct SteerObservation {
    /// `(version, rate, received after the steer ack)` per frame.
    pub frames: Vec<(u64, u32, bool)>,
    /// The newest published version the steer ack reported.
    pub ack_latest_version: Option<u64>,
}

/// One matrix cell: a single analysis judged within one
/// `(backend, policy, plan)` run.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Analysis label.
    pub analysis: String,
    /// Backend name ([`Backend::name`]).
    pub backend: &'static str,
    /// Admission-policy name.
    pub policy: &'static str,
    /// Fault-plan spec string.
    pub plan: String,
    /// Oracle violations attributed to this analysis (run-wide
    /// violations are attributed to every cell of the run).
    pub violations: Vec<String>,
    /// Median completion latency over the analysis's rows (seconds).
    /// Exactly `0.0` means "not measured at the driver": in-situ
    /// placements aggregate synchronously inside the step, and on the
    /// remote backend the aggregation half lives in the bucket worker,
    /// which has no issue timestamp to measure from. Rendered as `–`
    /// in the markdown table.
    pub p50_latency_secs: f64,
    /// p99 (max, at matrix sample sizes) completion latency. Same
    /// `0.0` = unmeasured convention as `p50_latency_secs`.
    pub p99_latency_secs: f64,
}

impl MatrixCell {
    /// Did every oracle hold for this cell?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The full matrix report.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Every executed cell.
    pub cells: Vec<MatrixCell>,
    /// `(backend, policy, plan)` runs executed.
    pub runs: usize,
}

impl MatrixReport {
    /// Did every cell pass?
    pub fn passed(&self) -> bool {
        self.cells.iter().all(MatrixCell::passed)
    }

    /// Cells that failed at least one oracle.
    pub fn failures(&self) -> Vec<&MatrixCell> {
        self.cells.iter().filter(|c| !c.passed()).collect()
    }

    /// The matrix as a markdown table (EXPERIMENTS.md currency).
    pub fn markdown(&self) -> String {
        let mut s = String::from(
            "| analysis | backend | policy | plan | result | p50 latency | p99 latency |\n\
             |---|---|---|---|---|---|---|\n",
        );
        let ms = |secs: f64| {
            if secs == 0.0 {
                "–".to_string()
            } else {
                format!("{:.1} ms", secs * 1e3)
            }
        };
        for c in &self.cells {
            s.push_str(&format!(
                "| {} | {} | {} | `{}` | {} | {} | {} |\n",
                c.analysis,
                c.backend,
                c.policy,
                c.plan,
                if c.passed() { "pass" } else { "FAIL" },
                ms(c.p50_latency_secs),
                ms(c.p99_latency_secs),
            ));
        }
        s
    }

    /// The matrix as JSON lines (one object per cell), the
    /// machine-readable `BENCH_*.json` currency.
    pub fn json_lines(&self) -> String {
        let jstr = |s: &str| serde_json::to_string(s).expect("string serializes");
        let mut out = String::new();
        for c in &self.cells {
            let id = format!("{}/{}/{}/{}", c.backend, c.policy, c.analysis, c.plan);
            let violations = c
                .violations
                .iter()
                .map(|v| jstr(v))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{{\"group\":\"matrix\",\"id\":{},\"passed\":{},\"violations\":[{}],\
                 \"p50_latency_ns\":{},\"p99_latency_ns\":{}}}\n",
                jstr(&id),
                c.passed(),
                violations,
                (c.p50_latency_secs * 1e9) as u64,
                (c.p99_latency_secs * 1e9) as u64,
            ));
        }
        out
    }
}

/// Strip everything but transport faults from a plan: the matrix pins
/// drop/delay/dup/reorder/partition behaviour; crash and elasticity
/// schedules stay in the chaos corpus.
fn transport_only(plan: &FaultPlan) -> FaultPlan {
    let mut p = plan.clone();
    p.crash = None;
    p.scale = None;
    p.instance_loss = None;
    p
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run the full matrix: `backends` × [`admission_policies`] × `plans`
/// (normalized to transport faults), one pipeline run per combination
/// over the given roster, every run judged by the scenario oracles.
pub fn scenario_matrix(
    backends: &[Backend],
    plans: &[FaultPlan],
    specs_fn: impl Fn() -> Vec<AnalysisSpec>,
) -> MatrixReport {
    let config = || matrix_config(2, specs_fn());
    let mut report = MatrixReport::default();
    for &backend in backends {
        for (policy_name, capacity, policy) in admission_policies() {
            for plan in plans {
                let plan = transport_only(plan);
                let members = ClusterNodeOpts {
                    capacity,
                    policy,
                    ..ClusterNodeOpts::default()
                };
                let (outcome, result) = scenario::run(plan.seed, &plan, backend, &config, members);
                report.runs += 1;
                // Run-wide violations land on every analysis of the
                // run; latency percentiles come from each analysis's
                // metric rows.
                report.cells.extend(specs_fn().iter().map(|spec| {
                    let mut lat: Vec<f64> = result
                        .metrics
                        .analyses
                        .iter()
                        .filter(|m| m.analysis == spec.label)
                        .map(|m| m.completion_latency_secs)
                        .collect();
                    lat.sort_by(f64::total_cmp);
                    MatrixCell {
                        analysis: spec.label.clone(),
                        backend: backend.name(),
                        policy: policy_name,
                        plan: plan.to_string(),
                        violations: outcome.violations.clone(),
                        p50_latency_secs: percentile(&lat, 0.50),
                        p99_latency_secs: percentile(&lat, 0.99),
                    }
                }));
            }
        }
    }
    report
}

/// The matrix's steering subscriber on `addr`: it declares
/// [`STEER_RATE_INITIAL`], steers to [`STEER_RATE_STEERED`] right after
/// its first frame, and records every frame for [`steer_violations`].
/// It re-pulls through transient faults until the server drains or
/// `stop` is raised.
pub(crate) fn spawn_subscriber(addr: Addr, stop: &Arc<AtomicBool>) -> JoinHandle<SteerObservation> {
    let stop = Arc::clone(stop);
    std::thread::Builder::new()
        .name("matrix-steer-subscriber".into())
        .spawn(move || {
            let backoff = Backoff {
                initial: Duration::from_millis(2),
                max: Duration::from_millis(20),
                attempts: 25,
            };
            let mut obs = SteerObservation::default();
            let Ok(mut client) =
                SteerClient::connect(&addr, STEER_SUBSCRIBER, STEER_RATE_INITIAL, backoff)
            else {
                return obs;
            };
            loop {
                match client.next_frame(Duration::from_millis(300)) {
                    Ok(Some(SteerFrame { version, rate, .. })) => {
                        obs.frames
                            .push((version, rate, obs.ack_latest_version.is_some()));
                        if obs.ack_latest_version.is_none() {
                            if let Ok(latest) =
                                client.steer(STEER_RATE_STEERED, Duration::from_millis(300))
                            {
                                obs.ack_latest_version = Some(latest);
                            }
                        }
                    }
                    Ok(None) => break, // server drained: run is over
                    Err(_) if stop.load(Ordering::SeqCst) => break,
                    Err(_) => continue, // transient fault: re-pull
                }
            }
            obs
        })
        .expect("spawn steering subscriber")
}

/// The flow-map golden-endpoints oracle. Decoded termination records,
/// not just bytes: every record must match the golden run exactly,
/// stay strictly seed-sorted, and carry finite endpoints.
pub(crate) fn flow_violations(
    golden: &[(u64, Vec<FlowRecord>)],
    flow: &[(u64, Vec<FlowRecord>)],
) -> Vec<String> {
    let mut violations = Vec::new();
    if flow.len() != golden.len() {
        violations.push(format!(
            "flow-map: {} outputs != golden {}",
            flow.len(),
            golden.len()
        ));
    }
    for (step, recs) in flow {
        match golden.iter().find(|(s, _)| s == step) {
            None => violations.push(format!("flow-map: step {step} missing from golden run")),
            Some((_, golden_recs)) if recs != golden_recs => violations.push(format!(
                "flow-map: records diverge from golden at step {step}"
            )),
            _ => {}
        }
        if !recs.windows(2).all(|w| w[0].seed < w[1].seed) {
            violations.push(format!("flow-map: step {step} records not seed-sorted"));
        }
        if recs.iter().any(|r| r.end.iter().any(|c| !c.is_finite())) {
            violations.push(format!("flow-map: non-finite endpoint at step {step}"));
        }
    }
    violations
}

/// The steer-ack monotonicity oracle. Every frame the subscriber
/// received after its acknowledged feedback must be reduced under the
/// steered rate; the journal must account for at least as many
/// delivered frames as the client saw (replies can be lost to injected
/// faults, never invented).
pub(crate) fn steer_violations(obs: &SteerObservation, events: &[ObsEvent]) -> Vec<String> {
    let mut violations = Vec::new();
    if obs.frames.is_empty() {
        violations.push("steer: subscriber received no frames".into());
    }
    for (version, rate, after_ack) in &obs.frames {
        if *after_ack && *rate != STEER_RATE_STEERED {
            violations.push(format!(
                "steer: frame v{version} delivered at rate {rate} after rate-{} ack",
                STEER_RATE_STEERED
            ));
        }
    }
    let replayed = sitra_dataspaces::replay_steer(events);
    let account = replayed.get(STEER_SUBSCRIBER);
    let journal_frames = account.map_or(0, |a| a.frames_sent);
    if journal_frames < obs.frames.len() as u64 {
        violations.push(format!(
            "steer: journal accounts {journal_frames} frames, subscriber received {}",
            obs.frames.len()
        ));
    }
    if obs.ack_latest_version.is_some() && account.map_or(0, |a| a.steers_acked) == 0 {
        violations.push("steer: ack received but not journaled".into());
    }
    violations
}

/// The decoded flow-map records of a run, per step.
pub(crate) fn flow_records(result: &PipelineResult) -> Vec<(u64, Vec<FlowRecord>)> {
    result
        .outputs
        .iter()
        .filter(|(label, _, _)| label == FLOWMAP_LABEL)
        .filter_map(|(_, step, out)| out.as_flow_map().map(|r| (*step, r.to_vec())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_five_analyses_with_unique_labels() {
        let specs = matrix_specs();
        assert_eq!(specs.len(), 5);
        let mut labels: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
        assert!(labels.contains(&FLOWMAP_LABEL));
        assert!(labels.contains(&STEER_LABEL));
        // Only `stats` may be in-situ placed: the replay checker maps
        // every other label to the backend's hybrid placement.
        for s in &specs {
            if s.label == "stats" {
                assert_eq!(s.placement, Placement::InSitu);
            } else {
                assert_eq!(s.placement, Placement::Hybrid);
            }
        }
    }

    #[test]
    fn transport_only_strips_structural_faults() {
        let mut plan = FaultPlan::from_seed(0xDEAD_BEEF);
        plan.drop_per_mille = 5;
        let p = transport_only(&plan);
        assert!(p.crash.is_none());
        assert!(p.scale.is_none());
        assert!(p.instance_loss.is_none());
        assert_eq!(p.drop_per_mille, plan.drop_per_mille);
    }

    #[test]
    fn cluster_cells_run_three_members_and_pass() {
        let report = scenario_matrix(
            &[Backend::Cluster],
            &[FaultPlan::fault_free(9)],
            matrix_specs,
        );
        assert_eq!(report.runs, 3);
        assert!(
            report.passed(),
            "violations: {:?}",
            report
                .failures()
                .iter()
                .map(|c| &c.violations)
                .collect::<Vec<_>>()
        );
    }

    /// A roster without the steerable workload runs no subscriber, so
    /// the steer-ack oracle has nothing to judge.
    #[test]
    fn a_flow_map_only_roster_runs_without_a_subscriber() {
        let flow_only = || {
            matrix_specs()
                .into_iter()
                .filter(|s| s.label == FLOWMAP_LABEL)
                .collect::<Vec<_>>()
        };
        let report = scenario_matrix(&[Backend::Local], &[FaultPlan::fault_free(1)], flow_only);
        assert_eq!(report.cells.len(), 3);
        assert!(
            report.passed(),
            "violations: {:?}",
            report
                .failures()
                .iter()
                .map(|c| &c.violations)
                .collect::<Vec<_>>()
        );
    }

    fn record(seed: u64) -> FlowRecord {
        FlowRecord {
            seed,
            start: [seed as f64, 0.0, 0.0],
            end: [seed as f64 + 0.5, 1.0, 1.0],
            steps: 3,
            reason: sitra_flowmap::Termination::ExitedBlock,
        }
    }

    #[test]
    fn the_flow_map_oracle_reports_a_reordered_record() {
        let golden = vec![(2, vec![record(1), record(4), record(9)])];
        assert_eq!(flow_violations(&golden, &golden), Vec::<String>::new());
        let reordered = vec![(2, vec![record(4), record(1), record(9)])];
        let v = flow_violations(&golden, &reordered);
        assert!(
            v.iter().any(|m| m.starts_with("flow-map: records diverge")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("not seed-sorted")), "{v:?}");
    }

    #[test]
    fn the_steer_ack_oracle_reports_a_post_ack_frame_at_the_old_rate() {
        let event = |name: &str| ObsEvent {
            ts_ns: 0,
            component: "steer".into(),
            name: name.into(),
            kv: vec![("subscriber".into(), STEER_SUBSCRIBER.into())],
        };
        let events = [event("frame"), event("feedback"), event("frame")];
        let mut obs = SteerObservation {
            frames: vec![
                (1, STEER_RATE_INITIAL, false),
                (2, STEER_RATE_STEERED, true),
            ],
            ack_latest_version: Some(1),
        };
        assert_eq!(steer_violations(&obs, &events), Vec::<String>::new());
        obs.frames[1].1 = STEER_RATE_INITIAL;
        assert_eq!(
            steer_violations(&obs, &events),
            [format!(
                "steer: frame v2 delivered at rate {STEER_RATE_INITIAL} after rate-{STEER_RATE_STEERED} ack"
            )]
        );
    }

    #[test]
    fn single_cell_local_backend_passes() {
        let report = scenario_matrix(&[Backend::Local], &[FaultPlan::fault_free(7)], matrix_specs);
        assert_eq!(report.runs, 3); // one per admission policy
        assert_eq!(report.cells.len(), 15);
        assert!(
            report.passed(),
            "violations: {:?}",
            report
                .failures()
                .iter()
                .map(|c| &c.violations)
                .collect::<Vec<_>>()
        );
    }
}
