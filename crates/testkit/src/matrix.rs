//! The scenario matrix: every registered analysis × every staging
//! backend × every admission policy × a pinned fault-plan subset, each
//! combination judged by the invariant oracles.
//!
//! Where `tests/chaos.rs` explores *depth* (one fixture roster under an
//! open-ended fault corpus, with shrinking), the matrix pins *breadth*:
//! the full five-analysis roster — the frozen chaos fixture plus the
//! Lagrangian flow map and the steerable visualization workload — runs
//! under every backend/policy combination, and every cell must hold
//! the four chaos oracles plus two workload-specific ones:
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
use crate::injector::PlanInjector;
use crate::plan::FaultPlan;
use crate::scenario::{self, Backend, Staging};
use sitra_cluster::ClusterNodeOpts;
use sitra_core::{
    run_pipeline, AnalysisSpec, HybridViz, LagrangianFlowMap, PipelineConfig, PipelineResult,
    Placement, StagingMode,
};
use sitra_dataspaces::{AdmissionPolicy, SteerClient, SteerFrame};
use sitra_flowmap::FlowRecord;
use sitra_mesh::BBox3;
use sitra_net::Backoff;
use sitra_obs::VecSink;
use sitra_sim::Variable;
use sitra_viz::{TransferFunction, View, ViewAxis};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
/// over the given roster, every run judged by all six oracles.
pub fn scenario_matrix(
    backends: &[Backend],
    plans: &[FaultPlan],
    specs_fn: impl Fn() -> Vec<AnalysisSpec>,
) -> MatrixReport {
    let mut report = MatrixReport::default();
    for backend in backends {
        for (policy_name, capacity, policy) in admission_policies() {
            for plan in plans {
                let plan = transport_only(plan);
                let outcome =
                    run_matrix_scenario(*backend, policy_name, capacity, policy, &plan, &specs_fn);
                report.runs += 1;
                report.cells.extend(outcome);
            }
        }
    }
    report
}

/// One matrix run: golden fully-in-situ reference, then the backend
/// under the plan with the policy, then the oracles. Returns one cell
/// per analysis in the roster.
fn run_matrix_scenario(
    backend: Backend,
    policy_name: &'static str,
    capacity: Option<usize>,
    policy: AdmissionPolicy,
    plan: &FaultPlan,
    specs_fn: &impl Fn() -> Vec<AnalysisSpec>,
) -> Vec<MatrixCell> {
    let _obs = sitra_obs::isolate();
    let seed = plan.seed;
    let specs = specs_fn();

    // Golden run: fault-free, fully in-situ, before the injector or
    // journal sink exist. The reference for both the byte-identity and
    // the flow-map endpoint oracles.
    let mut golden_cfg = matrix_config(2, specs_fn());
    golden_cfg.staging = StagingMode::InSitu;
    let golden = run_pipeline(&mut fixture::sim(seed), &golden_cfg).expect("golden matrix config");
    let golden_outputs = fixture::sorted_encoded_outputs(&golden);
    let golden_flow = flow_records(&golden);

    // Arm the harness. The injector sits under *every* sitra-net
    // connection, including the steering subscriber's — which is
    // exactly the point.
    let sink = Arc::new(VecSink::new());
    let prev_sink = sitra_obs::install_sink(Some(sink.clone()));
    let injector = Arc::new(PlanInjector::new(plan.clone()));
    let prev_injector = sitra_net::install_fault_injector(Some(injector.clone()));

    let mut violations = Vec::new();

    // A steering subscriber rides along on every backend that stages.
    // A fully in-situ pipeline serves steering too, but its cell runs
    // without a subscriber: it has no staging connection for a fault to
    // hit, and the staged cells already drive the steering path.
    let steer_addr = (backend != Backend::InSitu).then(|| scenario::unique_endpoint(seed));
    let steer_stop = Arc::new(AtomicBool::new(false));
    let subscriber = steer_addr.as_ref().map(|addr| {
        let addr = addr.clone();
        let stop = Arc::clone(&steer_stop);
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
                            // Steer once, right after the first frame.
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
    });

    let result = match backend {
        Backend::InSitu => {
            let mut cfg = matrix_config(2, specs_fn());
            cfg.staging = StagingMode::InSitu;
            run_pipeline(&mut fixture::sim(seed), &cfg).expect("matrix insitu config")
        }
        Backend::Local => {
            let mut cfg = matrix_config(2, specs_fn());
            cfg.steering = steer_addr.as_ref().map(|a| a.to_string());
            run_pipeline(&mut fixture::sim(seed), &cfg).expect("matrix local config")
        }
        Backend::Remote | Backend::Cluster => {
            let staging = Staging::start(
                seed,
                backend.members(),
                ClusterNodeOpts {
                    capacity,
                    policy,
                    ..ClusterNodeOpts::default()
                },
            );
            let stop = Arc::new(AtomicBool::new(false));
            let worker = scenario::spawn_worker(staging.endpoints(), specs_fn(), 0, &stop);

            let mut cfg = matrix_config(2, specs_fn())
                .with_staging_cluster(staging.endpoints().to_vec())
                .with_staging_deadline(Duration::from_millis(700))
                .with_staging_max_inflight(2);
            cfg.steering = steer_addr.as_ref().map(|a| a.to_string());
            let result =
                run_pipeline(&mut fixture::sim(seed), &cfg).expect("matrix staging config");

            stop.store(true, Ordering::SeqCst);
            staging.shutdown();
            if worker.join().is_err() {
                violations.push("matrix: bucket worker panicked".into());
            }
            result
        }
    };

    // Join the subscriber before disarming: its reconnects must stop
    // generating events first.
    steer_stop.store(true, Ordering::SeqCst);
    let steer_obs = subscriber.map(|h| h.join().expect("join steering subscriber"));

    // Disarm before judging.
    sitra_net::install_fault_injector(prev_injector);
    let events = sink.take();
    sitra_obs::install_sink(prev_sink);

    violations.extend(scenario::oracle_violations(
        backend,
        &specs,
        policy,
        &golden_outputs,
        &result,
        &events,
    ));

    // Oracle 5 — flow-map golden endpoints. Decoded termination
    // records, not just bytes: every record must match the golden run
    // exactly, stay strictly seed-sorted, and carry finite endpoints.
    let flow = flow_records(&result);
    if flow.len() != golden_flow.len() {
        violations.push(format!(
            "flow-map: {} outputs != golden {}",
            flow.len(),
            golden_flow.len()
        ));
    }
    for (step, recs) in &flow {
        match golden_flow.iter().find(|(s, _)| s == step) {
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

    // Oracle 6 — steer-ack monotonicity. Every frame the subscriber
    // received after its acknowledged feedback must be reduced under
    // the steered rate; the journal must account for at least as many
    // delivered frames as the client saw (replies can be lost to
    // injected faults, never invented).
    if let Some(obs) = &steer_obs {
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
        let replayed = sitra_dataspaces::replay_steer(&events);
        let journal_frames = replayed
            .get(STEER_SUBSCRIBER)
            .map(|a| a.frames_sent)
            .unwrap_or(0);
        if journal_frames < obs.frames.len() as u64 {
            violations.push(format!(
                "steer: journal accounts {journal_frames} frames, subscriber received {}",
                obs.frames.len()
            ));
        }
        if obs.ack_latest_version.is_some() {
            let journal_acks = replayed
                .get(STEER_SUBSCRIBER)
                .map(|a| a.steers_acked)
                .unwrap_or(0);
            if journal_acks == 0 {
                violations.push("steer: ack received but not journaled".into());
            }
        }
    }

    // Cells: run-wide violations land on every analysis of the run;
    // latency percentiles come from each analysis's metric rows.
    specs
        .iter()
        .map(|spec| {
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
                violations: violations.clone(),
                p50_latency_secs: percentile(&lat, 0.50),
                p99_latency_secs: percentile(&lat, 0.99),
            }
        })
        .collect()
}

fn flow_records(result: &PipelineResult) -> Vec<(u64, Vec<FlowRecord>)> {
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
