//! Backend equivalence: the paper's core claim, asserted end to end.
//!
//! One analysis decomposition — an in-situ stage producing small
//! intermediates, then an aggregation — must run **unchanged** whether
//! the aggregation happens synchronously on the simulation cores
//! (`StagingMode::InSitu`), on in-process staging buckets
//! (`StagingMode::Local`), or on a remote staging service
//! (`StagingMode::Remote`), and even when the remote path fails and
//! every task degrades to the in-situ fallback. The same seeded
//! simulation is run through all four configurations; the outputs must
//! be byte-identical, and each run's journal replay must reproduce its
//! live metrics bit-identically — the shared retirement path is what
//! makes both hold.

mod common;

use common::{assert_replay_agrees, config, sorted_encoded_outputs, specs, STEPS};
use sitra::core::remote::{run_bucket_worker, run_cluster_bucket_worker, BucketWorkerOpts};
use sitra::core::{PipelineConfig, PipelineResult, StagingMode};
use sitra::dataspaces::SpaceServer;
use sitra::net::Addr;
use sitra_testkit::matrix::{matrix_config, matrix_specs, FLOWMAP_LABEL, STEER_LABEL};

const SEED: u64 = 1234;

fn run(cfg: PipelineConfig) -> (PipelineResult, Vec<sitra::obs::ObsEvent>) {
    common::run_journaled(SEED, cfg)
}

#[test]
fn all_staging_backends_produce_identical_outputs_and_accounting() {
    let _obs = sitra::obs::isolate();

    // 1. Fully in-situ: hybrid analyses aggregate synchronously.
    let (insitu, insitu_events) = run(config(2).with_staging_mode(StagingMode::InSitu));

    // 2. Local staging buckets (the default).
    let (local, local_events) = run(config(2));

    // 3. Remote staging service with an external bucket worker.
    let addr: Addr = "inproc://backend-equivalence-test".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).expect("start staging server");
    let endpoint = server.addr();
    let worker = {
        let ep = endpoint.clone();
        std::thread::spawn(move || {
            run_bucket_worker(&ep, &specs(), 0, &BucketWorkerOpts::default())
                .expect("bucket worker")
        })
    };
    let (remote, remote_events) = run(config(2).with_staging_endpoint(endpoint.to_string()));
    let completed = worker.join().unwrap();
    server.shutdown();

    // 4. Forced degradation: nothing listens, so every hybrid task must
    //    fall back to in-situ aggregation through the shared path.
    let (degraded, degraded_events) =
        run(config(2).with_staging_endpoint("inproc://backend-equivalence-nobody"));

    // Byte-identical outputs across all four placements — the claim.
    let reference = sorted_encoded_outputs(&insitu);
    assert_eq!(reference, sorted_encoded_outputs(&local), "local != insitu");
    assert_eq!(
        reference,
        sorted_encoded_outputs(&remote),
        "remote != insitu"
    );
    assert_eq!(
        reference,
        sorted_encoded_outputs(&degraded),
        "degraded != insitu"
    );

    // Task accounting: 6 hybrid tasks over 4 steps (viz every step,
    // features on 2 and 4); nothing dropped anywhere, degradation only
    // in the forced-failure run.
    let hybrid_tasks = reference.iter().filter(|(l, _, _)| l != "stats").count();
    assert_eq!(hybrid_tasks, common::expected_hybrid_tasks());
    assert_eq!(completed, hybrid_tasks);
    for (name, result) in [("insitu", &insitu), ("local", &local), ("remote", &remote)] {
        assert_eq!(result.dropped_tasks, 0, "{name}");
        assert_eq!(result.degraded_tasks, 0, "{name}");
        assert_eq!(result.metrics.degraded_steps(), 0, "{name}");
    }
    assert_eq!(degraded.dropped_tasks, 0);
    assert_eq!(degraded.degraded_tasks, hybrid_tasks);
    assert_eq!(degraded.metrics.degraded_steps(), STEPS);

    // The same (analysis, step) row set in every mode.
    let row_set = |r: &PipelineResult| {
        let mut v: Vec<(String, u64)> = r
            .metrics
            .analyses
            .iter()
            .map(|a| (a.analysis.clone(), a.step))
            .collect();
        v.sort();
        v
    };
    let reference_rows = row_set(&insitu);
    for (name, result) in [
        ("local", &local),
        ("remote", &remote),
        ("degraded", &degraded),
    ] {
        assert_eq!(reference_rows, row_set(result), "{name}");
    }

    // Placement flags per mode: in-situ mode never marks in-transit
    // rows; local and remote mark exactly the hybrid rows; forced
    // degradation clears the flag on every row it touches.
    assert!(insitu
        .metrics
        .analyses
        .iter()
        .all(|a| !a.aggregated_in_transit));
    for (name, result) in [("local", &local), ("remote", &remote)] {
        for a in &result.metrics.analyses {
            assert_eq!(
                a.aggregated_in_transit,
                a.analysis != "stats",
                "{name}: {}@{}",
                a.analysis,
                a.step
            );
        }
    }
    assert!(degraded
        .metrics
        .analyses
        .iter()
        .all(|a| !a.aggregated_in_transit));
    // Movement is charged only when intermediates actually shipped.
    assert!(insitu
        .metrics
        .analyses
        .iter()
        .all(|a| a.movement_bytes == 0));
    assert!(degraded
        .metrics
        .analyses
        .iter()
        .all(|a| a.movement_bytes == 0));
    for name in ["viz-hybrid", "feature-stats"] {
        assert!(local.metrics.mean_movement_bytes(name) > 0.0);
        assert!(remote.metrics.mean_movement_bytes(name) > 0.0);
    }

    // Each run's journal replay reproduces its live metrics
    // bit-identically (the remote run's aggregation half lives in the
    // worker's journal, so only its driver-owned fields are compared).
    assert_replay_agrees("insitu", &insitu, &insitu_events, "insitu", true);
    assert_replay_agrees("local", &local, &local_events, "hybrid", true);
    assert_replay_agrees("remote", &remote, &remote_events, "hybrid-remote", false);
    assert_replay_agrees(
        "degraded",
        &degraded,
        &degraded_events,
        "hybrid-remote",
        false,
    );
}

/// A single server is a cluster of one: `StagingMode::Remote(ep)` is
/// lowered to the member list `[ep]`, so against one bare `SpaceServer`
/// it and `StagingMode::Cluster(vec![ep])` must give byte-identical
/// outputs and the same accounting, whichever worker entry point
/// (`run_bucket_worker` / `run_cluster_bucket_worker`) serves them.
#[test]
fn remote_endpoint_and_one_member_cluster_are_the_same_path() {
    let _obs = sitra::obs::isolate();
    let accounting = |r: &PipelineResult| {
        let mut rows: Vec<(String, u64, bool, u64)> = r
            .metrics
            .analyses
            .iter()
            .map(|a| {
                (
                    a.analysis.clone(),
                    a.step,
                    a.aggregated_in_transit,
                    a.movement_bytes,
                )
            })
            .collect();
        rows.sort();
        (r.staged_tasks, r.degraded_tasks, r.dropped_tasks, rows)
    };

    let mut runs = Vec::new();
    for (i, (as_cluster, cluster_worker)) in
        [(false, false), (true, true), (false, true), (true, false)]
            .into_iter()
            .enumerate()
    {
        let addr: Addr = format!("inproc://lowering-equivalence-{i}")
            .parse()
            .unwrap();
        let server = SpaceServer::start(&addr, 1).expect("start staging server");
        let endpoint = server.addr();
        let worker = {
            let ep = endpoint.clone();
            std::thread::spawn(move || {
                let opts = BucketWorkerOpts::default();
                if cluster_worker {
                    run_cluster_bucket_worker(&[ep.to_string()], &specs(), 0, &opts)
                } else {
                    run_bucket_worker(&ep, &specs(), 0, &opts)
                }
                .expect("bucket worker")
            })
        };
        let mode = if as_cluster {
            StagingMode::Cluster(vec![endpoint.to_string()])
        } else {
            StagingMode::Remote(endpoint.to_string())
        };
        let (result, events) = run(config(2).with_staging_mode(mode));
        assert_eq!(worker.join().unwrap(), common::expected_hybrid_tasks());
        assert_eq!(server.space().stats().resident_bytes, 0, "run {i} evicted");
        server.shutdown();
        assert_eq!(result.degraded_tasks, 0, "run {i}");
        assert_replay_agrees(
            &format!("lowering-{i}"),
            &result,
            &events,
            "hybrid-remote",
            false,
        );
        runs.push((sorted_encoded_outputs(&result), accounting(&result)));
    }
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(runs[0].0, run.0, "outputs of run {i} diverge");
        assert_eq!(runs[0].1, run.1, "accounting of run {i} diverges");
    }
}

/// The two new workloads — the Lagrangian flow map (compute-heavy,
/// tiny intermediates) and the steerable-viz registration — hold the
/// same bar as the original roster: byte-identical outputs and
/// bit-identical journal replay across all three staging backends, on
/// the full five-analysis matrix roster.
#[test]
fn new_workloads_are_byte_identical_across_all_backends() {
    let _obs = sitra::obs::isolate();

    let (insitu, insitu_events) = common::run_journaled(
        SEED,
        matrix_config(2, matrix_specs()).with_staging_mode(StagingMode::InSitu),
    );
    let (local, local_events) = common::run_journaled(SEED, matrix_config(2, matrix_specs()));

    let addr: Addr = "inproc://matrix-equivalence-test".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).expect("start staging server");
    let endpoint = server.addr();
    let worker = {
        let ep = endpoint.clone();
        std::thread::spawn(move || {
            run_bucket_worker(&ep, &matrix_specs(), 0, &BucketWorkerOpts::default())
                .expect("bucket worker")
        })
    };
    let (remote, remote_events) = common::run_journaled(
        SEED,
        matrix_config(2, matrix_specs()).with_staging_endpoint(endpoint.to_string()),
    );
    let completed = worker.join().unwrap();
    server.shutdown();

    let reference = sorted_encoded_outputs(&insitu);
    assert_eq!(reference, sorted_encoded_outputs(&local), "local != insitu");
    assert_eq!(
        reference,
        sorted_encoded_outputs(&remote),
        "remote != insitu"
    );
    // Both new workloads actually produced output on every backend:
    // flow-map on its every-other-step interval, viz-steer every step.
    let count = |label: &str| reference.iter().filter(|(l, _, _)| l == label).count();
    assert_eq!(count(FLOWMAP_LABEL), STEPS / 2);
    assert_eq!(count(STEER_LABEL), STEPS);
    let hybrid_tasks = reference.iter().filter(|(l, _, _)| l != "stats").count();
    assert_eq!(completed, hybrid_tasks, "worker saw every hybrid task");

    assert_replay_agrees("insitu", &insitu, &insitu_events, "insitu", true);
    assert_replay_agrees("local", &local, &local_events, "hybrid", true);
    assert_replay_agrees("remote", &remote, &remote_events, "hybrid-remote", false);
}

/// Degraded-never-lost for the compute-heavy/small-output cost shape:
/// with nothing listening on the staging endpoint, every flow-map task
/// must fall back to in-situ re-aggregation and still produce the
/// byte-identical golden records — degradation may cost time, never
/// data, regardless of the workload's cost shape.
#[test]
fn degraded_flow_map_runs_lose_nothing() {
    let _obs = sitra::obs::isolate();

    let golden = common::run_journaled(
        SEED,
        matrix_config(2, matrix_specs()).with_staging_mode(StagingMode::InSitu),
    )
    .0;
    let (degraded, degraded_events) = common::run_journaled(
        SEED,
        matrix_config(2, matrix_specs()).with_staging_endpoint("inproc://matrix-nobody-listens"),
    );

    assert_eq!(degraded.dropped_tasks, 0, "degradation must never drop");
    let hybrid_tasks = sorted_encoded_outputs(&golden)
        .iter()
        .filter(|(l, _, _)| l != "stats")
        .count();
    assert_eq!(degraded.degraded_tasks, hybrid_tasks);
    assert_eq!(
        sorted_encoded_outputs(&golden),
        sorted_encoded_outputs(&degraded),
        "degraded outputs diverge from golden"
    );
    // The flow-map records specifically: present on every due step and
    // decodable, not just byte-equal.
    let flow_steps: Vec<u64> = degraded
        .outputs
        .iter()
        .filter(|(l, _, _)| l == FLOWMAP_LABEL)
        .map(|(_, step, out)| {
            assert!(
                out.as_flow_map().is_some_and(|recs| !recs.is_empty()),
                "flow-map output at step {step} is empty or mistyped"
            );
            *step
        })
        .collect();
    assert_eq!(flow_steps, vec![2, 4]);
    assert_replay_agrees(
        "degraded-flowmap",
        &degraded,
        &degraded_events,
        "hybrid-remote",
        false,
    );
}

/// An interval that does not divide the staging depth (3 against 4):
/// the paper's Fig. 1 sweep uses such intervals. The local ring wraps
/// more than once over the run, and InSitu, Local and Remote still give
/// byte-identical outputs for steps 3, 6, …, with nothing dropped or
/// degraded.
#[test]
fn an_interval_that_does_not_divide_the_depth_matches_on_every_backend() {
    let _obs = sitra::obs::isolate();
    const STEPS: usize = 18;
    let every_third = || {
        let mut spec = specs().swap_remove(1);
        spec.interval = 3;
        vec![spec]
    };
    let cfg = || {
        let mut cfg = PipelineConfig::new([2, 2, 1], 2, STEPS);
        cfg.analyses = every_third();
        cfg.staging_buffer_depth = 4;
        cfg
    };
    let insitu = run(cfg().with_staging_mode(StagingMode::InSitu)).0;
    let local = run(cfg()).0;
    let addr: Addr = "inproc://interval-three-depth-four".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).expect("start staging server");
    let worker = {
        let ep = server.addr();
        std::thread::spawn(move || {
            run_bucket_worker(&ep, &every_third(), 0, &BucketWorkerOpts::default())
                .expect("bucket worker")
        })
    };
    let remote = run(cfg().with_staging_endpoint(server.addr().to_string())).0;
    let completed = worker.join().unwrap();
    server.shutdown();

    let reference = sorted_encoded_outputs(&insitu);
    let steps: Vec<u64> = reference.iter().map(|(_, step, _)| *step).collect();
    assert_eq!(
        steps,
        (1..=STEPS as u64 / 3).map(|k| 3 * k).collect::<Vec<_>>()
    );
    assert_eq!(reference, sorted_encoded_outputs(&local), "local != insitu");
    assert_eq!(
        reference,
        sorted_encoded_outputs(&remote),
        "remote != insitu"
    );
    assert_eq!(completed, steps.len());
    for (name, result) in [("insitu", &insitu), ("local", &local), ("remote", &remote)] {
        assert_eq!(result.dropped_tasks, 0, "{name}");
        assert_eq!(result.degraded_tasks, 0, "{name}");
    }
}
