//! Regression tests pinning `run_pipeline`'s config-rejection surface:
//! invalid configurations must be reported as structured
//! [`ConfigError`]s — with stable `Display` text, since `sitra-cli`
//! and operators match on it — before the run starts, never as a panic
//! mid-flight.

mod common;

use common::{config, run_journaled, sim, specs};
use sitra::core::{run_pipeline, AnalysisOutput, ConfigError, PipelineConfig, StagingMode};

const SEED: u64 = 11;

#[test]
fn duplicate_analysis_labels_are_rejected_before_the_run() {
    let mut cfg = config(2);
    // Two specs built from the same analysis type default to the same
    // label.
    cfg.analyses.push(specs().swap_remove(0));
    let err = run_pipeline(&mut sim(SEED), &cfg).expect_err("duplicate labels must not run");
    assert_eq!(err, ConfigError::DuplicateLabel("viz-hybrid".to_string()));
    assert_eq!(
        err.to_string(),
        "duplicate analysis label `viz-hybrid`; use AnalysisSpec::with_label"
    );
}

#[test]
fn unparseable_staging_endpoints_are_rejected_before_the_run() {
    for endpoint in [
        "",
        "not-a-scheme",
        "udp://127.0.0.1:7788",
        "tcp://",
        "shm://stage",
    ] {
        let cfg = config(2).with_staging_endpoint(endpoint);
        let err = run_pipeline(&mut sim(SEED), &cfg)
            .expect_err(&format!("endpoint `{endpoint}` must be rejected"));
        match err {
            ConfigError::InvalidEndpoint { endpoint: e, .. } => assert_eq!(e, endpoint),
            other => panic!("endpoint `{endpoint}`: expected InvalidEndpoint, got {other:?}"),
        }
    }
}

#[test]
fn endpoint_error_carries_the_offending_string_and_reason() {
    let err = run_pipeline(
        &mut sim(SEED),
        &config(2).with_staging_endpoint("bogus://x"),
    )
    .expect_err("bogus scheme must not run");
    match &err {
        ConfigError::InvalidEndpoint { endpoint, reason } => {
            assert_eq!(endpoint, "bogus://x");
            assert!(!reason.is_empty(), "reason must explain the parse failure");
        }
        other => panic!("expected InvalidEndpoint, got {other:?}"),
    }
    let display = err.to_string();
    assert!(
        display.starts_with("invalid staging endpoint `bogus://x`: "),
        "pinned Display prefix changed: {display}"
    );
}

#[test]
fn empty_cluster_endpoint_list_is_rejected_before_the_run() {
    let cfg = config(2).with_staging_cluster(Vec::<String>::new());
    let err = run_pipeline(&mut sim(SEED), &cfg).expect_err("empty cluster must not run");
    assert_eq!(err, ConfigError::EmptyCluster);
    assert_eq!(
        err.to_string(),
        "cluster staging requires at least one member endpoint"
    );
}

#[test]
fn every_cluster_member_endpoint_is_validated_before_the_run() {
    // One bad member endpoint anywhere in the list rejects the whole
    // config, and the error names the offender, not the list.
    for bad in ["", "not-a-scheme", "udp://127.0.0.1:7788"] {
        let cfg =
            config(2).with_staging_cluster(["inproc://ok-member", bad, "tcp://127.0.0.1:7788"]);
        let err = run_pipeline(&mut sim(SEED), &cfg)
            .expect_err(&format!("member endpoint `{bad}` must be rejected"));
        match err {
            ConfigError::InvalidEndpoint { endpoint, reason } => {
                assert_eq!(endpoint, bad);
                assert!(!reason.is_empty());
            }
            other => panic!("member `{bad}`: expected InvalidEndpoint, got {other:?}"),
        }
    }
}

#[test]
fn steering_on_an_insitu_pipeline_publishes_every_image_output() {
    // In-situ and staged outputs retire through the same seam, so a
    // steering endpoint serves frames under every staging mode: one
    // `steer.publish` per image output, fully in-situ included.
    let _obs = sitra::obs::isolate();
    for (mode, endpoint) in [
        (StagingMode::InSitu, "inproc://steer-insitu"),
        (StagingMode::Local, "inproc://steer-local"),
    ] {
        let cfg = config(2)
            .with_staging_mode(mode.clone())
            .with_steering_endpoint(endpoint);
        let (result, events) = run_journaled(SEED, cfg);
        assert_eq!(result.dropped_tasks, 0, "{mode:?}");
        let mut images: Vec<(usize, usize)> = result
            .outputs
            .iter()
            .filter_map(|(_, _, out)| match out {
                AnalysisOutput::Image(img) => Some((img.width(), img.height())),
                _ => None,
            })
            .collect();
        let mut published: Vec<(usize, usize)> = events
            .iter()
            .filter(|e| e.component == "steer" && e.name == "publish")
            .map(|e| {
                let dim = |k| e.u64(k).expect("publish dims") as usize;
                (dim("width"), dim("height"))
            })
            .collect();
        assert!(!images.is_empty(), "{mode:?}: the roster renders images");
        images.sort_unstable();
        published.sort_unstable();
        assert_eq!(published, images, "{mode:?}: one publish per image output");
    }
}

#[test]
fn unparseable_steering_endpoint_is_rejected_before_the_run() {
    // An unparseable steering endpoint is an endpoint error like any
    // other, carrying the offending string.
    let cfg = config(2).with_steering_endpoint("bogus://steer");
    let err = run_pipeline(&mut sim(SEED), &cfg).expect_err("bogus steer endpoint must not run");
    match err {
        ConfigError::InvalidEndpoint { endpoint, reason } => {
            assert_eq!(endpoint, "bogus://steer");
            assert!(!reason.is_empty());
        }
        other => panic!("expected InvalidEndpoint, got {other:?}"),
    }
}

#[test]
fn zero_step_config_runs_and_produces_nothing() {
    let mut cfg: PipelineConfig = config(2);
    cfg.steps = 0;
    let result = run_pipeline(&mut sim(SEED), &cfg).expect("zero steps is a valid, empty run");
    assert!(result.outputs.is_empty());
    assert_eq!(result.staged_tasks, 0);
    assert_eq!(result.dropped_tasks, 0);
    assert_eq!(result.degraded_tasks, 0);
    assert!(result.metrics.steps.is_empty());
    assert!(result.metrics.analyses.is_empty());
}
