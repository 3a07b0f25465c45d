//! End-to-end tests of the live hybrid pipeline: simulation → in-situ
//! stages → DART transport → scheduler → staging buckets → outputs,
//! validated against serial recomputation.

use bytes::Bytes;
use sitra_core::wire::encode_analysis_output;
use sitra_core::{
    run_pipeline, Analysis, AnalysisOutput, AnalysisSpec, ConfigError, HybridStats, HybridTopology,
    HybridViz, InSituCtx, InSituViz, PipelineConfig, Placement,
};
use sitra_mesh::BBox3;
use sitra_sim::{SimConfig, Simulation, Variable};
use sitra_topology::distributed::serial_merge_tree;
use sitra_topology::Connectivity;
use sitra_viz::{render_serial, TransferFunction, View, ViewAxis};
use std::sync::Arc;

const DIMS: [usize; 3] = [18, 12, 10];
const SEED: u64 = 77;

fn sim() -> Simulation {
    Simulation::new(SimConfig::small(DIMS, SEED))
}

fn view() -> View {
    View::full_res(BBox3::from_dims(DIMS), ViewAxis::Z, false)
}

fn tf() -> TransferFunction {
    TransferFunction::hot(250.0, 2500.0)
}

/// Recompute the temperature field at a given step with a fresh,
/// identically seeded simulation (the proxy is deterministic).
fn field_at_step(step: u64) -> sitra_mesh::ScalarField {
    let mut s = sim();
    for _ in 0..step {
        s.advance();
    }
    s.block_field(Variable::Temperature, &s.global())
}

#[test]
fn full_pipeline_all_five_variants() {
    let mut cfg = PipelineConfig::new([2, 2, 1], 3, 4);
    cfg.extra_variables = vec![Variable::Pressure, Variable::Species(5)];
    cfg.analyses = vec![
        AnalysisSpec::new(
            Arc::new(InSituViz {
                view: view(),
                tf: tf(),
            }),
            Placement::InSitu,
            1,
        ),
        AnalysisSpec::new(
            Arc::new(HybridViz {
                stride: 2,
                view: view(),
                tf: tf(),
            }),
            Placement::Hybrid,
            1,
        ),
        AnalysisSpec::new(Arc::new(HybridStats::default()), Placement::InSitu, 1)
            .with_label("stats-insitu"),
        AnalysisSpec::new(Arc::new(HybridStats::default()), Placement::Hybrid, 1)
            .with_label("stats-hybrid"),
        AnalysisSpec::new(Arc::new(HybridTopology::default()), Placement::Hybrid, 2),
    ];
    let mut s = sim();
    let result = run_pipeline(&mut s, &cfg).expect("valid config");

    assert_eq!(result.dropped_tasks, 0);
    // Every due (analysis, step) produced an output.
    for step in 1..=4u64 {
        assert!(
            result.output("viz-insitu", step).is_some(),
            "viz step {step}"
        );
        assert!(result.output("viz-hybrid", step).is_some());
        assert!(result.output("stats-insitu", step).is_some());
        assert!(result.output("stats-hybrid", step).is_some());
        assert_eq!(
            result.output("topology", step).is_some(),
            step % 2 == 0,
            "topology due only on even steps"
        );
    }

    // The two stats placements agree exactly at every step, and match a
    // serial recomputation.
    for step in 1..=4u64 {
        let a = result
            .output("stats-insitu", step)
            .unwrap()
            .as_stats()
            .unwrap();
        let b = result
            .output("stats-hybrid", step)
            .unwrap()
            .as_stats()
            .unwrap();
        assert_eq!(a, b, "step {step}");
        let whole = field_at_step(step);
        let serial =
            sitra_stats::derive(&sitra_stats::Moments::from_slice(whole.as_slice())).unwrap();
        let t = a.iter().find(|(n, _)| n == "T").unwrap();
        assert_eq!(t.1.count, serial.count);
        assert!((t.1.mean - serial.mean).abs() < 1e-9);
        assert_eq!(t.1.min, serial.min);
        assert_eq!(t.1.max, serial.max);
        // All three variables present.
        assert_eq!(a.len(), 3);
    }

    // The hybrid merge tree equals the serial tree of the recomputed
    // field.
    for step in [2u64, 4] {
        let tree = result.output("topology", step).unwrap().as_tree().unwrap();
        let whole = field_at_step(step);
        let serial = serial_merge_tree(&whole, Connectivity::Six).canonical();
        assert_eq!(tree, &serial, "step {step}");
    }

    // The in-situ image equals a serial render of the recomputed field.
    for step in [1u64, 3] {
        let img = result
            .output("viz-insitu", step)
            .unwrap()
            .as_image()
            .unwrap();
        let whole = field_at_step(step);
        let serial = render_serial(&whole, &view(), &tf());
        assert!(serial.max_abs_diff(img) < 1e-9, "step {step}");
    }

    // Metrics sanity: hybrid rows moved bytes over the BTE or SMSG path,
    // buckets were assigned, and the scheduler queue stayed bounded.
    let m = &result.metrics;
    assert_eq!(m.steps.len(), 4);
    assert!(m.mean_movement_bytes("stats-hybrid") > 0.0);
    assert!(m.mean_movement_bytes("viz-hybrid") > 0.0);
    assert_eq!(m.mean_movement_bytes("stats-insitu"), 0.0);
    assert!(m.bte_transfers + m.smsg_messages > 0);
    for row in m.for_analysis("topology") {
        assert!(row.aggregated_in_transit);
        assert!(row.bucket.is_some());
        assert!(row.completion_latency_secs >= 0.0);
        assert!(row.aggregate_secs > 0.0);
    }
    for row in m.for_analysis("viz-insitu") {
        assert!(!row.aggregated_in_transit);
        assert!(row.bucket.is_none());
    }
    // The hybrid stats intermediate is tiny compared to the raw data
    // (the whole point of the decomposition).
    let raw_bytes = (DIMS[0] * DIMS[1] * DIMS[2] * 8 * 3) as f64;
    assert!(m.mean_movement_bytes("stats-hybrid") < raw_bytes / 50.0);
}

#[test]
fn streaming_aggregation_marks_rows_and_matches_batch() {
    // Topology and stats stream in-transit; their outputs (already
    // validated against serial elsewhere) must carry the streamed flag.
    let mut cfg = PipelineConfig::new([2, 2, 1], 2, 2);
    cfg.analyses = vec![
        AnalysisSpec::new(Arc::new(HybridTopology::default()), Placement::Hybrid, 1),
        AnalysisSpec::new(Arc::new(HybridStats::default()), Placement::Hybrid, 1),
    ];
    let mut s = sim();
    let result = run_pipeline(&mut s, &cfg).expect("valid config");
    for name in ["topology", "stats"] {
        for row in result.metrics.for_analysis(name) {
            assert!(row.streamed, "{name} should stream");
        }
    }
    // Batch path (Analysis::aggregate) and streaming path agree: the
    // pipeline streamed; recompute the batch result directly.
    use sitra_mesh::{exchange_ghosts, Decomposition};
    let whole = field_at_step(1);
    let d = Decomposition::new(whole.bbox(), [2, 2, 1]);
    let fields: Vec<_> = (0..4).map(|r| whole.extract(&d.block(r))).collect();
    let (ghosted, _) = exchange_ghosts(&d, &fields, 1);
    let topo = HybridTopology::default();
    let parts: Vec<(usize, bytes::Bytes)> = (0..4)
        .map(|r| {
            let vars = vec![("T".to_string(), fields[r].clone())];
            let ctx = sitra_core::InSituCtx {
                rank: r,
                step: 1,
                decomp: &d,
                ghosted: &ghosted[r],
                vars: &vars,
            };
            (r, topo.in_situ(&ctx))
        })
        .collect();
    let batch = topo.aggregate(1, &parts);
    let streamed = result.output("topology", 1).unwrap();
    assert_eq!(batch.as_tree().unwrap(), streamed.as_tree().unwrap());
}

#[test]
fn temporal_multiplexing_spreads_buckets() {
    // More steps than buckets: different steps must land on different
    // buckets (FCFS rotates through the free list).
    let mut cfg = PipelineConfig::new([2, 1, 1], 3, 6);
    cfg.analyses = vec![AnalysisSpec::new(
        Arc::new(HybridTopology::default()),
        Placement::Hybrid,
        1,
    )];
    let mut s = sim();
    let result = run_pipeline(&mut s, &cfg).expect("valid config");
    assert_eq!(result.dropped_tasks, 0);
    let buckets: std::collections::HashSet<u32> = result
        .metrics
        .for_analysis("topology")
        .iter()
        .filter_map(|r| r.bucket)
        .collect();
    assert!(
        buckets.len() >= 2,
        "expected multiple buckets to serve 6 steps, got {buckets:?}"
    );
}

/// An artificially slow analysis used to trigger staging back-pressure.
struct SlowStats {
    inner: HybridStats,
    delay: std::time::Duration,
}

impl Analysis for SlowStats {
    fn name(&self) -> &str {
        "slow-stats"
    }
    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
        self.inner.in_situ(ctx)
    }
    fn aggregate(&self, step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
        std::thread::sleep(self.delay);
        self.inner.aggregate(step, parts)
    }
}

#[test]
fn staging_overrun_drops_tasks_instead_of_blocking() {
    let mut cfg = PipelineConfig::new([2, 1, 1], 1, 10);
    cfg.staging_buffer_depth = 2;
    cfg.analyses = vec![AnalysisSpec::new(
        Arc::new(SlowStats {
            inner: HybridStats::default(),
            delay: std::time::Duration::from_millis(120),
        }),
        Placement::Hybrid,
        1,
    )];
    let mut s = sim();
    let result = run_pipeline(&mut s, &cfg).expect("valid config");
    // One bucket at ~120 ms per task against 10 fast steps with a
    // 2-deep producer ring: some tasks must be dropped, and the run must
    // still terminate with the completed ones correct.
    assert!(result.dropped_tasks > 0, "expected back-pressure drops");
    let completed = result
        .outputs
        .iter()
        .filter(|(n, _, _)| n == "slow-stats")
        .count();
    assert_eq!(completed + result.dropped_tasks, 10);
    assert!(completed >= 1);
}

#[test]
fn autocorrelation_matches_serial_comoments() {
    use sitra_core::AutoCorrelation;
    let lag = 2usize;
    let steps = 5usize;
    let mut cfg = PipelineConfig::new([2, 2, 1], 2, steps);
    cfg.analyses = vec![AnalysisSpec::new(
        Arc::new(AutoCorrelation::new(lag, "T")),
        Placement::Hybrid,
        1,
    )];
    let mut s = sim();
    let result = run_pipeline(&mut s, &cfg).expect("valid config");

    // Steps <= lag: no pairs yet, NaN correlation, 0 observations.
    for step in 1..=lag as u64 {
        let out = result
            .output("autocorrelation", step)
            .unwrap()
            .as_scalars()
            .unwrap();
        assert!(out[0].1.is_nan(), "step {step}");
        assert_eq!(out[1].1, 0.0);
    }
    // Later steps: equals the serial lag-k correlation of the full
    // domain fields (the proxy is deterministic).
    for step in (lag as u64 + 1)..=steps as u64 {
        let old = field_at_step(step - lag as u64);
        let new = field_at_step(step);
        let serial = sitra_stats::CoMoments::from_slices(old.as_slice(), new.as_slice());
        let expect = serial.correlation().unwrap();
        let out = result
            .output("autocorrelation", step)
            .unwrap()
            .as_scalars()
            .unwrap();
        assert!(
            (out[0].1 - expect).abs() < 1e-9,
            "step {step}: {} vs {expect}",
            out[0].1
        );
        assert_eq!(out[1].1, serial.n as f64);
        // Consecutive timesteps of a smooth simulation are strongly
        // correlated.
        assert!(
            out[0].1 > 0.5,
            "lagged fields should correlate: {}",
            out[0].1
        );
    }
}

#[test]
fn custom_user_analysis_plugs_in() {
    /// A minimal user-defined analysis: global max via 8-byte payloads.
    struct GlobalMax;
    impl Analysis for GlobalMax {
        fn name(&self) -> &str {
            "global-max"
        }
        fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
            let block = ctx.block();
            let own = ctx.ghosted.extract(&block);
            let (_, mx) = own.min_max().unwrap();
            Bytes::copy_from_slice(&mx.to_le_bytes())
        }
        fn aggregate(&self, _step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
            let mx = parts
                .iter()
                .map(|(_, b)| f64::from_le_bytes(b[..8].try_into().unwrap()))
                .fold(f64::NEG_INFINITY, f64::max);
            AnalysisOutput::Stats(vec![(
                "max".to_string(),
                sitra_stats::derive(&sitra_stats::Moments::from_slice(&[mx])).unwrap(),
            )])
        }
    }

    let mut cfg = PipelineConfig::new([2, 2, 1], 2, 2);
    cfg.analyses = vec![AnalysisSpec::new(Arc::new(GlobalMax), Placement::Hybrid, 1)];
    let mut s = sim();
    let result = run_pipeline(&mut s, &cfg).expect("valid config");
    for step in 1..=2u64 {
        let out = result
            .output("global-max", step)
            .unwrap()
            .as_stats()
            .unwrap();
        let whole = field_at_step(step);
        let (_, mx) = whole.min_max().unwrap();
        assert_eq!(out[0].1.max, mx, "step {step}");
        // The payload per rank is 8 bytes — four ranks, 32 bytes total.
        let row = &result.metrics.for_analysis("global-max")[(step - 1) as usize];
        assert_eq!(row.movement_bytes, 32);
    }
}

#[test]
fn duplicate_labels_rejected() {
    let mut cfg = PipelineConfig::new([2, 1, 1], 1, 1);
    cfg.analyses = vec![
        AnalysisSpec::new(Arc::new(HybridStats::default()), Placement::InSitu, 1),
        AnalysisSpec::new(Arc::new(HybridStats::default()), Placement::Hybrid, 1),
    ];
    let mut s = sim();
    let err = run_pipeline(&mut s, &cfg).unwrap_err();
    assert!(
        matches!(&err, ConfigError::DuplicateLabel(label) if label == "stats"),
        "expected DuplicateLabel(\"stats\"), got {err:?}"
    );
    // The error displays the offending label for the user.
    assert!(err.to_string().contains("stats"), "{err}");
}

#[test]
fn invalid_staging_endpoint_rejected() {
    let mut cfg = PipelineConfig::new([2, 1, 1], 1, 1);
    cfg.analyses = vec![AnalysisSpec::new(
        Arc::new(HybridStats::default()),
        Placement::Hybrid,
        1,
    )];
    cfg = cfg.with_staging_endpoint("not-a-transport://nope");
    let mut s = sim();
    let err = run_pipeline(&mut s, &cfg).unwrap_err();
    assert!(
        matches!(&err, ConfigError::InvalidEndpoint { endpoint, .. }
            if endpoint == "not-a-transport://nope"),
        "expected InvalidEndpoint, got {err:?}"
    );
}

#[test]
fn elastic_local_pool_matches_the_fixed_pool_byte_for_byte() {
    // A slow analysis beside two real ones, so the elastic pool sees a
    // backlog its controller may grow into. How often it grows depends
    // on timing; what it must never change is the outputs.
    let run = |elastic: bool| {
        let mut cfg = PipelineConfig::new([2, 2, 1], 2, 6);
        cfg.analyses = vec![
            AnalysisSpec::new(
                Arc::new(SlowStats {
                    inner: HybridStats::default(),
                    delay: std::time::Duration::from_millis(25),
                }),
                Placement::Hybrid,
                1,
            ),
            AnalysisSpec::new(Arc::new(HybridTopology::default()), Placement::Hybrid, 2),
            AnalysisSpec::new(
                Arc::new(HybridViz {
                    stride: 2,
                    view: view(),
                    tf: tf(),
                }),
                Placement::Hybrid,
                1,
            ),
        ];
        if elastic {
            cfg = cfg.with_bucket_autoscale(1, 4, std::time::Duration::from_millis(20));
        }
        let result = run_pipeline(&mut sim(), &cfg).expect("valid config");
        let mut outputs: Vec<(String, u64, Vec<u8>)> = result
            .outputs
            .iter()
            .map(|(name, step, out)| (name.clone(), *step, encode_analysis_output(out).to_vec()))
            .collect();
        outputs.sort();
        (result, outputs)
    };
    let (fixed, fixed_outputs) = run(false);
    let (elastic, elastic_outputs) = run(true);
    // 6 slow-stats + 3 topology + 6 viz tasks, every one retired with
    // an output.
    assert_eq!(fixed_outputs.len(), 15);
    assert_eq!(elastic_outputs, fixed_outputs);
    for result in [&fixed, &elastic] {
        assert_eq!(result.staged_tasks, 15);
        assert_eq!(result.dropped_tasks, 0);
        assert_eq!(result.degraded_tasks, 0);
        assert_eq!(result.metrics.degraded_steps(), 0);
    }
}
