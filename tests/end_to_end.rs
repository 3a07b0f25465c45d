//! Workspace-level integration tests through the `sitra` facade: the
//! public API a downstream user sees, exercised across crates.

mod common;

use common::sim_with;
use sitra::core::{
    run_pipeline, AnalysisSpec, HybridStats, HybridTopology, HybridViz, InSituViz, PipelineConfig,
    Placement,
};
use sitra::mesh::{BBox3, Decomposition, ScalarField};
use sitra::sim::Variable;
use sitra::topology::distributed::{distributed_merge_tree, serial_merge_tree, BoundaryPolicy};
use sitra::topology::Connectivity;
use sitra::viz::{render_serial, TransferFunction, View, ViewAxis};
use std::sync::Arc;

#[test]
fn facade_reexports_compose() {
    // Build a field with mesh, analyze with stats/topology/viz — all
    // through the umbrella crate paths.
    let b = BBox3::from_dims([8, 8, 8]);
    let f = ScalarField::from_fn(b, |p| (p[0] + p[1] + p[2]) as f64);
    let m = sitra::stats::Moments::from_slice(f.as_slice());
    assert_eq!(m.n as usize, f.len());
    let tree = serial_merge_tree(&f, Connectivity::Six);
    assert_eq!(tree.maxima().len(), 1);
    let img = render_serial(
        &f,
        &View::full_res(b, ViewAxis::Z, false),
        &TransferFunction::hot(0.0, 21.0),
    );
    assert_eq!(img.width(), 8);
}

#[test]
fn simulation_feeds_all_analytics_consistently() {
    // One proxy state; every analytic path sees the same data.
    let mut sim = sim_with([16, 12, 10], 5);
    sim.advance();
    let g = sim.global();
    let whole = sim.block_field(Variable::Temperature, &g);
    let d = Decomposition::new(g, [2, 2, 1]);
    let blocks: Vec<ScalarField> = (0..4).map(|r| whole.extract(&d.block(r))).collect();

    // Topology: distributed == serial.
    let (dist, _) = distributed_merge_tree(
        &d,
        &blocks,
        Connectivity::Six,
        BoundaryPolicy::BoundaryMaxima,
    );
    assert_eq!(
        dist.canonical(),
        serial_merge_tree(&whole, Connectivity::Six).canonical()
    );

    // Stats: merged partials == whole.
    let mut merged = sitra::stats::Moments::new();
    for blk in &blocks {
        merged.merge(&sitra::stats::Moments::from_slice(blk.as_slice()));
    }
    let serial = sitra::stats::Moments::from_slice(whole.as_slice());
    assert_eq!(merged.n, serial.n);
    assert!((merged.mean - serial.mean).abs() < 1e-9);

    // DataSpaces round-trip of the same blocks.
    let ds = sitra::dataspaces::DataSpaces::new(3);
    for blk in &blocks {
        ds.put_field("T", 1, blk);
    }
    assert_eq!(ds.get_assembled("T", 1, &g, f64::NAN).unwrap(), whole);
}

#[test]
fn pipeline_smoke_through_facade() {
    let dims = [16, 12, 10];
    let view = View::full_res(BBox3::from_dims(dims), ViewAxis::Z, false);
    let tf = TransferFunction::hot(250.0, 2500.0);
    let mut cfg = PipelineConfig::new([2, 1, 1], 2, 3);
    cfg.analyses = vec![
        AnalysisSpec::new(
            Arc::new(InSituViz {
                view: view.clone(),
                tf: tf.clone(),
            }),
            Placement::InSitu,
            1,
        ),
        AnalysisSpec::new(
            Arc::new(HybridViz {
                stride: 2,
                view,
                tf,
            }),
            Placement::Hybrid,
            1,
        ),
        AnalysisSpec::new(Arc::new(HybridStats::default()), Placement::Hybrid, 1),
        AnalysisSpec::new(Arc::new(HybridTopology::default()), Placement::Hybrid, 3),
    ];
    let mut sim = sim_with(dims, 8);
    let result = run_pipeline(&mut sim, &cfg).expect("valid config");
    assert_eq!(result.dropped_tasks, 0);
    assert_eq!(
        result
            .outputs
            .iter()
            .filter(|(n, _, _)| n == "viz-insitu")
            .count(),
        3
    );
    assert_eq!(
        result
            .outputs
            .iter()
            .filter(|(n, _, _)| n == "topology")
            .count(),
        1
    );
    // Machine model is reachable and sane.
    let spec = sitra::machine::ClusterSpec::jaguar_4896();
    assert_eq!(spec.total_cores(), 4896);
}

#[test]
fn dart_and_scheduler_compose_standalone() {
    use bytes::Bytes;
    let fabric = sitra::dart::Fabric::new(sitra::dart::NetworkModel::gemini());
    let producer = fabric.register();
    let consumer = fabric.register();
    producer.export(1, Bytes::from_static(b"block"));

    let sched: sitra::dataspaces::Scheduler<(u64, u64)> = sitra::dataspaces::Scheduler::new();
    let bucket = sched.register_bucket(0);
    sched.submit((producer.id(), 1));
    let (_, (peer, key)) = bucket.request_task().unwrap();
    consumer.rdma_get(peer, key).unwrap();
    match consumer.poll_event(std::time::Duration::from_secs(5)) {
        Some(sitra::dart::Event::GetComplete { data, .. }) => assert_eq!(&data[..], b"block"),
        other => panic!("unexpected {other:?}"),
    }
    fabric.shutdown();
}
