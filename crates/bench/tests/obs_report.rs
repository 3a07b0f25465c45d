//! Agreement test: a journal replayed by `sitra_bench::replay` must
//! reproduce the `PipelineMetrics` of the live run *exactly* — same
//! steps, same per-(analysis, step) rows, bit-identical floats. This is
//! the contract `obs_report` relies on: kv values are journaled with
//! `Display`, which round-trips `f64`, so nothing is lost between the
//! driver's measurement and the offline report.

use sitra_bench::replay::replay;
use sitra_core::{run_pipeline, AnalysisSpec, HybridStats, HybridViz, PipelineConfig, Placement};
use sitra_mesh::BBox3;
use sitra_obs::VecSink;
use sitra_sim::{SimConfig, Simulation};
use sitra_viz::{TransferFunction, View, ViewAxis};
use std::sync::Arc;

const DIMS: [usize; 3] = [16, 12, 8];

fn config() -> PipelineConfig {
    let mut cfg = PipelineConfig::new([2, 2, 1], 2, 3);
    cfg.analyses = vec![
        AnalysisSpec::new(
            Arc::new(HybridViz {
                stride: 2,
                view: View::full_res(BBox3::from_dims(DIMS), ViewAxis::Z, false),
                tf: TransferFunction::hot(250.0, 2500.0),
            }),
            Placement::Hybrid,
            1,
        ),
        AnalysisSpec::new(Arc::new(HybridStats::default()), Placement::InSitu, 1),
    ];
    cfg
}

#[test]
fn replayed_journal_agrees_with_live_pipeline_metrics() {
    // Isolated registry (serializes against other obs-global tests) and
    // a capturing sink instead of a journal file.
    let _obs = sitra_obs::isolate();
    let sink = Arc::new(VecSink::new());
    let previous = sitra_obs::install_sink(Some(sink.clone()));

    let mut sim = Simulation::new(SimConfig::small(DIMS, 7));
    let result = run_pipeline(&mut sim, &config()).expect("valid config");
    let events = sink.take();
    sitra_obs::install_sink(previous);

    assert_eq!(result.dropped_tasks, 0);
    let m = &result.metrics;
    let r = replay(&events);

    // Step rows: every field bit-identical.
    assert_eq!(r.steps, m.steps);

    // Stage rows: one per (analysis, step), every measured field
    // bit-identical to the live AnalysisMetrics row.
    assert_eq!(r.stages.len(), m.analyses.len());
    for want in &m.analyses {
        let got = r
            .stages
            .iter()
            .find(|s| s.analysis == want.analysis && s.step == want.step)
            .unwrap_or_else(|| panic!("no replayed row for {}@{}", want.analysis, want.step));
        let at = format!("{}@{}", want.analysis, want.step);
        assert_eq!(got.insitu_secs, want.insitu_secs, "{at}");
        assert_eq!(got.insitu_core_secs, want.insitu_core_secs, "{at}");
        assert_eq!(got.movement_bytes, want.movement_bytes, "{at}");
        assert_eq!(got.movement_sim_secs, want.movement_sim_secs, "{at}");
        assert_eq!(got.aggregate_secs, want.aggregate_secs, "{at}");
        assert_eq!(got.bucket, want.bucket, "{at}");
        assert_eq!(got.streamed, want.streamed, "{at}");
        assert_eq!(got.latency_secs, want.completion_latency_secs, "{at}");
        let expected_placement = if want.aggregated_in_transit {
            "hybrid"
        } else {
            "insitu"
        };
        assert_eq!(got.placement, expected_placement, "{at}");
    }

    // The derived means agree too (same arithmetic over the same rows).
    for analysis in r.analyses() {
        assert_eq!(
            r.mean_insitu_secs(analysis),
            m.mean_insitu_secs(analysis),
            "mean in-situ for {analysis}"
        );
    }
}
