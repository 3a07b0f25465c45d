//! Staging memory is bounded by the in-flight window, not by the run
//! length: the driver evicts each step once its tasks have retired, so
//! the peak resident bytes of a 160-step run stay within 1.5× those of
//! a 10-step run — on one space server and on a three-member cluster
//! alike — and three members together hold within 1.15× of what one
//! server holds, since every member's evictions go out with the next
//! ship, whether or not that ship puts anything there. Residency is read inside the staging output hook, at each
//! collection, so the reading is tied to the pipeline's progress rather
//! than to a sampler's timing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sitra_cluster::{Bootstrap, ClusterNode, ClusterNodeOpts};
use sitra_core::remote::{run_bucket_worker, run_cluster_bucket_worker, BucketWorkerOpts};
use sitra_core::{run_pipeline, PipelineConfig};
use sitra_dataspaces::SpaceServer;
use sitra_testkit::fixture;

const SHORT: usize = 10;
const LONG: usize = 160;
const SEED: u64 = 0x5704;

/// A fresh `inproc://` name: tests run on parallel threads, and two
/// may stage the same step count.
fn unique(prefix: &str) -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    format!("inproc://{prefix}-{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// The canonical fixture over `steps` steps, `stage`d somewhere, with a
/// hook that keeps the highest `resident` reading seen at a collection.
/// Returns that peak.
fn peak_while_running(
    steps: usize,
    stage: impl FnOnce(PipelineConfig) -> PipelineConfig,
    resident: impl Fn() -> u64 + Send + Sync + 'static,
) -> u64 {
    let peak = Arc::new(AtomicU64::new(0));
    let hook = {
        let peak = Arc::clone(&peak);
        Arc::new(move |_: &str, _: u64| {
            peak.fetch_max(resident(), Ordering::SeqCst);
        })
    };
    // A window of one task: the driver ships the next task only after
    // the hook has read the last one, so each reading sees the same
    // number of steps, however the worker's pace varies. With the
    // default window the readings of a fast 10-step run and of a
    // 160-step run that once fell a task behind differ by a whole step.
    let mut cfg = fixture::config(2).with_staging_max_inflight(1);
    cfg.steps = steps;
    let result = run_pipeline(
        &mut fixture::sim(SEED),
        &stage(cfg).with_staging_output_hook(hook),
    )
    .expect("valid config");
    assert_eq!(result.dropped_tasks, 0);
    assert_eq!(
        result.degraded_tasks, 0,
        "a degraded task is never collected"
    );
    peak.load(Ordering::SeqCst)
}

/// Peak residency on one `inproc://` space server with one worker.
fn one_server(steps: usize) -> u64 {
    let addr = unique(&format!("staging-memory-one-{steps}"))
        .parse()
        .unwrap();
    let server = Arc::new(SpaceServer::start(&addr, 1).expect("start staging server"));
    let endpoint = server.addr().to_string();
    let worker = {
        let ep = server.addr();
        std::thread::spawn(move || {
            run_bucket_worker(&ep, &fixture::specs(), 0, &BucketWorkerOpts::default())
        })
    };
    let peak = {
        let server = Arc::clone(&server);
        peak_while_running(
            steps,
            |cfg| cfg.with_staging_endpoint(endpoint),
            move || server.space().stats().resident_bytes,
        )
    };
    worker.join().unwrap().expect("bucket worker");
    let server = Arc::into_inner(server).expect("the hook is gone");
    assert_eq!(server.space().stats().resident_bytes, 0);
    server.shutdown();
    peak
}

/// Peak residency summed over three `inproc://` cluster members with
/// one cluster worker.
fn three_members(steps: usize) -> u64 {
    let trio = unique(&format!("staging-memory-trio-{steps}"));
    let endpoints: Vec<String> = (0..3).map(|i| format!("{trio}-{i}")).collect();
    let opts = ClusterNodeOpts {
        heartbeat_every: Duration::from_millis(10),
        suspect_after: 3,
        ..ClusterNodeOpts::default()
    };
    let nodes: Arc<Vec<ClusterNode>> = Arc::new(
        endpoints
            .iter()
            .map(|ep| {
                ClusterNode::start(
                    &ep.parse().unwrap(),
                    Bootstrap::Seeds(endpoints.clone()),
                    opts.clone(),
                )
                .expect("start member")
            })
            .collect(),
    );
    let resident = |nodes: &[ClusterNode]| -> u64 {
        nodes.iter().map(|n| n.space().stats().resident_bytes).sum()
    };
    let worker = {
        let eps = endpoints.clone();
        std::thread::spawn(move || {
            run_cluster_bucket_worker(&eps, &fixture::specs(), 0, &BucketWorkerOpts::default())
        })
    };
    let peak = {
        let nodes = Arc::clone(&nodes);
        peak_while_running(
            steps,
            |cfg| cfg.with_staging_cluster(endpoints.clone()),
            move || resident(&nodes),
        )
    };
    worker.join().unwrap().expect("cluster worker");
    let nodes = Arc::into_inner(nodes).expect("the hook is gone");
    assert_eq!(resident(&nodes), 0);
    nodes.into_iter().for_each(ClusterNode::shutdown);
    peak
}

fn assert_bounded(name: &str, short: u64, long: u64) {
    assert!(short > 0, "{name}: no residency seen at {SHORT} steps");
    assert!(
        long * 2 <= short * 3,
        "{name}: peak resident bytes grew with the run: {short} B at {SHORT} steps, \
         {long} B at {LONG}"
    );
}

#[test]
fn one_server_residency_does_not_grow_with_run_length() {
    assert_bounded("one server", one_server(SHORT), one_server(LONG));
}

#[test]
fn cluster_residency_does_not_grow_with_run_length() {
    assert_bounded("three members", three_members(SHORT), three_members(LONG));
}

#[test]
fn three_members_hold_about_what_one_server_holds() {
    let (one, three) = (one_server(SHORT), three_members(SHORT));
    assert!(
        three * 100 <= one * 115,
        "three members peaked at {three} B against {one} B on one server"
    );
}
