//! Graceful degradation end-to-end: the staging service is killed in
//! the middle of a remote-staged run, and the driver must finish every
//! step by re-running the lost aggregations in-situ — zero lost steps,
//! outputs byte-identical to a fully local run.
//!
//! The kill is injected deterministically through the driver's staging
//! output hook: after `KILL_AFTER` outputs have been collected from the
//! staging area, the server is shut down *from inside the driver's
//! collection path*, so the set of tasks that degrade is exactly
//! reproducible. The test then cross-checks three accountings of the
//! same story: the live `PipelineMetrics`, the observability counters,
//! and an `obs_report`-style journal replay.

mod common;

use common::{config, sim, sorted_encoded_outputs, specs, STEPS};
use sitra::core::remote::{run_bucket_worker, BucketWorkerOpts};
use sitra::core::run_pipeline;
use sitra::dataspaces::SpaceServer;
use sitra::net::Addr;
use sitra_bench::replay::replay;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SEED: u64 = 97;
/// Remote outputs collected before the staging service is killed.
const KILL_AFTER: usize = 2;

#[test]
fn staging_killed_mid_run_degrades_to_insitu_with_zero_lost_steps() {
    let obs = sitra::obs::isolate();

    // Reference: the fully in-process pipeline, run before the journal
    // sink is installed so its events don't pollute the replay.
    let local = run_pipeline(&mut sim(SEED), &config(2)).expect("valid config");
    assert_eq!(local.dropped_tasks, 0);

    let sink = Arc::new(sitra::obs::VecSink::new());
    let previous = sitra::obs::install_sink(Some(sink.clone()));

    let addr: Addr = "inproc://degraded-fallback-test".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).expect("start staging server");
    let endpoint = server.addr();
    let worker = {
        let ep = endpoint.clone();
        std::thread::spawn(move || {
            run_bucket_worker(&ep, &specs(), 0, &BucketWorkerOpts::default())
        })
    };

    // The kill switch: after KILL_AFTER collected outputs, shut the
    // staging service down from inside the driver's collection path.
    let server_slot = Arc::new(Mutex::new(Some(server)));
    let collected = Arc::new(AtomicUsize::new(0));
    let hook = {
        let server_slot = Arc::clone(&server_slot);
        let collected = Arc::clone(&collected);
        Arc::new(move |_label: &str, _step: u64| {
            if collected.fetch_add(1, Ordering::SeqCst) + 1 == KILL_AFTER {
                if let Some(s) = server_slot.lock().unwrap().take() {
                    s.shutdown();
                }
            }
        })
    };

    // max_inflight=1 makes the collection order deterministic: every
    // submission first collects the single pending task, so exactly
    // KILL_AFTER tasks complete remotely and the rest degrade.
    let remote = run_pipeline(
        &mut sim(SEED),
        &config(2)
            .with_staging_endpoint(endpoint.to_string())
            .with_staging_max_inflight(1)
            .with_staging_deadline(Duration::from_secs(10))
            .with_staging_output_hook(hook),
    )
    .expect("valid config");
    // The worker retires when the closed scheduler reports no more
    // tasks (or its link drops with the server); either way it must not
    // hang once the run is over.
    let _ = worker.join().expect("worker thread panicked");
    let events = sink.take();
    sitra::obs::install_sink(previous);

    // Zero lost steps: every (analysis, step) output of the local run
    // exists in the degraded run and is byte-identical.
    assert_eq!(
        sorted_encoded_outputs(&local),
        sorted_encoded_outputs(&remote)
    );

    // Task accounting. The roster stages 6 hybrid tasks over 4 steps
    // (viz every step, features on steps 2 and 4); KILL_AFTER complete
    // remotely, every other task must have degraded — none lost.
    let hybrid_tasks = local
        .outputs
        .iter()
        .filter(|(label, _, _)| label != "stats")
        .count();
    assert_eq!(hybrid_tasks, common::expected_hybrid_tasks());
    assert_eq!(collected.load(Ordering::SeqCst), KILL_AFTER);
    assert_eq!(remote.degraded_tasks, hybrid_tasks - KILL_AFTER);
    assert_eq!(remote.dropped_tasks, 0);

    // Step accounting: the kill lands while step 2 is staging, so steps
    // 2..=4 each carry at least one degraded task and step 1 none.
    let degraded_steps: Vec<u64> = remote
        .metrics
        .steps
        .iter()
        .filter(|s| s.degraded)
        .map(|s| s.step)
        .collect();
    assert_eq!(degraded_steps, vec![2, 3, 4]);
    assert_eq!(remote.metrics.degraded_steps(), 3);
    assert_eq!(
        remote.metrics.degraded_analyses().len(),
        remote.degraded_tasks
    );
    for row in remote.metrics.degraded_analyses() {
        assert!(
            !row.aggregated_in_transit,
            "{}@{} degraded but still marked in-transit",
            row.analysis, row.step
        );
    }

    // The observability counters tell the same story...
    let snap = obs.registry().snapshot();
    assert_eq!(
        snap.counter("driver.tasks.degraded") as usize,
        remote.degraded_tasks
    );
    assert_eq!(snap.counter("driver.steps.degraded"), 3);
    assert_eq!(snap.counter("sched.tasks.shed"), 0);
    assert_eq!(
        snap.counter("driver.staging.outputs_collected") as usize,
        KILL_AFTER
    );

    // ...and so does an `obs_report`-style journal replay,
    // bit-identically: the degraded rows' timings round-trip exactly
    // through the journal's Display-encoded f64s.
    let r = replay(&events);
    assert_eq!(r.degraded_stages(), remote.degraded_tasks);
    assert_eq!(r.degraded_steps(), remote.metrics.degraded_steps());
    for want in remote.metrics.degraded_analyses() {
        let got = r
            .stages
            .iter()
            .find(|s| s.analysis == want.analysis && s.step == want.step)
            .unwrap_or_else(|| panic!("no replayed row for {}@{}", want.analysis, want.step));
        assert!(got.degraded);
        assert_eq!(got.aggregate_secs, want.aggregate_secs);
        assert_eq!(got.latency_secs, want.completion_latency_secs);
        assert_eq!(got.insitu_secs, want.insitu_secs);
    }
    for (got, want) in r.steps.iter().zip(&remote.metrics.steps) {
        assert_eq!(got.step, want.step);
        assert_eq!(got.degraded, want.degraded, "step {}", want.step);
    }
    // Every task that reached the staging area journalled what shipping
    // it cost the simulation thread (`staging.ship`).
    let shipped = r.stages.iter().filter(|s| s.ship_secs > 0.0).count();
    assert!(shipped >= KILL_AFTER, "{shipped} ship event(s)");
}

#[test]
fn unreachable_staging_endpoint_degrades_every_task() {
    let _obs = sitra::obs::isolate();

    // Nothing listens here: the driver must come up with the endpoint
    // marked lost, degrade every hybrid task, and still produce the
    // full output set.
    let local = run_pipeline(&mut sim(SEED), &config(2)).expect("valid config");
    let remote = run_pipeline(
        &mut sim(SEED),
        &config(2).with_staging_endpoint("inproc://nobody-listening-here"),
    )
    .expect("valid config");
    assert_eq!(
        sorted_encoded_outputs(&local),
        sorted_encoded_outputs(&remote)
    );
    let hybrid_tasks = local
        .outputs
        .iter()
        .filter(|(label, _, _)| label != "stats")
        .count();
    assert_eq!(remote.degraded_tasks, hybrid_tasks);
    assert_eq!(remote.metrics.degraded_steps(), STEPS);
}
