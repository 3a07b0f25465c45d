//! Cluster acceptance: a three-member `sitra-cluster` behind
//! `StagingMode::Cluster` must satisfy the four testkit oracles
//! (conservation, no-loss, golden-output, replay-identity) through a
//! fault-free run, a clean join/leave rebalance, and a whole-instance
//! crash — and the single-space remote path must keep its pre-cluster
//! behavior byte-for-byte.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sitra_cluster::{Bootstrap, ClusterNode, ClusterNodeOpts};
use sitra_core::{run_cluster_bucket_worker, run_pipeline, BucketWorkerOpts, StagingMode};
use sitra_net::{Addr, Backoff};
use sitra_obs::VecSink;
use sitra_testkit::{fixture, run_scenario, Backend, FaultPlan, InstanceLoss};

fn addr(tag: &str, i: usize) -> Addr {
    format!("inproc://cluster-it-{tag}-{i}")
        .parse()
        .expect("addr")
}

fn opts() -> ClusterNodeOpts {
    ClusterNodeOpts {
        heartbeat_every: Duration::from_millis(10),
        suspect_after: 3,
        ..ClusterNodeOpts::default()
    }
}

/// Fault-free: the full scenario harness (golden run, live cluster,
/// external worker, all four oracles) passes on a healthy trio.
#[test]
fn fault_free_cluster_run_passes_every_oracle() {
    let outcome = run_scenario(0x11, &FaultPlan::fault_free(0x11), Backend::Cluster);
    assert!(
        outcome.passed(),
        "fault-free cluster violations:\n{}",
        outcome.violations.join("\n")
    );
    assert!(outcome.staged_tasks > 0, "fixture staged nothing");
    assert_eq!(outcome.dropped_tasks, 0);
    assert_eq!(outcome.degraded_tasks, 0, "healthy trio must not degrade");
}

/// Killing a member mid-run (abrupt: queued tasks dropped on the
/// member's floor) may degrade tasks to in-situ re-aggregation but
/// must never lose one or change an output byte.
#[test]
fn whole_instance_crash_degrades_but_never_loses() {
    let plan = FaultPlan {
        instance_loss: Some(InstanceLoss {
            member: 2,
            at_tick: 40,
        }),
        ..FaultPlan::fault_free(0x7)
    };
    let outcome = run_scenario(0x7, &plan, Backend::Cluster);
    assert!(
        outcome.passed(),
        "instance-crash violations:\n{}",
        outcome.violations.join("\n")
    );
}

/// A clean membership churn mid-run: two founders, a third member
/// joins (receiving its shards via handoff) after the first staged
/// output, and one founder gracefully leaves (handing its shards and
/// queued tasks off) a few outputs later. All four oracles must hold
/// across both rebalances, and handoff must actually have moved data.
#[test]
fn clean_join_and_leave_rebalance_holds_every_oracle() {
    let obs = sitra_obs::isolate();
    let seed = 0x5EED;

    // Golden: fault-free, fully in-situ.
    let golden = run_pipeline(
        &mut fixture::sim(seed),
        &fixture::config(2).with_staging_mode(StagingMode::InSitu),
    )
    .expect("golden config");
    let golden_outputs = fixture::sorted_encoded_outputs(&golden);

    let endpoints: Vec<String> = (0..3).map(|i| addr("joinleave", i).to_string()).collect();
    let seeds = vec![endpoints[0].clone(), endpoints[1].clone()];
    let founders: Vec<Option<ClusterNode>> = (0..2)
        .map(|i| {
            Some(
                ClusterNode::start(
                    &addr("joinleave", i),
                    Bootstrap::Seeds(seeds.clone()),
                    opts(),
                )
                .expect("start founder"),
            )
        })
        .collect();
    let slots = Arc::new(Mutex::new(founders));
    // Slot for the joiner so teardown can reach it.
    slots.lock().unwrap().push(None);

    let worker = {
        let eps = endpoints.clone();
        let specs = fixture::specs();
        std::thread::spawn(move || {
            let opts = BucketWorkerOpts {
                backoff: Backoff {
                    initial: Duration::from_millis(5),
                    max: Duration::from_millis(40),
                    attempts: 4,
                },
                request_timeout: Duration::from_millis(100),
                location: None,
            };
            run_cluster_bucket_worker(&eps, &specs, 0, &opts)
        })
    };

    // Membership choreography, driven off the driver's own collection
    // path: join the third member after the first staged output, leave
    // the second founder after the third.
    let collected = Arc::new(AtomicUsize::new(0));
    let churn = {
        let slots = Arc::clone(&slots);
        let join_addr = addr("joinleave", 2);
        let join_via = endpoints[0].clone();
        let collected = Arc::clone(&collected);
        Arc::new(move |_label: &str, _step: u64| {
            match collected.fetch_add(1, Ordering::SeqCst) + 1 {
                1 => {
                    let joiner =
                        ClusterNode::start(&join_addr, Bootstrap::Join(join_via.clone()), opts())
                            .expect("join third member");
                    slots.lock().unwrap()[2] = Some(joiner);
                }
                3 => {
                    if let Some(n) = slots.lock().unwrap()[1].take() {
                        n.leave();
                    }
                }
                _ => {}
            }
        })
    };

    let cfg = fixture::config(2)
        .with_staging_cluster(endpoints.clone())
        .with_staging_deadline(Duration::from_millis(700))
        .with_staging_max_inflight(2)
        .with_staging_output_hook(churn);

    let sink = Arc::new(VecSink::new());
    let prev_sink = sitra_obs::install_sink(Some(sink.clone()));
    let result = run_pipeline(&mut fixture::sim(seed), &cfg).expect("cluster config");
    let events = sink.take();
    sitra_obs::install_sink(prev_sink);

    for slot in slots.lock().unwrap().iter_mut() {
        if let Some(n) = slot.take() {
            n.shutdown();
        }
    }
    worker.join().expect("worker thread").expect("worker run");

    assert!(
        collected.load(Ordering::SeqCst) >= 3,
        "fixture produced too few staged outputs to exercise the churn"
    );

    // Oracle 1 — conservation.
    assert_eq!(result.staged_tasks, fixture::expected_hybrid_tasks());
    // Oracle 2 — no-loss.
    assert_eq!(result.dropped_tasks, 0, "join/leave churn lost a task");
    // Oracle 3 — golden output.
    assert_eq!(
        fixture::sorted_encoded_outputs(&result),
        golden_outputs,
        "outputs diverged from the fault-free golden run"
    );
    // Oracle 4 — replay identity.
    let violations = fixture::replay_violations(
        "cluster-joinleave",
        &result,
        &events,
        "hybrid-remote",
        false,
    );
    assert!(violations.is_empty(), "replay: {}", violations.join("\n"));

    // And the churn must have been real: the join (and possibly the
    // leave) moved shards between members.
    let handed_off = obs.registry().snapshot().counter("cluster.handoff.pieces");
    assert!(
        handed_off > 0,
        "no shard handoff despite a join and a leave"
    );
}

/// The pre-cluster single-space remote path is untouched: the same
/// scenario harness still passes on `Backend::Remote`, golden outputs
/// included.
#[test]
fn single_space_remote_path_is_unchanged() {
    let outcome = run_scenario(0x22, &FaultPlan::fault_free(0x22), Backend::Remote);
    assert!(
        outcome.passed(),
        "remote regression:\n{}",
        outcome.violations.join("\n")
    );
}
