//! Remote staging end-to-end: the pipeline driver stages hybrid
//! analyses through a [`SpaceServer`] over **every transport scheme**
//! (`inproc://` and real TCP loopback), with
//! separate bucket-worker threads pulling tasks exactly as external
//! `sitra-staged` consumers would — and the outputs must be
//! byte-identical to the fully in-process pipeline on each.
//!
//! A fault injector drops the server's first `Assigned` reply, which
//! severs that connection: the worst moment for a consumer to crash,
//! with the task popped for it and never acknowledged. The server must
//! requeue that task and a worker must finish it: no output may be
//! missing and the scheduler stats must show exactly one requeue.

mod common;

use common::{config, sim, sorted_encoded_outputs, specs};
use sitra::core::remote::{run_bucket_worker, BucketWorkerOpts};
use sitra::core::run_pipeline;
use sitra::dataspaces::remote::{decode_response, Response};
use sitra::dataspaces::{SpaceServer, TaskPoll};
use sitra::net::{install_fault_injector, Addr, Backoff, FaultAction, FaultInjector, Frame};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 4242;
const BUCKETS: usize = 3;
const WORKERS: usize = 3;

#[test]
fn tcp_remote_staging_matches_in_process_and_survives_a_dropped_connection() {
    staging_matches_in_process_and_survives_a_drop("tcp://127.0.0.1:0");
}

#[test]
fn inproc_remote_staging_matches_in_process_and_survives_a_dropped_connection() {
    staging_matches_in_process_and_survives_a_drop("inproc://remote-staging-drop-test");
}

/// Drops the first `Assigned` reply this process sends, and delivers
/// every other frame.
#[derive(Default)]
struct DropFirstAssignment {
    fired: AtomicBool,
}

impl FaultInjector for DropFirstAssignment {
    fn on_frame(&self, _conn: u64, _peer: &str, frame: &Frame) -> FaultAction {
        if self.fired.load(Ordering::SeqCst) {
            return FaultAction::Deliver;
        }
        // Request tags and response tags do not overlap, so only a
        // reply decodes as one.
        let assigned = matches!(
            decode_response(frame.join()),
            Ok(Response::Task(TaskPoll::Assigned { .. }))
        );
        if assigned && !self.fired.swap(true, Ordering::SeqCst) {
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    }
}

/// The scheme-parameterized body: byte-identity against the in-process
/// reference, plus the dropped-connection/requeue story, on whichever
/// transport `bind` names.
fn staging_matches_in_process_and_survives_a_drop(bind: &str) {
    // Fresh metrics registry for this test (also serializes the tests
    // in this binary, which all read global observability state).
    let obs = sitra::obs::isolate();

    // Reference: the fully in-process pipeline.
    let local = run_pipeline(&mut sim(SEED), &config(BUCKETS)).expect("valid config");
    assert_eq!(local.dropped_tasks, 0);

    // Remote: a space server bound to the scheme under test plus worker
    // threads connecting to it, as separate processes would.
    let bind: Addr = bind.parse().unwrap();
    let server = SpaceServer::start(&bind, 2).expect("start staging server");
    let endpoint = server.addr();
    // The injector is process-global; `isolate` keeps every other test
    // in this binary out until it is restored.
    let previous = install_fault_injector(Some(Arc::new(DropFirstAssignment::default())));

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let ep = endpoint.clone();
            std::thread::Builder::new()
                .name(format!("remote-bucket-{w}"))
                .spawn(move || {
                    let opts = BucketWorkerOpts {
                        backoff: Backoff::default(),
                        request_timeout: Duration::from_millis(200),
                        location: None,
                    };
                    run_bucket_worker(&ep, &specs(), w as u32, &opts).expect("bucket worker")
                })
                .expect("spawn worker")
        })
        .collect();

    let remote = run_pipeline(
        &mut sim(SEED),
        &config(BUCKETS).with_staging_endpoint(endpoint.to_string()),
    )
    .expect("valid config");
    let completed: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    install_fault_injector(previous);

    // Byte-identical outputs: every (analysis, step) of the in-process
    // run, encoded, matches the remote run exactly.
    let local_enc = sorted_encoded_outputs(&local);
    let remote_enc = sorted_encoded_outputs(&remote);
    assert_eq!(
        local_enc.len(),
        remote_enc.len(),
        "output sets differ in size"
    );
    for (l, r) in local_enc.iter().zip(&remote_enc) {
        assert_eq!(l.0, r.0, "label order mismatch");
        assert_eq!(l.1, r.1, "step mismatch for {}", l.0);
        assert_eq!(
            l.2, r.2,
            "outputs of {}@{} are not byte-identical",
            l.0, l.1
        );
    }

    // The dropped assignment lost no task: one requeue, and every
    // assignment is accounted for (original submissions + the retry).
    let stats = server.sched_stats();
    let hybrid_tasks = local
        .outputs
        .iter()
        .filter(|(label, _, _)| label != "stats")
        .count() as u64;
    assert_eq!(stats.tasks_submitted, hybrid_tasks);
    assert_eq!(
        stats.tasks_requeued, 1,
        "expected exactly one requeued task"
    );
    assert_eq!(
        stats.tasks_assigned,
        stats.tasks_submitted + stats.tasks_requeued,
        "assignments must cover submissions plus the requeued retry"
    );
    assert_eq!(completed as u64, stats.tasks_submitted);

    // The driver evicted every step's staging objects on the way out.
    assert_eq!(server.space().stats().resident_bytes, 0);
    server.shutdown();

    // The observability registry saw the same story the scheduler
    // stats tell: exactly one requeue, no framing desyncs anywhere,
    // and the queue-depth gauge's high-water mark is the scheduler's
    // max_queue_depth (both are updated at the same mutation points).
    let snap = obs.registry().snapshot();
    assert_eq!(
        snap.counter("sched.tasks.requeued"),
        1,
        "registry must record exactly one requeue"
    );
    assert_eq!(
        snap.counter_sum("net.conn.desyncs"),
        0,
        "no connection may report a frame desync"
    );
    let (_, high_water) = snap
        .gauge("sched.queue.depth")
        .expect("queue depth gauge registered");
    // Two schedulers wrote the gauge in this process: the local
    // reference run's and the SpaceServer's (the remote driver submits
    // to the server's scheduler instead of creating its own). The gauge
    // and max_queue_depth are updated at the same mutation points, so
    // the high-water is exactly the max of the per-scheduler
    // high-waters; the remote run's max_queue_depth is 0.
    let expected_depth = local
        .metrics
        .max_queue_depth
        .max(remote.metrics.max_queue_depth)
        .max(stats.max_queue_depth);
    assert_eq!(
        high_water as usize, expected_depth,
        "gauge high-water must equal the max SchedulerStats::max_queue_depth"
    );
    // Cross-layer sanity: the remote run moved real frames and the RPC
    // layer answered requests.
    assert!(snap.counter_sum("net.conn.frames_sent") > 0);
    assert!(snap.counter("space.rpc.requests") > 0);
    assert_eq!(snap.counter("space.rpc.proto_errors"), 0);
}

#[test]
fn tenant_bound_driver_leaves_shared_scheduler_open() {
    // A driver bound to a non-default tenant is one producer among
    // several on a shared staging service: finishing its run must not
    // close the scheduler (which would retire every other tenant's
    // workers), while the legacy untenanted driver keeps close-on-exit.
    let _obs = sitra::obs::isolate();
    let addr: Addr = "inproc://remote-staging-tenant-close".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).expect("start staging server");
    let endpoint = server.addr();
    let worker = {
        let ep = endpoint.clone();
        std::thread::spawn(move || {
            run_bucket_worker(&ep, &specs(), 0, &BucketWorkerOpts::default())
                .expect("bucket worker")
        })
    };
    let remote = run_pipeline(
        &mut sim(SEED),
        &config(BUCKETS)
            .with_staging_endpoint(endpoint.to_string())
            .with_tenant(sitra::dataspaces::TenantSpec::new("acme").with_weight(3)),
    )
    .expect("valid config");
    assert_eq!(remote.dropped_tasks, 0);
    assert!(
        !server.scheduler().is_closed(),
        "a tenant-bound driver must leave the shared scheduler open"
    );
    // The tenanted run evicted only its own namespace — and since it
    // was the only producer, that is everything it staged.
    assert_eq!(server.space().stats().resident_bytes, 0);
    // The service's operator retires the worker, not the driver.
    server.scheduler().close();
    worker.join().unwrap();

    // Outputs still byte-identical to the in-process reference: the
    // tenant namespace changes where pieces live, not what they say.
    let local = run_pipeline(&mut sim(SEED), &config(BUCKETS)).expect("valid config");
    assert_eq!(
        sorted_encoded_outputs(&local),
        sorted_encoded_outputs(&remote)
    );
    server.shutdown();
}

#[test]
fn inproc_remote_staging_roundtrip() {
    // Fresh registry; also keeps this test from racing the TCP test's
    // snapshot assertions on the global observability state.
    let _obs = sitra::obs::isolate();

    // Same deployment over the deterministic in-process transport: a
    // quick guard that the remote path works without OS sockets.
    let addr: Addr = "inproc://remote-staging-test".parse().unwrap();
    let server = SpaceServer::start(&addr, 1).expect("start staging server");
    let endpoint = server.addr();
    let worker = {
        let ep = endpoint.clone();
        std::thread::spawn(move || {
            run_bucket_worker(&ep, &specs(), 0, &BucketWorkerOpts::default())
                .expect("bucket worker")
        })
    };
    let remote = run_pipeline(
        &mut sim(SEED),
        &config(BUCKETS).with_staging_endpoint(endpoint.to_string()),
    )
    .expect("valid config");
    let completed = worker.join().unwrap();
    let local = run_pipeline(&mut sim(SEED), &config(BUCKETS)).expect("valid config");
    assert_eq!(
        sorted_encoded_outputs(&local),
        sorted_encoded_outputs(&remote)
    );
    assert_eq!(
        completed,
        local
            .outputs
            .iter()
            .filter(|(l, _, _)| l != "stats")
            .count()
    );
    server.shutdown();
}
