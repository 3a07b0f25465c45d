//! The chaos regression suite: the pinned seed corpus through all
//! three staging backends, every run checked against the four
//! invariant oracles (conservation, no-loss, golden-output,
//! replay-identity).
//!
//! A failure here shrinks the plan to a minimal reproduction and
//! panics with the full report, including a paste-ready command for
//! the `chaos` binary:
//!
//! ```text
//! cargo run -p sitra-testkit --bin chaos -- --seed 0x... --plan '...' --backend remote
//! ```
//!
//! New failing seeds found by `chaos --random N` sweeps get appended
//! to [`sitra_testkit::PINNED_SEEDS`] once the bug is fixed.

use proptest::prelude::*;
use sitra_testkit::{
    arb_fault_plan, run_scenario, run_tenanted_scenario, shrink, Backend, FaultPlan, PINNED_SEEDS,
};

/// Scenario reruns a shrink may spend per failure (each is a full
/// pipeline run, so keep it modest in CI).
const SHRINK_BUDGET: usize = 16;

#[test]
fn pinned_corpus_passes_every_oracle_on_all_backends() {
    let mut reports = Vec::new();
    for &seed in &PINNED_SEEDS {
        let plan = FaultPlan::from_seed(seed);
        for &backend in &Backend::ALL {
            let outcome = run_scenario(seed, &plan, backend);
            if outcome.passed() {
                continue;
            }
            let minimal = shrink::minimize(
                &plan,
                |candidate| !run_scenario(seed, candidate, backend).passed(),
                SHRINK_BUDGET,
            );
            reports.push(shrink::report(seed, &outcome, &minimal));
        }
    }
    assert!(
        reports.is_empty(),
        "chaos corpus failures:\n{}",
        reports.join("\n")
    );
}

/// The corpus must actually exercise faults: at least one pinned seed
/// produces a non-empty fault schedule on the remote backend, and at
/// least one plan carries each of a crash and a partition. A corpus
/// that silently went fault-free would pass every oracle while
/// guarding nothing.
#[test]
fn pinned_corpus_is_not_toothless() {
    let plans: Vec<FaultPlan> = PINNED_SEEDS
        .iter()
        .map(|&s| FaultPlan::from_seed(s))
        .collect();
    assert!(
        plans.iter().any(|p| !p.is_fault_free()),
        "every pinned plan is fault-free"
    );
    assert!(plans.iter().any(|p| p.crash.is_some()), "no pinned crash");
    let faulted = run_scenario(4242, &FaultPlan::from_seed(4242), Backend::Remote);
    assert!(faulted.passed());
    assert!(
        !faulted.schedule.is_empty(),
        "seed 4242 must inject at least one fault on the remote path"
    );
}

/// The acceptance contract of the whole harness: the fault schedule is
/// a pure function of (plan, dense connection, frame index), so an
/// identical seed + plan reproduces identical decisions for every
/// frame the traffic trace presents. The wall-clock half of the trace
/// (worker poll cadence, reconnect counts) may differ between runs —
/// `PlanInjector`'s unit test pins schedule equality for identical
/// traces — but every decision either run records must be exactly what
/// the plan dictates when re-asked, and the outputs must come out
/// byte-identical.
#[test]
fn identical_seed_and_plan_reproduce_identical_schedule() {
    let seed = 4242;
    let plan = FaultPlan::from_seed(seed);
    let first = run_scenario(seed, &plan, Backend::Remote);
    let second = run_scenario(seed, &plan, Backend::Remote);
    assert!(first.passed(), "violations: {:?}", first.violations);
    assert!(second.passed(), "violations: {:?}", second.violations);
    assert!(
        !first.schedule.is_empty(),
        "the schedule under test is empty"
    );
    for entry in first.schedule.iter().chain(&second.schedule) {
        assert_eq!(
            plan.decide(entry.conn, entry.op),
            entry.action,
            "replaying (conn {}, op {}) must reproduce the recorded action",
            entry.conn,
            entry.op
        );
    }
    assert_eq!(
        first.outputs, second.outputs,
        "outputs must be byte-identical"
    );
}

/// A fault-free plan is a clean bill of health on every backend: no
/// degradation, no faults recorded, all oracles green.
#[test]
fn fault_free_plan_runs_clean_everywhere() {
    for &backend in &Backend::ALL {
        let outcome = run_scenario(7, &FaultPlan::fault_free(7), backend);
        assert!(
            outcome.passed(),
            "{}: violations: {:?}",
            backend.name(),
            outcome.violations
        );
        assert_eq!(outcome.degraded_tasks, 0, "{}", backend.name());
        assert_eq!(outcome.dropped_tasks, 0, "{}", backend.name());
        assert!(outcome.schedule.is_empty(), "{}", backend.name());
    }
}

/// The pinned cluster corpus: hand-written plans that mix the
/// `instance-loss` fault (a whole staging member killed mid-run) with
/// the network fault classes, run against the three-member cluster
/// backend. These stay out of `PINNED_SEEDS` × `Backend::ALL` so the
/// original corpus keeps its exact seed→plan mapping; they are the
/// cluster's own regression floor.
#[test]
fn pinned_cluster_plans_pass_every_oracle() {
    const PLANS: &[(u64, &str)] = &[
        // A bare member kill, early enough that shards are in flight.
        (0xC1, "seed=0xc1,iloss=0:60"),
        // Lossy, laggy network plus a mid-run member kill.
        (0xC2, "seed=0xc2,drop=6,delay=12,delaymax=8,iloss=1:90"),
        // A partition window healing right before a different member dies.
        (0xC3, "seed=0xc3,part=30..70,iloss=2:150"),
    ];
    let mut reports = Vec::new();
    for &(seed, spec) in PLANS {
        let plan = FaultPlan::parse(spec).expect("pinned cluster spec");
        let outcome = run_scenario(seed, &plan, Backend::Cluster);
        if outcome.passed() {
            continue;
        }
        let minimal = shrink::minimize(
            &plan,
            |candidate| !run_scenario(seed, candidate, Backend::Cluster).passed(),
            SHRINK_BUDGET,
        );
        reports.push(shrink::report(seed, &outcome, &minimal));
    }
    assert!(
        reports.is_empty(),
        "cluster chaos failures:\n{}",
        reports.join("\n")
    );
}

/// The pinned multi-tenant corpus: the canonical pipeline bound to the
/// `sim` tenant (weight 3) sharing the staging service with a `rival`
/// tenant (weight 1) whose workload reuses the sim tenant's labels and
/// steps — so a namespace leak fails loudly. On top of the standard
/// four oracles, `run_tenanted_scenario` checks the per-tenant
/// conservation identity (`submitted + requeued == assigned + shed +
/// queued`), traffic attribution, DRR weight survival, and the
/// byte-identity of the rival's own outputs. The cut-heavy plan forces
/// failed hand-offs, pinning tenant preservation through the requeue
/// path.
#[test]
fn pinned_tenant_plans_pass_every_oracle() {
    const PLANS: &[(u64, &str, Backend)] = &[
        // Connection cuts mid-hand-off: assigned tasks requeue and must
        // keep their tenant attribution: the server passes the owner it
        // looked up with `tenant_of` to `requeue_front`.
        (0xE1, "seed=0xe1,cut=5,drop=4", Backend::Remote),
        // Lossy, reordering network over the three-member cluster: the
        // rival's routed submissions and the sim tenant's driver
        // traffic interleave across members.
        (
            0xE2,
            "seed=0xe2,drop=6,delay=15,delaymax=6,reorder=10",
            Backend::Cluster,
        ),
    ];
    let mut reports = Vec::new();
    for &(seed, spec, backend) in PLANS {
        let plan = FaultPlan::parse(spec).expect("pinned tenant spec");
        let outcome = run_tenanted_scenario(seed, &plan, backend);
        if outcome.passed() {
            continue;
        }
        let minimal = shrink::minimize(
            &plan,
            |candidate| !run_tenanted_scenario(seed, candidate, backend).passed(),
            SHRINK_BUDGET,
        );
        reports.push(shrink::report(seed, &outcome, &minimal));
    }
    assert!(
        reports.is_empty(),
        "tenant chaos failures:\n{}",
        reports.join("\n")
    );
}

/// Pinned member-flap plan: one member is lost abruptly mid-run
/// (`iloss`) while another is killed and *rejoined* by the crash plan.
/// The cluster bucket worker must write the lost member off after
/// `MEMBER_DEAD_STRIKES` consecutive failures, re-derive its poll
/// budget over the shrunken live membership, and pick the rejoined
/// member back up on a revival probe with a clean strike count — the
/// accounting this pins used to double-count strikes across a
/// death→revival→death flap and split the budget over the original
/// membership.
#[test]
fn pinned_member_flap_plans_pass_every_oracle() {
    const PLANS: &[(u64, &str)] = &[
        // Member 2 lost for good at tick 50; member 1 crashed after two
        // collected outputs and rejoined through member 0.
        (0xF1, "seed=0xf1,iloss=2:50,crash=after:2:restart"),
        // The same flap under a lossy network, so the worker's strikes
        // interleave with transient per-frame faults.
        (0xF2, "seed=0xf2,drop=5,cut=3,crash=after:1:restart"),
    ];
    let mut reports = Vec::new();
    for &(seed, spec) in PLANS {
        let plan = FaultPlan::parse(spec).expect("pinned flap spec");
        let outcome = run_scenario(seed, &plan, Backend::Cluster);
        if outcome.passed() {
            continue;
        }
        let minimal = shrink::minimize(
            &plan,
            |candidate| !run_scenario(seed, candidate, Backend::Cluster).passed(),
            SHRINK_BUDGET,
        );
        reports.push(shrink::report(seed, &outcome, &minimal));
    }
    assert!(
        reports.is_empty(),
        "member-flap plan failures:\n{}",
        reports.join("\n")
    );
}

/// Pinned elastic-pool plans: `scale=DELTA:TICK` events resizing the
/// bucket-worker pool mid-run, mixed with the network fault classes.
/// Growth spawns extra workers on fresh bucket ids; shrink drains and
/// retires live buckets through the scheduler — the same path the
/// autoscaler drives. The oracles must hold across worker retirement:
/// in particular, a draining bucket whose link is being cut out from
/// under it (`0xB4`) must lose nothing — any task it held either
/// completes or degrades to in-situ re-aggregation, never drops.
/// Pinned separately so `PINNED_SEEDS` keeps its exact seed→plan
/// mapping.
#[test]
fn pinned_scale_plans_pass_every_oracle() {
    const PLANS: &[(u64, &str, Backend)] = &[
        // Grow by one mid-run on a clean network: the extra bucket
        // joins the FCFS rotation without perturbing outputs.
        (0xB1, "seed=0xb1,scale=1:10", Backend::Remote),
        // Drain-and-retire the only bucket early: every task still due
        // degrades to in-situ re-aggregation, none are lost.
        (0xB2, "seed=0xb2,scale=-1:10", Backend::Remote),
        // Grow under a lossy, cutting network.
        (0xB3, "seed=0xb3,scale=2:5,cut=20,drop=8", Backend::Remote),
        // Kill a draining bucket: the retire fires while the worker's
        // connection is being cut, so the drain races a reconnect.
        (0xB4, "seed=0xb4,scale=-1:8,cut=40", Backend::Remote),
        // Cross-member retirement: one member drains its bucket, which
        // retires the whole round-robin cluster worker mid-run.
        (0xB5, "seed=0xb5,scale=-1:30,drop=5", Backend::Cluster),
    ];
    let mut reports = Vec::new();
    for &(seed, spec, backend) in PLANS {
        let plan = FaultPlan::parse(spec).expect("pinned scale spec");
        let outcome = run_scenario(seed, &plan, backend);
        if outcome.passed() {
            continue;
        }
        let minimal = shrink::minimize(
            &plan,
            |candidate| !run_scenario(seed, candidate, backend).passed(),
            SHRINK_BUDGET,
        );
        reports.push(shrink::report(seed, &outcome, &minimal));
    }
    assert!(
        reports.is_empty(),
        "scale plan failures:\n{}",
        reports.join("\n")
    );
}

/// Pinned timer-fault plans: `delay`/`reorder` rates well above what
/// the seeded corpus generates, exercising the transport's timed fault
/// holds (a delayed or reordered frame parks with the connection's
/// sequencer thread — the sender never sleeps) end to end. Pinned
/// separately so `PINNED_SEEDS` keeps its exact seed→plan mapping.
#[test]
fn pinned_timer_fault_plans_pass_every_oracle() {
    const PLANS: &[(u64, &str)] = &[
        // One frame in five held on a timer for up to 10ms.
        (0xD1, "seed=0xd1,delay=200,delaymax=10"),
        // Heavy reordering over moderate delay jitter.
        (0xD2, "seed=0xd2,delay=60,delaymax=6,reorder=150"),
    ];
    let mut reports = Vec::new();
    for &(seed, spec) in PLANS {
        let plan = FaultPlan::parse(spec).expect("pinned timer spec");
        for &backend in &Backend::ALL {
            let outcome = run_scenario(seed, &plan, backend);
            if outcome.passed() {
                continue;
            }
            let minimal = shrink::minimize(
                &plan,
                |candidate| !run_scenario(seed, candidate, backend).passed(),
                SHRINK_BUDGET,
            );
            reports.push(shrink::report(seed, &outcome, &minimal));
        }
    }
    assert!(
        reports.is_empty(),
        "timer-fault plan failures:\n{}",
        reports.join("\n")
    );
}

/// Pinned steering plans: the scenario matrix's steerable subscriber
/// (which rides along on every staging backend run) under drop, delay,
/// and partition faults. The fault injector sits under the subscriber's
/// `sitra-net` connection too, so a dropped or duplicated reply severs
/// its request lockstep; the client must redial and *re-declare its
/// current steering rate* on the fresh subscription — mirroring the
/// `SetTenant` reconnect pattern — or the steer-ack monotonicity
/// oracle fails on the first post-reconnect frame. Pinned separately
/// (like the cluster and `scale=` families) so `PINNED_SEEDS` keeps
/// its exact seed→plan mapping.
#[test]
fn pinned_steering_plans_pass_every_oracle() {
    use sitra_testkit::matrix::{matrix_specs, scenario_matrix};

    const PLANS: &[(&str, &[Backend])] = &[
        // Lossy, laggy network: dropped frame replies force the
        // subscriber through the redial + re-subscribe path mid-run.
        (
            "seed=0xA1,drop=12,delay=25,delaymax=10",
            &[Backend::Local, Backend::Remote],
        ),
        // A partition window: established connections survive, but any
        // redial inside the window is refused, so the subscriber's
        // retry loop must outlive it.
        ("seed=0xA2,part=10..60,drop=6", &[Backend::Local]),
        // Duplicated and reordered replies: the desync detector must
        // sever and resynchronize rather than double-deliver a frame.
        (
            "seed=0xA3,dup=15,reorder=12,cut=5",
            &[Backend::Local, Backend::Remote],
        ),
    ];
    let mut failures = Vec::new();
    for &(spec, backends) in PLANS {
        let plan = FaultPlan::parse(spec).expect("pinned steering spec");
        let report = scenario_matrix(backends, &[plan], matrix_specs);
        for cell in report.failures() {
            failures.push(format!(
                "{}/{}/{} `{}`: {:?}",
                cell.backend, cell.policy, cell.analysis, cell.plan, cell.violations
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "steering plan failures:\n  {}",
        failures.join("\n  ")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every plan round-trips through its spec string — the property
    /// that makes the shrink report's `--plan` flag a faithful
    /// reproduction of the failing schedule.
    #[test]
    fn plan_spec_roundtrips(plan in arb_fault_plan()) {
        let spec = plan.to_string();
        let back = FaultPlan::parse(&spec)
            .unwrap_or_else(|e| panic!("`{spec}` failed to re-parse: {e}"));
        prop_assert_eq!(back, plan);
    }

    /// Fault decisions are a pure function of (plan, connection, frame):
    /// re-asking never changes the answer.
    #[test]
    fn plan_decisions_are_pure(plan in arb_fault_plan(), conn in 0u64..8, op in 0u64..512) {
        prop_assert_eq!(plan.decide(conn, op), plan.decide(conn, op));
    }
}
