//! Multi-tenant staging scenario: one staging service shared by many
//! concurrent tenant producers (DRR weights cycling 1..=4) plus a
//! quota-capped `hog`, drained by one bucket worker.
//!
//! ```text
//! cargo run --release -p sitra-bench --bin tenants_scenario \
//!     [-- --tenants N] [--tasks M] [--iters I] [--duration-secs S]
//! ```
//!
//! Defaults drive 100 concurrent producers — each a small pipeline
//! reduced to its staging interactions: connect, declare its tenant,
//! submit timestamped tasks, racing the other 99 — through a single
//! `SpaceServer`. The CI `tenant-smoke` job runs the reduced scale
//! (`--tenants 10 --duration-secs 30`), which keeps iterating full
//! scenarios until the wall-clock budget is spent.
//!
//! Three things are measured and asserted per iteration:
//!
//! * **Quota** — the hog (task quota 16, `RejectNew` override) fires
//!   100 submissions at an idle queue: exactly 16 admit, 84 reject.
//!   Its admitted tasks drain *during* the fairness window, so fairness
//!   is measured while a quota-saturating neighbour competes.
//! * **Fairness** — every producer's backlog is staged before the
//!   worker starts, so the DRR rotation runs fully loaded. Over a
//!   window of whole rotations, no tenant's observed share may fall
//!   below [`FAIRNESS_FLOOR_PCT`] of its weight share; the CI gate
//!   re-checks the emitted row with `bench_gate --floor`.
//! * **Replay** — a [`sitra_obs::VecSink`] captures the journal for the
//!   whole run and [`sitra_bench::replay::replay_tenants`] must rebuild
//!   the per-tenant table bit-identical to the live
//!   `Scheduler::tenant_stats` snapshot.
//!
//! Emits the criterion-style `{"group","id","mean_ns","iters"}` rows to
//! `BENCH_tenants.json` (override with `BENCH_JSON=path`): queue-wait
//! p50/p99 per weight class (`w1_p50_ns` … `w4_p99_ns`, stable ids at
//! any `--tenants` scale) and `fairness_min_share_pct`, which reuses
//! the `mean_ns` field as a dimensionless percentage (higher is better
//! — gate it with `bench_gate --floor`, not the regression comparison).

use sitra_bench::replay::replay_tenants;
use sitra_dataspaces::{
    Admission, AdmissionPolicy, RemoteSpace, SpaceServer, TaskPoll, TenantSpec,
};
use sitra_obs::VecSink;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// DRR weights cycle through 1..=WEIGHT_CLASSES across the tenants.
const WEIGHT_CLASSES: u32 = 4;
/// In-binary fairness assertion: no tenant below this percentage of its
/// weight share inside the measurement window. The full-scale gate
/// floor is 80 ("weight share − 20%"); the window cutting mid-rotation
/// can legitimately cost a low-weight tenant one assignment, so the
/// binary asserts the CI smoke floor and leaves the tighter check to
/// `bench_gate --floor` against the emitted row.
const FAIRNESS_FLOOR_PCT: u64 = 60;
/// The hog's task quota and how many submissions it fires at it.
const HOG_QUOTA: usize = 16;
const HOG_SUBMITS: usize = 100;

#[derive(Clone, Copy)]
struct Opts {
    tenants: usize,
    tasks_per_tenant: usize,
    iters: u32,
    /// Keep iterating until this much wall clock has elapsed (0 = run
    /// exactly `iters`).
    duration: Duration,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            tenants: 100,
            tasks_per_tenant: 40,
            iters: 3,
            duration: Duration::ZERO,
        }
    }
}

fn tenant_weight(i: usize) -> u32 {
    (i as u32 % WEIGHT_CLASSES) + 1
}

fn tenant_name(i: usize) -> String {
    format!("t{i:03}")
}

struct IterOutcome {
    /// `min_i(observed_share_i / weight_share_i) * 100` over the window.
    fairness_pct: u64,
    /// Queue-wait nanoseconds per weight class (index = weight − 1),
    /// full drain.
    latencies: Vec<Vec<u64>>,
}

fn run_once(opts: &Opts, iter: u32) -> IterOutcome {
    static UNIQ: AtomicUsize = AtomicUsize::new(0);
    let uniq = UNIQ.fetch_add(1, Ordering::Relaxed);
    let addr: sitra_net::Addr = format!("inproc://tenants-bench-{uniq}-{iter}")
        .parse()
        .expect("addr");

    // Capture the journal for the whole service lifetime so replay sees
    // every registration and admission.
    let sink = Arc::new(VecSink::new());
    let prev_sink = sitra_obs::install_sink(Some(sink.clone()));

    let server = SpaceServer::start(&addr, 2).expect("start server");
    let t0 = Arc::new(Instant::now());
    let stamp =
        |t0: &Instant| bytes::Bytes::from((t0.elapsed().as_nanos() as u64).to_le_bytes().to_vec());

    // Register every tenant up front, in index order, so the live
    // tenant table's row order is deterministic.
    for i in 0..opts.tenants {
        let conn = RemoteSpace::connect(&addr).expect("connect");
        conn.set_tenant(&TenantSpec::new(tenant_name(i)).with_weight(tenant_weight(i)))
            .expect("set_tenant");
        conn.close();
    }
    let hog = RemoteSpace::connect(&addr).expect("connect hog");
    hog.set_tenant(
        &TenantSpec::new("hog")
            .with_task_quota(HOG_QUOTA)
            .with_policy(AdmissionPolicy::RejectNew),
    )
    .expect("set_tenant hog");

    // Phase A — quota: the hog hammers an idle queue. Its quota admits
    // exactly HOG_QUOTA tasks; RejectNew refuses the rest. The admitted
    // tasks stay queued into phase B, so the fairness window below runs
    // against a neighbour sitting at its quota.
    let (mut admitted, mut rejected) = (0usize, 0usize);
    for _ in 0..HOG_SUBMITS {
        match hog.submit_task_admission(stamp(&t0)).expect("hog submit") {
            Admission::Accepted { .. } | Admission::AcceptedShed { .. } => admitted += 1,
            Admission::Rejected | Admission::TimedOut => rejected += 1,
            Admission::Closed => panic!("scheduler closed mid-bench"),
        }
    }
    assert_eq!(
        (admitted, rejected),
        (HOG_QUOTA, HOG_SUBMITS - HOG_QUOTA),
        "hog quota must admit exactly its quota and reject the rest"
    );

    // Phase B — every producer stages its backlog concurrently with the
    // other producers (each its own connection and thread), before any
    // worker exists. Payloads carry their submit time (ns since t0) so
    // the drain can compute queue-wait latency without a side channel.
    let producers: Vec<std::thread::JoinHandle<()>> = (0..opts.tenants)
        .map(|i| {
            let addr = addr.clone();
            let t0 = Arc::clone(&t0);
            let tasks = opts.tasks_per_tenant;
            std::thread::spawn(move || {
                let conn = RemoteSpace::connect(&addr).expect("producer connect");
                conn.set_tenant(&TenantSpec::new(tenant_name(i)).with_weight(tenant_weight(i)))
                    .expect("producer set_tenant");
                for _ in 0..tasks {
                    conn.submit_task_admission(bytes::Bytes::from(
                        (t0.elapsed().as_nanos() as u64).to_le_bytes().to_vec(),
                    ))
                    .expect("producer submit")
                    .seq()
                    .expect("producer task admitted");
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer thread");
    }

    // Drain: one worker, one bucket — every assignment in one global
    // order, which is exactly the DRR rotation under full backlog.
    let worker = RemoteSpace::connect(&addr).expect("connect worker");
    let total = HOG_QUOTA + opts.tenants * opts.tasks_per_tenant;
    let mut order: Vec<(String, u64)> = Vec::with_capacity(total);
    while order.len() < total {
        match worker
            .request_task(0, Duration::from_millis(100))
            .expect("request_task")
        {
            TaskPoll::Assigned { data, tenant, .. } => {
                let sent = u64::from_le_bytes(data[..8].try_into().expect("stamp payload"));
                let waited = (t0.elapsed().as_nanos() as u64).saturating_sub(sent);
                order.push((tenant, waited));
            }
            TaskPoll::Empty => continue,
            TaskPoll::Closed | TaskPoll::Retire => {
                panic!("scheduler closed with tasks outstanding")
            }
        }
    }

    // Replay identity: the journal alone must rebuild the per-tenant
    // table the live scheduler reports.
    let live = server.scheduler().tenant_stats();
    let replayed = replay_tenants(&sink.events());
    assert_eq!(
        replayed, live,
        "journal replay must be bit-identical to the live tenant table"
    );
    sitra_obs::install_sink(prev_sink);

    // Fairness over a window of whole DRR rotations (so expected shares
    // are exact), capped at half the staged tasks so no tenant's queue
    // can run dry inside the window — an empty queue leaves the
    // rotation and would legitimately skew shares.
    let weight_sum: u64 = (0..opts.tenants).map(|i| tenant_weight(i) as u64).sum();
    let window_len = (opts.tenants * opts.tasks_per_tenant / 2) as u64 / weight_sum * weight_sum;
    assert!(
        window_len >= weight_sum,
        "--tasks too small for a whole-rotation fairness window"
    );
    let window: Vec<&str> = order
        .iter()
        .map(|(t, _)| t.as_str())
        .filter(|t| *t != "hog")
        .take(window_len as usize)
        .collect();
    let fairness_pct = (0..opts.tenants)
        .map(|i| {
            let name = tenant_name(i);
            let got = window.iter().filter(|t| **t == name).count() as f64;
            let expected = window_len as f64 * tenant_weight(i) as f64 / weight_sum as f64;
            (100.0 * got / expected) as u64
        })
        .min()
        .expect("at least one tenant");
    assert!(
        fairness_pct >= FAIRNESS_FLOOR_PCT,
        "fairness floor violated: min share {fairness_pct}% of weight share \
         (floor {FAIRNESS_FLOOR_PCT}%)"
    );

    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); WEIGHT_CLASSES as usize];
    for (tenant, waited) in &order {
        if let Some(i) = tenant
            .strip_prefix('t')
            .and_then(|n| n.parse::<usize>().ok())
        {
            latencies[(tenant_weight(i) - 1) as usize].push(*waited);
        }
    }

    hog.close();
    worker.close();
    server.shutdown();
    IterOutcome {
        fairness_pct,
        latencies,
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn parse_opts() -> Opts {
    let mut opts = Opts::default();
    let argv: Vec<String> = std::env::args().collect();
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} wants a number"))
        };
        match flag.as_str() {
            "--tenants" => opts.tenants = value("--tenants").max(1),
            "--tasks" => opts.tasks_per_tenant = value("--tasks").max(1),
            "--iters" => opts.iters = value("--iters").max(1) as u32,
            "--duration-secs" => {
                opts.duration = Duration::from_secs(value("--duration-secs") as u64)
            }
            other => panic!(
                "unknown flag {other}\n\
                 usage: tenants_scenario [--tenants N] [--tasks M] [--iters I] [--duration-secs S]"
            ),
        }
    }
    opts
}

fn main() {
    let opts = parse_opts();
    let json_path = std::env::var_os("BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| "BENCH_tenants.json".into());
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&json_path)
        .expect("open BENCH_JSON");

    println!(
        "tenants scenario: {} tenants (weights cycling 1..={WEIGHT_CLASSES}), \
         {} tasks each, hog quota {HOG_QUOTA}/{HOG_SUBMITS}",
        opts.tenants, opts.tasks_per_tenant
    );
    let started = Instant::now();
    let mut fairness_min = u64::MAX;
    let mut per_class: Vec<Vec<u64>> = vec![Vec::new(); WEIGHT_CLASSES as usize];
    let mut iters = 0u32;
    while iters < opts.iters || started.elapsed() < opts.duration {
        let outcome = run_once(&opts, iters);
        println!(
            "  iter {iters}: min share {}% of weight share",
            outcome.fairness_pct
        );
        fairness_min = fairness_min.min(outcome.fairness_pct);
        for (all, one) in per_class.iter_mut().zip(outcome.latencies) {
            all.extend(one);
        }
        iters += 1;
    }

    for (class, lat) in per_class.iter_mut().enumerate() {
        if lat.is_empty() {
            continue;
        }
        lat.sort_unstable();
        let (p50, p99) = (percentile(lat, 0.50), percentile(lat, 0.99));
        println!(
            "  w{}: p50 {:8.2} ms  p99 {:8.2} ms  ({} samples)",
            class + 1,
            p50 as f64 / 1e6,
            p99 as f64 / 1e6,
            lat.len()
        );
        for (tag, v) in [("p50", p50), ("p99", p99)] {
            writeln!(
                out,
                "{{\"group\":\"tenants\",\"id\":\"w{}_{tag}_ns\",\"mean_ns\":{v},\"iters\":{iters}}}",
                class + 1
            )
            .expect("write row");
        }
    }
    println!("  fairness: min share {fairness_min}% of weight share (floor {FAIRNESS_FLOOR_PCT}%)");
    writeln!(
        out,
        "{{\"group\":\"tenants\",\"id\":\"fairness_min_share_pct\",\"mean_ns\":{fairness_min},\"iters\":{iters}}}"
    )
    .expect("write row");
    println!("rows appended to {}", json_path.display());
}
