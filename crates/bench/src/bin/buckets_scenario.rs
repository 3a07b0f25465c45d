//! Elastic bucket-pool scenario: buckets registered at their endpoints
//! versus the same buckets unlocated on a three-member ring shape, and
//! the autoscaler recovering tail latency under a backlog burst.
//!
//! ```text
//! cargo run --release -p sitra-bench --bin buckets_scenario
//! ```
//!
//! Two shapes, one workload each:
//!
//! * **locality** — three schedulers (one per ring member), each with
//!   one bucket worker *at* every member's endpoint, fed a seeded task
//!   stream whose input shards are owned by the real consistent-hash
//!   ring. The identical stream runs once with every bucket registered
//!   at its endpoint, so placement can match it against the tasks'
//!   residency hints, and once with the same buckets unlocated, which
//!   leaves placement FCFS. The moved-byte count is recomputed from
//!   the tasks each bucket worker was assigned (task bytes minus
//!   whatever was resident at that bucket's endpoint), so the unlocated run gets credit
//!   for its accidental co-locations too.
//! * **autoscale** — a burst of tasks floods a pool pinned at one
//!   bucket, followed by a steady trickle. With the autoscaler on, the
//!   pool grows toward `max` and the tail of the steady phase waits
//!   almost nothing; with the pool fixed at `min`, the backlog eats the
//!   steady phase alive. The p99 queue-wait of the last quarter of the
//!   stream is the score. The elastic run drives the shipped capacity
//!   controller, `Scheduler::autoscale` (the loop the local staging
//!   backend and `sitra-staged` run, ticking every SLO/4 — 5 ms at the
//!   20 ms SLO here); only its grow callback, which spawns bench
//!   buckets, is the bench's own.
//!
//! Emits the same `{"group","id","mean_ns","iters"}` rows the criterion
//! benches write to `BENCH_buckets.json` (override with
//! `BENCH_JSON=path`), plus a `"unit"` key: movement/saved rows carry
//! bytes (`B`), wait rows microseconds (`us`), the rest a `count` in
//! `mean_ns`. The row ids predate the located/unlocated framing:
//! `fcfs_movement_bytes` is the unlocated run, `locality_*` the located
//! one. `locality_saved_bytes`, `autoscale_peak_buckets`, and
//! `slo_recovered` are the CI floor gates. `BUCKETS_SMOKE=1` shrinks
//! both shapes for the CI smoke job.

use bytes::Bytes;
use sitra_cluster::{HashRing, ShardKey, DEFAULT_SEED, DEFAULT_VNODES};
use sitra_dataspaces::{
    AutoscaleConfig, Lease, ResidencyHint, Scheduler, Submission, DEFAULT_TENANT,
};
use sitra_mesh::BBox3;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MEMBERS: usize = 3;
/// Every member's scheduler gets one bucket at each member's endpoint,
/// so placement always has a co-located candidate to find when the
/// buckets are registered there.
const PARTS_PER_TASK: usize = 4;
const PART_BYTES: u64 = 256 * 1024;

fn endpoints() -> Vec<String> {
    (0..MEMBERS).map(|i| format!("tcp://m{i}:7000")).collect()
}

/// Simulated aggregation time per task — long enough that busy buckets
/// are observable, short enough that the bench stays fast.
const WORK: Duration = Duration::from_micros(150);

/// Shared `(task index, queue wait)` log plus the scenario epoch the
/// waits are measured against.
type WaitLog = (Arc<Mutex<Vec<(u64, Duration)>>>, Instant);

/// One bucket worker: polls until the scheduler closes or the pool
/// controller retires its bucket, simulating `WORK` per task.
fn spawn_bucket(
    sched: Scheduler<Bytes>,
    id: u32,
    location: Option<String>,
    waits: Option<WaitLog>,
) -> std::thread::JoinHandle<Vec<u64>> {
    std::thread::spawn(move || {
        let handle = sched.register_bucket_at(id, location.as_deref());
        let mut assigned = Vec::new();
        loop {
            match handle.poll_task(Some(Duration::from_millis(20))) {
                Lease::Assigned { seq, task } => {
                    assigned.push(seq);
                    if let Some((waits, t0)) = &waits {
                        // The payload is the task's submit offset in
                        // microseconds since the scenario started.
                        let submitted = u64::from_le_bytes(task[..8].try_into().expect("payload"));
                        let wait = t0
                            .elapsed()
                            .saturating_sub(Duration::from_micros(submitted));
                        let idx = u64::from_le_bytes(task[8..16].try_into().expect("payload"));
                        waits.lock().expect("waits").push((idx, wait));
                    }
                    std::thread::sleep(WORK);
                }
                Lease::Empty => continue,
                Lease::Closed | Lease::Retire => break,
            }
        }
        assigned
    })
}

/// One locality run: the seeded task stream through three per-member
/// schedulers, the buckets registered at their endpoints when
/// `located`. Returns `(moved_bytes, saved_bytes)`, with `moved`
/// recomputed from the tasks each bucket was assigned so both runs are
/// scored by what they actually did, not by what they reported.
fn run_locality(tasks: usize, located: bool) -> (u64, u64) {
    let eps = endpoints();
    let ring = HashRing::new(DEFAULT_SEED, DEFAULT_VNODES, eps.clone());
    let scheds: Vec<Scheduler<Bytes>> = (0..MEMBERS).map(|_| Scheduler::new()).collect();
    // Bucket id == index of the endpoint the bucket lives at, whether
    // or not the scheduler is told.
    let workers: Vec<_> = scheds
        .iter()
        .enumerate()
        .flat_map(|(m, s)| {
            eps.iter().enumerate().map(move |(i, ep)| {
                let at = located.then(|| ep.clone());
                (m, i, spawn_bucket(s.clone(), i as u32, at, None))
            })
        })
        .collect();

    // Seeded stream: each task's input shards are owned by the real
    // ring, and the task itself is routed the way `submit_task_routed`
    // routes — by `(route, step)`, which is independent of residency.
    let mut hints: Vec<HashMap<u64, HashMap<String, u64>>> = vec![HashMap::new(); MEMBERS];
    for t in 0..tasks {
        let var = format!("field{}", t % 5);
        let version = (t / 5) as u64;
        let mut bytes_at: HashMap<String, u64> = HashMap::new();
        for part in 0..PARTS_PER_TASK {
            let base = (t * PARTS_PER_TASK + part) % 64;
            let bbox = BBox3::new([base, 0, 0], [base + 1, 1, 1]);
            let owner = ring
                .owner_index(&ShardKey::new(&var, version, &bbox))
                .expect("non-empty ring");
            *bytes_at.entry(eps[owner].clone()).or_insert(0) += PART_BYTES;
        }
        let member = ring
            .task_owner_index(&var, version)
            .expect("non-empty ring");
        let hint = ResidencyHint {
            bytes_at: bytes_at.iter().map(|(l, b)| (l.clone(), *b)).collect(),
        };
        let verdict = scheds[member].submit(Submission {
            tenant: DEFAULT_TENANT,
            hint,
            task: Bytes::from(vec![0u8; 16]),
        });
        let seq = verdict.seq().expect("unbounded scheduler admits");
        hints[member].insert(seq, bytes_at);
        // Pace submissions so buckets park between tasks and placement
        // has a genuine choice more often than not.
        std::thread::sleep(WORK * 2);
    }

    // Let the tail drain, then close and score.
    loop {
        if scheds.iter().all(|s| s.pool_snapshot().queue_depth == 0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(WORK * 4);
    for s in &scheds {
        s.close();
    }
    let task_bytes = PARTS_PER_TASK as u64 * PART_BYTES;
    let mut moved = 0u64;
    for (m, bucket, w) in workers {
        for seq in w.join().expect("bucket worker") {
            let resident = hints[m]
                .get(&seq)
                .and_then(|h| h.get(&eps[bucket]))
                .copied()
                .unwrap_or(0);
            moved += task_bytes - resident;
        }
    }
    let saved = scheds.iter().map(|s| s.stats().locality_bytes_saved).sum();
    (moved, saved)
}

/// One autoscale run: a burst then a steady trickle through a pool
/// that starts at one bucket. Returns `(tail_p99_us, peak_buckets)` —
/// the p99 queue-wait over the last quarter of the stream and the
/// largest live pool the run reached.
fn run_autoscale(burst: usize, steady: usize, elastic: bool) -> (u64, usize) {
    let slo = Duration::from_millis(20);
    let cfg = AutoscaleConfig::new(1, 8, slo);
    let sched: Scheduler<Bytes> = Scheduler::new();
    let waits: Arc<Mutex<Vec<(u64, Duration)>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let workers = Arc::new(Mutex::new(vec![spawn_bucket(
        sched.clone(),
        0,
        None,
        Some((Arc::clone(&waits), t0)),
    )]));

    // The elastic pool runs the scheduler's own capacity controller —
    // the one the local staging backend and `sitra-staged` run — with a
    // grow callback that spawns bench buckets. The peak is the largest
    // pool the controller grew to.
    let peak = Arc::new(AtomicUsize::new(1));
    let controller = elastic.then(|| {
        let (s, workers, waits, peak) = (
            sched.clone(),
            Arc::clone(&workers),
            Arc::clone(&waits),
            Arc::clone(&peak),
        );
        sched.autoscale(cfg, move |k| {
            peak.fetch_max(s.pool_snapshot().buckets + k, Ordering::SeqCst);
            let mut pool = workers.lock().expect("workers");
            for _ in 0..k {
                let id = pool.len() as u32;
                pool.push(spawn_bucket(
                    s.clone(),
                    id,
                    None,
                    Some((Arc::clone(&waits), t0)),
                ));
            }
        })
    });

    let total = burst + steady;
    let submit = |idx: usize| {
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&(t0.elapsed().as_micros() as u64).to_le_bytes());
        payload.extend_from_slice(&(idx as u64).to_le_bytes());
        sched.submit(Bytes::from(payload));
    };
    // Burst: far faster than one bucket can serve.
    for idx in 0..burst {
        submit(idx);
        std::thread::sleep(Duration::from_micros(30));
    }
    // Steady trickle: within one bucket's rate, but the backlog is not.
    for idx in burst..total {
        submit(idx);
        std::thread::sleep(WORK * 3);
    }

    // Drain, stop the controller, close, join.
    while sched.pool_snapshot().queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(WORK * 4);
    drop(controller);
    sched.close();
    let pool: Vec<_> = workers.lock().expect("workers").drain(..).collect();
    for w in pool {
        w.join().expect("bucket worker");
    }

    // Score: p99 queue-wait over the last quarter of the stream — the
    // part a recovered pool serves promptly and a fixed pool serves
    // from under the backlog.
    let cutoff = (total - total / 4) as u64;
    let mut tail: Vec<Duration> = waits
        .lock()
        .expect("waits")
        .iter()
        .filter(|(idx, _)| *idx >= cutoff)
        .map(|(_, w)| *w)
        .collect();
    assert!(!tail.is_empty(), "no tail samples — stream too short");
    tail.sort();
    let p99 = tail[(tail.len() - 1) * 99 / 100];
    let peak_buckets = peak.load(Ordering::SeqCst);
    (p99.as_micros() as u64, peak_buckets)
}

fn main() {
    let smoke = std::env::var_os("BUCKETS_SMOKE").is_some();
    let (tasks, burst, steady) = if smoke { (90, 80, 40) } else { (240, 160, 80) };
    let json_path = std::env::var_os("BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| "BENCH_buckets.json".into());
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&json_path)
        .expect("open BENCH_JSON");
    let mut row = |id: &str, value: u64, unit: &str| {
        writeln!(
            out,
            "{{\"group\":\"buckets\",\"id\":\"{id}\",\"mean_ns\":{value},\"iters\":1,\"unit\":\"{unit}\"}}"
        )
        .expect("write row");
    };

    println!("buckets scenario: {tasks} locality tasks, {burst}+{steady} autoscale tasks");

    let (unloc_moved, unloc_saved) = run_locality(tasks, false);
    let (loc_moved, loc_saved) = run_locality(tasks, true);
    assert_eq!(
        unloc_saved, 0,
        "unlocated buckets must never report savings"
    );
    assert!(loc_saved > 0, "located buckets saved nothing");
    assert!(
        loc_moved < unloc_moved,
        "located moved {loc_moved} B, unlocated moved {unloc_moved} B — no reduction"
    );
    println!(
        "  locality: unlocated moved {:.1} MiB, located moved {:.1} MiB (saved {:.1} MiB)",
        unloc_moved as f64 / (1 << 20) as f64,
        loc_moved as f64 / (1 << 20) as f64,
        loc_saved as f64 / (1 << 20) as f64,
    );
    row("fcfs_movement_bytes", unloc_moved, "B");
    row("locality_movement_bytes", loc_moved, "B");
    row("locality_saved_bytes", loc_saved, "B");

    let (fixed_p99_us, _) = run_autoscale(burst, steady, false);
    let (auto_p99_us, peak) = run_autoscale(burst, steady, true);
    let slo_us = 20_000u64;
    let recovered = u64::from(auto_p99_us <= slo_us);
    assert!(peak > 1, "autoscaler never grew the pool");
    assert_eq!(recovered, 1, "tail p99 {auto_p99_us}us missed the SLO");
    println!(
        "  autoscale: fixed tail p99 {:.1} ms, elastic tail p99 {:.1} ms (peak {peak} buckets)",
        fixed_p99_us as f64 / 1e3,
        auto_p99_us as f64 / 1e3,
    );
    row("fixed_tail_p99_us", fixed_p99_us, "us");
    row("autoscale_tail_p99_us", auto_p99_us, "us");
    row("autoscale_peak_buckets", peak as u64, "count");
    row("slo_recovered", recovered, "count");

    println!("rows appended to {}", json_path.display());
}
