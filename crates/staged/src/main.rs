//! `sitra-staged` — the standalone staging service.
//!
//! Runs one staging instance: a sharded shared space + FCFS in-transit
//! task scheduler served over a socket, so a simulation driver and any
//! number of bucket-worker processes can stage through it:
//!
//! ```text
//! sitra-staged --listen tcp://0.0.0.0:7788 --servers 4
//! ```
//!
//! `--listen` accepts either `sitra-net` scheme: `tcp://host:port` for
//! a deployment across processes or machines, or `inproc://name` for
//! tests.
//!
//! Every instance is a member of a staging cluster, and a standalone
//! instance is a cluster of one: without a cluster flag it founds a
//! cluster from the seed list `[--listen]`. To form a **multi-instance
//! cluster**, start several `sitra-staged` processes and either seed
//! them with the same full member list or have late ones join through
//! any live member:
//!
//! ```text
//! sitra-staged --listen tcp://a:7788 --cluster-seed tcp://a:7788,tcp://b:7788
//! sitra-staged --listen tcp://b:7788 --cluster-seed tcp://a:7788,tcp://b:7788
//! sitra-staged --listen tcp://c:7788 --cluster-join tcp://a:7788   # late joiner
//! ```
//!
//! `--servers N` is something else: the number of in-process space
//! shards inside this one member (lock striping for put/get
//! parallelism). It adds no cluster members.
//!
//! The driver side points `PipelineConfig::with_staging_cluster` at the
//! full member list (`with_staging_endpoint` for a member list of one)
//! and workers call `run_cluster_bucket_worker` over the same list. The
//! process runs until the scheduler is closed by a client (the driver
//! does this when its run finishes) or it receives SIGINT.
//!
//! Observability: `--metrics-listen host:port` exposes the live
//! [`sitra_obs`] registry (the `net.*`, `sched.tasks.*` and `space.*`
//! series) as a Prometheus-style text snapshot over HTTP, and
//! `--journal PATH` appends every span event as one JSON line
//! (replayable with `obs_report`).
//!
//! The service links only the staging layers (`sitra-cluster`,
//! `sitra-dataspaces`, `sitra-net`, `sitra-obs`): it knows no analysis
//! and has no fault knob. A member serves no visualization frames — the
//! pipeline driver publishes every image output on its own viewer
//! endpoint — and faults are injected by the testkit's in-process
//! scenario runner, never through this binary.

use sitra_cluster::{Bootstrap, ClusterNode, ClusterNodeOpts};
use sitra_dataspaces::{AdmissionPolicy, AutoscaleConfig, TenantSpec};
use sitra_net::Addr;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

struct Opts {
    listen: Addr,
    servers: usize,
    /// Serve a metrics snapshot over HTTP at this address.
    metrics_listen: Option<SocketAddr>,
    /// Append span events as JSONL to this path.
    journal: Option<PathBuf>,
    /// Bound on the task queue (None = unbounded).
    queue_capacity: Option<usize>,
    /// What to do with a submission arriving at a full queue.
    admission: AdmissionPolicy,
    /// How this member finds its cluster: `--cluster-seed` (the full
    /// member list, which must include `--listen`) or `--cluster-join`
    /// (any live member). `None` founds a cluster of one.
    cluster: Option<Bootstrap>,
    /// Tenants registered at start (weighted-fair scheduling + quotas).
    tenants: Vec<TenantSpec>,
    /// Bucket-pool capacity bounds for the autoscale controller
    /// (min, max); `None` leaves capacity entirely to the workers.
    buckets: Option<(usize, usize)>,
    /// p99 queue-wait SLO driving the autoscaler.
    bucket_slo: Duration,
}

fn usage(program: &str, code: i32) -> ! {
    eprintln!(
        "usage: {program} [--listen ADDR] [--servers N]\n\
         \x20                  [--metrics-listen HOST:PORT] [--journal PATH]\n\
         \x20                  [--queue-capacity N] [--admission POLICY] [--admission-wait-ms T]\n\
         \x20                  [--tenant SPEC]... [--cluster-seed LIST | --cluster-join ADDR]\n\
         \x20                  [--buckets-min N --buckets-max N] [--bucket-slo-ms T]\n\
         \n\
         --listen ADDR         tcp://host:port or inproc://name\n\
         \x20                      (default tcp://127.0.0.1:7788)\n\
         --servers N           in-process space shards of this member (default 4)\n\
         --metrics-listen A    serve a Prometheus-style metrics snapshot over HTTP\n\
         --journal PATH        append span events as JSON lines to PATH\n\
         --queue-capacity N    bound the task queue at N entries (default unbounded)\n\
         --admission POLICY    full-queue behaviour: block | shed-oldest | reject-new\n\
         \x20                      (default reject-new; only meaningful with --queue-capacity)\n\
         --admission-wait-ms T how long `block` admissions may wait (default 1000)\n\
         --tenant SPEC         register a tenant for weighted-fair scheduling; repeatable.\n\
         \x20                      SPEC is NAME[:WEIGHT[:BYTE_QUOTA[:TASK_QUOTA[:POLICY]]]]\n\
         \x20                      (0 = unlimited quota; POLICY overrides --admission for\n\
         \x20                      that tenant: block=MS | shed | reject). Clients bind with\n\
         \x20                      a matching tenant declaration; unknown tenants register\n\
         \x20                      on first contact with weight 1 and no quotas\n\
         --cluster-seed LIST   found a cluster; LIST is the comma-separated full member\n\
         \x20                      list and must include our --listen address (default:\n\
         \x20                      a cluster of one, seeded with --listen alone)\n\
         --cluster-join ADDR   join a running cluster through the member at ADDR\n\
         \x20                      (shards rebalance to us via handoff)\n\
         --buckets-min N       autoscale floor: the capacity controller never drains the\n\
         \x20                      pool below N live buckets (requires --buckets-max)\n\
         --buckets-max N       autoscale ceiling: desired capacity never exceeds N. The\n\
         \x20                      controller drains-then-retires excess buckets itself and\n\
         \x20                      publishes the desired count via pool stats for the worker\n\
         \x20                      fleet to grow toward\n\
         --bucket-slo-ms T     p99 queue-wait SLO driving the autoscaler (default 100);\n\
         \x20                      the controller re-evaluates the pool every T/4"
    );
    std::process::exit(code);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        listen: "tcp://127.0.0.1:7788".parse().expect("default addr"),
        servers: 4,
        metrics_listen: None,
        journal: None,
        queue_capacity: None,
        admission: AdmissionPolicy::RejectNew,
        cluster: None,
        tenants: Vec::new(),
        buckets: None,
        bucket_slo: Duration::from_millis(100),
    };
    let mut admission_wait = Duration::from_millis(1000);
    let mut buckets_min: Option<usize> = None;
    let mut buckets_max: Option<usize> = None;
    let argv: Vec<String> = std::env::args().collect();
    let program = argv.first().map(String::as_str).unwrap_or("sitra-staged");
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{program}: missing value for {name}");
                usage(program, 2)
            })
        };
        match flag.as_str() {
            "--listen" => match value("--listen").parse() {
                Ok(a) => opts.listen = a,
                Err(e) => {
                    eprintln!("{program}: {e}");
                    usage(program, 2);
                }
            },
            "--servers" => match value("--servers").parse() {
                Ok(n) if n > 0 => opts.servers = n,
                _ => {
                    eprintln!("{program}: --servers must be a positive integer");
                    usage(program, 2);
                }
            },
            "--metrics-listen" => match value("--metrics-listen").parse() {
                Ok(a) => opts.metrics_listen = Some(a),
                Err(_) => {
                    eprintln!("{program}: --metrics-listen must be host:port");
                    usage(program, 2);
                }
            },
            "--journal" => opts.journal = Some(PathBuf::from(value("--journal"))),
            "--queue-capacity" => match value("--queue-capacity").parse() {
                Ok(n) if n > 0 => opts.queue_capacity = Some(n),
                _ => {
                    eprintln!("{program}: --queue-capacity must be a positive integer");
                    usage(program, 2);
                }
            },
            "--admission" => match value("--admission").as_str() {
                "block" => {
                    opts.admission = AdmissionPolicy::Block {
                        max_wait: admission_wait,
                    }
                }
                "shed-oldest" => opts.admission = AdmissionPolicy::ShedOldest,
                "reject-new" => opts.admission = AdmissionPolicy::RejectNew,
                other => {
                    eprintln!("{program}: unknown admission policy `{other}`");
                    usage(program, 2);
                }
            },
            "--admission-wait-ms" => match value("--admission-wait-ms").parse::<u64>() {
                Ok(ms) => {
                    admission_wait = Duration::from_millis(ms);
                    if let AdmissionPolicy::Block { max_wait } = &mut opts.admission {
                        *max_wait = admission_wait;
                    }
                }
                Err(_) => {
                    eprintln!("{program}: --admission-wait-ms must be an integer");
                    usage(program, 2);
                }
            },
            "--tenant" => match TenantSpec::parse(&value("--tenant")) {
                Ok(spec) => {
                    if opts.tenants.iter().any(|t| t.name == spec.name) {
                        eprintln!("{program}: duplicate --tenant `{}`", spec.name);
                        usage(program, 2);
                    }
                    opts.tenants.push(spec);
                }
                Err(e) => {
                    eprintln!("{program}: bad --tenant: {e}");
                    usage(program, 2);
                }
            },
            "--cluster-seed" => {
                if opts.cluster.is_some() {
                    eprintln!(
                        "{program}: --cluster-seed and --cluster-join are mutually exclusive"
                    );
                    usage(program, 2);
                }
                let list = value("--cluster-seed");
                let members: Vec<String> = list
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if members.is_empty() {
                    eprintln!("{program}: --cluster-seed needs a comma-separated member list");
                    usage(program, 2);
                }
                for m in &members {
                    if let Err(e) = m.parse::<Addr>() {
                        eprintln!("{program}: bad --cluster-seed member `{m}`: {e}");
                        usage(program, 2);
                    }
                }
                opts.cluster = Some(Bootstrap::Seeds(members));
            }
            "--cluster-join" => {
                if opts.cluster.is_some() {
                    eprintln!(
                        "{program}: --cluster-seed and --cluster-join are mutually exclusive"
                    );
                    usage(program, 2);
                }
                match value("--cluster-join").parse::<Addr>() {
                    Ok(a) => opts.cluster = Some(Bootstrap::Join(a.to_string())),
                    Err(e) => {
                        eprintln!("{program}: bad --cluster-join address: {e}");
                        usage(program, 2);
                    }
                }
            }
            "--buckets-min" => match value("--buckets-min").parse() {
                Ok(n) if n > 0 => buckets_min = Some(n),
                _ => {
                    eprintln!("{program}: --buckets-min must be a positive integer");
                    usage(program, 2);
                }
            },
            "--buckets-max" => match value("--buckets-max").parse() {
                Ok(n) if n > 0 => buckets_max = Some(n),
                _ => {
                    eprintln!("{program}: --buckets-max must be a positive integer");
                    usage(program, 2);
                }
            },
            "--bucket-slo-ms" => match value("--bucket-slo-ms").parse::<u64>() {
                Ok(ms) if ms > 0 => opts.bucket_slo = Duration::from_millis(ms),
                _ => {
                    eprintln!("{program}: --bucket-slo-ms must be a positive integer");
                    usage(program, 2);
                }
            },
            "--help" | "-h" => usage(program, 0),
            other => {
                eprintln!("{program}: unknown flag {other}");
                usage(program, 2);
            }
        }
    }
    match (buckets_min, buckets_max) {
        (None, None) => {}
        (Some(min), Some(max)) if min <= max => opts.buckets = Some((min, max)),
        (Some(_), Some(_)) => {
            eprintln!("{program}: --buckets-min must not exceed --buckets-max");
            usage(program, 2);
        }
        _ => {
            eprintln!("{program}: --buckets-min and --buckets-max must be given together");
            usage(program, 2);
        }
    }
    opts
}

fn main() {
    let opts = parse_opts();
    let journal = opts.journal.as_ref().map(|path| {
        sitra_obs::set_journal_path(path).unwrap_or_else(|e| {
            eprintln!("sitra-staged: cannot open journal {}: {e}", path.display());
            std::process::exit(1);
        })
    });
    let metrics = opts.metrics_listen.map(|addr| {
        let srv = sitra_obs::serve_metrics(addr).unwrap_or_else(|e| {
            eprintln!("sitra-staged: cannot serve metrics on {addr}: {e}");
            std::process::exit(1);
        });
        println!("sitra-staged: metrics on http://{}/metrics", srv.addr());
        srv
    });
    let bootstrap = opts
        .cluster
        .clone()
        .unwrap_or_else(|| Bootstrap::Seeds(vec![opts.listen.to_string()]));
    let node_opts = ClusterNodeOpts {
        shards: opts.servers,
        capacity: opts.queue_capacity,
        policy: opts.admission,
        tenants: opts.tenants.clone(),
        ..ClusterNodeOpts::default()
    };
    let node = ClusterNode::start(&opts.listen, bootstrap, node_opts).unwrap_or_else(|e| {
        eprintln!("sitra-staged: cannot start on {}: {e}", opts.listen);
        std::process::exit(1);
    });
    // `soak` and the staged integration test read the address after " on ".
    println!(
        "sitra-staged: serving {} space shard(s) on {}",
        opts.servers,
        node.addr()
    );
    let view = node.view();
    println!(
        "sitra-staged: view epoch {} with {} member(s)",
        view.epoch,
        view.members.len()
    );
    if let Some(cap) = opts.queue_capacity {
        println!(
            "sitra-staged: task queue bounded at {cap}, admission {:?}",
            opts.admission
        );
    }
    for t in &opts.tenants {
        println!(
            "sitra-staged: tenant `{}` weight {} byte_quota {:?} task_quota {:?} policy {:?}",
            t.name, t.weight, t.byte_quota, t.task_quota, t.policy
        );
    }
    // The service cannot spawn worker processes, so its capacity
    // controller's grow callback does nothing: growth only raises the
    // desired capacity published via pool stats, and the worker fleet
    // (or its supervisor) reconciles toward it. Shrinkage is enacted by
    // the controller itself (a drained bucket's worker exits on its
    // retire lease). Dropped at shutdown, which stops the controller.
    // The banner follows the start, so a reader of it sees the target.
    let autoscale = opts.buckets.map(|(min, max)| {
        let cfg = AutoscaleConfig::new(min, max, opts.bucket_slo);
        let controller = node.scheduler().autoscale(cfg, |_| {});
        println!(
            "sitra-staged: bucket autoscale {}..{} buckets, p99 SLO {:?}",
            cfg.min_buckets, cfg.max_buckets, cfg.slo
        );
        controller
    });

    // Run until a client closes the scheduler, then give the replies
    // to the closing client a moment to leave before exiting.
    node.scheduler().wait_closed();
    std::thread::sleep(Duration::from_millis(200));
    let stats = node.sched_stats();
    println!(
        "sitra-staged: scheduler closed; {} task(s) assigned, {} requeued — shutting down",
        stats.tasks_assigned, stats.tasks_requeued
    );
    drop(autoscale);
    node.shutdown();
    if let Some(m) = metrics {
        m.shutdown();
    }
    if let Some(j) = journal {
        j.flush();
    }
}
