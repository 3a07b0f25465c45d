//! Hand-stepped hops: one thread replays a single task of the workload
//! through public calls against the same kind of service, many times,
//! so that every hop is timed without waiting for anyone — no window,
//! no poll, no second thread to be scheduled behind.

use crate::pipeline::{inproc_addr, start_cluster3, tcp_any, Backend, PipelineWorkload, PARTS};
use crate::space_rw;
use bytes::Bytes;
use sitra_cluster::{ClusterClient, ClusterNode, DEFAULT_SEED, DEFAULT_VNODES};
use sitra_core::remote::{
    encode_task, intermediate_var, output_bbox, output_var, rank_bbox, RemoteTask,
};
use sitra_core::wire::{decode_analysis_output, encode_analysis_output};
use sitra_core::{InSituCtx, Placement};
use sitra_dart::{Event, Fabric, NetworkModel};
use sitra_dataspaces::{Admission, RemoteError, RemoteSpace, Scheduler, SpaceServer, TaskPoll};
use sitra_mesh::{exchange_ghosts, BBox3, Decomposition, ScalarField};
use sitra_net::{Addr, Backoff, ConnStats, Listener};
use sitra_sim::{SimConfig, Simulation, Variable};
use std::time::{Duration, Instant};

/// Repetitions of every microsecond-scale hop.
const HOP_REPS: usize = 300;
/// Fewest and most repetitions of the millisecond-scale kernel replay.
const KERNEL_REPS: (usize, usize) = (20, 200);

/// Samples of one hop, in `unit`.
pub struct Hop {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

/// Everything the hand-stepped replay of one workload measured.
#[derive(Default)]
pub struct Hops {
    pub hops: Vec<Hop>,
    /// Exact counts per task, by name and unit.
    pub counts: Vec<(String, f64, &'static str)>,
}

impl Hops {
    fn add(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.hops.iter_mut().find(|h| h.name == name) {
            Some(h) => h.samples.push(value),
            None => self.hops.push(Hop {
                name: name.to_string(),
                unit,
                samples: vec![value],
            }),
        }
    }

    fn us(&mut self, name: &str, since: Instant) {
        self.add(name, "us", since.elapsed().as_secs_f64() * 1e6);
    }

    fn ms(&mut self, name: &str, since: Instant) {
        self.add(name, "ms", since.elapsed().as_secs_f64() * 1e3);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.hops
            .iter()
            .find(|h| h.name == name)
            .map(|h| crate::stats::median(&h.samples))
    }

    /// `name_self` = median(`name`) − median(`minus`): the hop without
    /// the round trip underneath it.
    fn self_time(&mut self, name: &str, minus: &str) {
        if let (Some(a), Some(b)) = (self.median(name), self.median(minus)) {
            let stem = name.strip_suffix("_us").unwrap_or(name);
            self.counts.push((format!("{stem}_self_us"), a - b, "us"));
        }
    }
}

/// One staged task as the replay ships it.
struct SampleTask {
    label: String,
    parts: Vec<(usize, Bytes)>,
    output: Bytes,
}

fn frames(s: ConnStats) -> u64 {
    s.frames_sent + s.frames_recv
}

fn wire_bytes(s: ConnStats) -> u64 {
    s.bytes_sent + s.bytes_recv
}

/// Replay `wl`'s step and its staged tasks by hand.
pub fn pipeline_hops(wl: &PipelineWorkload, seed: u64, budget: Duration) -> Result<Hops, String> {
    let mut h = Hops::default();
    let tasks = kernels(wl, seed, budget, &mut h);
    let mut part_sizes: Vec<f64> = tasks
        .iter()
        .flat_map(|t| t.parts.iter().map(|(_, b)| b.len() as f64))
        .collect();
    part_sizes.sort_by(f64::total_cmp);
    let part_size = crate::stats::quantile(&part_sizes, 0.5) as usize;
    h.counts
        .push(("part_bytes_median".into(), part_size as f64, "B"));

    match wl.backend {
        Backend::Local { .. } => local_path(&tasks, &mut h),
        Backend::Tcp { .. } => {
            echo(&tcp_any(), part_size, &mut h)?;
            remote_path(&tcp_any(), &tasks, true, &mut h)?;
        }
        Backend::Cluster3 => {
            echo(&inproc_addr("echo"), part_size, &mut h)?;
            remote_path(&inproc_addr("space"), &tasks, false, &mut h)?;
            cluster_path(&tasks, &mut h)?;
        }
    }
    Ok(h)
}

/// `sim`, `mesh`, the kernel crates and `core::wire`: one step and its
/// analyses on one thread. Returns the last step's staged tasks.
fn kernels(wl: &PipelineWorkload, seed: u64, budget: Duration, h: &mut Hops) -> Vec<SampleTask> {
    let roster = wl.roster();
    let mut sim = Simulation::new(SimConfig::small(wl.dims, seed));
    let decomp = Decomposition::new(sim.global(), PARTS);
    let n = decomp.rank_count();
    let variable = Variable::Temperature;
    let mut tasks = Vec::new();
    let started = Instant::now();
    for rep in 0..KERNEL_REPS.1 {
        if rep >= KERNEL_REPS.0 && started.elapsed() > budget {
            break;
        }
        let t = Instant::now();
        sim.advance();
        let blocks: Vec<ScalarField> = (0..n)
            .map(|r| sim.block_field(variable, &decomp.block(r)))
            .collect();
        h.ms("sim.step_ms", t);
        let step = sim.step();

        let t = Instant::now();
        let (ghosted, _) = exchange_ghosts(&decomp, &blocks, 1);
        h.ms("mesh.ghost_ms", t);

        let vars: Vec<Vec<(String, ScalarField)>> = blocks
            .into_iter()
            .map(|b| vec![(variable.name().to_string(), b)])
            .collect();
        tasks.clear();
        for entry in &roster {
            let (layer, label) = (entry.layer, &entry.spec.label);
            let mut parts = Vec::with_capacity(n);
            for r in 0..n {
                let ctx = InSituCtx {
                    rank: r,
                    step,
                    decomp: &decomp,
                    ghosted: &ghosted[r],
                    vars: &vars[r],
                };
                let t = Instant::now();
                let payload = entry.spec.analysis.in_situ(&ctx);
                h.ms(&format!("{layer}.kernel_insitu_ms.{label}"), t);
                parts.push((r, payload));
            }
            let t = Instant::now();
            let output = entry.spec.analysis.aggregate(step, &parts);
            h.ms(&format!("{layer}.kernel_aggregate_ms.{label}"), t);
            if entry.spec.placement == Placement::Hybrid {
                tasks.push((entry, parts, output));
            }
        }
    }
    tasks
        .into_iter()
        .map(|(entry, parts, output)| {
            let label = &entry.spec.label;
            for _ in 0..HOP_REPS {
                let t = Instant::now();
                let encoded = encode_analysis_output(&output);
                drop(std::hint::black_box(decode_analysis_output(encoded)));
                h.us(&format!("wire.output_codec_us.{label}"), t);
                let part = parts[0].1.clone();
                let t = Instant::now();
                (entry.decode_part)(std::hint::black_box(part));
                h.us(&format!("wire.part_decode_us.{label}"), t);
            }
            SampleTask {
                label: label.clone(),
                parts,
                output: encode_analysis_output(&output),
            }
        })
        .collect()
}

/// `net`: a `Connection` echo at 64 B and at `payload` bytes.
pub fn echo(addr: &Addr, payload: usize, h: &mut Hops) -> Result<(), String> {
    let listener = Listener::bind(addr).map_err(|e| e.to_string())?;
    let server = sitra_net::serve(listener, |conn| {
        while let Ok(frame) = conn.recv() {
            if conn.send(frame).is_err() {
                break;
            }
        }
    });
    let conn = sitra_net::connect(&server.addr()).map_err(|e| e.to_string())?;
    for (name, size) in [("net.rtt_small_us", 64), ("net.rtt_payload_us", payload)] {
        let frame = Bytes::from(vec![0x5a_u8; size]);
        for _ in 0..HOP_REPS {
            let t = Instant::now();
            conn.send(frame.clone()).map_err(|e| e.to_string())?;
            let back = conn.recv().map_err(|e| e.to_string())?;
            h.us(name, t);
            if back.len() != size {
                return Err(format!("echo returned {} of {size} bytes", back.len()));
            }
        }
    }
    conn.close();
    server.shutdown();
    Ok(())
}

/// The staging verbs of one task, as a single server's client and a
/// cluster's client both offer them.
trait Staging {
    fn put(&self, var: &str, step: u64, bbox: BBox3, data: Bytes) -> Result<(), RemoteError>;
    fn get(&self, var: &str, step: u64, query: &BBox3) -> Result<Vec<(BBox3, Bytes)>, RemoteError>;
    /// Submit a task; returns the member that queued it.
    fn submit(
        &self,
        label: &str,
        step: u64,
        desc: Bytes,
    ) -> Result<(usize, Admission), RemoteError>;
    fn request(&self, member: usize) -> Result<TaskPoll, RemoteError>;
    fn evict(&self, step: u64);
}

const REQUEST_WAIT: Duration = Duration::from_millis(500);

impl Staging for RemoteSpace {
    fn put(&self, var: &str, step: u64, bbox: BBox3, data: Bytes) -> Result<(), RemoteError> {
        RemoteSpace::put(self, var, step, bbox, data)
    }
    fn get(&self, var: &str, step: u64, query: &BBox3) -> Result<Vec<(BBox3, Bytes)>, RemoteError> {
        RemoteSpace::get(self, var, step, query)
    }
    fn submit(&self, _: &str, _: u64, desc: Bytes) -> Result<(usize, Admission), RemoteError> {
        self.submit_task_admission(desc).map(|verdict| (0, verdict))
    }
    fn request(&self, _: usize) -> Result<TaskPoll, RemoteError> {
        self.request_task(0, REQUEST_WAIT)
    }
    fn evict(&self, step: u64) {
        // Eviction only bounds the server's memory over the repetitions.
        let _ = self.evict_version(step);
    }
}

impl Staging for ClusterClient {
    fn put(&self, var: &str, step: u64, bbox: BBox3, data: Bytes) -> Result<(), RemoteError> {
        ClusterClient::put(self, var, step, bbox, data)
    }
    fn get(&self, var: &str, step: u64, query: &BBox3) -> Result<Vec<(BBox3, Bytes)>, RemoteError> {
        ClusterClient::get(self, var, step, query)
    }
    fn submit(
        &self,
        label: &str,
        step: u64,
        desc: Bytes,
    ) -> Result<(usize, Admission), RemoteError> {
        self.submit_task_routed(label, step, desc)
    }
    fn request(&self, member: usize) -> Result<TaskPoll, RemoteError> {
        self.request_task(member, 0, REQUEST_WAIT)
    }
    fn evict(&self, step: u64) {
        self.evict_version(step);
    }
}

/// One task's way through a staging area, hop by hop: the driver's
/// side (`put` per part, `submit`, collect) and the worker's (`request`,
/// `get`, output `put`) on clients of their own. Hops are named
/// `<layer>.<hop>_us`; with `path` their sum is the task's busy path.
fn staged_path<S: Staging>(
    layer: &str,
    (driver, worker): (&S, &S),
    tasks: &[SampleTask],
    path: bool,
    h: &mut Hops,
) -> Result<(), String> {
    let err = |e: RemoteError| format!("hand-stepped {layer} hop: {e}");
    let name = |hop: &str| format!("{layer}.{hop}_us");
    for rep in 0..HOP_REPS {
        let step = rep as u64 + 1;
        for (idx, task) in tasks.iter().enumerate() {
            let t_path = Instant::now();
            let var = intermediate_var(&task.label);
            for (r, payload) in &task.parts {
                let t = Instant::now();
                driver
                    .put(&var, step, rank_bbox(*r), payload.clone())
                    .map_err(err)?;
                h.us(&name("put"), t);
            }
            let desc = encode_task(&RemoteTask {
                analysis_idx: idx as u32,
                step,
                n_ranks: task.parts.len() as u32,
            });
            let t = Instant::now();
            let (member, verdict) = driver.submit(&task.label, step, desc).map_err(err)?;
            h.us(&name("submit"), t);
            if !matches!(verdict, Admission::Accepted { .. }) {
                return Err(format!("hand-stepped submit was not accepted: {verdict:?}"));
            }
            let t = Instant::now();
            let poll = worker.request(member).map_err(err)?;
            h.us(&name("request"), t);
            if !matches!(poll, TaskPoll::Assigned { .. }) {
                return Err(format!("hand-stepped request got {poll:?}"));
            }
            let query = BBox3::new([0, 0, 0], [task.parts.len(), 1, 1]);
            let t = Instant::now();
            let pieces = worker.get(&var, step, &query).map_err(err)?;
            h.us(&name("get"), t);
            if pieces.len() != task.parts.len() {
                return Err(format!("hand-stepped {layer} get came back short"));
            }
            let out_var = output_var(&task.label);
            let t = Instant::now();
            worker
                .put(&out_var, step, output_bbox(), task.output.clone())
                .map_err(err)?;
            h.us(&name("put_output"), t);
            let t = Instant::now();
            let got = driver.get(&out_var, step, &output_bbox()).map_err(err)?;
            h.us(&name("collect"), t);
            if got.first().map(|(_, b)| b) != Some(&task.output) {
                return Err(format!("hand-stepped {layer} collect returned other bytes"));
            }
            if path {
                h.ms("path_busy_ms", t_path);
            }
        }
        driver.evict(step);
    }
    Ok(())
}

/// `dataspaces` over `net`: one task against a `SpaceServer`, on two
/// connections, with the frames and bytes it puts on them.
fn remote_path(addr: &Addr, tasks: &[SampleTask], path: bool, h: &mut Hops) -> Result<(), String> {
    let err = |e: RemoteError| e.to_string();
    let server = SpaceServer::start(addr, 1).map_err(|e| e.to_string())?;
    let driver = RemoteSpace::connect(&server.addr()).map_err(err)?;
    let worker = RemoteSpace::connect(&server.addr()).map_err(err)?;
    let before = (driver.conn_stats(), worker.conn_stats());
    staged_path("dataspaces", (&driver, &worker), tasks, path, h)?;
    let after = (driver.conn_stats(), worker.conn_stats());
    // The evictions ride the driver's connection too: one request and
    // one reply per repetition.
    let n_tasks = (HOP_REPS * tasks.len()) as f64;
    let frames = frames(after.0) + frames(after.1) - frames(before.0) - frames(before.1);
    let bytes =
        wire_bytes(after.0) + wire_bytes(after.1) - wire_bytes(before.0) - wire_bytes(before.1);
    h.counts.push((
        "dataspaces.frames_per_task".into(),
        frames as f64 / n_tasks,
        "count",
    ));
    h.counts.push((
        "dataspaces.wire_bytes_per_task".into(),
        bytes as f64 / n_tasks,
        "B",
    ));
    h.self_time("dataspaces.put_us", "net.rtt_payload_us");
    h.self_time("dataspaces.submit_us", "net.rtt_small_us");
    h.self_time("dataspaces.request_us", "net.rtt_small_us");
    driver.close();
    worker.close();
    server.shutdown();
    Ok(())
}

/// `cluster`: the same task through `ClusterClient`s against three
/// members — ring-routed puts and submit, fan-out gets.
fn cluster_path(tasks: &[SampleTask], h: &mut Hops) -> Result<(), String> {
    let nodes = start_cluster3()?;
    let endpoints: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let client = || {
        ClusterClient::new(
            DEFAULT_SEED,
            DEFAULT_VNODES,
            endpoints.clone(),
            Backoff::default(),
        )
        .map_err(|e| e.to_string())
    };
    let (driver, worker) = (client()?, client()?);
    staged_path("cluster", (&driver, &worker), tasks, true, h)?;
    drop((driver, worker));
    nodes.into_iter().for_each(ClusterNode::shutdown);
    Ok(())
}

/// `dart` and the in-process scheduler: export, pull and hand-off of
/// one task, as the local backend does them.
fn local_path(tasks: &[SampleTask], h: &mut Hops) {
    let fabric = Fabric::new(NetworkModel::gemini());
    let n = tasks.iter().map(|t| t.parts.len()).max().unwrap_or(0);
    let producers: Vec<_> = (0..n).map(|_| fabric.register()).collect();
    let consumer = fabric.register();
    let sched: Scheduler<u64> = Scheduler::new();
    let bucket = sched.register_bucket(0);
    for rep in 0..HOP_REPS {
        let key = rep as u64 + 1;
        for task in tasks {
            let t_path = Instant::now();
            for (r, payload) in &task.parts {
                let t = Instant::now();
                producers[*r].export(key, payload.clone());
                let id = consumer
                    .rdma_get(producers[*r].id(), key)
                    .expect("the region was just exported");
                loop {
                    match consumer.poll_event(Duration::from_secs(10)) {
                        Some(Event::GetComplete { id: done, .. }) if done == id => break,
                        Some(_) => {}
                        None => panic!("hand-stepped rdma_get timed out"),
                    }
                }
                h.us("dart.get_us", t);
                producers[*r].unexport(key);
            }
            let t = Instant::now();
            sched.submit(key);
            let leased = bucket.request_task();
            h.us("sched.handoff_us", t);
            assert_eq!(leased.map(|(_, k)| k), Some(key));
            h.ms("path_busy_ms", t_path);
        }
    }
    sched.close();
    for p in producers {
        p.unregister();
    }
    consumer.unregister();
    fabric.shutdown();
}

/// `space-rw-tcp` by hand: one connection, a version written and read
/// back with nobody else on the server.
pub fn space_rw_hops(seed: u64) -> Result<Hops, String> {
    let err = |e: RemoteError| e.to_string();
    let mut h = Hops::default();
    echo(&tcp_any(), space_rw::BLOCK_BYTES, &mut h)?;
    let wave = space_rw::Wave::new(seed);
    let blocks: Vec<_> = space_rw::blocks()
        .into_iter()
        .map(|b| wave.block(0, b))
        .collect();
    let expected = blocks
        .iter()
        .fold(0u64, |s, b| s.wrapping_add(space_rw::checksum(b)));
    let global = BBox3::from_dims(space_rw::DIMS);
    let server = SpaceServer::start(&tcp_any(), 1).map_err(|e| e.to_string())?;
    let conn = RemoteSpace::connect(&server.addr()).map_err(err)?;
    let before = conn.conn_stats();
    for rep in 0..HOP_REPS {
        let version = rep as u64;
        for block in &blocks {
            let t = Instant::now();
            conn.put_field("hops/field", version, block).map_err(err)?;
            h.us("dataspaces.put_us", t);
        }
        let t = Instant::now();
        let field = conn
            .get_assembled("hops/field", version, &global, f64::NAN)
            .map_err(err)?;
        h.us("dataspaces.get_us", t);
        h.ms("path_busy_ms", t);
        if space_rw::checksum(&field) != expected {
            return Err("hand-stepped read returned other values".into());
        }
        let t = Instant::now();
        conn.evict_version(version).map_err(err)?;
        h.us("dataspaces.evict_us", t);
    }
    let after = conn.conn_stats();
    let reps = HOP_REPS as f64;
    h.counts.push((
        "dataspaces.frames_per_task".into(),
        (frames(after) - frames(before)) as f64 / reps,
        "count",
    ));
    h.counts.push((
        "dataspaces.wire_bytes_per_task".into(),
        (wire_bytes(after) - wire_bytes(before)) as f64 / reps,
        "B",
    ));
    h.self_time("dataspaces.put_us", "net.rtt_payload_us");
    conn.close();
    server.shutdown();
    Ok(h)
}
