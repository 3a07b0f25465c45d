//! `soak` — the connection-scale soak harness: one release
//! `sitra-staged` process, ten thousand concurrent clients.
//!
//! Spawns (or connects to) a staging service and drives `--conns`
//! concurrent blocking [`Connection`]s against it for `--duration`
//! seconds from a few driver threads, each connection running a
//! put/get/submit/poll mix of real staging RPCs. A driver sends every
//! one of its connections' next request, then reaps the replies in
//! turn, so all connections have a request in flight at once. Every
//! request is tagged with the connection id and iteration number, and
//! every response is checked against the exact request that solicited
//! it — the protocol is strict request/response lockstep per
//! connection, so a *lost* response surfaces as a timeout and a
//! *duplicated* (or misrouted) response surfaces as a type or payload
//! mismatch on the very next exchange. Zero tolerance for either.
//!
//! ```text
//! soak [--conns N] [--duration SECS] [--payload BYTES]
//!      [--staged PATH | --endpoint ADDR] [--journal PATH]
//! ```
//!
//! With `--journal`, the spawned `sitra-staged` writes its span journal
//! to PATH; CI uploads it as an artifact when the soak fails. Exits 0
//! only if every connection completed its run with zero mismatches,
//! zero lost responses, and the staged process shut down cleanly.

use bytes::Bytes;
use sitra_dataspaces::remote::{decode_response, encode_request, Request, Response, TaskPoll};
use sitra_mesh::BBox3;
use sitra_net::{connect, Addr, Connection, NetError};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long one response may take before it is declared lost. Generous:
/// with 10k lockstep connections driven from a few threads against a
/// single service process, per-operation latency under full load is
/// seconds, not microseconds — but a *lost* response never arrives at
/// all, and that is the failure this bound detects.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// Driver threads; each owns an equal slice of the connections.
const DRIVERS: usize = 4;

struct Opts {
    conns: usize,
    duration: Duration,
    payload: usize,
    /// Path to the `sitra-staged` binary (default: next to our own).
    staged: Option<String>,
    /// Drive an already-running service instead of spawning one.
    endpoint: Option<String>,
    journal: Option<String>,
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: soak [--conns N] [--duration SECS] [--payload BYTES]\n\
         \x20           [--staged PATH | --endpoint ADDR] [--journal PATH]\n\
         \n\
         --conns N        concurrent connections (default 10000)\n\
         --duration SECS  load phase length (default 60)\n\
         --payload BYTES  put payload size per connection (default 256)\n\
         --staged PATH    sitra-staged binary to spawn (default: sibling of this binary)\n\
         --endpoint ADDR  drive an already-running service at ADDR instead of spawning\n\
         --journal PATH   pass --journal PATH to the spawned sitra-staged"
    );
    std::process::exit(code);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        conns: 10_000,
        duration: Duration::from_secs(60),
        payload: 256,
        staged: None,
        endpoint: None,
        journal: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("soak: missing value for {name}");
                usage(2)
            })
        };
        match flag.as_str() {
            "--conns" => match value("--conns").parse() {
                Ok(n) if n > 0 => opts.conns = n,
                _ => usage(2),
            },
            "--duration" => match value("--duration").parse() {
                Ok(s) => opts.duration = Duration::from_secs(s),
                Err(_) => usage(2),
            },
            "--payload" => match value("--payload").parse() {
                Ok(n) if n >= 16 => opts.payload = n,
                _ => {
                    eprintln!("soak: --payload must be at least 16 (room for the tag)");
                    usage(2)
                }
            },
            "--staged" => opts.staged = Some(value("--staged")),
            "--endpoint" => opts.endpoint = Some(value("--endpoint")),
            "--journal" => opts.journal = Some(value("--journal")),
            "--help" | "-h" => usage(0),
            other => {
                eprintln!("soak: unknown flag {other}");
                usage(2)
            }
        }
    }
    opts
}

/// Spawn `sitra-staged --listen tcp://127.0.0.1:0`, parse the bound
/// address off its stdout banner, and keep draining its output on a
/// background thread (a full pipe would wedge the service).
fn spawn_staged(opts: &Opts) -> (Child, Addr) {
    let bin = opts.staged.clone().unwrap_or_else(|| {
        let me = std::env::current_exe().expect("current_exe");
        me.parent()
            .expect("exe dir")
            .join("sitra-staged")
            .to_string_lossy()
            .into_owned()
    });
    let mut cmd = Command::new(&bin);
    cmd.args(["--listen", "tcp://127.0.0.1:0"]);
    if let Some(journal) = &opts.journal {
        cmd.args(["--journal", journal]);
    }
    let mut child = match cmd.stdout(Stdio::piped()).spawn() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("soak: cannot spawn {bin}: {e}");
            std::process::exit(1);
        }
    };
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                println!("[staged] {line}");
                // "sitra-staged: serving N space shard(s) on ADDR"; the
                // contract is pinned by `crates/staged/tests/staged.rs`.
                if let Some(rest) = line.split(" on ").nth(1) {
                    if line.contains("serving") {
                        break rest
                            .trim()
                            .parse::<Addr>()
                            .expect("staged printed its address");
                    }
                }
            }
            _ => {
                eprintln!("soak: sitra-staged exited before announcing its address");
                std::process::exit(1);
            }
        }
    };
    std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            println!("[staged] {line}");
        }
    });
    (child, addr)
}

/// The deterministic payload for (connection, iteration): a 16-byte
/// tag followed by LCG filler, so a get can verify byte integrity and
/// a stale duplicate from an earlier iteration cannot pass as current.
fn payload_for(id: u64, iter: u64, len: usize) -> Bytes {
    let mut buf = Vec::with_capacity(len);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&iter.to_le_bytes());
    let mut x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ iter;
    while buf.len() < len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        buf.push((x >> 56) as u8);
    }
    Bytes::from(buf)
}

/// Read one reply, giving up after [`RESPONSE_TIMEOUT`]; every error is
/// rendered as the string recorded against the connection.
fn reply(conn: &Connection) -> Result<Response, String> {
    let frame = conn.recv_timeout(RESPONSE_TIMEOUT).map_err(|e| match e {
        NetError::Timeout => format!("lost response (no frame within {RESPONSE_TIMEOUT:?})"),
        e => format!("recv: {e}"),
    })?;
    decode_response(frame).map_err(|e| format!("decode: {e}"))
}

/// One connection's lockstep state: put → get-verify → submit →
/// poll(+ack), repeated, one request in flight at a time.
struct Client {
    id: u64,
    conn: Connection,
    iter: u64,
    last_put: Option<Bytes>,
}

impl Client {
    fn verb(&self) -> &'static str {
        ["put", "get", "submit", "poll"][(self.iter % 4) as usize]
    }

    /// Send this iteration's request (a put carries `payload` bytes).
    fn send(&mut self, payload: usize) -> Result<(), String> {
        let (id, iter) = (self.id, self.iter);
        let var = format!("soak-{id}");
        let bbox = BBox3::new([0, 0, 0], [1, 1, 1]);
        let req = match iter % 4 {
            0 => {
                let data = payload_for(id, iter, payload);
                self.last_put = Some(data.clone());
                Request::Put {
                    var,
                    version: 1,
                    bbox,
                    data,
                }
            }
            1 => Request::Get {
                var,
                version: 1,
                bbox,
            },
            2 => Request::SubmitTask {
                data: payload_for(id, iter, 24),
                hint: Vec::new(),
            },
            // A small but nonzero wait: the server only looks at the
            // queue while the deadline has time left, so 0 would always
            // answer Empty.
            _ => Request::RequestTask {
                bucket_id: id as u32,
                timeout_ms: 2,
                location: String::new(),
            },
        };
        self.conn
            .send(encode_request(&req))
            .map_err(|e| format!("iter {iter} {}: send: {e}", self.verb()))
    }

    /// Reap and check the reply to this iteration's request, counting
    /// the operations it completed into `ops`.
    fn reap(&mut self, ops: &AtomicU64) -> Result<(), String> {
        let iter = self.iter;
        let context = |e: String| format!("iter {iter} {}: {e}", self.verb());
        let done = match (iter % 4, reply(&self.conn).map_err(context)?) {
            (0, Response::Ok) => 1,
            (1, Response::Pieces(pieces)) => {
                let want = self.last_put.as_ref().expect("get follows put");
                if pieces.len() != 1 || &pieces[0].1 != want {
                    return Err(format!(
                        "get returned {} piece(s), integrity mismatch at iter {iter}",
                        pieces.len()
                    ));
                }
                1
            }
            (2, Response::Admission(adm)) if adm.seq().is_some() => 1,
            (3, Response::Task(TaskPoll::Assigned { seq, .. })) => {
                // The two-phase hand-off ack is one-way: the server
                // requeues on a missing/bad ack but never answers a
                // good one.
                self.conn
                    .send(encode_request(&Request::AckTask { seq }))
                    .map_err(|e| format!("ack send: {e}"))?;
                2
            }
            (3, Response::Task(TaskPoll::Empty)) => 1,
            (_, other) => return Err(format!("{} answered {other:?}", self.verb())),
        };
        ops.fetch_add(done, Ordering::Relaxed);
        self.iter += 1;
        Ok(())
    }
}

/// Drive `clients` in rounds until the deadline: every live
/// connection's next request goes out, then every reply is reaped in
/// turn. Returns the connections that failed, with the first protocol
/// violation each one observed.
fn drive(
    clients: &mut [Client],
    payload: usize,
    deadline: Instant,
    ops: &AtomicU64,
) -> Vec<(u64, String)> {
    let mut failures = Vec::new();
    let mut live: Vec<&mut Client> = clients.iter_mut().collect();
    while !live.is_empty() && Instant::now() < deadline {
        live.retain_mut(|c| {
            c.send(payload)
                .map_err(|e| failures.push((c.id, e)))
                .is_ok()
        });
        live.retain_mut(|c| c.reap(ops).map_err(|e| failures.push((c.id, e))).is_ok());
    }
    failures
}

fn main() {
    let opts = parse_opts();
    let spawned = if opts.endpoint.is_none() {
        Some(spawn_staged(&opts))
    } else {
        None
    };
    let addr: Addr = match &opts.endpoint {
        Some(ep) => ep.parse().unwrap_or_else(|e| {
            eprintln!("soak: bad --endpoint: {e}");
            std::process::exit(2);
        }),
        None => spawned.as_ref().expect("spawned").1.clone(),
    };

    // Dial storm: sequential on this thread (a blocking loopback
    // connect). A listener backlog overflow shows up as refused/reset
    // dials, so each dial gets a short retry budget.
    println!("soak: dialing {} connection(s) to {addr} ...", opts.conns);
    let t_dial = Instant::now();
    let mut clients = Vec::with_capacity(opts.conns);
    for i in 0..opts.conns {
        let mut attempts = 0;
        let conn = loop {
            match connect(&addr) {
                Ok(c) => break c,
                Err(_) if attempts < 100 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    eprintln!("soak: dial {i} failed after {attempts} retries: {e}");
                    std::process::exit(1);
                }
            }
        };
        clients.push(Client {
            id: i as u64,
            conn,
            iter: 0,
            last_put: None,
        });
        if (i + 1) % 2000 == 0 {
            println!("soak: {} connection(s) up", i + 1);
        }
    }
    println!(
        "soak: all {} connection(s) up in {:.1}s; load phase {}s",
        opts.conns,
        t_dial.elapsed().as_secs_f64(),
        opts.duration.as_secs()
    );

    let ops_total = AtomicU64::new(0);
    let deadline = Instant::now() + opts.duration;
    let per_driver = clients.len().div_ceil(DRIVERS);
    let failures: Vec<(u64, String)> = std::thread::scope(|s| {
        let drivers: Vec<_> = clients
            .chunks_mut(per_driver)
            .map(|slice| s.spawn(|| drive(slice, opts.payload, deadline, &ops_total)))
            .collect();
        drivers
            .into_iter()
            .flat_map(|d| d.join().expect("driver thread panicked"))
            .collect()
    });
    drop(clients);
    let total = ops_total.load(Ordering::Relaxed);
    println!(
        "soak: load phase done: {} op(s) total, {:.0} op/s, {} failed connection(s)",
        total,
        total as f64 / opts.duration.as_secs_f64(),
        failures.len()
    );
    for (id, msg) in failures.iter().take(10) {
        eprintln!("soak: conn {id}: {msg}");
    }
    if failures.len() > 10 {
        eprintln!("soak: ... and {} more", failures.len() - 10);
    }

    // Shut the service down through the protocol (the driver's own
    // path), then — if we spawned it — require a clean exit.
    let shutdown_ok = connect(&addr).is_ok_and(|c| {
        c.send(encode_request(&Request::CloseSched)).is_ok()
            && matches!(reply(&c), Ok(Response::Ok))
    });
    if !shutdown_ok {
        eprintln!("soak: CloseSched failed");
    }
    let staged_ok = match spawned {
        Some((mut child, _)) => {
            if !shutdown_ok {
                let _ = child.kill();
            }
            let t0 = Instant::now();
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => break status.success(),
                    Ok(None) if t0.elapsed() > Duration::from_secs(30) => {
                        eprintln!("soak: sitra-staged did not exit; killing");
                        let _ = child.kill();
                        let _ = child.wait();
                        break false;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                    Err(e) => {
                        eprintln!("soak: wait on sitra-staged: {e}");
                        break false;
                    }
                }
            }
        }
        None => shutdown_ok,
    };

    if failures.is_empty() && staged_ok {
        println!("soak: PASS");
    } else {
        eprintln!(
            "soak: FAIL ({} bad connection(s), staged clean exit: {staged_ok})",
            failures.len()
        );
        std::process::exit(1);
    }
}
