//! `sitra-staged` as a process: a standalone instance on an OS-assigned
//! port carries the tenants it was started with, runs the capacity
//! controller its `--buckets-*` flags ask for, and exits cleanly once a
//! client closes its scheduler; a flag it does not have is a usage
//! error.

use sitra_dataspaces::RemoteSpace;
use sitra_net::{Addr, Backoff};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the service if the test fails before it exits on its own.
struct Staged(Child);

impl Staged {
    /// Exit status 0 within 5 s, as after a client closed the
    /// scheduler.
    fn exits_cleanly_within_5s(mut self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let status = loop {
            if let Some(status) = self.0.try_wait().expect("wait on sitra-staged") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "sitra-staged still running 5 s after its scheduler closed"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(status.success(), "sitra-staged exited with {status}");
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn standalone_instance_binds_tenants_and_exits_on_close() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sitra-staged"))
        .args(["--listen", "tcp://127.0.0.1:0"])
        .args(["--tenant", "sim:3"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sitra-staged");
    let stdout = child.stdout.take().expect("piped stdout");
    let staged = Staged(child);

    // The banner "serving N space shard(s) on ADDR" (the rule `soak`
    // parses).
    let mut lines = std::io::BufReader::new(stdout).lines();
    let space_addr: Addr = loop {
        let line = lines
            .next()
            .expect("sitra-staged exited before announcing its address")
            .expect("read sitra-staged stdout");
        if line.contains("serving") {
            let rest = line.split(" on ").nth(1).expect("serving ... on ADDR");
            break rest.trim().parse().expect("staging address");
        }
    };
    // Keep draining, so a full pipe never wedges the service.
    std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));

    let space = RemoteSpace::connect_retry(&space_addr, &Backoff::default()).expect("dial staging");
    let rows = space.tenant_stats().expect("tenant stats");
    let sim = rows.iter().find(|t| t.name == "sim").expect("`sim` row");
    assert_eq!(sim.weight, 3);

    space.close_sched().expect("close the scheduler");
    staged.exits_cleanly_within_5s();
}

#[test]
fn autoscaled_instance_announces_its_controller_and_exits_on_close() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sitra-staged"))
        .args(["--listen", "tcp://127.0.0.1:0"])
        .args(["--buckets-min", "1", "--buckets-max", "4"])
        .args(["--bucket-slo-ms", "50"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sitra-staged");
    let stdout = child.stdout.take().expect("piped stdout");
    let staged = Staged(child);

    let mut lines = std::io::BufReader::new(stdout).lines();
    let (mut space_addr, mut autoscale) = (None::<Addr>, None::<String>);
    while space_addr.is_none() || autoscale.is_none() {
        let line = lines
            .next()
            .expect("sitra-staged exited before its banners")
            .expect("read sitra-staged stdout");
        if line.contains("serving") {
            let rest = line.split(" on ").nth(1).expect("serving ... on ADDR");
            space_addr = Some(rest.trim().parse().expect("staging address"));
        } else if line.contains("bucket autoscale") {
            autoscale = Some(line);
        }
    }
    std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
    let autoscale = autoscale.unwrap();
    assert!(autoscale.contains("1..4 buckets"), "{autoscale}");
    assert!(autoscale.contains("50ms"), "{autoscale}");

    // The controller publishes its floor as the desired capacity.
    let space =
        RemoteSpace::connect_retry(&space_addr.unwrap(), &Backoff::default()).expect("dial");
    assert_eq!(space.pool_stats().expect("pool stats").desired, Some(1));

    space.close_sched().expect("close the scheduler");
    staged.exits_cleanly_within_5s();
}

#[test]
fn removed_flags_are_usage_errors() {
    // `--placement` went when placement became one rule; the steering
    // flags went when the driver became the only frame publisher;
    // `--fault-plan` went when fault injection moved wholly into the
    // test kit, and `--stats-every` because `--metrics-listen` serves
    // the same counters.
    for args in [
        &["--placement", "locality"][..],
        &["--steer-listen", "tcp://127.0.0.1:0"],
        &["--steer-source", "x"],
        &["--fault-plan", "seed=42,drop=8"],
        &["--stats-every", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sitra-staged"))
            .args(["--listen", "tcp://127.0.0.1:0"])
            .args(args)
            .output()
            .expect("run sitra-staged");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {}", args[0])),
            "{stderr}"
        );
        assert!(stderr.contains("usage: "), "{stderr}");
    }
}
