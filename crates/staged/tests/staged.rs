//! `sitra-staged` as a process: a standalone instance on an OS-assigned
//! port bridges stored viz outputs to its steering endpoint, carries the
//! tenants it was started with, runs the capacity controller its
//! `--buckets-*` flags ask for, and exits cleanly once a client closes
//! its scheduler; a flag it does not have is a usage error.

use sitra_core::remote::{output_bbox, output_var};
use sitra_core::wire::encode_analysis_output;
use sitra_core::AnalysisOutput;
use sitra_dataspaces::{RemoteSpace, SteerClient};
use sitra_net::{Addr, Backoff};
use sitra_viz::Image;
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
fn standalone_instance_steers_binds_tenants_and_exits_on_close() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sitra-staged"))
        .args(["--listen", "tcp://127.0.0.1:0"])
        .args(["--steer-listen", "tcp://127.0.0.1:0"])
        .args(["--tenant", "sim:3"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sitra-staged");
    let stdout = child.stdout.take().expect("piped stdout");
    let staged = Staged(child);

    // The banners: "serving N space shard(s) on ADDR" (the rule `soak`
    // parses) and "steerable viz on ADDR (source `LABEL`)".
    let mut lines = std::io::BufReader::new(stdout).lines();
    let (mut space_addr, mut steer_addr) = (None::<Addr>, None::<Addr>);
    while space_addr.is_none() || steer_addr.is_none() {
        let line = lines
            .next()
            .expect("sitra-staged exited before announcing its addresses")
            .expect("read sitra-staged stdout");
        let Some(rest) = line.split(" on ").nth(1) else {
            continue;
        };
        if line.contains("serving") {
            space_addr = Some(rest.trim().parse().expect("staging address"));
        } else if line.contains("steerable viz") {
            let addr = rest.split_whitespace().next().expect("steering address");
            steer_addr = Some(addr.parse().expect("steering address"));
        }
    }
    // Keep draining, so a full pipe never wedges the service.
    std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
    let (space_addr, steer_addr) = (space_addr.unwrap(), steer_addr.unwrap());

    // One attempt per pull, so a pull that times out returns at once.
    let once = Backoff {
        attempts: 1,
        ..Backoff::default()
    };
    let mut subscriber =
        SteerClient::connect(&steer_addr, "staged-test", 1, once).expect("subscribe");
    let space = RemoteSpace::connect_retry(&space_addr, &Backoff::default()).expect("dial staging");
    let image = AnalysisOutput::Image(Image::new(4, 3));
    space
        .put(
            &output_var("viz-hybrid"),
            1,
            output_bbox(),
            encode_analysis_output(&image),
        )
        .expect("put viz output");

    // The bridge polls the space it serves and publishes the image.
    let deadline = Instant::now() + Duration::from_secs(5);
    let frame = loop {
        assert!(
            Instant::now() < deadline,
            "no steering frame within 5 s of the put"
        );
        if let Ok(Some(frame)) = subscriber.next_frame(Duration::from_millis(250)) {
            break frame;
        }
    };
    assert_eq!(frame.version, 1);
    assert_eq!((frame.image.width(), frame.image.height()), (4, 3));

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
fn placement_is_not_a_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_sitra-staged"))
        .args(["--listen", "tcp://127.0.0.1:0", "--placement", "locality"])
        .output()
        .expect("run sitra-staged");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --placement"), "{stderr}");
    assert!(stderr.contains("usage: "), "{stderr}");
}
