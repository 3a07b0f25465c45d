//! The fault-injection seam: an optional, process-global hook the
//! transport consults on every outbound frame and every connection
//! attempt. The injector is handed the frame itself, so it can pick a
//! frame by what it says (a test decodes the reply it wants to lose),
//! not only by its connection and length.
//!
//! Runs without an injector pay one `Acquire` atomic load per frame.
//! Test harnesses (`sitra-testkit`) install a seeded [`FaultInjector`]
//! to subject the whole staging stack — driver, space server, bucket
//! workers — to drops, delays, duplicates, reorders, link cuts, and
//! partitions, deterministically from a seed. Only test code installs
//! one: no product binary has a fault knob.
//!
//! Semantics are those of a *reliable, connection-oriented* transport
//! under an adversarial network, chosen so every action preserves
//! liveness for request/response protocols built on blocking `recv`:
//!
//! * [`FaultAction::Drop`] — the frame is discarded **and the
//!   connection is severed**. On a reliable transport a lost frame is
//!   indistinguishable from infinite delay, which would hang a blocking
//!   peer forever; severing the link turns the loss into
//!   [`NetError::Closed`](crate::NetError::Closed) on the next
//!   operation, which callers already treat as retryable.
//! * [`FaultAction::Delay`] / [`FaultAction::Reorder`] — realized by
//!   the connection's own sequencer thread at the frame boundary, never
//!   a sender sleep: the send returns immediately in both cases. `Delay`
//!   parks the frame in the outbound line, holding it, so traffic behind
//!   it on the same connection stalls in order (link latency). `Reorder`
//!   parks the frame off to the side until its release, so frames sent
//!   in the meantime overtake (packet-level reordering). Sibling
//!   connections are never stalled by either, not even when a peer
//!   stops reading and a sequencer blocks in its write. `close()` wakes
//!   the sequencer at once: a frame still reaches the peer only if it
//!   was sent before the first `Delay` still parked, so the peer sees a
//!   prefix of what was sent, never a gap.
//! * [`FaultAction::Duplicate`] — the frame is written twice; a framed
//!   RPC peer sees a stale extra frame and must fail cleanly (protocol
//!   error → degraded task), never hang or panic.
//! * [`FaultAction::Cut`] — the connection is severed and the send
//!   fails immediately with `Closed` (the sender *knows*, unlike
//!   `Drop`).
//! * [`FaultInjector::allow_connect`] returning `false` — the dial is
//!   refused ([`NetError::Refused`](crate::NetError::Refused)), which
//!   models a network partition; `connect_retry` keeps retrying, so
//!   partitions heal when the injector says so.

use crate::Frame;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The fate the injector assigns to one outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the frame untouched.
    Deliver,
    /// Discard the frame and sever the connection (see module docs for
    /// why loss implies severing on a reliable transport).
    Drop,
    /// Hold the outbound queue this long, then deliver; later frames
    /// on this connection wait in order behind the hold. The sender
    /// returns immediately.
    Delay(Duration),
    /// Deliver the frame twice.
    Duplicate,
    /// Park the frame on a timer for this long while later frames
    /// overtake it. The sender returns immediately.
    Reorder(Duration),
    /// Sever the connection; the send fails with `Closed`.
    Cut,
}

/// A process-global hook deciding the fate of frames and dials.
///
/// Implementations must be deterministic functions of their own state
/// plus the arguments if they want reproducible fault schedules —
/// `sitra-testkit`'s plan injector derives every decision from
/// `(seed, connection id, per-connection frame index)` alone.
pub trait FaultInjector: Send + Sync {
    /// The fate of one outbound frame. `conn` is the process-unique id
    /// of the sending [`Connection`](crate::Connection), `peer` its
    /// peer description, `frame` the payload (its parts gathered in
    /// order are what the peer receives).
    fn on_frame(&self, conn: u64, peer: &str, frame: &Frame) -> FaultAction;

    /// Whether a new connection to `addr` may be opened right now.
    /// `false` refuses the dial — a network partition.
    fn allow_connect(&self, addr: &str) -> bool {
        let _ = addr;
        true
    }
}

/// Fast-path flag: `true` iff an injector is installed. Lets the
/// per-frame check be one `Acquire` load when fault injection is off.
static INSTALLED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static parking_lot::Mutex<Option<Arc<dyn FaultInjector>>> {
    static SLOT: OnceLock<parking_lot::Mutex<Option<Arc<dyn FaultInjector>>>> = OnceLock::new();
    SLOT.get_or_init(|| parking_lot::Mutex::new(None))
}

/// Install (or with `None`, remove) the process-global fault injector,
/// returning the previous one so callers can restore it — the same
/// install/restore discipline as `sitra_obs::install_sink`.
pub fn install_fault_injector(
    injector: Option<Arc<dyn FaultInjector>>,
) -> Option<Arc<dyn FaultInjector>> {
    let mut guard = slot().lock();
    INSTALLED.store(injector.is_some(), Ordering::Release);
    std::mem::replace(&mut *guard, injector)
}

/// The currently installed injector, if any.
pub(crate) fn active() -> Option<Arc<dyn FaultInjector>> {
    if !INSTALLED.load(Ordering::Acquire) {
        return None;
    }
    slot().lock().clone()
}

/// The fate of one outbound frame under the installed injector
/// (`Deliver` when none is installed).
pub(crate) fn frame_action(conn: u64, peer: &str, frame: &Frame) -> FaultAction {
    match active() {
        Some(inj) => inj.on_frame(conn, peer, frame),
        None => FaultAction::Deliver,
    }
}

/// Whether the installed injector permits dialling `addr` (`true` when
/// none is installed).
pub(crate) fn connect_allowed(addr: &str) -> bool {
    match active() {
        Some(inj) => inj.allow_connect(addr),
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Connection;
    use crate::tests::{pairs, tcp_pair};
    use crate::{connect, Addr, Frame, Listener, NetError};
    use bytes::Bytes;
    use std::collections::HashMap;
    use std::time::Instant;

    /// The injector is process-global; these tests serialize on this.
    static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    /// Applies a scripted action sequence to each of a few connection
    /// ids, delivering everything else untouched (so concurrently
    /// running tests in this binary are unaffected), and records the
    /// frames it was handed on those ids.
    struct Script {
        actions: parking_lot::Mutex<HashMap<u64, Vec<FaultAction>>>,
        seen: parking_lot::Mutex<Vec<Frame>>,
    }

    impl FaultInjector for Script {
        fn on_frame(&self, conn: u64, _peer: &str, frame: &Frame) -> FaultAction {
            let mut scripts = self.actions.lock();
            let Some(actions) = scripts.get_mut(&conn) else {
                return FaultAction::Deliver;
            };
            self.seen.lock().push(frame.clone());
            actions.pop().unwrap_or(FaultAction::Deliver)
        }
    }

    fn script(scripts: impl IntoIterator<Item = (u64, Vec<FaultAction>)>) -> Arc<Script> {
        let popped_back_to_front = scripts.into_iter().map(|(conn, mut actions)| {
            actions.reverse();
            (conn, actions)
        });
        Arc::new(Script {
            actions: parking_lot::Mutex::new(popped_back_to_front.collect()),
            seen: parking_lot::Mutex::default(),
        })
    }

    fn with_scripts(
        scripts: impl IntoIterator<Item = (u64, Vec<FaultAction>)>,
    ) -> Option<Arc<dyn FaultInjector>> {
        install_fault_injector(Some(script(scripts)))
    }

    fn with_script(conn: u64, actions: Vec<FaultAction>) -> Option<Arc<dyn FaultInjector>> {
        with_scripts([(conn, actions)])
    }

    /// Wait (5 s at most) until connection `conn`'s sequencer thread
    /// sleeps: parked in its timed receive on what it holds.
    fn wait_until_parked(conn: u64) {
        // `stat` reads `pid (comm) state ...`; a test's connection ids
        // keep the name within the kernel's 15 bytes.
        let parked = format!("(net-seq-{conn}) S ");
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            let tasks = std::fs::read_dir("/proc/self/task").unwrap().flatten();
            if tasks
                .map(|t| std::fs::read_to_string(t.path().join("stat")))
                .any(|stat| stat.is_ok_and(|stat| stat.contains(&parked)))
            {
                return;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn duplicate_delivers_twice_and_drop_severs() {
        let _g = LOCK.lock();
        for (scheme, a, b) in pairs("fault-dup-drop") {
            let prev = with_script(a.id(), vec![FaultAction::Duplicate, FaultAction::Drop]);
            a.send(Bytes::from_static(b"dup")).unwrap();
            assert_eq!(b.recv().unwrap(), Bytes::from_static(b"dup"), "{scheme}");
            assert_eq!(b.recv().unwrap(), Bytes::from_static(b"dup"), "{scheme}");
            // Drop: the sender believes the send succeeded, the frame is
            // gone, and the link is dead.
            a.send(Bytes::from_static(b"lost")).unwrap();
            assert!(matches!(b.recv(), Err(NetError::Closed)), "{scheme}");
            assert!(
                matches!(a.send(Bytes::from_static(b"after")), Err(NetError::Closed)),
                "{scheme}"
            );
            install_fault_injector(prev);
        }
    }

    #[test]
    fn cut_fails_the_send_and_severs() {
        let _g = LOCK.lock();
        for (scheme, a, b) in pairs("fault-cut") {
            let prev = with_script(a.id(), vec![FaultAction::Cut]);
            assert!(
                matches!(a.send(Bytes::from_static(b"x")), Err(NetError::Closed)),
                "{scheme}"
            );
            assert!(matches!(b.recv(), Err(NetError::Closed)), "{scheme}");
            install_fault_injector(prev);
        }
    }

    #[test]
    fn delay_still_delivers() {
        let _g = LOCK.lock();
        for (scheme, a, b) in pairs("fault-delay-delivers") {
            let prev = with_script(
                a.id(),
                vec![
                    FaultAction::Delay(Duration::from_millis(5)),
                    FaultAction::Reorder(Duration::from_millis(5)),
                ],
            );
            a.send(Bytes::from_static(b"slow")).unwrap();
            a.send(Bytes::from_static(b"jitter")).unwrap();
            assert_eq!(b.recv().unwrap(), Bytes::from_static(b"slow"), "{scheme}");
            assert_eq!(b.recv().unwrap(), Bytes::from_static(b"jitter"), "{scheme}");
            install_fault_injector(prev);
        }
    }

    #[test]
    fn delay_holds_the_line_and_not_the_sender() {
        let _g = LOCK.lock();
        for (scheme, a, b) in pairs("fault-delay") {
            let prev = with_script(a.id(), vec![FaultAction::Delay(Duration::from_millis(150))]);
            // The frame is held by the sequencer, not a sender sleep:
            // the sends must return long before the 150ms hold elapses.
            let t0 = std::time::Instant::now();
            for frame in [&b"held"[..], b"second", b"third"] {
                a.send(Bytes::from_static(frame)).unwrap();
            }
            assert!(
                t0.elapsed() < Duration::from_millis(100),
                "{scheme}: send blocked for {:?}; Delay must not stall the sender",
                t0.elapsed()
            );
            // The held frame comes out after the hold, and the frames
            // sent behind it behind it.
            assert_eq!(b.recv().unwrap(), Bytes::from_static(b"held"), "{scheme}");
            assert!(t0.elapsed() >= Duration::from_millis(140), "{scheme}");
            assert_eq!(b.recv().unwrap(), Bytes::from_static(b"second"), "{scheme}");
            assert_eq!(b.recv().unwrap(), Bytes::from_static(b"third"), "{scheme}");
            install_fault_injector(prev);
        }
    }

    #[test]
    fn reorder_lets_later_frames_overtake() {
        let _g = LOCK.lock();
        for (scheme, a, b) in pairs("fault-reorder") {
            let prev = with_script(
                a.id(),
                vec![
                    FaultAction::Reorder(Duration::from_millis(80)),
                    FaultAction::Deliver,
                ],
            );
            a.send(Bytes::from_static(b"late")).unwrap();
            a.send(Bytes::from_static(b"first")).unwrap();
            // The reordered frame parks off to the side; the frame sent
            // after it arrives first.
            assert_eq!(b.recv().unwrap(), Bytes::from_static(b"first"), "{scheme}");
            assert_eq!(b.recv().unwrap(), Bytes::from_static(b"late"), "{scheme}");
            install_fault_injector(prev);
        }
    }

    #[test]
    fn close_cancels_a_parked_hold_and_delivers_what_came_before_it() {
        let _g = LOCK.lock();
        for (scheme, a, b) in pairs("fault-close-hold") {
            let prev = with_script(
                a.id(),
                vec![
                    FaultAction::Deliver,
                    FaultAction::Delay(Duration::from_millis(200)),
                ],
            );
            for frame in [&b"before"[..], b"held", b"behind"] {
                a.send(Bytes::from_static(frame)).unwrap();
            }
            a.close();
            assert_eq!(b.recv().unwrap(), Bytes::from_static(b"before"), "{scheme}");
            // The peer sees a prefix of what was sent and then the
            // hangup: not the held frame, not the one behind it.
            assert!(matches!(b.recv(), Err(NetError::Closed)), "{scheme}");
            install_fault_injector(prev);
        }
    }

    #[test]
    fn close_cancels_a_parked_hold_at_once() {
        let _g = LOCK.lock();
        for (scheme, a, b) in pairs("fault-close-at-once") {
            let prev = with_script(a.id(), vec![FaultAction::Delay(Duration::from_secs(10))]);
            a.send(Bytes::from_static(b"held")).unwrap();
            wait_until_parked(a.id());
            let t0 = Instant::now();
            a.close();
            let got = b.recv_timeout(Duration::from_secs(1));
            install_fault_injector(prev);
            assert!(matches!(got, Err(NetError::Closed)), "{scheme}: {got:?}");
            assert!(t0.elapsed() < Duration::from_secs(1), "{scheme}");
        }
    }

    #[test]
    fn close_delivers_what_was_sent_before_the_parked_delay_and_nothing_behind_it() {
        let _g = LOCK.lock();
        for (scheme, a, b) in pairs("fault-close-rule") {
            let long = Duration::from_secs(10);
            let prev = with_script(
                a.id(),
                vec![
                    FaultAction::Reorder(long),
                    FaultAction::Delay(long),
                    FaultAction::Reorder(long),
                ],
            );
            for frame in [&b"early"[..], b"held", b"late", b"behind"] {
                a.send(Bytes::from_static(frame)).unwrap();
            }
            a.close();
            // The reordered frame sent before the hold goes out; the
            // held frame, and both frames sent behind it, do not.
            let first = b.recv_timeout(Duration::from_secs(1));
            let then = b.recv_timeout(Duration::from_secs(1));
            install_fault_injector(prev);
            assert_eq!(first.unwrap(), Bytes::from_static(b"early"), "{scheme}");
            assert!(matches!(then, Err(NetError::Closed)), "{scheme}: {then:?}");
        }
    }

    #[test]
    fn a_stalled_hold_does_not_stall_a_sibling_connection() {
        let _g = LOCK.lock();
        // Four connections whose peers never read: each sequencer
        // forwards its held frame, then blocks writing 16 MiB.
        let stalled: Vec<_> = (0..4).map(|_| tcp_pair()).collect();
        let (a, b) = tcp_pair();
        let delay = || vec![FaultAction::Delay(Duration::from_millis(5))];
        let ids = stalled.iter().map(|(s, _)| s.id()).chain([a.id()]);
        let prev = with_scripts(ids.map(|id| (id, delay())));
        let bulk = Bytes::from(vec![7u8; 4 << 20]);
        for (s, _) in &stalled {
            s.send(Bytes::from_static(b"held")).unwrap();
            for _ in 0..4 {
                s.send(bulk.clone()).unwrap();
            }
        }
        a.send(Bytes::from_static(b"sibling")).unwrap();
        let got = b.recv_timeout(Duration::from_secs(3));
        install_fault_injector(prev);
        assert_eq!(got.unwrap(), Bytes::from_static(b"sibling"));
    }

    #[test]
    fn a_fault_mid_batch_splits_the_batch_and_keeps_the_order() {
        let _g = LOCK.lock();
        for (scheme, a, b) in pairs("fault-batch") {
            // One decision per frame, in order: the third frame of the
            // batch is the delayed one.
            let prev = with_script(
                a.id(),
                vec![
                    FaultAction::Deliver,
                    FaultAction::Deliver,
                    FaultAction::Delay(Duration::from_millis(30)),
                    FaultAction::Duplicate,
                ],
            );
            let batch: Vec<Frame> = (0..5u8).map(|i| Bytes::from(vec![i; 3]).into()).collect();
            a.send_all(&batch).unwrap();
            for want in [0u8, 1, 2, 3, 3, 4] {
                assert_eq!(b.recv().unwrap().as_slice(), [want; 3], "{scheme}");
            }
            assert_eq!(a.stats().frames_sent, 6, "{scheme}");
            install_fault_injector(prev);
        }
    }

    #[test]
    fn a_frame_given_as_parts_arrives_whole_under_duplicate_and_delay() {
        let _g = LOCK.lock();
        let payload: Vec<u8> = (0..70_000u32).map(|i| (i % 253) as u8).collect();
        let mut gathered = Frame::new();
        for cut in [0, 11, 40_000, payload.len()].windows(2) {
            gathered.push(Bytes::copy_from_slice(&payload[cut[0]..cut[1]]));
        }
        assert_eq!(gathered.len(), payload.len());
        for (scheme, a, b) in pairs("fault-gathered") {
            let script = script([(
                a.id(),
                vec![
                    FaultAction::Duplicate,
                    FaultAction::Delay(Duration::from_millis(20)),
                ],
            )]);
            let prev = install_fault_injector(Some(script.clone()));
            a.send(gathered.clone()).unwrap();
            a.send(gathered.clone()).unwrap();
            a.send(gathered.clone()).unwrap();
            for _ in 0..4 {
                let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
                assert!(got.as_slice() == payload.as_slice(), "{scheme}");
            }
            let sent = a.stats();
            assert_eq!(sent.frames_sent, 4, "{scheme}");
            assert_eq!(sent.bytes_sent, 4 * payload.len() as u64, "{scheme}");
            install_fault_injector(prev);
            // One decision per send, each handed the whole payload with
            // its parts in order.
            let seen = script.seen.lock();
            assert_eq!(seen.len(), 3, "{scheme}");
            for frame in seen.iter() {
                assert_eq!(frame.parts(), gathered.parts(), "{scheme}");
                assert!(frame.join().as_ref() == payload.as_slice(), "{scheme}");
            }
        }
    }

    #[test]
    fn partition_refuses_dials_until_healed() {
        let _g = LOCK.lock();
        struct Deny(String);
        impl FaultInjector for Deny {
            fn on_frame(&self, _: u64, _: &str, _: &Frame) -> FaultAction {
                FaultAction::Deliver
            }
            fn allow_connect(&self, addr: &str) -> bool {
                addr != self.0
            }
        }
        let addr: Addr = "inproc://fault-partition-test".parse().unwrap();
        let _l = Listener::bind(&addr).unwrap();
        let prev = install_fault_injector(Some(Arc::new(Deny(addr.to_string()))));
        assert!(matches!(connect(&addr), Err(NetError::Refused(_))));
        // Healing the partition (removing the injector) lets the same
        // dial through.
        install_fault_injector(prev);
        assert!(connect(&addr).is_ok());
    }

    #[test]
    fn no_injector_means_zero_interference() {
        let _g = LOCK.lock();
        let prev = install_fault_injector(None);
        let (a, b) = Connection::inproc_pair();
        a.send(Bytes::from_static(b"clean")).unwrap();
        assert_eq!(b.recv().unwrap(), Bytes::from_static(b"clean"));
        assert_eq!(a.stats().frames_sent, 1);
        install_fault_injector(prev);
    }
}
