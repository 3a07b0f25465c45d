//! ISAAC-style steerable visualization endpoint.
//!
//! Matthes et al.'s ISAAC couples a running simulation to live viewers
//! whose feedback steers what the in-situ side renders next. The analog
//! here: a [`SteerServer`] listens on its **own** `sitra-net` endpoint
//! (deliberately separate from the staging RPC protocol: the two share
//! no tags, so either can add or retire a message without touching the
//! other), the pipeline driver [`SteerPublisher::publish`]es each
//! retired image output as a monotonically versioned snapshot, under
//! every staging mode, and subscribers pull reduced frames and push
//! steering feedback:
//!
//! * **Subscribe** binds a subscriber name and an initial downsample
//!   `rate` to the connection — re-sent on every reconnect, exactly the
//!   per-connection re-declaration pattern `SetTenant` uses on the
//!   staging protocol.
//! * **NextFrame** blocks until a frame newer than the subscriber's
//!   last is available, then delivers it reduced by the subscriber's
//!   *current* rate (every `rate`-th pixel per axis). Reduction happens
//!   at delivery time, so a frame produced after a feedback ack always
//!   reflects the acked rate — the steer-ack monotonicity oracle.
//! * **Steer** updates the subscriber's rate and is acknowledged; the
//!   ack carries the newest published version, so the client knows any
//!   frame it receives afterwards was reduced under the new rate.
//!
//! Every subscribe/feedback/frame is journaled through `sitra-obs` with
//! enough context that [`replay_steer`] reconstructs the per-subscriber
//! accounting ([`SteerServer::accounting`]) bit-identically — the same
//! replay-identity discipline the pipeline driver holds itself to.

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};
use sitra_dataspaces::codec::{put_str, Rd, WireError};
use sitra_dataspaces::RemoteError;
use sitra_net::{
    connect_retry, serve, Addr, Backoff, Connection, Listener, NetError, ServerHandle,
};
use sitra_obs::ObsEvent;
use sitra_viz::Image;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crate::wire::{put_image, read_image};

// --------------------------------------------------------------------
// Protocol messages (a dedicated frame space: this endpoint is not part
// of the staging RPC protocol and shares no tags with it)
// --------------------------------------------------------------------

const MSG_SUBSCRIBE: u8 = 1;
const MSG_NEXT_FRAME: u8 = 2;
const MSG_STEER: u8 = 3;

const REPLY_SUB_ACK: u8 = 100;
const REPLY_FRAME: u8 = 101;
const REPLY_STEER_ACK: u8 = 102;
const REPLY_NO_FRAME: u8 = 103;
const REPLY_ERROR: u8 = 199;

/// A subscriber-to-server steering message.
#[derive(Debug, Clone, PartialEq)]
pub enum SteerMsg {
    /// Bind this connection to `subscriber` at downsample `rate`
    /// (≥ 1). Must precede any other message, and must be re-sent after
    /// a reconnect.
    Subscribe {
        /// Stable subscriber name (accounting survives reconnects).
        subscriber: String,
        /// Initial downsample rate.
        rate: u32,
    },
    /// Deliver the next frame with a version greater than `after`.
    NextFrame {
        /// The last version this subscriber has seen (0 = none).
        after: u64,
    },
    /// Change this subscriber's downsample rate, effective for every
    /// frame delivered after the ack.
    Steer {
        /// New downsample rate (≥ 1).
        rate: u32,
    },
}

/// A server-to-subscriber reply.
#[derive(Debug, Clone, PartialEq)]
pub enum SteerReply {
    /// Subscription bound at `rate`.
    SubAck {
        /// The bound rate.
        rate: u32,
    },
    /// One reduced frame.
    Frame {
        /// Publication version.
        version: u64,
        /// Rate the frame was reduced under.
        rate: u32,
        /// The reduced image.
        image: Image,
    },
    /// Feedback applied: every later frame reflects `rate`.
    SteerAck {
        /// The acked rate.
        rate: u32,
        /// Newest published version at ack time (frames after it are
        /// necessarily produced under the new rate).
        latest_version: u64,
    },
    /// No frame is coming (server shutting down).
    NoFrame,
    /// The request could not be served.
    Error {
        /// Why.
        reason: String,
    },
}

/// A downsample rate; zero is malformed.
fn rate(rd: &mut Rd) -> Result<u32, WireError> {
    match rd.u32("rate")? {
        0 => Err(WireError::Malformed { field: "rate" }),
        r => Ok(r),
    }
}

/// Encode a steering message.
pub fn encode_steer_msg(msg: &SteerMsg) -> Bytes {
    let mut buf = BytesMut::new();
    match msg {
        SteerMsg::Subscribe { subscriber, rate } => {
            buf.put_u8(MSG_SUBSCRIBE);
            put_str(&mut buf, subscriber);
            buf.put_u32_le(*rate);
        }
        SteerMsg::NextFrame { after } => {
            buf.put_u8(MSG_NEXT_FRAME);
            buf.put_u64_le(*after);
        }
        SteerMsg::Steer { rate } => {
            buf.put_u8(MSG_STEER);
            buf.put_u32_le(*rate);
        }
    }
    buf.freeze()
}

/// Decode a steering message. Total: never panics on arbitrary bytes.
pub fn decode_steer_msg(frame: Bytes) -> Result<SteerMsg, RemoteError> {
    let mut rd = Rd::new(frame);
    let msg = match rd.u8("msg.tag")? {
        MSG_SUBSCRIBE => SteerMsg::Subscribe {
            subscriber: rd.string("subscriber")?,
            rate: rate(&mut rd)?,
        },
        MSG_NEXT_FRAME => SteerMsg::NextFrame {
            after: rd.u64("after")?,
        },
        MSG_STEER => SteerMsg::Steer {
            rate: rate(&mut rd)?,
        },
        t => return Err(RemoteError::Proto(format!("unknown steer msg tag {t}"))),
    };
    rd.finish()?;
    Ok(msg)
}

/// Encode a steering reply.
pub fn encode_steer_reply(reply: &SteerReply) -> Bytes {
    let mut buf = BytesMut::new();
    match reply {
        SteerReply::SubAck { rate } => {
            buf.put_u8(REPLY_SUB_ACK);
            buf.put_u32_le(*rate);
        }
        SteerReply::Frame {
            version,
            rate,
            image,
        } => {
            buf.put_u8(REPLY_FRAME);
            buf.put_u64_le(*version);
            buf.put_u32_le(*rate);
            put_image(&mut buf, image);
        }
        SteerReply::SteerAck {
            rate,
            latest_version,
        } => {
            buf.put_u8(REPLY_STEER_ACK);
            buf.put_u32_le(*rate);
            buf.put_u64_le(*latest_version);
        }
        SteerReply::NoFrame => {
            buf.put_u8(REPLY_NO_FRAME);
        }
        SteerReply::Error { reason } => {
            buf.put_u8(REPLY_ERROR);
            put_str(&mut buf, reason);
        }
    }
    buf.freeze()
}

/// Decode a steering reply. Total: never panics on arbitrary bytes.
pub fn decode_steer_reply(frame: Bytes) -> Result<SteerReply, RemoteError> {
    let mut rd = Rd::new(frame);
    let reply = match rd.u8("reply.tag")? {
        REPLY_SUB_ACK => SteerReply::SubAck {
            rate: rate(&mut rd)?,
        },
        REPLY_FRAME => SteerReply::Frame {
            version: rd.u64("version")?,
            rate: rate(&mut rd)?,
            image: read_image(&mut rd)?,
        },
        REPLY_STEER_ACK => SteerReply::SteerAck {
            rate: rate(&mut rd)?,
            latest_version: rd.u64("latest_version")?,
        },
        REPLY_NO_FRAME => SteerReply::NoFrame,
        REPLY_ERROR => SteerReply::Error {
            reason: rd.string("reason")?,
        },
        t => return Err(RemoteError::Proto(format!("unknown steer reply tag {t}"))),
    };
    rd.finish()?;
    Ok(reply)
}

/// Reduce an image by sampling every `rate`-th pixel per axis (rate 1 is
/// a copy). Output dimensions are `ceil(dim / rate)`, never empty.
pub fn reduce_image(img: &Image, rate: u32) -> Image {
    let r = rate.max(1) as usize;
    let (w, h) = (img.width(), img.height());
    let (rw, rh) = (w.div_ceil(r), h.div_ceil(r));
    let mut out = Image::new(rw, rh);
    for y in 0..rh {
        for x in 0..rw {
            out.pixels_mut()[y * rw + x] = img.pixels()[(y * r) * w + x * r];
        }
    }
    out
}

// --------------------------------------------------------------------
// Server
// --------------------------------------------------------------------

/// Per-subscriber accounting, live on the server and reconstructable
/// from the journal by [`replay_steer`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SteerAccounting {
    /// Current downsample rate.
    pub rate: u32,
    /// Frames delivered.
    pub frames_sent: u64,
    /// Encoded frame bytes delivered.
    pub bytes_sent: u64,
    /// Steering feedbacks acknowledged.
    pub steers_acked: u64,
}

struct LatestFrame {
    version: u64,
    image: Option<Arc<Image>>,
    /// Set by [`SteerServer::shutdown`] under the lock, so a waiter
    /// either sees it or is parked when the notify comes.
    closed: bool,
    /// Requests being served; `shutdown` returns once none is.
    serving: usize,
}

struct Shared {
    latest: Mutex<LatestFrame>,
    cond: Condvar,
    subs: Mutex<BTreeMap<String, SteerAccounting>>,
}

/// The steerable-visualization service: publish frames on one side,
/// serve subscribers on the other.
pub struct SteerServer {
    shared: Arc<Shared>,
    handle: ServerHandle,
}

impl SteerServer {
    /// Bind and start serving subscribers on `addr`.
    pub fn start(addr: &Addr) -> Result<SteerServer, NetError> {
        let listener = Listener::bind(addr)?;
        let shared = Arc::new(Shared {
            latest: Mutex::new(LatestFrame {
                version: 0,
                image: None,
                closed: false,
                serving: 0,
            }),
            cond: Condvar::new(),
            subs: Mutex::new(BTreeMap::new()),
        });
        let shared2 = Arc::clone(&shared);
        let handle = serve(listener, move |conn| serve_subscriber(&shared2, &conn));
        Ok(SteerServer { shared, handle })
    }

    /// Where subscribers connect.
    pub fn addr(&self) -> Addr {
        self.handle.addr()
    }

    /// A cheap cloneable publishing handle, detachable from the server's
    /// lifetime (the producer side holds this; the server owner keeps
    /// shutdown rights).
    pub fn publisher(&self) -> SteerPublisher {
        SteerPublisher {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Live per-subscriber accounting, keyed by subscriber name.
    pub fn accounting(&self) -> BTreeMap<String, SteerAccounting> {
        self.shared.subs.lock().clone()
    }

    /// Stop serving: blocked `NextFrame` waiters drain (with a pending
    /// frame, else `NoFrame`), later requests get `NoFrame` unserved,
    /// and the acceptor joins once no request is in service — so the
    /// accounting and the journal are complete when this returns.
    pub fn shutdown(self) {
        let mut latest = self.shared.latest.lock();
        latest.closed = true;
        self.shared.cond.notify_all();
        while latest.serving > 0 {
            self.shared.cond.wait(&mut latest);
        }
        drop(latest);
        self.handle.shutdown();
    }
}

/// Publishing half of a [`SteerServer`], cloneable into producer
/// threads (e.g. the pipeline driver's retirement path).
#[derive(Clone)]
pub struct SteerPublisher {
    shared: Arc<Shared>,
}

impl SteerPublisher {
    /// Publish one frame; returns its (monotonically increasing)
    /// version. Subscribers blocked in `NextFrame` wake immediately;
    /// each receives the frame reduced by its own current rate.
    pub fn publish(&self, img: &Image) -> u64 {
        let version = {
            let mut latest = self.shared.latest.lock();
            latest.version += 1;
            latest.image = Some(Arc::new(img.clone()));
            latest.version
        };
        sitra_obs::emit(
            "steer",
            "publish",
            &[
                ("version", version.to_string()),
                ("width", img.width().to_string()),
                ("height", img.height().to_string()),
            ],
        );
        self.shared.cond.notify_all();
        version
    }
}

/// A request counted in while the server is open; out when dropped.
struct Serving<'a>(&'a Shared);

impl<'a> Serving<'a> {
    fn enter(shared: &'a Shared) -> Option<Serving<'a>> {
        let mut latest = shared.latest.lock();
        if latest.closed {
            return None;
        }
        latest.serving += 1;
        Some(Serving(shared))
    }
}

impl Drop for Serving<'_> {
    fn drop(&mut self) {
        self.0.latest.lock().serving -= 1;
        self.0.cond.notify_all();
    }
}

fn serve_subscriber(shared: &Shared, conn: &Connection) {
    // Connection-local binding, re-declared on every reconnect — the
    // `SetTenant` pattern.
    let mut bound: Option<String> = None;
    while let Ok(frame) = conn.recv() {
        let enc = match Serving::enter(shared) {
            None => encode_steer_reply(&SteerReply::NoFrame),
            Some(_serving) => serve_request(shared, &mut bound, frame),
        };
        if conn.send(enc).is_err() {
            return;
        }
    }
}

fn serve_request(shared: &Shared, bound: &mut Option<String>, frame: Bytes) -> Bytes {
    let reply = match decode_steer_msg(frame) {
        Err(e) => SteerReply::Error {
            reason: e.to_string(),
        },
        Ok(msg) => handle_msg(shared, bound, msg),
    };
    let enc = encode_steer_reply(&reply);
    // Frame accounting covers the encoded bytes actually sent.
    if let (SteerReply::Frame { version, rate, .. }, Some(name)) = (&reply, &bound) {
        {
            let mut subs = shared.subs.lock();
            let st = subs.entry(name.clone()).or_default();
            st.frames_sent += 1;
            st.bytes_sent += enc.len() as u64;
        }
        sitra_obs::emit(
            "steer",
            "frame",
            &[
                ("subscriber", name.clone()),
                ("version", version.to_string()),
                ("rate", rate.to_string()),
                ("bytes", enc.len().to_string()),
            ],
        );
    }
    enc
}

fn handle_msg(shared: &Shared, bound: &mut Option<String>, msg: SteerMsg) -> SteerReply {
    match msg {
        SteerMsg::Subscribe { subscriber, rate } => {
            shared
                .subs
                .lock()
                .entry(subscriber.clone())
                .or_default()
                .rate = rate;
            sitra_obs::emit(
                "steer",
                "subscribe",
                &[
                    ("subscriber", subscriber.clone()),
                    ("rate", rate.to_string()),
                ],
            );
            *bound = Some(subscriber);
            SteerReply::SubAck { rate }
        }
        SteerMsg::Steer { rate } => {
            let Some(name) = bound.as_ref() else {
                return SteerReply::Error {
                    reason: "subscribe before steering".into(),
                };
            };
            {
                let mut subs = shared.subs.lock();
                let st = subs.entry(name.clone()).or_default();
                st.rate = rate;
                st.steers_acked += 1;
            }
            sitra_obs::emit(
                "steer",
                "feedback",
                &[("subscriber", name.clone()), ("rate", rate.to_string())],
            );
            SteerReply::SteerAck {
                rate,
                latest_version: shared.latest.lock().version,
            }
        }
        SteerMsg::NextFrame { after } => {
            let Some(name) = bound.as_ref() else {
                return SteerReply::Error {
                    reason: "subscribe before polling frames".into(),
                };
            };
            let (version, image) = {
                let mut latest = shared.latest.lock();
                loop {
                    // A waiter parked before the close still gets a
                    // pending frame: what was published while it waited
                    // was promised to it.
                    if latest.version > after {
                        if let Some(img) = &latest.image {
                            break (latest.version, Arc::clone(img));
                        }
                    }
                    if latest.closed {
                        return SteerReply::NoFrame;
                    }
                    shared.cond.wait(&mut latest);
                }
            };
            // Reduce under the subscriber's rate *now* — after any
            // acked feedback — so delivery reflects the newest rate.
            let rate = shared
                .subs
                .lock()
                .get(name)
                .map(|s| s.rate.max(1))
                .unwrap_or(1);
            SteerReply::Frame {
                version,
                rate,
                image: reduce_image(&image, rate),
            }
        }
    }
}

/// Reconstruct [`SteerServer::accounting`] from a journal. Applying
/// each subscriber's `subscribe`/`feedback`/`frame` events in order
/// reproduces the live counters bit-identically — the steering replay
/// oracle.
pub fn replay_steer(events: &[ObsEvent]) -> BTreeMap<String, SteerAccounting> {
    let mut subs: BTreeMap<String, SteerAccounting> = BTreeMap::new();
    for e in events {
        if e.component != "steer" {
            continue;
        }
        let Some(name) = e.get("subscriber") else {
            continue;
        };
        let st = subs.entry(name.to_string()).or_default();
        match e.name.as_str() {
            "subscribe" => {
                st.rate = e.u64("rate").unwrap_or(0) as u32;
            }
            "feedback" => {
                st.rate = e.u64("rate").unwrap_or(0) as u32;
                st.steers_acked += 1;
            }
            "frame" => {
                st.frames_sent += 1;
                st.bytes_sent += e.u64("bytes").unwrap_or(0);
            }
            _ => {}
        }
    }
    subs
}

// --------------------------------------------------------------------
// Client
// --------------------------------------------------------------------

/// A steering subscriber: pulls reduced frames and pushes feedback,
/// transparently redialing through transient faults. Every reconnect
/// re-subscribes with the client's *current* rate, so steering state
/// survives connection loss the way tenant bindings do.
pub struct SteerClient {
    addr: Addr,
    backoff: Backoff,
    subscriber: String,
    rate: u32,
    last_version: u64,
    conn: Option<Connection>,
}

/// One delivered frame, client side.
#[derive(Debug, Clone, PartialEq)]
pub struct SteerFrame {
    /// Publication version.
    pub version: u64,
    /// Rate the server reduced it under.
    pub rate: u32,
    /// The reduced image.
    pub image: Image,
}

impl SteerClient {
    /// Dial `addr` and subscribe as `subscriber` at `rate`.
    pub fn connect(
        addr: &Addr,
        subscriber: impl Into<String>,
        rate: u32,
        backoff: Backoff,
    ) -> Result<SteerClient, RemoteError> {
        let mut c = SteerClient {
            addr: addr.clone(),
            backoff,
            subscriber: subscriber.into(),
            rate: rate.max(1),
            last_version: 0,
            conn: None,
        };
        c.ensure()?;
        Ok(c)
    }

    fn ensure(&mut self) -> Result<(), RemoteError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let conn = connect_retry(&self.addr, &self.backoff)?;
        conn.send(encode_steer_msg(&SteerMsg::Subscribe {
            subscriber: self.subscriber.clone(),
            rate: self.rate,
        }))?;
        match decode_steer_reply(conn.recv()?)? {
            SteerReply::SubAck { .. } => {
                self.conn = Some(conn);
                Ok(())
            }
            SteerReply::Error { reason } => Err(RemoteError::Server(reason)),
            other => Err(RemoteError::Proto(format!(
                "unexpected subscribe reply {other:?}"
            ))),
        }
    }

    fn request(&mut self, msg: &SteerMsg, timeout: Duration) -> Result<SteerReply, RemoteError> {
        let mut last: Option<RemoteError> = None;
        for _ in 0..self.backoff.attempts.max(1) {
            let attempt: Result<SteerReply, RemoteError> = (|| {
                self.ensure()?;
                let conn = self.conn.as_ref().expect("ensured above");
                conn.send(encode_steer_msg(msg))?;
                decode_steer_reply(conn.recv_timeout(timeout)?)
            })();
            match attempt {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // Drop the connection on *every* error, not just
                    // retryable ones: a protocol error usually means a
                    // duplicated or reordered reply desynchronized the
                    // request/response lockstep, and the only way back
                    // in step is a fresh dial (which re-declares the
                    // subscription at the current rate). The next
                    // attempt retries retryable errors; terminal ones
                    // return after the loop.
                    self.conn = None;
                    if e.is_retryable() {
                        last = Some(e);
                    } else {
                        return Err(e);
                    }
                }
            }
        }
        Err(last.unwrap_or_else(|| RemoteError::Timeout("steer request".into())))
    }

    /// Pull the next frame newer than the last one seen. `Ok(None)`
    /// means the server is shutting down.
    pub fn next_frame(&mut self, timeout: Duration) -> Result<Option<SteerFrame>, RemoteError> {
        let msg = SteerMsg::NextFrame {
            after: self.last_version,
        };
        match self.request(&msg, timeout)? {
            SteerReply::Frame {
                version,
                rate,
                image,
            } => {
                // The server never replies with `version <= after`; a
                // stale version here is a duplicated reply that slipped
                // in ahead of the real one. Sever the connection so the
                // next call redials in lockstep, and surface the desync
                // to the caller instead of double-delivering a frame.
                if version <= self.last_version {
                    self.conn = None;
                    return Err(RemoteError::Proto(format!(
                        "stale frame v{version} after v{}",
                        self.last_version
                    )));
                }
                self.last_version = version;
                Ok(Some(SteerFrame {
                    version,
                    rate,
                    image,
                }))
            }
            SteerReply::NoFrame => Ok(None),
            SteerReply::Error { reason } => Err(RemoteError::Server(reason)),
            other => Err(RemoteError::Proto(format!(
                "unexpected frame reply {other:?}"
            ))),
        }
    }

    /// Steer: every frame delivered after the returned ack reflects
    /// `rate`. Returns the newest published version at ack time.
    pub fn steer(&mut self, rate: u32, timeout: Duration) -> Result<u64, RemoteError> {
        // Record the new rate before talking to the server: if this
        // request path has to reconnect, the re-subscription must
        // already declare the new rate.
        self.rate = rate.max(1);
        match self.request(&SteerMsg::Steer { rate: self.rate }, timeout)? {
            SteerReply::SteerAck { latest_version, .. } => Ok(latest_version),
            SteerReply::Error { reason } => Err(RemoteError::Server(reason)),
            other => Err(RemoteError::Proto(format!(
                "unexpected steer reply {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitra_obs::VecSink;

    fn test_image(w: usize, h: usize, tag: f64) -> Image {
        let mut img = Image::new(w, h);
        for (i, p) in img.pixels_mut().iter_mut().enumerate() {
            *p = [i as f64, tag, 0.5, 1.0];
        }
        img
    }

    fn addr(name: &str) -> Addr {
        format!("inproc://steer-test-{name}").parse().unwrap()
    }

    #[test]
    fn msg_and_reply_roundtrip() {
        let msgs = [
            SteerMsg::Subscribe {
                subscriber: "viewer-a".into(),
                rate: 3,
            },
            SteerMsg::NextFrame { after: 7 },
            SteerMsg::Steer { rate: 9 },
        ];
        for m in &msgs {
            assert_eq!(&decode_steer_msg(encode_steer_msg(m)).unwrap(), m);
        }
        let replies = [
            SteerReply::SubAck { rate: 2 },
            SteerReply::Frame {
                version: 4,
                rate: 2,
                image: test_image(3, 2, 0.25),
            },
            SteerReply::SteerAck {
                rate: 5,
                latest_version: 11,
            },
            SteerReply::NoFrame,
            SteerReply::Error {
                reason: "nope".into(),
            },
        ];
        for r in &replies {
            assert_eq!(&decode_steer_reply(encode_steer_reply(r)).unwrap(), r);
        }
    }

    #[test]
    fn codecs_reject_garbage_and_zero_rates() {
        assert!(decode_steer_msg(Bytes::new()).is_err());
        assert!(decode_steer_reply(Bytes::new()).is_err());
        assert!(decode_steer_msg(Bytes::from_static(&[77])).is_err());
        // Zero rates are structurally invalid on both sides.
        let mut buf = BytesMut::new();
        buf.put_u8(MSG_STEER);
        buf.put_u32_le(0);
        assert!(decode_steer_msg(buf.freeze()).is_err());
        // Truncations of a valid frame all error.
        let enc = encode_steer_reply(&SteerReply::Frame {
            version: 1,
            rate: 1,
            image: test_image(2, 2, 0.0),
        });
        for cut in 0..enc.len() {
            assert!(decode_steer_reply(enc.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn reduce_image_samples_lattice() {
        let img = test_image(5, 4, 0.0);
        let r = reduce_image(&img, 2);
        assert_eq!((r.width(), r.height()), (3, 2));
        assert_eq!(r.pixels()[0], img.pixels()[0]);
        assert_eq!(r.pixels()[1], img.pixels()[2]);
        assert_eq!(r.pixels()[3], img.pixels()[10]);
        // Rate 1 is an exact copy; huge rates clamp to one pixel.
        assert_eq!(reduce_image(&img, 1), img);
        assert_eq!(
            (
                reduce_image(&img, 99).width(),
                reduce_image(&img, 99).height()
            ),
            (1, 1)
        );
    }

    #[test]
    fn subscribe_pull_steer_and_replay() {
        let obs = sitra_obs::isolate();
        let _keep = &obs;
        let sink = Arc::new(VecSink::new());
        let prev = sitra_obs::install_sink(Some(sink.clone()));

        let server = SteerServer::start(&addr("basic")).expect("start");
        let mut client =
            SteerClient::connect(&server.addr(), "viewer", 2, Backoff::default()).expect("dial");

        let publisher = server.publisher();
        let v1 = publisher.publish(&test_image(8, 6, 1.0));
        let f1 = client
            .next_frame(Duration::from_secs(5))
            .expect("frame 1")
            .expect("some");
        assert_eq!(f1.version, v1);
        assert_eq!(f1.rate, 2);
        assert_eq!((f1.image.width(), f1.image.height()), (4, 3));

        // Feedback: the ack precedes any frame at the new rate.
        client.steer(3, Duration::from_secs(5)).expect("ack");
        let v2 = publisher.publish(&test_image(8, 6, 2.0));
        let f2 = client
            .next_frame(Duration::from_secs(5))
            .expect("frame 2")
            .expect("some");
        assert_eq!(f2.version, v2);
        assert_eq!(f2.rate, 3);
        assert_eq!((f2.image.width(), f2.image.height()), (3, 2));

        // Live accounting matches the journal replay bit-identically.
        let acct = server.accounting();
        assert_eq!(acct["viewer"].frames_sent, 2);
        assert_eq!(acct["viewer"].steers_acked, 1);
        assert_eq!(acct["viewer"].rate, 3);
        let events = sink.events();
        assert_eq!(replay_steer(&events), acct);

        server.shutdown();
        sitra_obs::install_sink(prev);
    }

    #[test]
    fn polling_before_subscribing_is_an_error() {
        let _obs = sitra_obs::isolate(); // The replay test's sink sees every steer event.
        let server = SteerServer::start(&addr("unbound")).expect("start");
        let conn = sitra_net::connect(&server.addr()).expect("dial");
        conn.send(encode_steer_msg(&SteerMsg::NextFrame { after: 0 }))
            .expect("send");
        match decode_steer_reply(conn.recv().expect("reply")).expect("decode") {
            SteerReply::Error { reason } => assert!(reason.contains("subscribe"), "{reason}"),
            other => panic!("expected error, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn reconnect_redeclares_current_rate() {
        let _obs = sitra_obs::isolate(); // The replay test's sink sees every steer event.
        let server = SteerServer::start(&addr("reconnect")).expect("start");
        let mut client =
            SteerClient::connect(&server.addr(), "flaky", 2, Backoff::default()).expect("dial");
        client.steer(5, Duration::from_secs(5)).expect("ack");
        // Sever the transport under the client; the next pull must
        // redial, re-subscribe at rate 5, and deliver at rate 5.
        client.conn = None;
        server.publisher().publish(&test_image(10, 10, 3.0));
        let f = client
            .next_frame(Duration::from_secs(5))
            .expect("frame")
            .expect("some");
        assert_eq!(f.rate, 5);
        assert_eq!((f.image.width(), f.image.height()), (2, 2));
        assert_eq!(server.accounting()["flaky"].rate, 5);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_blocked_pollers_with_no_frame() {
        let _obs = sitra_obs::isolate(); // The replay test's sink sees every steer event.
        let server = SteerServer::start(&addr("drain")).expect("start");
        let addr = server.addr();
        let puller = std::thread::spawn(move || {
            let mut client =
                SteerClient::connect(&addr, "drainee", 1, Backoff::default()).expect("dial");
            client.next_frame(Duration::from_secs(10))
        });
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
        assert!(matches!(puller.join().expect("join"), Ok(None)));
    }

    #[test]
    fn accounting_is_complete_once_shutdown_returns() {
        let _obs = sitra_obs::isolate();
        let sink = Arc::new(VecSink::new());
        let prev = sitra_obs::install_sink(Some(sink.clone()));
        let frames_journaled = || {
            let events = sink.events();
            events
                .iter()
                .filter(|e| e.component == "steer" && e.name == "frame")
                .count()
        };
        for i in 0..200 {
            let server = SteerServer::start(&addr(&format!("complete-{i}"))).expect("start");
            let shared = Arc::clone(&server.shared);
            let publisher = server.publisher();
            let mut client =
                SteerClient::connect(&server.addr(), "last", 1, Backoff::default()).expect("dial");
            publisher.publish(&test_image(4, 4, 1.0));
            client.next_frame(Duration::from_secs(5)).expect("frame 1");
            // Park the subscriber in `NextFrame` for the last version.
            let puller = std::thread::spawn(move || client.next_frame(Duration::from_secs(5)));
            while shared.latest.lock().serving == 0 {
                std::thread::yield_now();
            }
            publisher.publish(&test_image(4, 4, 2.0));
            server.shutdown();
            let (acct, journaled) = (shared.subs.lock().clone(), frames_journaled());
            puller.join().expect("join").expect("pull");
            assert_eq!(shared.subs.lock().clone(), acct, "iteration {i}");
            assert_eq!(frames_journaled(), journaled, "iteration {i}");
        }
        sitra_obs::install_sink(prev);
    }

    #[test]
    fn a_request_after_the_close_is_refused_unjournaled() {
        let obs = sitra_obs::isolate();
        let _keep = &obs;
        let sink = Arc::new(VecSink::new());
        let prev = sitra_obs::install_sink(Some(sink.clone()));
        let server = SteerServer::start(&addr("refused")).expect("start");
        let shared = Arc::clone(&server.shared);
        let mut client =
            SteerClient::connect(&server.addr(), "late", 1, Backoff::default()).expect("dial");
        // A frame is pending for the subscriber, but its pull and its
        // feedback start after the close.
        server.publisher().publish(&test_image(4, 4, 1.0));
        server.shutdown();
        assert_eq!(
            client.next_frame(Duration::from_secs(5)).expect("pull"),
            None
        );
        assert!(client.steer(2, Duration::from_secs(5)).is_err());
        assert_eq!(
            shared.subs.lock()["late"],
            SteerAccounting {
                rate: 1,
                ..SteerAccounting::default()
            }
        );
        let names: Vec<String> = sink
            .events()
            .iter()
            .filter(|e| e.component == "steer")
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(names, ["subscribe", "publish"]);
        sitra_obs::install_sink(prev);
    }
}
