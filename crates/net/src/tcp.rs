//! Async TCP connection internals: a reader task and a writer task per
//! connection, both on the shared [`crate::rt`] runtime, bridged to
//! callers over hybrid channels.
//!
//! The writer is the single owner of the socket's send side. Everything
//! a connection wants written goes through its bounded queue — frames,
//! fault-injected holds, and the close itself — which gives three
//! properties for free:
//!
//! * **Batching**: whatever has accumulated in the queue when the
//!   writer wakes goes out as one vectored write (`[hdr, payload,
//!   hdr, payload, ...]`), so bursts of small frames coalesce into a
//!   single syscall without any Nagle-style delay.
//! * **Backpressure**: the queue is bounded; senders wait (blocking or
//!   async) when the peer falls behind, instead of buffering without
//!   limit.
//! * **Flush-then-close**: `Close` is an ordinary queue item, so every
//!   frame sent before `close()` reaches the wire before the FIN.
//!
//! The reader owns the receive side: it awaits readiness, feeds raw
//! reads through the [`crate::frame::FrameDecoder`], and hands whole
//! frames to a bounded inbound channel. Not draining that channel
//! stops the reads, which turns consumer backpressure into TCP window
//! backpressure end to end. Large spanning frames are read directly
//! into their exact-size buffer via the decoder's direct-fill window,
//! skipping the scratch copy.

use crate::frame::{encode_header, FrameDecoder, HEADER_LEN};
use crate::NetError;
use bytes::Bytes;
use std::io::{self, IoSlice};
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tokio::net::TcpStream;
use tokio::sync::mpsc;

/// Outbound queue depth (frames). Bounded: senders feel backpressure.
const WRITE_QUEUE: usize = 256;
/// Inbound queue depth (frames). Bounded: slow consumers stall reads.
const READ_QUEUE: usize = 256;
/// How many requests a client may leave unanswered on one connection:
/// half the shallower queue, so that every reply to a full window fits
/// the client's inbound queue and the server is never stuck writing to
/// a client that is itself stuck writing (`inproc://` queues are
/// unbounded, a `shm://` ring has 1024 descriptors per direction).
pub const PIPELINE_DEPTH: usize = if READ_QUEUE < WRITE_QUEUE {
    READ_QUEUE / 2
} else {
    WRITE_QUEUE / 2
};
/// Scratch read size for the coalescing read path.
const READ_CHUNK: usize = 16 * 1024;
/// IOV_MAX on Linux: cap a single vectored write's slice count.
const MAX_SLICES: usize = 1024;

/// One unit of work for the writer task.
pub(crate) enum WriteItem {
    /// Write a frame (header + payload).
    Frame(Bytes),
    /// Fault injection `Delay`: flush everything queued so far, hold
    /// the line until `deadline`, then write this frame. Later frames
    /// queue *behind* the hold — an in-order stall, not a reorder.
    Held(Bytes, Instant),
    /// Flush, then FIN both directions.
    Close,
}

/// The channel ends a connection facade needs to drive one TCP link.
pub(crate) struct TcpParts {
    pub(crate) outbound: mpsc::Sender<WriteItem>,
    pub(crate) inbound: mpsc::Receiver<Result<Bytes, NetError>>,
    /// Set by `close()`; the writer consults it to cancel parked holds.
    pub(crate) closed: Arc<AtomicBool>,
    /// The stream itself, for a direct shutdown when the writer queue
    /// is wedged (stalled peer) and `Close` cannot be enqueued.
    pub(crate) stream: Arc<TcpStream>,
}

/// Adopt a connected std stream: register it with the shared runtime
/// and spawn its reader/writer task pair.
pub(crate) fn spawn_io(std: std::net::TcpStream) -> io::Result<TcpParts> {
    let _ = std.set_nodelay(true);
    let handle = crate::rt::handle();
    let stream = Arc::new(TcpStream::from_std_on(&handle, std)?);
    let (out_tx, out_rx) = mpsc::channel(WRITE_QUEUE);
    let (in_tx, in_rx) = mpsc::channel(READ_QUEUE);
    let closed = Arc::new(AtomicBool::new(false));
    handle.spawn(reader(Arc::clone(&stream), in_tx));
    handle.spawn(writer(Arc::clone(&stream), out_rx, Arc::clone(&closed)));
    Ok(TcpParts {
        outbound: out_tx,
        inbound: in_rx,
        closed,
        stream,
    })
}

/// An async connection: the same reader/writer task machinery as the
/// blocking [`crate::Connection`], exposed to async callers directly.
/// One task can hold thousands of these — the soak harness drives 10k
/// concurrently from a single process.
///
/// TCP only (the in-process and shared-memory backends are served by
/// the blocking facade), and the fault-injection seam is not consulted
/// on this path: it exists for load generation, not chaos testing.
pub struct AsyncConnection {
    outbound: mpsc::Sender<WriteItem>,
    inbound: mpsc::Receiver<Result<Bytes, NetError>>,
}

impl AsyncConnection {
    /// Adopt an already connected std TCP stream.
    pub fn from_std(stream: std::net::TcpStream) -> Result<AsyncConnection, NetError> {
        let parts = spawn_io(stream)?;
        Ok(AsyncConnection {
            outbound: parts.outbound,
            inbound: parts.inbound,
        })
    }

    /// Dial a `tcp://` address (blocking dial, async I/O thereafter).
    pub fn connect(addr: &crate::Addr) -> Result<AsyncConnection, NetError> {
        match addr {
            crate::Addr::Tcp(sa) => match std::net::TcpStream::connect(sa) {
                Ok(s) => AsyncConnection::from_std(s),
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    Err(NetError::Refused(sa.to_string()))
                }
                Err(e) => Err(e.into()),
            },
            other => Err(NetError::BadAddr(format!(
                "async connections are tcp-only, got `{other}`"
            ))),
        }
    }

    /// Queue one frame; waits only when the writer queue is full.
    pub async fn send(&self, payload: Bytes) -> Result<(), NetError> {
        if payload.len() > crate::MAX_FRAME_LEN {
            return Err(NetError::FrameTooLarge(payload.len()));
        }
        self.outbound
            .send(WriteItem::Frame(payload))
            .await
            .map_err(|_| NetError::Closed)
    }

    /// Await the next frame.
    pub async fn recv(&mut self) -> Result<Bytes, NetError> {
        match self.inbound.recv().await {
            Some(result) => result,
            None => Err(NetError::Closed),
        }
    }

    /// Flush queued frames, then close both directions.
    pub fn close(&self) {
        let _ = self.outbound.try_send(WriteItem::Close);
    }
}

/// Reader task body: readiness loop -> decoder -> inbound channel.
/// Exits (dropping the channel sender, which surfaces as `Closed` to
/// the consumer) on EOF, on local close, or after reporting an error.
async fn reader(stream: Arc<TcpStream>, tx: mpsc::Sender<Result<Bytes, NetError>>) {
    let mut dec = FrameDecoder::new();
    let mut frames: Vec<Bytes> = Vec::new();
    'io: loop {
        // Direct-fill: a large frame mid-assembly reads straight into
        // its own buffer, no scratch hop.
        while let Some(space) = dec.pending_space() {
            match stream.try_read(space) {
                Ok(0) => break 'io,
                Ok(n) => dec.commit_direct(n, &mut frames),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !frames.is_empty() {
                        break;
                    }
                    if stream.readable().await.is_err() {
                        break 'io;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(NetError::from(e))).await;
                    return;
                }
            }
        }
        if frames.is_empty() {
            let mut buf = vec![0u8; READ_CHUNK];
            match stream.try_read(&mut buf) {
                Ok(0) => break 'io,
                Ok(n) => {
                    buf.truncate(n);
                    // `Bytes::from(Vec)` adopts the allocation; frames
                    // wholly inside this read are sliced, not copied —
                    // and pin it, so the unread tail is released first.
                    buf.shrink_to_fit();
                    if let Err(e) = dec.feed(Bytes::from(buf), &mut frames) {
                        let _ = tx.send(Err(e)).await;
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if stream.readable().await.is_err() {
                        break 'io;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(NetError::from(e))).await;
                    return;
                }
            }
        }
        for frame in frames.drain(..) {
            if tx.send(Ok(frame)).await.is_err() {
                // Consumer hung up; stop reading.
                return;
            }
        }
    }
    // EOF (or torn stream): deliver any frame completed by the final
    // read, then drop `tx` so the consumer observes `Closed`.
    for frame in frames.drain(..) {
        if tx.send(Ok(frame)).await.is_err() {
            return;
        }
    }
}

/// Writer task body: drain the queue, batch, write vectored.
async fn writer(
    stream: Arc<TcpStream>,
    mut rx: mpsc::Receiver<WriteItem>,
    closed: Arc<AtomicBool>,
) {
    let mut batch: Vec<Bytes> = Vec::new();
    loop {
        let first = match rx.recv().await {
            Some(item) => item,
            None => {
                // Facade dropped without close(); still send FIN.
                let _ = stream.shutdown_std(Shutdown::Write);
                return;
            }
        };
        let mut items = vec![first];
        while let Ok(item) = rx.try_recv() {
            items.push(item);
        }
        let mut do_close = false;
        for item in items {
            match item {
                WriteItem::Frame(b) => batch.push(b),
                WriteItem::Held(b, deadline) => {
                    // Everything queued before the hold goes out first.
                    if flush(&stream, &mut batch).await.is_err() {
                        return;
                    }
                    tokio::time::sleep_until(deadline).await;
                    if closed.load(Ordering::Acquire) {
                        // close() cancels parked frames.
                        continue;
                    }
                    batch.push(b);
                }
                WriteItem::Close => {
                    do_close = true;
                    break;
                }
            }
        }
        if flush(&stream, &mut batch).await.is_err() {
            return;
        }
        if do_close {
            let _ = stream.shutdown_std(Shutdown::Both);
            return;
        }
    }
}

/// Write the whole batch as (a minimal number of) vectored writes.
async fn flush(stream: &TcpStream, batch: &mut Vec<Bytes>) -> io::Result<()> {
    if batch.is_empty() {
        return Ok(());
    }
    let headers: Vec<[u8; HEADER_LEN]> = batch.iter().map(|b| encode_header(b.len())).collect();
    let total: usize = batch.iter().map(|b| HEADER_LEN + b.len()).sum();
    let mut written = 0usize;
    while written < total {
        // Rebuild the slice list past what has already gone out; cheap
        // relative to the syscall it feeds.
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity((batch.len() * 2).min(MAX_SLICES));
        let mut skip = written;
        'build: for (i, b) in batch.iter().enumerate() {
            for part in [&headers[i][..], b.as_slice()] {
                if skip >= part.len() {
                    skip -= part.len();
                    continue;
                }
                slices.push(IoSlice::new(&part[skip..]));
                skip = 0;
                if slices.len() == MAX_SLICES {
                    break 'build;
                }
            }
        }
        match stream.try_write_vectored(&slices) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => stream.writable().await?,
            Err(e) => return Err(e),
        }
    }
    batch.clear();
    Ok(())
}
