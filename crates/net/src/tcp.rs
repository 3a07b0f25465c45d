//! TCP connection internals: a connection owns its socket, and whoever
//! calls it does the I/O — there is no queue or thread between a `send`
//! and the `write(2)`, or between the `read(2)` and a `recv`. (A fault
//! hold gives a connection a sequencer thread that does its writes from
//! then on, [`crate::conn`]; fault-free connections never have one.)
//!
//! * **Writes** are vectored: the frames of one call go out as
//!   `[hdr, part, part, ..., hdr, part, ...]` in one `writev` (resumed
//!   mid-header or mid-part when the kernel takes less), under a
//!   per-connection write lock, so frames sent from two threads never
//!   interleave. A [`crate::Frame`]'s parts are never joined here: a
//!   bulk byte string goes to the kernel from the buffer that holds
//!   it. A burst that should share a syscall says so itself
//!   ([`crate::Connection::send_all`]); nothing coalesces behind the
//!   caller's back.
//! * **Reads** go through a connection-owned
//!   [`crate::frame::FrameDecoder`]. One read may complete several
//!   frames; the extra ones wait in the connection and later receives
//!   take them without a syscall. A timeout only ever applies *between*
//!   reads, so a partial frame stays in the decoder and the stream
//!   never desynchronises. Large spanning frames are read directly into
//!   their buffer via the decoder's direct-fill window; once nothing
//!   holds the last one's, the next reuses it.
//! * **Backpressure** is the socket's own: a sender blocks in `write`
//!   when the peer stops reading, and not reading is all a slow
//!   consumer has to do.
//! * **Close** is `shutdown(2)`: everything written before it is
//!   already the kernel's and reaches the peer ahead of the FIN, and a
//!   `recv` blocked on another thread wakes at once.

use crate::frame::{encode_header, Frame, FrameDecoder, HEADER_LEN};
use crate::NetError;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::Shutdown;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How many requests a client may leave unanswered on one connection.
///
/// Nothing but the two sockets' buffers sits between the ends, so a
/// connection wedges exactly when both block in `write` at once: the
/// client writing a request the server is not reading, because the
/// server is writing a reply the client is not reading. A client that
/// reads a reply before going past this many unanswered requests keeps
/// one direction of every window far below the smallest socket buffer
/// (16 KiB send + 128 KiB receive by default on Linux), whichever way
/// the bytes flow: a window of `Put`s, however large, is answered by
/// 128 five-byte `Ok`s, so the server never blocks writing and always
/// returns to reading; a window of `Get`s is 128 requests of a few
/// dozen bytes, so the client never blocks writing and always reaches
/// its reads, however large the replies. (What would wedge is a window
/// that is large *both* ways; no request has a large body and a large
/// reply. `inproc://` queues are unbounded.)
pub const PIPELINE_DEPTH: usize = 128;
/// Scratch read size for the coalescing read path.
const READ_CHUNK: usize = 16 * 1024;
/// IOV_MAX on Linux: cap a single vectored write's slice count.
const MAX_SLICES: usize = 1024;

/// `frames` as they go on the wire: each header, then its frame's parts.
fn wire_slices<'a>(headers: &'a [[u8; HEADER_LEN]], frames: &'a [Frame]) -> Vec<IoSlice<'a>> {
    headers
        .iter()
        .zip(frames)
        .flat_map(|(h, f)| {
            let parts = f.parts().iter().map(|p| IoSlice::new(p.as_slice()));
            std::iter::once(IoSlice::new(h)).chain(parts)
        })
        .collect()
}

/// Push all of `slices` through `write` (one vectored write per call),
/// picking up after a partial write wherever it stopped — mid-header
/// and mid-part included.
fn write_all_vectored(
    mut rest: &mut [IoSlice<'_>],
    mut write: impl FnMut(&[IoSlice<'_>]) -> io::Result<usize>,
) -> io::Result<()> {
    while !rest.is_empty() {
        let upto = rest.len().min(MAX_SLICES);
        match write(&rest[..upto]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn headers_of(frames: &[Frame]) -> Vec<[u8; HEADER_LEN]> {
    frames.iter().map(|f| encode_header(f.len())).collect()
}

/// The receive side of one socket: the decoder and the frames it has
/// completed but nobody has asked for yet.
#[derive(Default)]
struct Inbound {
    dec: FrameDecoder,
    /// Decoded frames, oldest first.
    ready: VecDeque<Bytes>,
    /// The decoder's output buffer, kept for its capacity.
    fresh: Vec<Bytes>,
}

/// The socket of one blocking [`crate::Connection`].
pub(crate) struct TcpIo {
    stream: std::net::TcpStream,
    /// Held for the whole of one `write_frames`: bytes of different
    /// calls never interleave.
    write: Mutex<()>,
    inbound: Mutex<Inbound>,
    /// Socket syscalls that moved bytes, here and in `/metrics`.
    writes: (AtomicU64, sitra_obs::Counter),
    reads: (AtomicU64, sitra_obs::Counter),
}

impl TcpIo {
    pub(crate) fn new(stream: std::net::TcpStream, peer: &str) -> TcpIo {
        let _ = stream.set_nodelay(true);
        let reg = sitra_obs::global();
        let named = |metric: &str| reg.counter(&format!("net.conn.{metric}{{peer={peer}}}"));
        TcpIo {
            stream,
            write: Mutex::new(()),
            inbound: Mutex::new(Inbound::default()),
            writes: (AtomicU64::new(0), named("writes")),
            reads: (AtomicU64::new(0), named("reads")),
        }
    }

    /// Write `frames` back to back: one vectored write, more only when
    /// the kernel takes part of it (or past `IOV_MAX` slices).
    pub(crate) fn write_frames(&self, frames: &[Frame]) -> Result<(), NetError> {
        let headers = headers_of(frames);
        let mut slices = wire_slices(&headers, frames);
        let _turn = self.write.lock();
        write_all_vectored(&mut slices, |bufs| {
            let n = (&self.stream).write_vectored(bufs)?;
            self.writes.0.fetch_add(1, Ordering::Relaxed);
            self.writes.1.inc();
            Ok(n)
        })?;
        Ok(())
    }

    /// The next frame. `timeout` bounds the wait for bytes (`None`:
    /// wait for ever; zero: take only what has already arrived) and is
    /// checked between reads only, so giving up never loses a byte.
    pub(crate) fn read_frame(&self, timeout: Option<Duration>) -> Result<Bytes, NetError> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut inbound = self.inbound.lock();
        loop {
            if let Some(frame) = inbound.ready.pop_front() {
                return Ok(frame);
            }
            if let Some(deadline) = deadline {
                if !crate::sys::poll_readable(self.stream.as_raw_fd(), deadline)? {
                    return Err(NetError::Timeout);
                }
            }
            let Inbound { dec, ready, fresh } = &mut *inbound;
            if let Some(space) = dec.pending_space() {
                // Direct-fill: a large frame mid-assembly reads straight
                // into its own buffer, no scratch hop.
                let n = self.read(space)?;
                dec.commit_direct(n, fresh);
            } else {
                let mut buf = vec![0u8; READ_CHUNK];
                let n = self.read(&mut buf)?;
                buf.truncate(n);
                // `Bytes::from(Vec)` adopts the allocation; frames wholly
                // inside this read are sliced, not copied — and pin it,
                // so the unread tail is released first.
                buf.shrink_to_fit();
                dec.feed(Bytes::from(buf), fresh)?;
            }
            ready.extend(fresh.drain(..));
        }
    }

    /// One `read(2)` that moved bytes; the peer's FIN is `Closed`.
    fn read(&self, buf: &mut [u8]) -> Result<usize, NetError> {
        loop {
            match (&self.stream).read(buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => {
                    self.reads.0.fetch_add(1, Ordering::Relaxed);
                    self.reads.1.inc();
                    return Ok(n);
                }
            }
        }
    }

    /// Whether a receive would return without a syscall. `false` while
    /// another thread is inside a receive.
    pub(crate) fn has_decoded_frame(&self) -> bool {
        self.inbound
            .try_lock()
            .is_some_and(|inbound| !inbound.ready.is_empty())
    }

    /// `(writes, reads)`: socket syscalls that moved bytes.
    pub(crate) fn syscalls(&self) -> (u64, u64) {
        (
            self.writes.0.load(Ordering::Relaxed),
            self.reads.0.load(Ordering::Relaxed),
        )
    }

    /// FIN both directions. Takes no lock, so it lands under (and
    /// fails) a `write` or `read` blocked on another thread.
    pub(crate) fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_accepted_in_pieces_resumes_where_it_stopped() {
        // Frames of 0..40 bytes, every third given as parts of up to 5
        // bytes, taken 1, 2, ... 7 bytes at a time: the cuts fall inside
        // headers, inside parts and on boundaries.
        let payloads: Vec<Bytes> = (0..40u8)
            .map(|i| Bytes::from(vec![i; i as usize]))
            .collect();
        let frames: Vec<Frame> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| match i % 3 {
                0 => {
                    let mut frame = Frame::new();
                    for at in (0..p.len()).step_by(5) {
                        frame.push(p.slice(at..p.len().min(at + 5)));
                    }
                    frame
                }
                _ => Frame::from(p.clone()),
            })
            .collect();
        assert!(frames.iter().any(|f| f.parts().len() > 2));
        let headers = headers_of(&frames);
        let mut slices = wire_slices(&headers, &frames);
        let mut wire = Vec::new();
        let mut calls = 0;
        write_all_vectored(&mut slices, |bufs| {
            calls += 1;
            let flat: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            let n = flat.len().min(1 + calls % 7);
            wire.extend_from_slice(&flat[..n]);
            Ok(n)
        })
        .unwrap();
        let mut got = Vec::new();
        let mut dec = FrameDecoder::new();
        dec.feed(Bytes::from(wire), &mut got).unwrap();
        assert!(dec.is_at_boundary());
        assert_eq!(got, payloads);
    }
}
