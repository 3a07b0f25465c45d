//! The wire framing, factored out of the socket loop so it is a pure,
//! fuzzable state machine: 4-byte little-endian length prefix, then
//! the payload, with frames arriving in arbitrarily batched or
//! coalesced reads.
//!
//! The decoder is **zero-copy for coalesced frames**: a frame lying
//! entirely inside one fed chunk is sliced out of it (sharing the
//! chunk's allocation), never copied. A frame spanning chunks is
//! assembled into a buffer of its own — one copy, no reallocation,
//! and, once a connection is warm, no fresh memory either — and a
//! hostile length prefix is rejected *before* any allocation.
//!
//! On the way out a payload is a [`Frame`]: parts whose concatenation
//! is the payload, so a bulk byte string can go to the socket from the
//! buffer that holds it instead of being copied into a message buffer
//! first.

use crate::{NetError, MAX_FRAME_LEN};
use bytes::Bytes;

/// Length-prefix size in bytes.
pub const HEADER_LEN: usize = 4;

/// The shortest spanning frame whose buffer the decoder keeps for the
/// next one: glibc's default mmap threshold. A shorter buffer, freed,
/// stays in the heap's free lists for the next allocation anyway, so
/// keeping it would only add to what the process holds.
const SPARE_MIN: usize = 128 * 1024;

/// Encode the length prefix for a payload of `len` bytes.
///
/// # Panics
/// Panics when `len` exceeds [`MAX_FRAME_LEN`] — callers validate
/// before framing.
pub fn encode_header(len: usize) -> [u8; HEADER_LEN] {
    assert!(len <= MAX_FRAME_LEN, "frame of {len} bytes exceeds cap");
    (len as u32).to_le_bytes()
}

/// One outbound payload, given as parts whose concatenation is the
/// payload. The wire never sees the parts: a `tcp://` write gathers
/// them behind the frame's header, and a path that needs the payload
/// as one buffer — the `inproc://` queue, a fault sequencer — calls
/// [`Frame::join`] once. `Bytes` converts into a one-part frame.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    /// Non-empty parts, in order.
    parts: Vec<Bytes>,
    len: usize,
}

impl Frame {
    /// An empty payload.
    pub fn new() -> Frame {
        Frame::default()
    }

    /// Append `part` to the payload (an empty part is skipped).
    pub fn push(&mut self, part: Bytes) {
        if !part.is_empty() {
            self.len += part.len();
            self.parts.push(part);
        }
    }

    /// Payload length: the sum of the parts'.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for an empty payload.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The parts, in order.
    pub fn parts(&self) -> &[Bytes] {
        &self.parts
    }

    /// The payload as one buffer: a one-part frame's part itself, or
    /// else every part copied once into one exact-size allocation.
    pub fn join(&self) -> Bytes {
        match self.parts.as_slice() {
            [] => Bytes::new(),
            [only] => only.clone(),
            parts => {
                let mut buf = Vec::with_capacity(self.len);
                for part in parts {
                    buf.extend_from_slice(part);
                }
                Bytes::from(buf)
            }
        }
    }
}

impl From<Bytes> for Frame {
    fn from(payload: Bytes) -> Frame {
        let mut frame = Frame::new();
        frame.push(payload);
        frame
    }
}

/// A frame mid-assembly: spans chunk boundaries, so it gets a buffer
/// of exactly its length — the decoder's spare or a fresh zeroed one —
/// filled front to back.
struct Partial {
    buf: Vec<u8>,
    /// Bytes of `buf` received so far.
    filled: usize,
}

/// Incremental frame decoder. Feed it reads as they arrive; it yields
/// complete frames in order and fails exactly once on a corrupt
/// length prefix (after which the stream is desynchronized and the
/// decoder refuses further input).
///
/// A spanning frame of at least 128 KiB is read into the last such
/// frame's buffer when every view of that frame has dropped and the
/// buffer's capacity is between the new length and twice it; otherwise
/// the old buffer is let go and a fresh zeroed one allocated. A bulk
/// reply dropped before the next arrives thus lands in memory already
/// mapped, and a kept frame pins at most twice its bytes. Retention:
/// one idle buffer per decoder at most, the last such frame's, with a
/// capacity of at most twice that frame's length.
#[derive(Default)]
pub struct FrameDecoder {
    /// Partially received header bytes (< 4).
    header: [u8; HEADER_LEN],
    header_len: usize,
    partial: Option<Partial>,
    poisoned: bool,
    /// The last spanning frame of at least [`SPARE_MIN`] bytes, held to
    /// take its buffer back.
    spare: Bytes,
}

impl FrameDecoder {
    /// A fresh decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Feed one read's worth of bytes; complete frames are appended to
    /// `out`. Frames fully contained in `chunk` share its allocation.
    pub fn feed(&mut self, chunk: Bytes, out: &mut Vec<Bytes>) -> Result<(), NetError> {
        if self.poisoned {
            return Err(NetError::FrameTooLarge(0));
        }
        let mut cursor = chunk;
        while !cursor.is_empty() {
            // Continue an in-flight spanning frame first.
            if let Some(Partial { buf, filled }) = &mut self.partial {
                let take = (buf.len() - *filled).min(cursor.len());
                buf[*filled..*filled + take].copy_from_slice(&cursor.as_slice()[..take]);
                cursor.advance_by(take);
                self.advance(take, out);
                continue;
            }
            // Assemble the 4-byte header (it too can split across reads).
            if self.header_len < HEADER_LEN {
                let take = (HEADER_LEN - self.header_len).min(cursor.len());
                self.header[self.header_len..self.header_len + take]
                    .copy_from_slice(&cursor.as_slice()[..take]);
                self.header_len += take;
                cursor.advance_by(take);
                if self.header_len < HEADER_LEN {
                    return Ok(());
                }
            }
            let len = u32::from_le_bytes(self.header) as usize;
            if len > MAX_FRAME_LEN {
                // Reject before allocating; the stream is now desynced
                // for good.
                self.poisoned = true;
                return Err(NetError::FrameTooLarge(len));
            }
            self.header_len = 0;
            if cursor.len() >= len {
                // Whole payload already here: zero-copy slice.
                out.push(cursor.slice(0..len));
                cursor.advance_by(len);
            } else {
                // Spans reads: exact-size assembly buffer.
                let filled = cursor.len();
                let mut buf = self.assembly_buffer(len);
                buf[..filled].copy_from_slice(cursor.as_slice());
                cursor.advance_by(filled);
                self.partial = Some(Partial { buf, filled });
            }
        }
        Ok(())
    }

    /// A `len`-byte buffer for a spanning frame: the spare's, when
    /// nothing else holds it and it fits (see [`FrameDecoder`]).
    fn assembly_buffer(&mut self, len: usize) -> Vec<u8> {
        if len >= SPARE_MIN {
            if let Ok(mut buf) = std::mem::take(&mut self.spare).try_into_vec() {
                if (len..=2 * len).contains(&buf.capacity()) {
                    buf.resize(len, 0);
                    return buf;
                }
            }
        }
        vec![0; len]
    }

    /// Direct-fill window for a large spanning frame: the unfilled tail
    /// of the assembly buffer, so a reader can `read(2)` straight into
    /// it and skip the scratch-buffer copy. `None` when no spanning
    /// frame is in flight (or it is nearly done).
    pub fn pending_space(&mut self) -> Option<&mut [u8]> {
        const DIRECT_MIN: usize = 4096;
        let Partial { buf, filled } = self.partial.as_mut()?;
        (buf.len() - *filled >= DIRECT_MIN).then(|| &mut buf[*filled..])
    }

    /// Record `n` bytes read directly into [`FrameDecoder::pending_space`];
    /// pushes the frame once complete.
    pub fn commit_direct(&mut self, n: usize, out: &mut Vec<Bytes>) {
        let partial = self.partial.as_ref().expect("no pending frame");
        assert!(
            partial.filled + n <= partial.buf.len(),
            "direct fill overruns frame"
        );
        self.advance(n, out);
    }

    /// Count `n` more bytes of the spanning frame as received, pushing
    /// it once complete.
    fn advance(&mut self, n: usize, out: &mut Vec<Bytes>) {
        let partial = self.partial.as_mut().expect("no pending frame");
        partial.filled += n;
        if partial.filled == partial.buf.len() {
            let done = self.partial.take().expect("partial present");
            let frame = Bytes::from(done.buf);
            if frame.len() >= SPARE_MIN {
                self.spare = frame.clone();
            }
            out.push(frame);
        }
    }

    /// True at a clean frame boundary (no partial header or payload).
    pub fn is_at_boundary(&self) -> bool {
        !self.poisoned && self.header_len == 0 && self.partial.is_none()
    }
}

/// Tiny extension: advance a `Bytes` cursor in place.
trait AdvanceBy {
    fn advance_by(&mut self, n: usize);
}

impl AdvanceBy for Bytes {
    fn advance_by(&mut self, n: usize) {
        let _ = self.split_to(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut v = encode_header(payload.len()).to_vec();
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn a_frame_joins_its_parts_once_and_a_single_part_not_at_all() {
        let body = Bytes::from(vec![9u8; 1000]);
        let one = Frame::from(body.clone());
        assert_eq!(one.join().as_ptr(), body.as_ptr());
        let mut gathered = Frame::new();
        for part in [&b"head"[..], b"", &body, b"tail"] {
            gathered.push(Bytes::copy_from_slice(part));
        }
        assert_eq!(gathered.parts().len(), 3);
        assert_eq!(gathered.len(), 1008);
        let joined = gathered.join();
        assert_eq!(joined.storage_capacity(), 1008);
        assert_eq!(&joined[..4], b"head");
        assert_eq!(&joined[4..1004], &body[..]);
        assert_eq!(&joined[1004..], b"tail");
        assert!(Frame::new().join().is_empty());
    }

    #[test]
    fn coalesced_frames_decode_zero_copy() {
        let mut wire = frame(b"alpha");
        wire.extend_from_slice(&frame(b""));
        wire.extend_from_slice(&frame(b"beta"));
        let chunk = Bytes::from(wire);
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        dec.feed(chunk.clone(), &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], b"alpha"[..]);
        assert_eq!(out[1], b""[..]);
        assert_eq!(out[2], b"beta"[..]);
        // Zero-copy: the first frame's bytes live inside the fed chunk.
        assert_eq!(out[0].as_ptr(), chunk.as_slice()[HEADER_LEN..].as_ptr());
        assert!(dec.is_at_boundary());
    }

    #[test]
    fn byte_by_byte_arrival_decodes_identically() {
        let mut wire = frame(b"drip-fed payload");
        wire.extend_from_slice(&frame(&[7u8; 300]));
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in wire {
            dec.feed(Bytes::from(vec![b]), &mut out).unwrap();
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], b"drip-fed payload"[..]);
        assert_eq!(out[1], vec![7u8; 300]);
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocating() {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let err = dec.feed(Bytes::from(u32::MAX.to_le_bytes().to_vec()), &mut out);
        assert!(matches!(err, Err(NetError::FrameTooLarge(_))));
        assert!(out.is_empty());
        // Poisoned: refuses further input rather than resyncing wrong.
        assert!(dec.feed(Bytes::from_static(b"junk"), &mut out).is_err());
    }

    #[test]
    fn direct_fill_path_assembles_large_frames() {
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let wire = frame(&payload);
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        // First read delivers the header + a sliver.
        dec.feed(Bytes::from(wire[..HEADER_LEN + 100].to_vec()), &mut out)
            .unwrap();
        assert!(out.is_empty());
        let mut offset = HEADER_LEN + 100;
        while out.is_empty() {
            let space = dec.pending_space().expect("large frame pending");
            let n = space.len().min(wire.len() - offset).min(8192);
            space[..n].copy_from_slice(&wire[offset..offset + n]);
            offset += n;
            dec.commit_direct(n, &mut out);
            if out.is_empty() && wire.len() - offset < 4096 {
                // Tail smaller than the direct threshold: feed normally.
                dec.feed(Bytes::from(wire[offset..].to_vec()), &mut out)
                    .unwrap();
                break;
            }
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_slice(), payload.as_slice());
    }

    /// `len` bytes that differ from frame to frame (`tag`).
    fn payload(tag: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + tag * 31) as u8).collect()
    }

    /// Feed one frame in two reads, so it spans them, and return it.
    fn spanning(dec: &mut FrameDecoder, body: &[u8]) -> Bytes {
        let wire = frame(body);
        let mut out = Vec::new();
        dec.feed(Bytes::from(wire[..HEADER_LEN + 1].to_vec()), &mut out)
            .unwrap();
        dec.feed(Bytes::from(wire[HEADER_LEN + 1..].to_vec()), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        out.pop().unwrap()
    }

    #[test]
    fn a_spanning_frame_takes_the_last_ones_buffer_once_no_view_is_left() {
        const BIG: usize = 2 * SPARE_MIN;
        let mut dec = FrameDecoder::new();
        let first = spanning(&mut dec, &payload(0, BIG));
        let (ptr, view) = (first.as_ptr(), first.slice(100..200));
        drop(first);
        drop(view);
        let same = spanning(&mut dec, &payload(1, BIG));
        assert_eq!((same.as_ptr(), same.storage_capacity()), (ptr, BIG));
        assert_eq!(same.as_slice(), payload(1, BIG));
        drop(same);
        // Down to half the capacity still fits, and so does growing
        // back within it; a short spanning frame leaves the spare be.
        let shorter = spanning(&mut dec, &payload(2, BIG / 2));
        assert_eq!(shorter.as_ptr(), ptr);
        assert_eq!(shorter.as_slice(), payload(2, BIG / 2));
        drop(shorter);
        let short = spanning(&mut dec, &payload(3, 1000));
        assert_eq!(short.storage_capacity(), 1000);
        drop(short);
        let longer = spanning(&mut dec, &payload(4, BIG - 1));
        assert_eq!(longer.as_ptr(), ptr);
        assert_eq!(longer.as_slice(), payload(4, BIG - 1));
    }

    #[test]
    fn a_buffer_is_never_taken_while_a_view_of_it_lives() {
        const LEN: usize = SPARE_MIN + 1000;
        let mut dec = FrameDecoder::new();
        let held = spanning(&mut dec, &payload(0, LEN));
        let part = held.slice(1_000..2_000);
        for tag in 1..=3 {
            let next = spanning(&mut dec, &payload(tag, LEN));
            assert_eq!(next.as_slice(), payload(tag, LEN));
            assert_ne!(next.as_ptr(), held.as_ptr());
        }
        assert_eq!(held.as_slice(), payload(0, LEN));
        assert_eq!(part.as_slice(), &payload(0, LEN)[1_000..2_000]);
    }

    #[test]
    fn a_frame_the_spare_does_not_fit_gets_a_fresh_buffer() {
        // Larger than the spare's capacity: growing it would copy it.
        let mut dec = FrameDecoder::new();
        drop(spanning(&mut dec, &payload(0, SPARE_MIN)));
        let larger = spanning(&mut dec, &payload(1, 3 * SPARE_MIN / 2));
        assert_eq!(larger.storage_capacity(), 3 * SPARE_MIN / 2);
        assert_eq!(larger.as_slice(), payload(1, 3 * SPARE_MIN / 2));
        drop(larger);
        // Under half of it: the frame would pin the rest.
        drop(spanning(&mut dec, &payload(2, 4 * SPARE_MIN)));
        let smaller = spanning(&mut dec, &payload(3, 3 * SPARE_MIN / 2));
        assert_eq!(smaller.storage_capacity(), 3 * SPARE_MIN / 2);
        assert_eq!(smaller.as_slice(), payload(3, 3 * SPARE_MIN / 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random frame sizes, short and past the spare threshold, in
        /// random read splits (some frames end a read, as a reply does
        /// when the next one waits for a request), with each delivered
        /// frame dropped, kept whole or kept as a slice: every frame is
        /// byte-exact when delivered, and every kept one still is at
        /// the end.
        #[test]
        fn reused_buffers_never_corrupt_a_frame(
            lens in prop::collection::vec(0usize..3000, 1..24),
            large in prop::collection::vec(any::<bool>(), 1..8),
            cuts in prop::collection::vec(1usize..5000, 1..20),
            ends_read in prop::collection::vec(any::<bool>(), 1..8),
            keeps in prop::collection::vec(0u8..6, 1..16),
        ) {
            let lens: Vec<usize> = lens
                .iter()
                .enumerate()
                .map(|(tag, &len)| match large[tag % large.len()] {
                    true => SPARE_MIN + 40 * len,
                    false => len,
                })
                .collect();
            let (mut wire, mut read_ends) = (Vec::new(), Vec::new());
            for (tag, &len) in lens.iter().enumerate() {
                wire.extend_from_slice(&frame(&payload(tag, len)));
                if ends_read[tag % ends_read.len()] {
                    read_ends.push(wire.len());
                }
            }
            let mut dec = FrameDecoder::new();
            let (mut out, mut kept, mut delivered) = (Vec::new(), Vec::new(), 0);
            let (mut rest, mut at) = (Bytes::from(wire), 0);
            for i in 0.. {
                if rest.is_empty() {
                    break;
                }
                let mut take = cuts[i % cuts.len()].min(rest.len());
                if let Some(end) = read_ends.iter().find(|&&end| end > at) {
                    take = take.min(end - at);
                }
                at += take;
                dec.feed(rest.split_to(take), &mut out).unwrap();
                for got in out.drain(..) {
                    let tag = delivered;
                    delivered += 1;
                    prop_assert_eq!(got, payload(tag, lens[tag]));
                    match keeps[tag % keeps.len()] {
                        0 => kept.push((tag, 0..got.len(), got)),
                        1 => {
                            let range = got.len() / 3..got.len() / 2;
                            kept.push((tag, range.clone(), got.slice(range)));
                        }
                        _ => {}
                    }
                }
            }
            prop_assert_eq!(delivered, lens.len());
            for (tag, range, got) in kept {
                prop_assert_eq!(got.as_slice(), &payload(tag, lens[tag])[range]);
            }
        }
    }
}
