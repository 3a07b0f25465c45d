//! The workspace's one wire codec: the bounds-checked read cursor
//! ([`Rd`]), its field-tagged error ([`WireError`]), and the byte
//! layouts more than one format shares — a length-prefixed byte string
//! and UTF-8 string, a bbox, and a bounded element count. Every decoder
//! in `sitra-dataspaces` (staging RPC), `sitra-cluster` (membership)
//! and `sitra-core` (analysis intermediates, outputs, task descriptors,
//! steering) reads through [`Rd`], so a layout decision is made here
//! once. Also: field serialization for the
//! space, and [`assemble`], the one routine that turns the pieces of a
//! spatial query into a field.
//!
//! Encoders write into a [`FrameBuf`], which shares a bulk byte string
//! with the frame ([`FrameBuf::put_shared`]) instead of copying it: the
//! encoded message is a [`Frame`] of parts, and `sitra-net` gathers
//! them on the way out.
//!
//! Decoders built on [`Rd`] are total: any byte sequence — truncated,
//! corrupted or adversarial — yields a [`WireError`], never a panic or
//! an allocation sized by a length prefix the bytes cannot back. A read
//! that succeeds allocates nothing beyond the value it returns, and the
//! error is a `Copy` value: its text is only formatted when reported.

use bytes::{BufMut, Bytes, BytesMut};
use sitra_mesh::{BBox3, ScalarField};
use sitra_net::Frame;
use std::ops::{Deref, DerefMut};

/// Decoding failure: the buffer does not hold a valid value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before `field` could be read.
    Truncated {
        /// Name of the field being read when the bytes ran out.
        field: &'static str,
    },
    /// A field was read but its value is structurally invalid.
    Malformed {
        /// Name of the offending field.
        field: &'static str,
    },
    /// Decoding finished with bytes left over (framing mismatch).
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { field } => write!(f, "buffer truncated reading `{field}`"),
            WireError::Malformed { field } => write!(f, "malformed field `{field}`"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after decoded value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked little-endian read cursor over one frame. Every
/// read names the field it reads, which is what a failure reports. The
/// per-value reads are `#[inline]`: decoders in other crates call them
/// in loops over every pixel, vertex and record.
pub struct Rd {
    buf: Bytes,
    pos: usize,
}

impl Rd {
    /// A cursor at the start of `buf`.
    pub fn new(buf: Bytes) -> Self {
        Rd { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes (zero-copy slice of the frame).
    pub fn take(&mut self, n: usize, field: &'static str) -> Result<Bytes, WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { field });
        }
        let b = self.buf.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(b)
    }

    #[inline]
    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], WireError> {
        if self.remaining() < N {
            return Err(WireError::Truncated { field });
        }
        let mut a = [0u8; N];
        a.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.array::<1>(field)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, field: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array(field)?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array(field)?))
    }

    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, field: &'static str) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array(field)?))
    }

    /// A little-endian `f64`.
    #[inline]
    pub fn f64(&mut self, field: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.array(field)?))
    }

    /// The element-count bound: `n` elements of at least `min_size`
    /// bytes each must fit in what is left of the frame, so a corrupt
    /// count cannot drive an unbounded allocation.
    #[inline]
    fn bound(&self, n: u64, min_size: usize, field: &'static str) -> Result<usize, WireError> {
        usize::try_from(n)
            .ok()
            .filter(|n| {
                n.checked_mul(min_size)
                    .is_some_and(|t| t <= self.remaining())
            })
            .ok_or(WireError::Truncated { field })
    }

    /// A `u32` count of elements of at least `min_size` bytes each;
    /// a count the rest of the frame cannot hold is `Truncated`.
    #[inline]
    pub fn count_u32(&mut self, min_size: usize, field: &'static str) -> Result<usize, WireError> {
        let n = self.u32(field)?;
        self.bound(n.into(), min_size, field)
    }

    /// A `u64` count of elements of at least `min_size` bytes each;
    /// a count the rest of the frame cannot hold is `Truncated`.
    #[inline]
    pub fn count_u64(&mut self, min_size: usize, field: &'static str) -> Result<usize, WireError> {
        let n = self.u64(field)?;
        self.bound(n, min_size, field)
    }

    /// A `u32`-length-prefixed byte string, as [`put_bytes`] writes it
    /// (zero-copy slice of the frame).
    pub fn bytes(&mut self, field: &'static str) -> Result<Bytes, WireError> {
        let n = self.u32(field)? as usize;
        self.take(n, field)
    }

    /// A `u32`-length-prefixed UTF-8 string, as [`put_str`] writes it.
    pub fn string(&mut self, field: &'static str) -> Result<String, WireError> {
        let raw = self.bytes(field)?;
        std::str::from_utf8(&raw)
            .map(str::to_owned)
            .map_err(|_| WireError::Malformed { field })
    }

    /// A bbox as [`put_bbox`] writes it; an inverted one (`lo > hi` on
    /// some axis) is malformed.
    pub fn bbox(&mut self, field: &'static str) -> Result<BBox3, WireError> {
        let mut v = [0usize; 6];
        for slot in &mut v {
            *slot = self.u64(field)? as usize;
        }
        let (lo, hi) = ([v[0], v[1], v[2]], [v[3], v[4], v[5]]);
        if lo.iter().zip(&hi).any(|(l, h)| l > h) {
            return Err(WireError::Malformed { field });
        }
        Ok(BBox3::new(lo, hi))
    }

    /// Succeeds only when the whole frame was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }
}

/// A `u32` length prefix, then `data`.
pub fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

/// A string as a [`put_bytes`] byte string of its UTF-8.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// A bbox: `lo` then `hi`, six little-endian `u64`s.
pub fn put_bbox(buf: &mut BytesMut, b: &BBox3) {
    for v in b.lo.iter().chain(b.hi.iter()) {
        buf.put_u64_le(*v as u64);
    }
}

/// Serialize a field's values as little-endian f64 (the bbox travels in
/// the object metadata, not the payload).
pub fn field_to_bytes(field: &ScalarField) -> Bytes {
    let mut out = Vec::with_capacity(field.len() * 8);
    for v in field.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(out)
}

/// The pieces of a spatial query — each a box and its values as
/// [`field_to_bytes`] writes them — assembled into one field over
/// `query`, decoded straight from the piece bytes: points no piece
/// covers are `fill`, and where pieces overlap the later one wins. A
/// piece whose bytes are not one `f64` per point of its box is an
/// error (`Truncated` when short, `TrailingBytes` when long), checked
/// for every piece before its overlap is read.
pub fn assemble(
    query: &BBox3,
    pieces: &[(BBox3, Bytes)],
    fill: f64,
) -> Result<ScalarField, WireError> {
    let mut out = ScalarField::new_fill(*query, fill);
    let qd = query.dims();
    for (bbox, data) in pieces {
        // Hostile dims may overflow the product.
        let d = bbox.dims();
        let want = d[0]
            .checked_mul(d[1])
            .and_then(|v| v.checked_mul(d[2]))
            .and_then(|v| v.checked_mul(8));
        match want {
            Some(n) if n == data.len() => {}
            Some(n) if n < data.len() => {
                return Err(WireError::TrailingBytes {
                    extra: data.len() - n,
                })
            }
            _ => {
                return Err(WireError::Truncated {
                    field: "piece.data",
                })
            }
        }
        let Some(clip) = bbox.intersect(query) else {
            continue;
        };
        let row = clip.dims()[0];
        let dst = out.as_mut_slice();
        for k in clip.lo[2]..clip.hi[2] {
            for j in clip.lo[1]..clip.hi[1] {
                let src0 =
                    ((k - bbox.lo[2]) * d[1] + (j - bbox.lo[1])) * d[0] + (clip.lo[0] - bbox.lo[0]);
                let dst0 = ((k - query.lo[2]) * qd[1] + (j - query.lo[1])) * qd[0]
                    + (clip.lo[0] - query.lo[0]);
                let src = &data[src0 * 8..(src0 + row) * 8];
                for (v, b) in dst[dst0..dst0 + row].iter_mut().zip(src.chunks_exact(8)) {
                    *v = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
                }
            }
        }
    }
    Ok(out)
}

/// A frame under construction. Fixed-width fields and strings are
/// written into one head buffer (the `BufMut` of the `BytesMut` it
/// derefs to); a byte string written with [`Self::put_shared`] keeps
/// its length prefix there and rides as a part of its own, a clone of
/// the caller's `Bytes` rather than a copy.
#[derive(Default)]
pub struct FrameBuf {
    head: BytesMut,
    /// Shared byte strings, each with the head length it follows.
    shared: Vec<(usize, Bytes)>,
}

impl FrameBuf {
    /// An empty frame.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// The [`put_bytes`] layout — a `u32` length prefix, then `data` —
    /// with `data` shared instead of copied.
    pub fn put_shared(&mut self, data: &Bytes) {
        self.head.put_u32_le(data.len() as u32);
        self.shared.push((self.head.len(), data.clone()));
    }

    /// The finished frame: head slices and shared strings, in order.
    pub fn finish(self) -> Frame {
        let head = self.head.freeze();
        let mut frame = Frame::new();
        let mut at = 0;
        for (cut, data) in self.shared {
            frame.push(head.slice(at..cut));
            frame.push(data);
            at = cut;
        }
        frame.push(head.slice(at..));
        frame
    }
}

impl Deref for FrameBuf {
    type Target = BytesMut;
    fn deref(&self) -> &BytesMut {
        &self.head
    }
}

impl DerefMut for FrameBuf {
    fn deref_mut(&mut self) -> &mut BytesMut {
        &mut self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let b = BBox3::new([1, 2, 3], [4, 5, 6]);
        let f = ScalarField::from_fn(b, |p| p[0] as f64 * 0.5 - p[2] as f64);
        let bytes = field_to_bytes(&f);
        assert_eq!(bytes.len(), 27 * 8);
        assert_eq!(assemble(&b, &[(b, bytes)], 0.0).unwrap(), f);
    }

    #[test]
    fn preserves_special_values() {
        let b = BBox3::from_dims([4, 1, 1]);
        let f = ScalarField::from_vec(b, vec![f64::NAN, f64::INFINITY, -0.0, 1e-300]);
        let back = assemble(&b, &[(b, field_to_bytes(&f))], 0.0).unwrap();
        assert!(back.get_linear(0).is_nan());
        assert_eq!(back.get_linear(1), f64::INFINITY);
        assert_eq!(back.get_linear(2).to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.get_linear(3), 1e-300);
    }

    #[test]
    fn a_piece_that_does_not_fill_its_box_is_an_error() {
        let b = BBox3::from_dims([2, 2, 2]);
        let piece = |n: usize| [(b, Bytes::from(vec![0u8; n]))];
        assert_eq!(
            assemble(&b, &piece(7), 0.0),
            Err(WireError::Truncated {
                field: "piece.data"
            })
        );
        assert_eq!(
            assemble(&b, &piece(72), 0.0),
            Err(WireError::TrailingBytes { extra: 8 })
        );
        // Checked even when the piece misses the query.
        let elsewhere = BBox3::new([5, 5, 5], [6, 6, 6]);
        assert!(assemble(&elsewhere, &piece(7), 0.0).is_err());
        // A box whose point count overflows is not backed by any bytes.
        let huge = BBox3::new([0, 0, 0], [usize::MAX, usize::MAX, 2]);
        assert!(assemble(&b, &[(huge, Bytes::new())], 0.0).is_err());
    }

    #[test]
    fn a_frame_buf_shares_its_byte_strings_and_keeps_the_layout() {
        let bulk = Bytes::from(vec![7u8; 300]);
        let mut shared = FrameBuf::new();
        let mut copied = BytesMut::new();
        for buf in [&mut *shared, &mut copied] {
            buf.put_u8(1);
        }
        shared.put_shared(&bulk);
        put_bytes(&mut copied, &bulk);
        for buf in [&mut *shared, &mut copied] {
            put_str(buf, "tail");
        }
        shared.put_shared(&Bytes::new());
        put_bytes(&mut copied, &[]);
        let frame = shared.finish();
        assert!(frame.parts().iter().any(|p| p.as_ptr() == bulk.as_ptr()));
        assert_eq!(frame.join(), copied.freeze());
    }
}
