//! Field serialization for transport through the space and DART, and
//! the one bounds-checked wire cursor ([`Rd`]) every RPC codec in
//! `sitra-dataspaces` and `sitra-cluster` decodes with.

use crate::remote::RemoteError;
use bytes::{BufMut, Bytes, BytesMut};
use sitra_mesh::{BBox3, ScalarField};

/// A bounds-checked read cursor over one frame. Total: every accessor
/// returns [`RemoteError::Proto`] instead of panicking on short or
/// malformed input, so a decoder built from it never panics either.
pub struct Rd {
    buf: Bytes,
    pos: usize,
}

impl Rd {
    /// A cursor at the start of `buf`.
    pub fn new(buf: Bytes) -> Self {
        Rd { buf, pos: 0 }
    }

    /// Bytes not yet consumed (bound element counts against this
    /// before allocating for them).
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], RemoteError> {
        if self.remaining() < N {
            return Err(RemoteError::Proto("truncated".into()));
        }
        let mut a = [0u8; N];
        a.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, RemoteError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, RemoteError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, RemoteError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32`-length-prefixed byte string (zero-copy slice of the
    /// frame).
    pub fn bytes(&mut self) -> Result<Bytes, RemoteError> {
        let n = self.u32()? as usize;
        if self.remaining() < n {
            return Err(RemoteError::Proto("truncated payload".into()));
        }
        let b = self.buf.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(b)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, RemoteError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| RemoteError::Proto("non-utf8 string".into()))
    }

    /// Succeeds only when the whole frame was consumed.
    pub fn finish(self) -> Result<(), RemoteError> {
        if self.remaining() != 0 {
            return Err(RemoteError::Proto("trailing bytes".into()));
        }
        Ok(())
    }
}

/// Write `data` the way [`Rd::bytes`] / [`Rd::string`] read it back.
pub fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
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

/// Reconstruct a field over `bbox` from little-endian f64 bytes. Panics
/// if the byte length does not match the region.
pub fn bytes_to_field(bbox: BBox3, data: &Bytes) -> ScalarField {
    assert_eq!(
        data.len(),
        bbox.count() * 8,
        "payload length does not match region"
    );
    let mut vals = Vec::with_capacity(bbox.count());
    for c in data.chunks_exact(8) {
        vals.push(f64::from_le_bytes(c.try_into().unwrap()));
    }
    ScalarField::from_vec(bbox, vals)
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
        assert_eq!(bytes_to_field(b, &bytes), f);
    }

    #[test]
    fn preserves_special_values() {
        let b = BBox3::from_dims([4, 1, 1]);
        let f = ScalarField::from_vec(b, vec![f64::NAN, f64::INFINITY, -0.0, 1e-300]);
        let back = bytes_to_field(b, &field_to_bytes(&f));
        assert!(back.get_linear(0).is_nan());
        assert_eq!(back.get_linear(1), f64::INFINITY);
        assert_eq!(back.get_linear(2).to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.get_linear(3), 1e-300);
    }

    #[test]
    #[should_panic]
    fn wrong_length_panics() {
        let b = BBox3::from_dims([2, 2, 2]);
        let _ = bytes_to_field(b, &Bytes::from(vec![0u8; 7]));
    }
}
