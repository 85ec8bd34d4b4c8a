//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! a minimal substitute (see `crates/compat/README.md`). It is
//! *functional*: the 6P codec really encodes and decodes through it.
//! [`Bytes`]/[`BytesMut`] are thin wrappers over `Vec<u8>` (no
//! refcounted zero-copy slicing — the one semantic the real crate adds
//! that nothing here needs), and [`Buf`]/[`BufMut`] cover the big-endian
//! cursor operations the codec uses.

use std::ops::Deref;

/// An immutable byte buffer (here: an owned `Vec<u8>`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes(Vec<u8>);

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes(Vec::new())
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(data.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(v)
    }
}

/// A growable byte buffer under construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// Creates an empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Read access to a byte cursor; big-endian, like the real crate.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Skips `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    fn advance(&mut self, n: usize);

    /// Consumes one byte.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Consumes a big-endian `u16`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 bytes remain.
    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Consumes a big-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 4 bytes remain.
    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Write access to a byte sink; big-endian, like the real crate.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_big_endian() {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u8(0xAB);
        buf.put_u16(0x0102);
        buf.put_u32(0xDEADBEEF);
        let frozen = buf.freeze();
        let mut cursor: &[u8] = &frozen;
        assert_eq!(cursor.remaining(), 7);
        assert_eq!(cursor.get_u8(), 0xAB);
        assert_eq!(cursor.get_u16(), 0x0102);
        assert_eq!(cursor.get_u32(), 0xDEADBEEF);
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn advance_narrows_slice() {
        let data = [1u8, 2, 3, 4];
        let mut cursor: &[u8] = &data;
        cursor.advance(2);
        assert_eq!(cursor.chunk(), &[3, 4]);
    }
}
