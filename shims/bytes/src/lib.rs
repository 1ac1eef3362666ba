//! Minimal stand-in for `bytes` (see shims/README.md): `Bytes` /
//! `BytesMut` over a plain `Vec<u8>` plus the big-endian `Buf` / `BufMut`
//! read/write traits. `advance` is O(n) here — acceptable for the frame
//! sizes this workspace moves.

use std::ops::Deref;

/// Immutable byte buffer (frozen `BytesMut`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: data.to_vec() }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copy out as a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

/// Growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut { data: Vec::with_capacity(capacity) }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Bytes the buffer can hold without reallocating (for retention
    /// accounting: a reader that drained a huge frame should not pin the
    /// huge allocation forever).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Split off and return the first `at` bytes, keeping the rest.
    ///
    /// Panics if `at > len`, matching the real crate.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.data.len(), "split_to out of bounds");
        let rest = self.data.split_off(at);
        BytesMut { data: std::mem::replace(&mut self.data, rest) }
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }

    /// Copy out as a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Big-endian read cursor over a byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes (contiguous in this shim).
    fn chunk(&self) -> &[u8];
    /// Discard the next `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Read one byte. Panics if empty (callers bounds-check first).
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a big-endian u32.
    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(raw)
    }

    /// Read a big-endian u64.
    fn get_u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(raw)
    }

    /// Read a big-endian u128.
    fn get_u128(&mut self) -> u128 {
        let mut raw = [0u8; 16];
        raw.copy_from_slice(&self.chunk()[..16]);
        self.advance(16);
        u128::from_be_bytes(raw)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.data.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.data
    }

    fn advance(&mut self, cnt: usize) {
        self.data.drain(..cnt);
    }
}

/// Big-endian append sink.
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u128.
    fn put_u128(&mut self, v: u128) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
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
    fn put_get_roundtrip() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(7);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(42);
        buf.put_u128(1 << 100);
        buf.put_slice(b"xyz");
        let frozen = buf.freeze();
        let mut cursor: &[u8] = &frozen;
        assert_eq!(cursor.get_u8(), 7);
        assert_eq!(cursor.get_u32(), 0xDEAD_BEEF);
        assert_eq!(cursor.get_u64(), 42);
        assert_eq!(cursor.get_u128(), 1 << 100);
        assert_eq!(cursor, b"xyz");
    }

    #[test]
    fn split_to_and_advance() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"0123456789");
        buf.advance(2);
        let head = buf.split_to(3);
        assert_eq!(&head[..], b"234");
        assert_eq!(&buf[..], b"56789");
        assert_eq!(buf.len(), 5);
    }

    #[test]
    fn slice_buf_advances() {
        let data = [1u8, 2, 3];
        let mut cursor: &[u8] = &data;
        assert_eq!(cursor.remaining(), 3);
        cursor.advance(1);
        assert_eq!(cursor, &[2, 3]);
    }
}
