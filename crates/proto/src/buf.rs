//! Byte-cursor traits used by the wire codec. These mirror the subset of
//! the `bytes` crate's `Buf`/`BufMut` that the codec needs, implemented for
//! plain `&[u8]` readers and `Vec<u8>` writers so the crate has no external
//! dependency.

/// A readable byte cursor.
pub trait Buf {
    /// Number of unread bytes.
    fn remaining(&self) -> usize;

    /// Whether any unread bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte. Panics if empty; callers check `has_remaining`.
    fn get_u8(&mut self) -> u8;

    /// Reads a little-endian `u64`. Panics if fewer than 8 bytes remain;
    /// callers check `remaining`.
    fn get_u64_le(&mut self) -> u64;

    /// Discards the next `n` bytes. Panics if fewer than `n` remain.
    fn advance(&mut self, n: usize);
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let (first, rest) = self.split_first().expect("get_u8 on empty buffer");
        *self = rest;
        *first
    }

    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        u64::from_le_bytes(head.try_into().unwrap())
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    fn get_u8(&mut self) -> u8 {
        (**self).get_u8()
    }
    fn get_u64_le(&mut self) -> u64 {
        (**self).get_u64_le()
    }
    fn advance(&mut self, n: usize) {
        (**self).advance(n)
    }
}

/// A growable byte sink.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, value: u8);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, value: u64);
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, value: u8) {
        self.push(value);
    }
    fn put_u64_le(&mut self, value: u64) {
        self.extend_from_slice(&value.to_le_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_u8(&mut self, value: u8) {
        (**self).put_u8(value)
    }
    fn put_u64_le(&mut self, value: u64) {
        (**self).put_u64_le(value)
    }
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_cursor_reads_and_advances() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let mut cursor: &[u8] = &data;
        assert_eq!(cursor.get_u8(), 1);
        assert_eq!(cursor.get_u8(), 2);
        assert_eq!(
            cursor.get_u64_le(),
            u64::from_le_bytes([3, 4, 5, 6, 7, 8, 9, 10])
        );
        assert!(!cursor.has_remaining());
    }

    #[test]
    fn vec_sink_appends() {
        let mut out = Vec::new();
        out.put_u8(0xAB);
        out.put_u64_le(1);
        out.put_slice(&[9, 9]);
        assert_eq!(out.len(), 11);
        assert_eq!(out[0], 0xAB);
        assert_eq!(&out[9..], &[9, 9]);
    }
}
