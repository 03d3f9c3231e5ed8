//! The allocating length-delimited readers the frozen decoder is written
//! against, frozen with it (the library reads through the zero-copy
//! `take_*` helpers). Every other `wire::` name is the live
//! `harp_proto::wire`.

pub use harp_proto::wire::*;

use harp_proto::buf::Buf;
use harp_types::{HarpError, Result};

/// Reads a length-delimited payload as an owned byte vector.
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] on truncated input.
pub fn get_bytes(buf: &mut impl Buf) -> Result<Vec<u8>> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(HarpError::protocol("truncated length-delimited field"));
    }
    Ok(copy_to_bytes(buf, len))
}

/// Copies the next `len` bytes out and advances past them. Panics if
/// fewer than `len` bytes remain.
fn copy_to_bytes(buf: &mut impl Buf, len: usize) -> Vec<u8> {
    (0..len).map(|_| buf.get_u8()).collect()
}

/// Reads a length-delimited UTF-8 string.
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] on truncated or non-UTF-8 input.
pub fn get_string(buf: &mut impl Buf) -> Result<String> {
    let bytes = get_bytes(buf)?;
    String::from_utf8(bytes).map_err(|_| HarpError::protocol("invalid utf-8 in string field"))
}

/// Reads a packed `u32` sequence from a length-delimited payload.
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] on truncated input or a component that
/// does not fit into `u32`.
pub fn get_packed_u32(buf: &mut impl Buf) -> Result<Vec<u32>> {
    let bytes = get_bytes(buf)?;
    let mut inner = bytes.as_slice();
    let mut out = Vec::new();
    while !inner.is_empty() {
        let v = get_varint(&mut inner)?;
        out.push(
            u32::try_from(v).map_err(|_| HarpError::protocol("packed u32 component too large"))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_to_bytes_splits() {
        let data = [5u8, 6, 7];
        let mut cursor: &[u8] = &data;
        assert_eq!(copy_to_bytes(&mut cursor, 2), vec![5, 6]);
        assert_eq!(cursor.remaining(), 1);
        cursor.advance(1);
        assert!(!cursor.has_remaining());
    }

    #[test]
    fn invalid_utf8_is_error() {
        let mut buf = Vec::new();
        put_bytes_field(&mut buf, 3, &[0xff, 0xfe]);
        let mut slice = buf.as_slice();
        get_key(&mut slice).unwrap();
        assert!(get_string(&mut slice).is_err());
    }

    #[test]
    fn take_helpers_match_allocating_helpers() {
        let mut buf = Vec::new();
        put_str_field(&mut buf, 1, "zéro-copy");
        put_packed_u32_field(&mut buf, 2, &[0, 1, 127, 128, u32::MAX]);

        let mut a = buf.as_slice();
        get_key(&mut a).unwrap();
        let s_owned = get_string(&mut a).unwrap();
        get_key(&mut a).unwrap();
        let p_owned = get_packed_u32(&mut a).unwrap();

        let mut b = buf.as_slice();
        get_key(&mut b).unwrap();
        let s_borrowed = take_str(&mut b).unwrap();
        get_key(&mut b).unwrap();
        let p_borrowed = take_packed_u32(&mut b).unwrap();

        assert_eq!(s_owned, s_borrowed);
        assert_eq!(p_owned, p_borrowed);
    }
}
