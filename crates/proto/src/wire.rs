//! Low-level, protobuf-compatible encoding primitives.
//!
//! Wire types follow the protobuf encoding: `0` varint, `1` fixed64,
//! `2` length-delimited. Field keys are `(field_number << 3) | wire_type`.
//! Unknown fields can be skipped, giving the protocol protobuf-style
//! forward compatibility.

use crate::buf::{Buf, BufMut};
use harp_types::{HarpError, Result};

/// Protobuf wire type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Base-128 varint.
    Varint,
    /// Little-endian 8-byte value (used for `f64`).
    Fixed64,
    /// Length-prefixed byte string.
    LengthDelimited,
}

impl WireType {
    fn from_raw(raw: u64) -> Result<WireType> {
        match raw {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            other => Err(HarpError::protocol(format!(
                "unsupported wire type {other}"
            ))),
        }
    }

    fn raw(self) -> u64 {
        match self {
            WireType::Varint => 0,
            WireType::Fixed64 => 1,
            WireType::LengthDelimited => 2,
        }
    }
}

/// Writes a base-128 varint.
pub fn put_varint(buf: &mut impl BufMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a base-128 varint.
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] on truncated input or a varint longer
/// than 10 bytes.
pub fn get_varint(buf: &mut impl Buf) -> Result<u64> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        if !buf.has_remaining() {
            return Err(HarpError::protocol("truncated varint"));
        }
        let byte = buf.get_u8();
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(HarpError::protocol("varint longer than 10 bytes"))
}

/// Writes a field key.
pub fn put_key(buf: &mut impl BufMut, field: u32, wire: WireType) {
    put_varint(buf, (u64::from(field) << 3) | wire.raw());
}

/// Reads a field key, returning `(field_number, wire_type)`.
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] on truncated input or an unsupported
/// wire type.
pub fn get_key(buf: &mut impl Buf) -> Result<(u32, WireType)> {
    let key = get_varint(buf)?;
    let wire = WireType::from_raw(key & 0x7)?;
    Ok(((key >> 3) as u32, wire))
}

/// Writes a varint field (key + value).
pub fn put_uint_field(buf: &mut impl BufMut, field: u32, value: u64) {
    put_key(buf, field, WireType::Varint);
    put_varint(buf, value);
}

/// Writes an `f64` field as fixed64 (key + little-endian bits).
pub fn put_f64_field(buf: &mut impl BufMut, field: u32, value: f64) {
    put_key(buf, field, WireType::Fixed64);
    buf.put_u64_le(value.to_bits());
}

/// Writes a length-delimited field (key + length + bytes).
pub fn put_bytes_field(buf: &mut impl BufMut, field: u32, bytes: &[u8]) {
    put_key(buf, field, WireType::LengthDelimited);
    put_varint(buf, bytes.len() as u64);
    buf.put_slice(bytes);
}

/// Writes a string field.
pub fn put_str_field(buf: &mut impl BufMut, field: u32, s: &str) {
    put_bytes_field(buf, field, s.as_bytes());
}

/// Writes a packed `u32` sequence as one length-delimited field of varints.
pub fn put_packed_u32_field(buf: &mut impl BufMut, field: u32, values: &[u32]) {
    let mut inner: Vec<u8> = Vec::with_capacity(values.len());
    for &v in values {
        put_varint(&mut inner, u64::from(v));
    }
    put_bytes_field(buf, field, &inner);
}

/// Reads a fixed64 `f64` payload.
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] on truncated input.
pub fn get_f64(buf: &mut impl Buf) -> Result<f64> {
    if buf.remaining() < 8 {
        return Err(HarpError::protocol("truncated fixed64"));
    }
    Ok(f64::from_bits(buf.get_u64_le()))
}

/// Borrows a length-delimited payload straight out of the input slice.
/// The returned slice aliases the input; nothing is allocated.
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] on truncated input.
pub fn take_bytes<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
    let len = get_varint(buf)? as usize;
    if buf.len() < len {
        return Err(HarpError::protocol("truncated length-delimited field"));
    }
    let (head, tail) = buf.split_at(len);
    *buf = tail;
    Ok(head)
}

/// Borrows a length-delimited UTF-8 string out of the input slice.
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] on truncated or non-UTF-8 input.
pub fn take_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    std::str::from_utf8(take_bytes(buf)?)
        .map_err(|_| HarpError::protocol("invalid utf-8 in string field"))
}

/// Reads a packed `u32` sequence directly from the input slice (only the
/// resulting `Vec<u32>` is allocated).
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] on truncated input or a component that
/// does not fit into `u32`.
pub fn take_packed_u32(buf: &mut &[u8]) -> Result<Vec<u32>> {
    let mut inner = take_bytes(buf)?;
    let mut out = Vec::with_capacity(inner.len().min(64));
    while !inner.is_empty() {
        let v = get_varint(&mut inner)?;
        out.push(
            u32::try_from(v).map_err(|_| HarpError::protocol("packed u32 component too large"))?,
        );
    }
    Ok(out)
}

/// Skips over one field payload of the given wire type (for forward
/// compatibility with unknown fields).
///
/// # Errors
///
/// Returns [`HarpError::Protocol`] on truncated input.
pub fn skip_field(buf: &mut impl Buf, wire: WireType) -> Result<()> {
    match wire {
        WireType::Varint => {
            get_varint(buf)?;
        }
        WireType::Fixed64 => {
            if buf.remaining() < 8 {
                return Err(HarpError::protocol("truncated fixed64"));
            }
            buf.advance(8);
        }
        WireType::LengthDelimited => {
            let len = get_varint(buf)? as usize;
            if buf.remaining() < len {
                return Err(HarpError::protocol("truncated length-delimited field"));
            }
            buf.advance(len);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_encoding_matches_protobuf() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 300);
        assert_eq!(buf, vec![0xAC, 0x02]); // canonical protobuf example
    }

    #[test]
    fn truncated_varint_is_error() {
        let mut slice: &[u8] = &[0x80];
        assert!(get_varint(&mut slice).is_err());
        let mut empty: &[u8] = &[];
        assert!(get_varint(&mut empty).is_err());
    }

    #[test]
    fn overlong_varint_is_error() {
        let mut bytes = vec![0x80u8; 11];
        bytes.push(0);
        let mut slice = bytes.as_slice();
        assert!(get_varint(&mut slice).is_err());
    }

    #[test]
    fn key_round_trip() {
        let mut buf = Vec::new();
        put_key(&mut buf, 15, WireType::LengthDelimited);
        let mut slice = buf.as_slice();
        assert_eq!(
            get_key(&mut slice).unwrap(),
            (15, WireType::LengthDelimited)
        );
    }

    #[test]
    fn f64_field_round_trip() {
        let mut buf = Vec::new();
        put_f64_field(&mut buf, 2, -1234.5678);
        let mut slice = buf.as_slice();
        let (field, wire) = get_key(&mut slice).unwrap();
        assert_eq!((field, wire), (2, WireType::Fixed64));
        assert_eq!(get_f64(&mut slice).unwrap(), -1234.5678);
    }

    #[test]
    fn nan_survives_round_trip_bitwise() {
        let mut buf = Vec::new();
        put_f64_field(&mut buf, 1, f64::NAN);
        let mut slice = buf.as_slice();
        get_key(&mut slice).unwrap();
        assert!(get_f64(&mut slice).unwrap().is_nan());
    }

    #[test]
    fn packed_u32_round_trip() {
        let values = vec![0u32, 1, 127, 128, 65535, u32::MAX];
        let mut buf = Vec::new();
        put_packed_u32_field(&mut buf, 4, &values);
        let mut slice = buf.as_slice();
        get_key(&mut slice).unwrap();
        assert_eq!(take_packed_u32(&mut slice).unwrap(), values);
    }

    #[test]
    fn string_field_round_trip() {
        let mut buf = Vec::new();
        put_str_field(&mut buf, 3, "héllo wörld");
        let mut slice = buf.as_slice();
        get_key(&mut slice).unwrap();
        assert_eq!(take_str(&mut slice).unwrap(), "héllo wörld");
    }

    #[test]
    fn skip_unknown_fields() {
        let mut buf = Vec::new();
        put_uint_field(&mut buf, 9, 42);
        put_f64_field(&mut buf, 10, 1.0);
        put_str_field(&mut buf, 11, "x");
        put_uint_field(&mut buf, 1, 7);
        let mut slice = buf.as_slice();
        // Skip the three unknown fields, then read field 1.
        loop {
            let (field, wire) = get_key(&mut slice).unwrap();
            if field == 1 {
                assert_eq!(get_varint(&mut slice).unwrap(), 7);
                break;
            }
            skip_field(&mut slice, wire).unwrap();
        }
        assert!(slice.is_empty());
    }

    #[test]
    fn take_bytes_borrows_without_copying() {
        let mut buf = Vec::new();
        put_bytes_field(&mut buf, 1, b"payload");
        let mut slice = buf.as_slice();
        get_key(&mut slice).unwrap();
        let borrowed = take_bytes(&mut slice).unwrap();
        assert_eq!(borrowed, b"payload");
        // The borrow aliases the original buffer, not a copy.
        let base = buf.as_ptr() as usize;
        let got = borrowed.as_ptr() as usize;
        assert!((base..base + buf.len()).contains(&got));
        assert!(slice.is_empty());
    }

    #[test]
    fn take_truncated_is_error() {
        // Claims 9 bytes, provides 2.
        let mut slice: &[u8] = &[9, 0xaa, 0xbb];
        assert!(take_bytes(&mut slice).is_err());
        let mut bad_utf8 = Vec::new();
        put_bytes_field(&mut bad_utf8, 1, &[0xff, 0xfe]);
        let mut slice = bad_utf8.as_slice();
        get_key(&mut slice).unwrap();
        assert!(take_str(&mut slice).is_err());
    }

    #[test]
    fn skip_truncated_is_error() {
        let mut buf = Vec::new();
        put_key(&mut buf, 1, WireType::Fixed64);
        buf.extend_from_slice(&[0, 1, 2]); // only 3 of 8 bytes
        let mut slice = buf.as_slice();
        let (_, wire) = get_key(&mut slice).unwrap();
        assert!(skip_field(&mut slice, wire).is_err());
    }
}
