//! LEB128 variable-length integers, the only number encoding in LCW1.
//!
//! Canonical form is enforced on read (no padded continuation groups), so
//! every value has exactly one wire representation — a byte-for-byte
//! round-trip guarantee the compat shim relies on.

use crate::WireError;

/// Maximum encoded length of a `u64` (10 × 7 bits ≥ 64 bits).
pub const MAX_LEN: usize = 10;

/// Result of an incremental parse step: a value plus the bytes it
/// consumed, or a request for more input. Distinct from an error — more
/// bytes could still make the input valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partial<T> {
    /// Parsed `T`, consuming the given number of bytes.
    Ready(T, usize),
    /// The input ends mid-value; feed more bytes and retry.
    NeedMore,
}

/// Append `v` in canonical LEB128.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Incremental read from the front of `buf`. Returns `NeedMore` when the
/// buffer ends mid-value; rejects over-long and non-canonical encodings.
pub fn read_partial(buf: &[u8]) -> Result<Partial<u64>, WireError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().take(MAX_LEN).enumerate() {
        if i == MAX_LEN - 1 && (b & 0x7f) > 1 {
            return Err(WireError::Overflow { what: "varint" });
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            if i > 0 && b == 0 {
                return Err(WireError::Malformed { what: "non-canonical varint" });
            }
            return Ok(Partial::Ready(v, i + 1));
        }
        if i == MAX_LEN - 1 {
            return Err(WireError::Malformed { what: "varint too long" });
        }
        shift += 7;
    }
    Ok(Partial::NeedMore)
}

/// Read a varint at `buf[*pos..]`, advancing `pos`. A buffer that ends
/// mid-value is a hard [`WireError::Truncated`] (whole-buffer parsing has
/// no more bytes coming).
pub fn read(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let rest = buf.get(*pos..).ok_or(WireError::Truncated { section: "varint" })?;
    match read_partial(rest)? {
        Partial::Ready(v, n) => {
            *pos += n;
            Ok(v)
        }
        Partial::NeedMore => Err(WireError::Truncated { section: "varint" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let significant_bits = 64 - v.leading_zeros() as usize;
            assert_eq!(buf.len(), significant_bits.div_ceil(7).max(1), "length of {v}");
            let mut pos = 0;
            assert_eq!(read(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn incremental_read_needs_more_then_completes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300); // two bytes
        assert_eq!(read_partial(&buf[..1]).unwrap(), Partial::NeedMore);
        assert_eq!(read_partial(&buf).unwrap(), Partial::Ready(300, 2));
    }

    #[test]
    fn truncated_is_an_error_for_whole_buffer_read() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(
            read(&buf[..5], &mut pos).unwrap_err(),
            WireError::Truncated { section: "varint" }
        );
    }

    #[test]
    fn overlong_and_noncanonical_rejected() {
        // 11 continuation bytes: too long.
        let buf = [0x80u8; 11];
        assert_eq!(
            read_partial(&buf).unwrap_err(),
            WireError::Malformed { what: "varint too long" }
        );
        // Tenth byte carrying more than one bit overflows u64.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert_eq!(read_partial(&buf).unwrap_err(), WireError::Overflow { what: "varint" });
        // Padded zero continuation group: 0x80 0x00 encodes 0 non-canonically.
        assert_eq!(
            read_partial(&[0x80, 0x00]).unwrap_err(),
            WireError::Malformed { what: "non-canonical varint" }
        );
    }

    #[test]
    fn max_value_uses_ten_bytes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        assert_eq!(read_partial(&buf).unwrap(), Partial::Ready(u64::MAX, 10));
    }
}
