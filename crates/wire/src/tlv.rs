//! The `(u8 tag, varint length, value)` field encoding shared by the LCW1
//! envelope header and the `LCRQ`/`LCRS` service frames: one writer, one
//! borrowed walker.

use crate::envelope::RawField;
use crate::varint;
use crate::WireError;

/// Append one field to `out`.
pub fn push_tlv(out: &mut Vec<u8>, tag: u8, value: &[u8]) {
    out.push(tag);
    varint::write_u64(out, value.len() as u64);
    out.extend_from_slice(value);
}

/// Why a TLV walk stopped. Kept apart from [`WireError`] so each protocol
/// can map the three cases onto its own typed errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlvError {
    /// The length varint is truncated, over-long or non-canonical.
    Length(WireError),
    /// The length does not fit in `usize`, or runs the cursor past it.
    LengthOverflow,
    /// The value runs past the end of the block.
    ValueTruncated,
}

/// Walk a complete TLV block, yielding each field in wire order and
/// borrowing its value. The walk ends at the first error.
pub fn fields(block: &[u8]) -> impl Iterator<Item = Result<RawField<'_>, TlvError>> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let &tag = block.get(pos)?;
        let mut at = pos + 1;
        pos = block.len(); // an error below ends the walk
        let len = match varint::read(block, &mut at) {
            Ok(len) => len,
            Err(e) => return Some(Err(TlvError::Length(e))),
        };
        let Some(end) = usize::try_from(len).ok().and_then(|len| at.checked_add(len)) else {
            return Some(Err(TlvError::LengthOverflow));
        };
        let Some(value) = block.get(at..end) else {
            return Some(Err(TlvError::ValueTruncated));
        };
        pos = end;
        Some(Ok(RawField { tag, value }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushed_fields_walk_back_in_order() {
        let mut block = Vec::new();
        push_tlv(&mut block, 0x01, b"LCS1");
        push_tlv(&mut block, 0x7f, &[]);
        push_tlv(&mut block, 0x02, &[9u8; 300]);
        let got: Vec<_> = fields(&block).collect::<Result<_, _>>().expect("well-formed block");
        assert_eq!(
            got,
            vec![
                RawField { tag: 0x01, value: b"LCS1" },
                RawField { tag: 0x7f, value: &[] },
                RawField { tag: 0x02, value: &[9u8; 300] },
            ]
        );
        assert_eq!(fields(&[]).count(), 0);
    }

    #[test]
    fn each_malformation_is_its_own_error_and_ends_the_walk() {
        fn walk(block: &[u8]) -> Vec<Result<RawField<'_>, TlvError>> {
            fields(block).collect()
        }
        // Tag with no length byte.
        assert!(matches!(walk(&[0x01])[..], [Err(TlvError::Length(WireError::Truncated { .. }))]));
        // Length of u64::MAX overflows the cursor.
        let mut huge = vec![0x01];
        varint::write_u64(&mut huge, u64::MAX);
        assert_eq!(walk(&huge), vec![Err(TlvError::LengthOverflow)]);
        // A good field, then a value two bytes short.
        let mut cut = Vec::new();
        push_tlv(&mut cut, 0x05, b"ok");
        cut.extend_from_slice(&[0x06, 4, b'x', b'y']);
        assert_eq!(
            walk(&cut),
            vec![Ok(RawField { tag: 0x05, value: b"ok" }), Err(TlvError::ValueTruncated)]
        );
    }
}
