//! LEB128 varints, the primitive of the workspace's binary encodings:
//! the [`crate::Metrics`] encoding, the worker wire protocol and the
//! campaign run journal.

/// Why decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended inside a value.
    Truncated,
    /// Unknown tag byte at the given offset.
    BadTag {
        /// Byte offset of the offending tag.
        offset: usize,
        /// The tag value.
        tag: u8,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadTag { offset, tag } => {
                write!(f, "unknown tag {tag:#x} at offset {offset}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads a LEB128 varint written by [`put_varint`].
///
/// # Errors
///
/// [`CodecError::Truncated`] when the input ends mid-varint or the
/// value overflows 64 bits.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(CodecError::Truncated);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip_and_refuse_truncation() {
        let values = [0, 1, 0x7f, 0x80, 300, u64::from(u32::MAX), u64::MAX];
        let mut buf = Vec::new();
        for v in values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for v in values {
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
        }
        assert_eq!(pos, buf.len());
        let mut pos = buf.len() - 10;
        assert_eq!(get_varint(&buf[..buf.len() - 1], &mut pos), Err(CodecError::Truncated));
        assert_eq!(get_varint(&[0x80; 10], &mut 0), Err(CodecError::Truncated), "overflow");
    }
}
