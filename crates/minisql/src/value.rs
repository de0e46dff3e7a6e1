//! Values and column types.

use mssg_types::{GraphStorageError, Result};
use std::fmt;

/// Column data types. The MSSG adjacency table needs exactly these two.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColType {
    /// 64-bit signed integer (`BIGINT`).
    BigInt,
    /// Arbitrary byte string (`BLOB`).
    Blob,
}

/// A runtime value. Values of one type order as SQL orders them: integers
/// numerically, blobs bytewise.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Byte-string value.
    Blob(Vec<u8>),
}

impl Value {
    /// `true` if this value can be stored in a column of type `t`.
    pub fn fits(&self, t: ColType) -> bool {
        matches!(
            (self, t),
            (Value::Int(_), ColType::BigInt) | (Value::Blob(_), ColType::Blob)
        )
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(GraphStorageError::Query(format!(
                "expected integer, got {other}"
            ))),
        }
    }

    /// Serialises into a row buffer.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Blob(b) => {
                out.push(2);
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
        }
    }

    /// Deserialises from a row buffer, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Value> {
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| GraphStorageError::corrupt("row truncated at value tag"))?;
        *pos += 1;
        match tag {
            1 => {
                let end = *pos + 8;
                let bytes = buf
                    .get(*pos..end)
                    .ok_or_else(|| GraphStorageError::corrupt("row truncated in integer"))?;
                *pos = end;
                Ok(Value::Int(i64::from_le_bytes(bytes.try_into().unwrap())))
            }
            2 => {
                let lend = *pos + 4;
                let len_bytes = buf
                    .get(*pos..lend)
                    .ok_or_else(|| GraphStorageError::corrupt("row truncated in blob length"))?;
                let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
                let end = lend + len;
                let bytes = buf
                    .get(lend..end)
                    .ok_or_else(|| GraphStorageError::corrupt("row truncated in blob body"))?;
                *pos = end;
                Ok(Value::Blob(bytes.to_vec()))
            }
            t => Err(GraphStorageError::corrupt(format!("unknown value tag {t}"))),
        }
    }

    /// Order-preserving key encoding for index columns. Only integers can
    /// appear in index keys (documented engine restriction).
    pub fn encode_key(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            Value::Int(i) => {
                // Flip the sign bit so byte order equals numeric order.
                let biased = (*i as u64) ^ (1u64 << 63);
                out.extend_from_slice(&biased.to_be_bytes());
                Ok(())
            }
            other => Err(GraphStorageError::Query(format!(
                "only integer columns may be indexed, got {other}"
            ))),
        }
    }
}

/// Encodes a full row.
pub fn encode_row(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 9);
    for v in values {
        v.encode(&mut out);
    }
    out
}

/// Decodes a full row of `n` values.
pub fn decode_row(buf: &[u8], n: usize) -> Result<Vec<Value>> {
    let mut pos = 0;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Value::decode(buf, &mut pos)?);
    }
    if pos != buf.len() {
        return Err(GraphStorageError::corrupt("trailing bytes after row"));
    }
    Ok(out)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Blob(b) => write!(f, "<blob {} bytes>", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_roundtrip() {
        let row = vec![Value::Int(-5), Value::Blob(vec![1, 2, 3])];
        let enc = encode_row(&row);
        assert_eq!(decode_row(&enc, 2).unwrap(), row);
    }

    #[test]
    fn truncation_detected() {
        let row = vec![Value::Int(1)];
        let enc = encode_row(&row);
        assert!(decode_row(&enc[..enc.len() - 1], 1).is_err());
        assert!(decode_row(&enc, 2).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut enc = encode_row(&[Value::Int(1)]);
        enc.push(0);
        assert!(decode_row(&enc, 1).is_err());
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        let err = decode_row(&[0], 1).unwrap_err();
        assert!(matches!(err, GraphStorageError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn key_encoding_preserves_order() {
        let values = [i64::MIN, -100, -1, 0, 1, 42, i64::MAX];
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for v in values {
            let mut k = Vec::new();
            Value::Int(v).encode_key(&mut k).unwrap();
            keys.push(k);
        }
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "key order broken");
        }
    }

    #[test]
    fn blob_key_rejected() {
        let mut k = Vec::new();
        assert!(Value::Blob(vec![1]).encode_key(&mut k).is_err());
    }

    #[test]
    fn values_order_within_a_type() {
        assert!(Value::Int(-1) < Value::Int(2));
        assert!(Value::Blob(vec![1]) < Value::Blob(vec![1, 0]));
    }

    #[test]
    fn type_checks() {
        assert!(Value::Int(1).fits(ColType::BigInt));
        assert!(!Value::Int(1).fits(ColType::Blob));
        assert!(!Value::Blob(vec![]).fits(ColType::BigInt));
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert!(Value::Blob(vec![]).as_int().is_err());
    }
}
