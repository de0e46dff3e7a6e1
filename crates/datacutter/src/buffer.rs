//! Data buffers — the unit of exchange on logical streams.

use bytes::Bytes;
use mssg_types::{Edge, GraphStorageError, Result};

/// A tagged byte buffer.
///
/// The `tag` is application-defined; MSSG uses it for the message kind and
/// the sender's copy index. Payloads are cheaply cloneable (`Bytes`) so
/// broadcast does not copy the body per consumer — matching DataCutter,
/// where a broadcast shares one buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataBuffer {
    /// Application-defined tag.
    pub tag: u64,
    /// Payload bytes.
    pub data: Bytes,
}

impl DataBuffer {
    /// Creates a buffer from raw bytes.
    pub fn new(tag: u64, data: Vec<u8>) -> DataBuffer {
        DataBuffer {
            tag,
            data: Bytes::from(data),
        }
    }

    /// An empty (control) message.
    pub fn control(tag: u64) -> DataBuffer {
        DataBuffer {
            tag,
            data: Bytes::new(),
        }
    }

    /// Encodes a slice of 64-bit words (little-endian).
    pub fn from_words(tag: u64, words: &[u64]) -> DataBuffer {
        let mut data = Vec::with_capacity(words.len() * 8);
        for w in words {
            data.extend_from_slice(&w.to_le_bytes());
        }
        DataBuffer::new(tag, data)
    }

    /// The payload as 64-bit words, read in place: the view a filter takes
    /// of a message a peer sent it. A payload that is not a whole number of
    /// words is `Corrupt`, not a panic.
    pub fn try_words(&self) -> Result<impl ExactSizeIterator<Item = u64> + '_> {
        if !self.data.len().is_multiple_of(8) {
            return Err(GraphStorageError::corrupt(format!(
                "payload of {} bytes is not a word vector",
                self.data.len()
            )));
        }
        Ok(self
            .data
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes"))))
    }

    /// Encodes a slice of edges (16 bytes each).
    pub fn from_edges(tag: u64, edges: &[Edge]) -> DataBuffer {
        let mut data = Vec::with_capacity(edges.len() * 16);
        for e in edges {
            data.extend_from_slice(&e.to_bytes());
        }
        DataBuffer::new(tag, data)
    }

    /// The payload as edges, read in place. A payload that is not a whole
    /// number of 16-byte edges is `Corrupt`, not a panic.
    pub fn try_edges(&self) -> Result<impl ExactSizeIterator<Item = Edge> + '_> {
        if !self.data.len().is_multiple_of(16) {
            return Err(GraphStorageError::corrupt(format!(
                "payload of {} bytes is not an edge vector",
                self.data.len()
            )));
        }
        Ok(self
            .data
            .chunks_exact(16)
            .map(|c| Edge::from_bytes(c.try_into().expect("chunks_exact(16) yields 16 bytes"))))
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for an empty payload.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_word_view_reads_in_place_and_rejects_ragged_payloads() {
        let b = DataBuffer::from_words(7, &[1, 2, u64::MAX]);
        assert_eq!((b.tag, b.len()), (7, 24));
        let view = b.try_words().unwrap();
        assert_eq!(view.len(), 3);
        assert_eq!(view.collect::<Vec<_>>(), vec![1, 2, u64::MAX]);
        assert_eq!(DataBuffer::control(0).try_words().unwrap().len(), 0);
        let err = DataBuffer::new(0, vec![0; 7]).try_words().err().unwrap();
        assert!(matches!(err, GraphStorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn checked_edge_view_round_trips_and_rejects_ragged_payloads() {
        let edges = vec![Edge::of(1, 2), Edge::of(3, 4)];
        let b = DataBuffer::from_edges(0, &edges);
        assert_eq!(b.try_edges().unwrap().collect::<Vec<_>>(), edges);
        let err = DataBuffer::new(0, vec![0; 17]).try_edges().err().unwrap();
        assert!(matches!(err, GraphStorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn control_is_empty() {
        assert!(DataBuffer::control(9).is_empty());
    }

    #[test]
    fn clone_shares_payload() {
        let b = DataBuffer::from_words(0, &(0..1000).collect::<Vec<_>>());
        let c = b.clone();
        // Bytes clones share the allocation: identical pointers.
        assert_eq!(b.data.as_ptr(), c.data.as_ptr());
    }
}
