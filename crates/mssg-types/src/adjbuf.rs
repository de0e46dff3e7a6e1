//! Reusable adjacency-list output buffer.
//!
//! The Java prototype passes a `FastLongArrayStorage` out-parameter to
//! `getAdjacencyListUsingMetadata` so the hot BFS loop never allocates.
//! [`AdjBuffer`] is its Rust counterpart: a growable `Gid` buffer the caller
//! clears and reuses across fringe expansions.

use crate::gid::Gid;

/// A reusable, growable buffer of vertex ids.
#[derive(Clone, Debug, Default)]
pub struct AdjBuffer {
    items: Vec<Gid>,
}

impl AdjBuffer {
    /// Creates an empty buffer.
    pub fn new() -> AdjBuffer {
        AdjBuffer { items: Vec::new() }
    }

    /// Creates a buffer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> AdjBuffer {
        AdjBuffer {
            items: Vec::with_capacity(cap),
        }
    }

    /// Appends one vertex.
    #[inline]
    pub fn push(&mut self, v: Gid) {
        self.items.push(v);
    }

    /// Appends a slice of vertices.
    #[inline]
    pub fn extend_from_slice(&mut self, vs: &[Gid]) {
        self.items.extend_from_slice(vs);
    }

    /// Clears contents but keeps the allocation — the whole point of the
    /// type.
    #[inline]
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Keeps the first `len` vertices and drops the rest.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.items.truncate(len);
    }

    /// Number of vertices currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Read-only view of the contents.
    #[inline]
    pub fn as_slice(&self) -> &[Gid] {
        &self.items
    }

    /// Mutable view of the contents.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Gid] {
        &mut self.items
    }

    /// Current capacity, exposed for tests asserting reuse.
    pub fn capacity(&self) -> usize {
        self.items.capacity()
    }

    /// Drains the buffer into a fresh `Vec`, leaving it empty but with its
    /// allocation intact.
    pub fn take(&mut self) -> Vec<Gid> {
        std::mem::take(&mut self.items)
    }

    /// Iterates over the stored vertices.
    pub fn iter(&self) -> std::slice::Iter<'_, Gid> {
        self.items.iter()
    }
}

impl<'a> IntoIterator for &'a AdjBuffer {
    type Item = &'a Gid;
    type IntoIter = std::slice::Iter<'a, Gid>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl Extend<Gid> for AdjBuffer {
    fn extend<T: IntoIterator<Item = Gid>>(&mut self, iter: T) {
        self.items.extend(iter);
    }
}

impl FromIterator<Gid> for AdjBuffer {
    fn from_iter<T: IntoIterator<Item = Gid>>(iter: T) -> AdjBuffer {
        AdjBuffer {
            items: Vec::from_iter(iter),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(v: u64) -> Gid {
        Gid::new(v)
    }

    #[test]
    fn push_and_read() {
        let mut b = AdjBuffer::new();
        assert!(b.is_empty());
        b.push(g(3));
        b.push(g(1));
        assert_eq!(b.len(), 2);
        assert_eq!(b.as_slice(), &[g(3), g(1)]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = AdjBuffer::with_capacity(128);
        for i in 0..100 {
            b.push(g(i));
        }
        let cap = b.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
    }

    #[test]
    fn take_leaves_reusable_buffer() {
        let mut b = AdjBuffer::new();
        b.extend_from_slice(&[g(1), g(2)]);
        let v = b.take();
        assert_eq!(v, vec![g(1), g(2)]);
        assert!(b.is_empty());
        b.push(g(9));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn extend_from_iterator() {
        let mut b = AdjBuffer::new();
        b.extend((0..4).map(g));
        assert_eq!(b.len(), 4);
    }
}
