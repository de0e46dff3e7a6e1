//! FNV-1a, the workspace's one non-cryptographic byte hash.
//!
//! Digests, graph-topology signatures, the wire simulator's per-pipe fault
//! schedules and result-cache keys are all FNV-1a over bytes, and each must
//! be the same value in every process and on every platform — so there is
//! one definition, with a pinned test vector.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`. Hashing a concatenation equals hashing its
/// parts in sequence, so callers render their input into one buffer.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(OFFSET_BASIS, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
