//! The workspace's two deterministic mixers: FNV-1a, its one
//! non-cryptographic byte hash, and SplitMix64, its one seed expander.
//!
//! Digests, graph-topology signatures, the wire simulator's per-pipe fault
//! schedules and result-cache keys are all FNV-1a over bytes; generator
//! seeds and seeded fault plans (`datacutter::FaultPlan`, one stream per
//! fault site) are SplitMix64 streams. Each must be the same
//! value in every process and on every platform — so there is one
//! definition of each, with a pinned test vector.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`. Hashing a concatenation equals hashing its
/// parts in sequence, so callers render their input into one buffer.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(OFFSET_BASIS, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// One SplitMix64 step: advances `state` and returns the next output —
/// the seed expander and cheap standalone mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::{fnv1a, splitmix64};

    #[test]
    fn published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix64_reference_vector() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(state, 0x9E37_79B9_7F4A_7C15);
    }
}
