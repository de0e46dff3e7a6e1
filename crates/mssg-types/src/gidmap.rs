//! Hash tables keyed by vertex id.
//!
//! `std`'s default hasher (SipHash-1-3) is built to survive keys chosen by
//! an adversary, and costs ~20 ns a probe for that. Vertex ids are not such
//! keys: they come from the operator's own ingest stream, one 61-bit word
//! each. [`GidMap`] / [`GidSet`] are `std`'s tables with a hasher that is
//! one widening multiply of that word and two folds. Tables keyed by bytes
//! a client supplies (request keys in `mssg-serve`) keep the default hasher.
//!
//! The table underneath (hashbrown) reads a hash twice: the *low* bits pick
//! the bucket and the *top seven* bits are the control byte compared within
//! a group. The low bits of a 64-bit product depend on the low bits of the
//! key alone — `id << 32` keys would all land in bucket 0 — so the hasher
//! takes the full 128-bit product, XORs its halves (now every key bit
//! reaches the low word) and folds the upper 32 bits of that over the lower
//! 32. The top seven bits stay the multiply's own (Fibonacci hashing).

use crate::gid::Gid;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` from vertex id to `V` with the [`GidHasher`].
pub type GidMap<V> = HashMap<Gid, V, BuildHasherDefault<GidHasher>>;

/// A `HashSet` of vertex ids with the [`GidHasher`].
pub type GidSet = HashSet<Gid, BuildHasherDefault<GidHasher>>;

/// 2^64 / φ, odd: consecutive keys land a golden-ratio step apart.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-and-fold hasher for a single 64-bit word (see the module docs).
#[derive(Clone, Copy, Default)]
pub struct GidHasher(u64);

impl Hasher for GidHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MULTIPLIER);
        let h = product as u64 ^ (product >> 64) as u64;
        self.0 = h ^ (h >> 32);
    }

    /// Only `Gid` keys reach this hasher through the aliases above, and
    /// `Gid` hashes as one `write_u64`; other input is folded in word by
    /// word so the type stays a correct `Hasher`.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<GidHasher>::default().hash_one(Gid::from_raw(key))
    }

    #[test]
    fn map_and_set_behave_like_std() {
        let mut m: GidMap<u32> = GidMap::default();
        for i in 0..1000u64 {
            assert_eq!(m.insert(Gid::new(i * 3), i as u32), None);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&Gid::new(999 * 3)), Some(&999));
        assert_eq!(m.get(&Gid::new(1)), None);
        assert_eq!(m.insert(Gid::new(0), 7), Some(0));
        let mut s = GidSet::default();
        assert!(s.insert(Gid::MAX));
        assert!(!s.insert(Gid::MAX));
        assert!(s.contains(&Gid::MAX) && !s.contains(&Gid::new(0)));
    }

    /// What hashbrown reads of a hash, over a 64 Ki key set: the low 16
    /// bits (bucket index at this table size) and the top 7 (control byte).
    /// Returns (distinct low-16 patterns, keys under the fullest top-7
    /// pattern).
    fn visible(keys: impl Iterator<Item = u64>) -> (usize, usize) {
        let mut low = vec![false; 1 << 16];
        let mut top = [0usize; 128];
        for k in keys {
            let h = hash(k);
            low[(h & 0xffff) as usize] = true;
            top[(h >> 57) as usize] += 1;
        }
        (
            low.iter().filter(|&&b| b).count(),
            top.into_iter().max().unwrap(),
        )
    }

    #[test]
    fn no_degeneration_on_the_key_shapes_ids_take() {
        const N: u64 = 1 << 16;
        // A uniform hash leaves 64 Ki keys on (1 - 1/e) · 64 Ki ≈ 41.4 k
        // distinct 16-bit patterns and 512 keys per 7-bit pattern. Bound:
        // at least 0.95× the distinct bucket patterns of uniform, and no
        // control byte more than 1.25× over-subscribed.
        let uniform_distinct = (1.0 - (-1.0f64).exp()) * N as f64;
        type Shape = (&'static str, fn(u64) -> u64);
        let shapes: [Shape; 5] = [
            ("sequential", |i| i),
            ("stride-2 (GID % 2 on one node)", |i| 2 * i + 1),
            ("stride-16", |i| 16 * i + 5),
            ("id << 32", |i| i << 32),
            ("id << 44", |i| i << 44),
        ];
        for (name, key) in shapes {
            let (distinct_low, fullest_top) = visible((0..N).map(key));
            assert!(
                distinct_low as f64 >= 0.95 * uniform_distinct,
                "{name}: {distinct_low} distinct low-16 patterns, uniform gives {uniform_distinct:.0}"
            );
            assert!(
                fullest_top <= 512 * 5 / 4,
                "{name}: {fullest_top} keys share one control byte, uniform gives 512"
            );
        }
    }

    #[test]
    fn byte_input_is_hashed_not_dropped() {
        let mut a = GidHasher::default();
        a.write(b"abcdefghi");
        let mut b = GidHasher::default();
        b.write(b"abcdefghj");
        assert_ne!(a.finish(), b.finish());
    }
}
