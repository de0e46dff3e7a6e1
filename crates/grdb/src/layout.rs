//! Slot encoding and sub-block addressing — the bit- and arithmetic-level
//! core of grDB (§3.4.1, §4.1.6).
//!
//! Every 8-byte slot of a sub-block holds one of:
//!
//! | word                     | meaning                                   |
//! |--------------------------|-------------------------------------------|
//! | `0`                      | empty slot                                |
//! | tag `0`, payload `g + 1` | adjacency entry for vertex `g` (biased by |
//! |                          | one so vertex 0 ≠ empty)                  |
//! | tag `ℓ + 1`, payload `s` | pointer to sub-block `s` at level `ℓ`     |
//!
//! The 3-bit tag is the thesis' "3 most significant bits … reserved for the
//! grDB's internal use to mark when the value is a pointer". With tags
//! 1..=6 carrying pointers and tag 7 reserved ([`Gid::NIL`]), six levels
//! are addressable and 61-bit vertex ids remain usable.

use mssg_types::gid::{ID_MASK, TAG_MASK};
use mssg_types::{Gid, GraphStorageError, Result};

/// Decoded contents of one slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot {
    /// Unused slot.
    Empty,
    /// An adjacency entry.
    Entry(Gid),
    /// A link to `sub` at `level`.
    Pointer {
        /// Target level.
        level: u8,
        /// Target sub-block id within that level.
        sub: u64,
    },
}

/// Encodes a slot into its 8-byte word.
pub fn encode_slot(slot: Slot) -> Result<u64> {
    match slot {
        Slot::Empty => Ok(0),
        Slot::Entry(g) => {
            if !g.is_vertex() || g.raw() + 1 > ID_MASK {
                return Err(GraphStorageError::InvalidVertex(format!(
                    "vertex {g:?} not storable in a grDB slot"
                )));
            }
            Ok(g.raw() + 1)
        }
        Slot::Pointer { level, sub } => {
            if level >= 6 {
                return Err(GraphStorageError::InvalidVertex(format!(
                    "pointer level {level} out of range (max 5)"
                )));
            }
            if sub & TAG_MASK != 0 {
                return Err(GraphStorageError::InvalidVertex(format!(
                    "sub-block id {sub:#x} overflows the 61-bit pointer payload"
                )));
            }
            Ok(pointer_word(level, sub))
        }
    }
}

/// The word of a pointer to sub-block `sub` at `level`. Pointer words
/// order by `(level, sub)` — the order sub-blocks lie in on disk.
///
/// # Panics
/// Panics if `level` is above 6 or `sub` overflows 61 bits;
/// [`encode_slot`] is the checked form.
pub fn pointer_word(level: u8, sub: u64) -> u64 {
    Gid::tagged(level + 1, sub).raw()
}

/// The `(level, sub)` a pointer word names.
pub fn pointer_target(word: u64) -> (usize, u64) {
    let g = Gid::from_raw(word);
    (g.tag() as usize - 1, g.payload())
}

/// Decodes an 8-byte word into a slot.
pub fn decode_slot(word: u64) -> Result<Slot> {
    if word == 0 {
        return Ok(Slot::Empty);
    }
    let g = Gid::from_raw(word);
    match g.tag() {
        0 => Ok(Slot::Entry(Gid::new(word - 1))),
        t @ 1..=6 => Ok(Slot::Pointer {
            level: t - 1,
            sub: g.payload(),
        }),
        _ => Err(GraphStorageError::corrupt(format!(
            "reserved tag in slot word {word:#x}"
        ))),
    }
}

/// Reads slot `i` from a sub-block byte buffer.
pub fn read_slot(sub: &[u8], i: usize) -> Result<Slot> {
    let off = i * 8;
    let bytes = sub
        .get(off..off + 8)
        .ok_or_else(|| GraphStorageError::corrupt("slot index beyond sub-block"))?;
    decode_slot(u64::from_le_bytes(bytes.try_into().unwrap()))
}

/// Writes slot `i` of a sub-block byte buffer.
pub fn write_slot(sub: &mut [u8], i: usize, slot: Slot) -> Result<()> {
    let word = encode_slot(slot)?;
    let off = i * 8;
    sub.get_mut(off..off + 8)
        .ok_or_else(|| GraphStorageError::corrupt("slot index beyond sub-block"))?
        .copy_from_slice(&word.to_le_bytes());
    Ok(())
}

/// Number of occupied slots. Sub-blocks fill strictly left to right, so
/// the occupancy boundary is found by binary search — O(log d), which
/// matters for the 16K-word top-level sub-blocks.
pub fn occupancy(sub: &[u8], d: usize) -> usize {
    let word_at = |i: usize| u64::from_le_bytes(sub[i * 8..i * 8 + 8].try_into().unwrap());
    let (mut lo, mut hi) = (0usize, d);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if word_at(mid) != 0 {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Position of sub-block `s` within its level: `(block_id, byte_offset)`.
/// `k` is the level's sub-blocks-per-block.
pub fn sub_position(s: u64, k: u64, sub_bytes: usize) -> (u64, usize) {
    (s / k, (s % k) as usize * sub_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrips() {
        let slots = [
            Slot::Empty,
            Slot::Entry(Gid::new(0)),
            Slot::Entry(Gid::new(12345)),
            Slot::Entry(Gid::new(ID_MASK - 1)),
            Slot::Pointer { level: 0, sub: 0 },
            Slot::Pointer {
                level: 5,
                sub: 999_999,
            },
        ];
        for s in slots {
            assert_eq!(decode_slot(encode_slot(s).unwrap()).unwrap(), s, "{s:?}");
        }
    }

    #[test]
    fn vertex_zero_distinct_from_empty() {
        let w = encode_slot(Slot::Entry(Gid::new(0))).unwrap();
        assert_ne!(w, 0);
        assert_eq!(decode_slot(w).unwrap(), Slot::Entry(Gid::new(0)));
        assert_eq!(decode_slot(0).unwrap(), Slot::Empty);
    }

    #[test]
    fn max_vertex_rejected() {
        // Gid::MAX + 1 would collide with the tag space.
        assert!(encode_slot(Slot::Entry(Gid::new(ID_MASK))).is_err());
    }

    #[test]
    fn pointer_level_range() {
        assert!(encode_slot(Slot::Pointer { level: 6, sub: 0 }).is_err());
        assert!(encode_slot(Slot::Pointer { level: 5, sub: 1 }).is_ok());
    }

    #[test]
    fn reserved_tag_detected() {
        let w = Gid::NIL.raw();
        assert!(decode_slot(w).is_err());
    }

    #[test]
    fn slot_read_write_in_buffer() {
        let mut sub = vec![0u8; 32]; // d = 4
        write_slot(&mut sub, 2, Slot::Entry(Gid::new(7))).unwrap();
        assert_eq!(read_slot(&sub, 2).unwrap(), Slot::Entry(Gid::new(7)));
        assert_eq!(read_slot(&sub, 0).unwrap(), Slot::Empty);
        assert!(read_slot(&sub, 4).is_err());
        assert!(write_slot(&mut sub, 4, Slot::Empty).is_err());
    }

    #[test]
    fn occupancy_binary_search() {
        let d = 16;
        for filled in 0..=d {
            let mut sub = vec![0u8; d * 8];
            for i in 0..filled {
                write_slot(&mut sub, i, Slot::Entry(Gid::new(i as u64))).unwrap();
            }
            assert_eq!(occupancy(&sub, d), filled, "filled={filled}");
        }
    }

    #[test]
    fn occupancy_counts_pointers_too() {
        let mut sub = vec![0u8; 32];
        write_slot(&mut sub, 0, Slot::Entry(Gid::new(1))).unwrap();
        write_slot(&mut sub, 1, Slot::Pointer { level: 1, sub: 3 }).unwrap();
        assert_eq!(occupancy(&sub, 4), 2);
    }

    #[test]
    fn thesis_sub_block_addressing() {
        // §3.4.1: sub-block s is stored in block s/k at offset
        // b·d·(s % k). Level 0 of the thesis config: d=2, B=4096, k=256.
        let (blk, off) = sub_position(0, 256, 16);
        assert_eq!((blk, off), (0, 0));
        let (blk, off) = sub_position(255, 256, 16);
        assert_eq!((blk, off), (0, 255 * 16));
        let (blk, off) = sub_position(256, 256, 16);
        assert_eq!((blk, off), (1, 0));
        let (blk, off) = sub_position(1000, 256, 16);
        assert_eq!((blk, off), (3, (1000 % 256) * 16));
    }
}
