//! grDB instance configuration.

use mssg_types::{GraphStorageError, Result};

/// Bytes per stored word (the thesis' `b`: one 64-bit GID).
pub const WORD: usize = 8;

/// Configuration of one storage level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelConfig {
    /// Sub-block capacity `d_ℓ` in words.
    pub d: u32,
    /// Block size `B_ℓ` in bytes (the I/O and cache unit).
    pub block_bytes: usize,
}

impl LevelConfig {
    /// Sub-block size in bytes (`b · d_ℓ`).
    pub fn sub_bytes(&self) -> usize {
        self.d as usize * WORD
    }

    /// Sub-blocks per block (`k_ℓ`).
    pub fn k(&self) -> u64 {
        (self.block_bytes / self.sub_bytes()) as u64
    }
}

/// How a full sub-block grows — the two options of §3.4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GrowthPolicy {
    /// Leave the full sub-block in place and link to a fresh sub-block at
    /// the next level ("creates fragmentation in the adjacency list";
    /// compact later with `defragment`).
    #[default]
    Link,
    /// Copy the full sub-block's contents into the new, bigger sub-block
    /// and free the old one ("necessitates extra copy operations during the
    /// insertion", but keeps chains two hops short).
    Move,
}

/// Full instance configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct GrdbConfig {
    /// Level schedule, smallest first. At most 6 levels (pointer tags are
    /// 3 bits, one value is reserved).
    pub levels: Vec<LevelConfig>,
    /// Maximum storage-file size `M` in bytes.
    pub max_file_bytes: u64,
    /// Block cache capacity in blocks (0 = cache disabled).
    pub cache_blocks: usize,
    /// Growth policy for full sub-blocks.
    pub growth: GrowthPolicy,
}

impl GrdbConfig {
    /// The thesis' experimental configuration (§4.1.6): six levels with
    /// `d = 2, 4, 16, 256, 4K, 16K`, 4 KB blocks for the first four levels
    /// and 32 KB / 256 KB for the last two, `M = 256 MB`.
    pub fn thesis_defaults() -> GrdbConfig {
        GrdbConfig {
            levels: vec![
                LevelConfig {
                    d: 2,
                    block_bytes: 4096,
                },
                LevelConfig {
                    d: 4,
                    block_bytes: 4096,
                },
                LevelConfig {
                    d: 16,
                    block_bytes: 4096,
                },
                LevelConfig {
                    d: 256,
                    block_bytes: 4096,
                },
                LevelConfig {
                    d: 4096,
                    block_bytes: 32 * 1024,
                },
                LevelConfig {
                    d: 16384,
                    block_bytes: 256 * 1024,
                },
            ],
            max_file_bytes: 256 * 1024 * 1024,
            cache_blocks: 2048,
            growth: GrowthPolicy::Link,
        }
    }

    /// A tiny configuration for tests: `d = 2, 4, 8`, 64-byte blocks,
    /// 256-byte files — exercises multi-file and multi-level paths with a
    /// handful of edges. (This is also the geometry of thesis Figure 3.4.)
    pub fn tiny() -> GrdbConfig {
        GrdbConfig {
            levels: vec![
                LevelConfig {
                    d: 2,
                    block_bytes: 64,
                },
                LevelConfig {
                    d: 4,
                    block_bytes: 64,
                },
                LevelConfig {
                    d: 8,
                    block_bytes: 64,
                },
            ],
            max_file_bytes: 256,
            cache_blocks: 8,
            growth: GrowthPolicy::Link,
        }
    }

    /// Validates the invariants of §3.4.1.
    pub fn validate(&self) -> Result<()> {
        let fail = |m: String| Err(GraphStorageError::InvalidVertex(m));
        if self.levels.is_empty() {
            return fail("grDB needs at least one level".into());
        }
        if self.levels.len() > 6 {
            return fail(format!(
                "grDB supports at most 6 levels (3-bit pointer tags), got {}",
                self.levels.len()
            ));
        }
        for (i, l) in self.levels.iter().enumerate() {
            if l.d < 2 {
                return fail(format!("level {i}: d must be at least 2, got {}", l.d));
            }
            if i > 0 && l.d < 2 * self.levels[i - 1].d {
                return fail(format!(
                    "level {i}: d_ℓ ({}) must be ≥ 2·d_(ℓ−1) ({})",
                    l.d,
                    2 * self.levels[i - 1].d
                ));
            }
            if l.block_bytes % l.sub_bytes() != 0 || l.block_bytes < l.sub_bytes() {
                return fail(format!(
                    "level {i}: block size {} is not a positive multiple of the \
                     sub-block size {}",
                    l.block_bytes,
                    l.sub_bytes()
                ));
            }
            if self.max_file_bytes < l.block_bytes as u64 {
                return fail(format!(
                    "level {i}: max file size {} smaller than one block ({})",
                    self.max_file_bytes, l.block_bytes
                ));
            }
        }
        Ok(())
    }

    /// Total inline capacity of one full chain visiting each level once
    /// (the Link policy's capacity before the top level starts chaining to
    /// itself).
    pub fn single_pass_capacity(&self) -> u64 {
        // Each non-terminal sub-block sacrifices its last slot to a pointer.
        let n = self.levels.len();
        self.levels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if i + 1 < n {
                    (l.d - 1) as u64
                } else {
                    l.d as u64
                }
            })
            .sum()
    }
}

impl Default for GrdbConfig {
    fn default() -> Self {
        GrdbConfig::thesis_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thesis_defaults_are_valid() {
        GrdbConfig::thesis_defaults().validate().unwrap();
        GrdbConfig::tiny().validate().unwrap();
    }

    #[test]
    fn thesis_geometry() {
        let c = GrdbConfig::thesis_defaults();
        // 4 KB block at level 0 holds 256 sub-blocks of 16 bytes.
        assert_eq!(c.levels[0].sub_bytes(), 16);
        assert_eq!(c.levels[0].k(), 256);
        // Top level: one 16K-word sub-block (128 KB) -> 2 per 256 KB block.
        assert_eq!(c.levels[5].sub_bytes(), 128 * 1024);
        assert_eq!(c.levels[5].k(), 2);
    }

    #[test]
    fn doubling_rule_enforced() {
        let mut c = GrdbConfig::tiny();
        c.levels[1].d = 3; // < 2*2
        assert!(c.validate().is_err());
    }

    #[test]
    fn block_divisibility_enforced() {
        let mut c = GrdbConfig::tiny();
        c.levels[0].block_bytes = 60; // not a multiple of 16
        assert!(c.validate().is_err());
    }

    #[test]
    fn level_count_capped() {
        let mut c = GrdbConfig::tiny();
        let mut d = 16;
        while c.levels.len() <= 6 {
            c.levels.push(LevelConfig {
                d,
                block_bytes: (d as usize) * 8,
            });
            d *= 2;
        }
        assert!(c.validate().is_err());
    }

    #[test]
    fn too_small_file_rejected() {
        let mut c = GrdbConfig::tiny();
        c.max_file_bytes = 32;
        assert!(c.validate().is_err());
    }

    #[test]
    fn single_pass_capacity_math() {
        // tiny: (2-1) + (4-1) + 8 = 12.
        assert_eq!(GrdbConfig::tiny().single_pass_capacity(), 12);
        // thesis: 1 + 3 + 15 + 255 + 4095 + 16384 = 20753.
        assert_eq!(GrdbConfig::thesis_defaults().single_pass_capacity(), 20753);
    }
}
