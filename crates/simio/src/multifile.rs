//! A logical block space split across multiple files.
//!
//! "Because of file system limitations as well as performance reasons, at
//! each level ℓ graph data is stored in multiple files with a maximum size
//! of M bytes" (thesis §3.4.1). [`MultiFile`] realises that: a single
//! logical sequence of fixed-size blocks, mapped onto files
//! `name.0000`, `name.0001`, … each holding at most `blocks_per_file`
//! blocks. Block `g` lives in file `g / N` at local index `g % N`,
//! exactly the modulo arithmetic the thesis gives.

use crate::blockfile::BlockFile;
use crate::stats::IoStats;
use mssg_types::{GraphStorageError, Result};
use std::path::PathBuf;
use std::sync::Arc;

/// A growable logical block space backed by size-capped files.
pub struct MultiFile {
    dir: PathBuf,
    base_name: String,
    block_size: usize,
    blocks_per_file: u64,
    files: Vec<BlockFile>,
    len_blocks: u64,
    stats: Arc<IoStats>,
}

impl MultiFile {
    /// Opens (creating as needed) a multi-file at `dir/base_name.NNNN`.
    ///
    /// `max_file_bytes` is the thesis' `M`; it must be a positive multiple
    /// of `block_size`.
    pub fn open(
        dir: impl Into<PathBuf>,
        base_name: &str,
        block_size: usize,
        max_file_bytes: u64,
        stats: Arc<IoStats>,
    ) -> Result<MultiFile> {
        assert!(block_size > 0, "block size must be positive");
        assert!(
            max_file_bytes >= block_size as u64,
            "max file size {max_file_bytes} smaller than one block ({block_size})"
        );
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let blocks_per_file = max_file_bytes / block_size as u64;
        let mut mf = MultiFile {
            dir,
            base_name: base_name.to_string(),
            block_size,
            blocks_per_file,
            files: Vec::new(),
            len_blocks: 0,
            stats,
        };
        // Recover existing segments in order; stop at the first gap.
        loop {
            let path = mf.segment_path(mf.files.len() as u64);
            if !path.exists() {
                break;
            }
            let f = BlockFile::open(&path, block_size, Arc::clone(&mf.stats))?;
            if mf
                .files
                .last()
                .is_some_and(|_| !mf.len_blocks.is_multiple_of(blocks_per_file))
            {
                return Err(GraphStorageError::corrupt(format!(
                    "segment before {} is not full",
                    path.display()
                )));
            }
            mf.len_blocks += f.len_blocks();
            mf.files.push(f);
        }
        Ok(mf)
    }

    fn segment_path(&self, idx: u64) -> PathBuf {
        self.dir.join(format!("{}.{idx:04}", self.base_name))
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total number of allocated blocks across all segments.
    pub fn len_blocks(&self) -> u64 {
        self.len_blocks
    }

    /// Maximum blocks per segment (the thesis' `N_ℓ = M / B_ℓ`).
    pub fn blocks_per_file(&self) -> u64 {
        self.blocks_per_file
    }

    /// Reads logical block `g`.
    pub fn read_block(&mut self, g: u64, buf: &mut [u8]) -> Result<()> {
        let (fi, local) = self.locate(g)?;
        self.files[fi].read_block(local, buf)
    }

    /// Writes logical block `g`. The block must already be allocated.
    pub fn write_block(&mut self, g: u64, buf: &[u8]) -> Result<()> {
        let (fi, local) = self.locate(g)?;
        self.files[fi].write_block(local, buf)
    }

    /// Allocates the next logical block (zero-filled), opening a new file
    /// segment when the current one is full. Returns the new block's index.
    pub fn allocate_block(&mut self) -> Result<u64> {
        let g = self.len_blocks;
        let fi = (g / self.blocks_per_file) as usize;
        if fi == self.files.len() {
            let path = self.segment_path(fi as u64);
            self.files.push(BlockFile::open(
                &path,
                self.block_size,
                Arc::clone(&self.stats),
            )?);
        }
        let local = g % self.blocks_per_file;
        let zeroes = vec![0u8; self.block_size];
        self.files[fi].write_block(local, &zeroes)?;
        self.len_blocks += 1;
        Ok(g)
    }

    /// Ensures blocks `0..n` exist, allocating as needed.
    pub fn grow_to(&mut self, n: u64) -> Result<()> {
        while self.len_blocks < n {
            self.allocate_block()?;
        }
        Ok(())
    }

    /// Syncs every segment.
    pub fn sync(&mut self) -> Result<()> {
        for f in &mut self.files {
            f.sync()?;
        }
        Ok(())
    }

    fn locate(&self, g: u64) -> Result<(usize, u64)> {
        if g >= self.len_blocks {
            return Err(GraphStorageError::corrupt(format!(
                "block {g} beyond end ({} allocated) in {}",
                self.len_blocks, self.base_name
            )));
        }
        Ok((
            (g / self.blocks_per_file) as usize,
            g % self.blocks_per_file,
        ))
    }
}

impl std::fmt::Debug for MultiFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiFile")
            .field("base", &self.base_name)
            .field("block_size", &self.block_size)
            .field("blocks_per_file", &self.blocks_per_file)
            .field("segments", &self.files.len())
            .field("len_blocks", &self.len_blocks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("simio-mf-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn spans_multiple_segments() {
        let dir = tmpdir("span");
        // 16-byte blocks, max 32 bytes per file => 2 blocks per segment.
        let mut mf = MultiFile::open(&dir, "lvl0", 16, 32, IoStats::new()).unwrap();
        for i in 0..5u64 {
            let g = mf.allocate_block().unwrap();
            assert_eq!(g, i);
            mf.write_block(g, &[i as u8; 16]).unwrap();
        }
        assert_eq!(mf.len_blocks(), 5);
        let mut buf = [0u8; 16];
        for i in 0..5u64 {
            mf.read_block(i, &mut buf).unwrap();
            assert_eq!(buf, [i as u8; 16]);
        }
    }

    #[test]
    fn reopen_recovers_all_segments() {
        let dir = tmpdir("reopen");
        {
            let mut mf = MultiFile::open(&dir, "x", 8, 16, IoStats::new()).unwrap();
            for i in 0..7u64 {
                mf.allocate_block().unwrap();
                mf.write_block(i, &[i as u8; 8]).unwrap();
            }
            mf.sync().unwrap();
        }
        let mut mf = MultiFile::open(&dir, "x", 8, 16, IoStats::new()).unwrap();
        assert_eq!(mf.len_blocks(), 7);
        let mut buf = [0u8; 8];
        mf.read_block(6, &mut buf).unwrap();
        assert_eq!(buf, [6u8; 8]);
    }

    #[test]
    fn out_of_range_errors() {
        let dir = tmpdir("oob");
        let mut mf = MultiFile::open(&dir, "y", 8, 64, IoStats::new()).unwrap();
        let mut buf = [0u8; 8];
        assert!(mf.read_block(0, &mut buf).is_err());
        assert!(mf.write_block(0, &buf).is_err());
    }

    #[test]
    fn grow_to_allocates() {
        let dir = tmpdir("grow");
        let mut mf = MultiFile::open(&dir, "z", 8, 16, IoStats::new()).unwrap();
        mf.grow_to(5).unwrap();
        assert_eq!(mf.len_blocks(), 5);
        let mut buf = [1u8; 8];
        mf.read_block(4, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8], "new blocks are zero-filled");
    }

    #[test]
    fn thesis_modulo_addressing() {
        // With N blocks per file, block g must land in file g/N at local
        // offset g%N — check against the files on disk.
        let dir = tmpdir("mod");
        let mut mf = MultiFile::open(&dir, "m", 4, 12, IoStats::new()).unwrap(); // N = 3
        for i in 0..10u64 {
            mf.allocate_block().unwrap();
            mf.write_block(i, &(i as u32).to_le_bytes()).unwrap();
        }
        mf.sync().unwrap();
        let seg1 = std::fs::read(dir.join("m.0001")).unwrap();
        // Blocks 3,4,5 live in segment 1.
        assert_eq!(&seg1[0..4], &3u32.to_le_bytes());
        assert_eq!(&seg1[4..8], &4u32.to_le_bytes());
        assert_eq!(&seg1[8..12], &5u32.to_le_bytes());
    }
}
