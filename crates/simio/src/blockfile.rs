//! A file of fixed-size blocks with I/O accounting.
//!
//! [`BlockFile`] is the lowest storage layer: it wraps one OS file, exposes
//! `read_block`/`write_block` at a fixed block size, and reports every
//! access to a shared [`IoStats`]. A *seek* is counted whenever an access
//! does not start where the previous one ended — the quantity the disk cost
//! model charges for.

use crate::stats::IoStats;
use mssg_types::{GraphStorageError, Result};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A block-addressed file.
pub struct BlockFile {
    file: File,
    path: PathBuf,
    block_size: usize,
    /// Number of blocks currently allocated in the file.
    len_blocks: u64,
    /// File offset where the previous access ended; used to detect seeks.
    head_pos: u64,
    stats: Arc<IoStats>,
}

impl BlockFile {
    /// Opens (creating if absent) a block file at `path`.
    ///
    /// # Errors
    /// Fails if the file cannot be opened or its length is not a multiple of
    /// `block_size` (a truncated or foreign file).
    pub fn open(path: &Path, block_size: usize, stats: Arc<IoStats>) -> Result<BlockFile> {
        assert!(block_size > 0, "block size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % block_size as u64 != 0 {
            return Err(GraphStorageError::corrupt(format!(
                "{} has length {len} not divisible by block size {block_size}",
                path.display()
            )));
        }
        Ok(BlockFile {
            file,
            path: path.to_path_buf(),
            block_size,
            len_blocks: len / block_size as u64,
            head_pos: 0,
            stats,
        })
    }

    /// The file's block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of allocated blocks.
    pub fn len_blocks(&self) -> u64 {
        self.len_blocks
    }

    /// The path this file lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads block `idx` into `buf`.
    ///
    /// # Panics
    /// Panics if `buf` is not exactly one block long.
    ///
    /// # Errors
    /// Fails if `idx` is beyond the allocated range or on I/O error.
    pub fn read_block(&mut self, idx: u64, buf: &mut [u8]) -> Result<()> {
        assert_eq!(buf.len(), self.block_size, "buffer must be one block");
        if idx >= self.len_blocks {
            return Err(GraphStorageError::corrupt(format!(
                "read of block {idx} beyond end ({} blocks) in {}",
                self.len_blocks,
                self.path.display()
            )));
        }
        let off = idx * self.block_size as u64;
        self.file.read_exact_at(buf, off)?;
        self.move_head(off);
        self.stats.record_read(self.block_size as u64);
        Ok(())
    }

    /// Writes block `idx` from `buf`, growing the file if `idx` is the next
    /// unallocated block. Writing further than one block past the end is an
    /// error — callers allocate contiguously.
    ///
    /// # Panics
    /// Panics if `buf` is not exactly one block long.
    pub fn write_block(&mut self, idx: u64, buf: &[u8]) -> Result<()> {
        assert_eq!(buf.len(), self.block_size, "buffer must be one block");
        if idx > self.len_blocks {
            return Err(GraphStorageError::corrupt(format!(
                "write of block {idx} would leave a hole ({} blocks allocated) in {}",
                self.len_blocks,
                self.path.display()
            )));
        }
        let off = idx * self.block_size as u64;
        self.file.write_all_at(buf, off)?;
        self.move_head(off);
        if idx == self.len_blocks {
            self.len_blocks += 1;
        }
        self.stats.record_write(self.block_size as u64);
        Ok(())
    }

    /// Appends a zeroed block and returns its index.
    pub fn allocate_block(&mut self) -> Result<u64> {
        let idx = self.len_blocks;
        let zeroes = vec![0u8; self.block_size];
        self.write_block(idx, &zeroes)?;
        Ok(idx)
    }

    /// Flushes file contents to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.stats.record_sync();
        Ok(())
    }

    /// Accounts for a completed one-block access at `off`: a model seek
    /// when it did not start where the previous access ended. The OS file
    /// is accessed positionally, so the modelled head is the only cursor.
    fn move_head(&mut self, off: u64) {
        if off != self.head_pos {
            self.stats.record_seek();
        }
        self.head_pos = off + self.block_size as u64;
    }
}

impl std::fmt::Debug for BlockFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockFile")
            .field("path", &self.path)
            .field("block_size", &self.block_size)
            .field("len_blocks", &self.len_blocks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "simio-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmpdir();
        let stats = IoStats::new();
        let mut f = BlockFile::open(&dir.join("a.blk"), 64, stats).unwrap();
        let data: Vec<u8> = (0..64).collect();
        f.write_block(0, &data).unwrap();
        let mut out = vec![0u8; 64];
        f.read_block(0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn sequential_writes_do_not_seek() {
        let dir = tmpdir();
        let stats = IoStats::new();
        let mut f = BlockFile::open(&dir.join("seq.blk"), 32, Arc::clone(&stats)).unwrap();
        let block = [7u8; 32];
        for i in 0..10 {
            f.write_block(i, &block).unwrap();
        }
        assert_eq!(stats.snapshot().seeks, 0);
        assert_eq!(stats.snapshot().block_writes, 10);
    }

    #[test]
    fn random_access_counts_seeks() {
        let dir = tmpdir();
        let stats = IoStats::new();
        let mut f = BlockFile::open(&dir.join("rnd.blk"), 32, Arc::clone(&stats)).unwrap();
        let block = [1u8; 32];
        for i in 0..4 {
            f.write_block(i, &block).unwrap();
        }
        let before = stats.snapshot().seeks;
        let mut buf = [0u8; 32];
        f.read_block(3, &mut buf).unwrap(); // head is at block 4 -> seek
        f.read_block(0, &mut buf).unwrap(); // head at 4 after? no: at 4 -> read 0 seeks
        assert_eq!(stats.snapshot().seeks - before, 2);
    }

    #[test]
    fn read_past_end_fails() {
        let dir = tmpdir();
        let mut f = BlockFile::open(&dir.join("end.blk"), 16, IoStats::new()).unwrap();
        let mut buf = [0u8; 16];
        assert!(f.read_block(0, &mut buf).is_err());
    }

    #[test]
    fn write_with_hole_fails() {
        let dir = tmpdir();
        let mut f = BlockFile::open(&dir.join("hole.blk"), 16, IoStats::new()).unwrap();
        assert!(f.write_block(2, &[0u8; 16]).is_err());
    }

    #[test]
    fn allocate_returns_sequential_indices() {
        let dir = tmpdir();
        let mut f = BlockFile::open(&dir.join("alloc.blk"), 16, IoStats::new()).unwrap();
        assert_eq!(f.allocate_block().unwrap(), 0);
        assert_eq!(f.allocate_block().unwrap(), 1);
        assert_eq!(f.len_blocks(), 2);
    }

    #[test]
    fn reopen_preserves_length() {
        let dir = tmpdir();
        let path = dir.join("reopen.blk");
        {
            let mut f = BlockFile::open(&path, 16, IoStats::new()).unwrap();
            f.write_block(0, &[9u8; 16]).unwrap();
            f.write_block(1, &[8u8; 16]).unwrap();
            f.sync().unwrap();
        }
        let mut f = BlockFile::open(&path, 16, IoStats::new()).unwrap();
        assert_eq!(f.len_blocks(), 2);
        let mut buf = [0u8; 16];
        f.read_block(1, &mut buf).unwrap();
        assert_eq!(buf, [8u8; 16]);
    }

    #[test]
    fn misaligned_file_rejected() {
        let dir = tmpdir();
        let path = dir.join("bad.blk");
        std::fs::write(&path, [0u8; 10]).unwrap();
        assert!(BlockFile::open(&path, 16, IoStats::new()).is_err());
    }
}
