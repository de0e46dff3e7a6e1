//! The shape of grDB's read path, gated on counts rather than time: one
//! `expand_fringe` reads every distinct `(level, block)` its chains touch
//! at most once per wave, in file order. The expected counts come from a
//! reference walk of the level files as they lie on disk; the instance is
//! uncached, so every block access the store makes is a counted read.
//! With the block cache on, a scan's one-touch blocks must not evict the
//! block a lookup reused.

use graphdb::GraphDb;
use grdb::layout::{read_slot, sub_position, Slot};
use grdb::{GrdbConfig, GrdbGraphDb};
use mssg_types::{AdjBuffer, Edge, Gid, MetaOp};
use simio::IoStats;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

const VERTICES: u64 = 96;

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Every segment of one level, concatenated: the level's logical block
/// space.
fn level_bytes(dir: &Path, level: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for seg in 0.. {
        match std::fs::read(dir.join(format!("level{level}.{seg:04}"))) {
            Ok(bytes) => out.extend(bytes),
            Err(_) => break,
        }
    }
    out
}

/// The `(level, block)` every wave of an expansion of `fringe` must read,
/// found by following each vertex's chain through the files, and the
/// number of sub-blocks visited on the way (what a walk per vertex reads).
fn reference_waves(
    cfg: &GrdbConfig,
    files: &[Vec<u8>],
    fringe: &[Gid],
) -> (Vec<BTreeSet<(usize, u64)>>, u64) {
    let mut waves: Vec<BTreeSet<(usize, u64)>> = Vec::new();
    let mut subs_visited = 0;
    for v in fringe {
        let (mut level, mut sub) = (0usize, v.raw());
        for wave in 0.. {
            let lc = cfg.levels[level];
            let (block, off) = sub_position(sub, lc.k(), lc.sub_bytes());
            let Some(bytes) = files[level].get(block as usize * lc.block_bytes..) else {
                break; // Past the end of level 0: never stored.
            };
            if bytes.is_empty() {
                break;
            }
            if waves.len() == wave {
                waves.push(BTreeSet::new());
            }
            waves[wave].insert((level, block));
            subs_visited += 1;
            match read_slot(&bytes[off..off + lc.sub_bytes()], lc.d as usize - 1).unwrap() {
                Slot::Pointer { level: nl, sub: ns } => (level, sub) = (nl as usize, ns),
                _ => break,
            }
        }
    }
    (waves, subs_visited)
}

/// Maximal runs of consecutive blocks within one level and one file
/// segment: the most seeks a file-order pass over `blocks` can cost.
fn consecutive_runs(cfg: &GrdbConfig, blocks: &BTreeSet<(usize, u64)>) -> u64 {
    let mut runs = 0;
    let mut prev: Option<(usize, u64)> = None;
    for &(level, block) in blocks {
        let per_segment = cfg.max_file_bytes / cfg.levels[level].block_bytes as u64;
        let continues = prev == Some((level, block.wrapping_sub(1))) && block % per_segment != 0;
        if !continues {
            runs += 1;
        }
        prev = Some((level, block));
    }
    runs
}

#[test]
fn one_expansion_reads_each_block_once_per_wave_in_file_order() {
    let dir = std::env::temp_dir().join(format!("grdb-read-shape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = GrdbConfig {
        cache_blocks: 0,
        ..GrdbConfig::tiny()
    };
    let stats = IoStats::new();
    let mut db = GrdbGraphDb::open(&dir, cfg.clone(), Arc::clone(&stats)).unwrap();

    // Skewed degrees: most vertices stay in level 0 or 1, a few hubs chain
    // through the top level.
    let mut rng = XorShift(0x5eed_0016);
    let mut edges = Vec::new();
    for v in 0..VERTICES {
        let degree = match v % 16 {
            0 => 30 + rng.below(30),
            1..=4 => 3 + rng.below(6),
            _ => rng.below(3),
        };
        for _ in 0..degree {
            edges.push(Edge::of(v, rng.below(VERTICES)));
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.below(i as u64 + 1) as usize);
    }
    db.store_edges(&edges).unwrap();
    db.flush().unwrap();

    // Discovery order: every vertex, shuffled, a handful twice, plus ids
    // past the end of the level-0 file.
    let mut fringe: Vec<Gid> = (0..VERTICES).map(Gid::new).collect();
    fringe.extend((0..8).map(|_| Gid::new(rng.below(VERTICES))));
    fringe.extend([Gid::new(VERTICES + 1000), Gid::new(1 << 40)]);
    for i in (1..fringe.len()).rev() {
        fringe.swap(i, rng.below(i as u64 + 1) as usize);
    }

    let files: Vec<Vec<u8>> = (0..cfg.levels.len())
        .map(|l| level_bytes(&dir, l))
        .collect();
    let (waves, subs_visited) = reference_waves(&cfg, &files, &fringe);
    let distinct_blocks: u64 = waves.iter().map(|w| w.len() as u64).sum();
    let runs: u64 = waves.iter().map(|w| consecutive_runs(&cfg, w)).sum();
    assert!(waves.len() >= 4, "hubs must chain through the top level");
    assert!(
        subs_visited >= 2 * distinct_blocks,
        "geometry must tell a merged read ({distinct_blocks} blocks) from a walk per \
         vertex ({subs_visited} sub-blocks)"
    );

    let before = stats.snapshot();
    let mut out = AdjBuffer::new();
    db.expand_fringe(&fringe, &mut out, 0, MetaOp::Ignore)
        .unwrap();
    let io = stats.snapshot().since(&before);

    let repeated: usize = fringe
        .iter()
        .map(|v| edges.iter().filter(|e| e.src == *v).count())
        .sum();
    assert_eq!(out.len(), repeated, "every list, repeated vertices twice");
    assert_eq!(
        io.block_reads, distinct_blocks,
        "each distinct (level, block) is read once per wave"
    );
    assert!(
        io.seeks <= runs,
        "{} seeks for {runs} runs of consecutive blocks",
        io.seeks
    );
    assert_eq!(io.block_writes, 0, "a read writes nothing back");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Block reads one expansion of `fringe` costs; every vertex in it has
/// exactly one neighbour.
fn block_reads(db: &mut GrdbGraphDb, stats: &IoStats, fringe: &[Gid]) -> u64 {
    let before = stats.snapshot();
    let mut out = AdjBuffer::new();
    db.expand_fringe(fringe, &mut out, 0, MetaOp::Ignore)
        .unwrap();
    assert_eq!(out.len(), fringe.len(), "one neighbour per vertex");
    stats.snapshot().since(&before).block_reads
}

#[test]
fn a_scan_does_not_evict_the_block_a_lookup_reused() {
    let dir = std::env::temp_dir().join(format!("grdb-read-shape-scan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = GrdbConfig {
        cache_blocks: 8,
        ..GrdbConfig::tiny()
    };
    // One vertex per level-0 block: the scan touches three times as many
    // distinct blocks as the cache holds, none of them the hot vertex's.
    let per_block = cfg.levels[0].k();
    let hot = Gid::new(0);
    let scan: Vec<Gid> = (1..=3 * cfg.cache_blocks as u64)
        .map(|i| Gid::new(i * per_block))
        .collect();
    {
        let mut db = GrdbGraphDb::open(&dir, cfg.clone(), IoStats::new()).unwrap();
        let edges: Vec<Edge> = std::iter::once(hot)
            .chain(scan.iter().copied())
            .map(|v| Edge::of(v.raw(), 1))
            .collect();
        db.store_edges(&edges).unwrap();
        db.flush().unwrap();
    }

    // Reopened, so the cache starts cold.
    let stats = IoStats::new();
    let mut db = GrdbGraphDb::open(&dir, cfg, Arc::clone(&stats)).unwrap();
    assert_eq!(block_reads(&mut db, &stats, &[hot]), 1, "cold lookup");
    assert_eq!(block_reads(&mut db, &stats, &[hot]), 0, "reused lookup");
    assert_eq!(
        block_reads(&mut db, &stats, &scan),
        scan.len() as u64,
        "the scan reads each of its blocks once"
    );
    assert_eq!(
        block_reads(&mut db, &stats, &[hot]),
        0,
        "the reused block outlives the scan"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
