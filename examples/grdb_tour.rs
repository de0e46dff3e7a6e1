//! A tour of grDB itself — the multi-level storage layout, growth
//! policies, fragmentation and defragmentation, the block cache, and the
//! I/O accounting that the benchmark figures are built on.
//!
//! ```text
//! cargo run --release --example grdb_tour
//! ```

use mssg::grdb::{GrdbConfig, GrdbStore, GrowthPolicy};
use mssg::prelude::*;
use mssg::simio::{DiskCostModel, IoStats};

fn main() -> mssg::types::Result<()> {
    // The thesis' experimental geometry: d = 2, 4, 16, 256, 4K, 16K.
    let cfg = GrdbConfig::thesis_defaults();
    println!("thesis geometry:");
    for (i, l) in cfg.levels.iter().enumerate() {
        println!(
            "  level {i}: d = {:5} words  sub-block = {:6} B  block = {:6} B  ({} sub-blocks/block)",
            l.d,
            l.sub_bytes(),
            l.block_bytes,
            l.k()
        );
    }
    println!(
        "  one chain through every level holds {} neighbours before the top level\n  starts chaining to itself",
        cfg.single_pass_capacity()
    );

    let dir = std::env::temp_dir().join("mssg-grdb-tour");
    let _ = std::fs::remove_dir_all(&dir);
    let stats = IoStats::new();
    let mut store = GrdbStore::open(&dir, cfg, std::sync::Arc::clone(&stats))?;

    // A power-law-ish population: most vertices tiny, one hub.
    println!("\ningesting: 1000 low-degree vertices and one 50,000-neighbour hub...");
    for v in 1..=1000u64 {
        for u in 0..(v % 3 + 1) {
            store.append_neighbours(Gid::new(v), &[Gid::new(2000 + u)])?;
        }
    }
    let hub = Gid::new(0);
    for u in 0..50_000u64 {
        store.append_neighbours(hub, &[Gid::new(10_000 + u)])?;
    }
    store.flush()?;
    println!(
        "  hub degree {} -> chain of {} sub-blocks (Link growth)",
        store.degree(hub)?,
        store.chain_length(hub)?
    );
    println!(
        "  a degree-2 vertex stays inline: chain length {}",
        store.chain_length(Gid::new(1))?
    );

    // Background defragmentation (§3.4.1's idle-time proposal).
    let before = store.chain_length(hub)?;
    let rewritten = store.defragment_all()?;
    println!(
        "\ndefragment_all: {rewritten} vertices rewritten; hub chain {} -> {}",
        before,
        store.chain_length(hub)?
    );

    // I/O accounting + the 2006 disk model.
    let snap = stats.snapshot();
    let model = DiskCostModel::sata_2006();
    println!(
        "\nI/O so far: {} block reads, {} block writes, {} seeks",
        snap.block_reads, snap.block_writes, snap.seeks
    );
    println!(
        "  on the thesis' 2006 SATA RAID this would have cost ~{:.1?} of disk time",
        model.modeled_time(&snap)
    );
    println!("  block cache: {:?}", store.cache_stats());

    // Move policy contrast on a fresh instance.
    let dir2 = std::env::temp_dir().join("mssg-grdb-tour-move");
    let _ = std::fs::remove_dir_all(&dir2);
    let mut cfg2 = GrdbConfig::thesis_defaults();
    cfg2.growth = GrowthPolicy::Move;
    let mut mv = GrdbStore::open(&dir2, cfg2, IoStats::new())?;
    for u in 0..50_000u64 {
        mv.append_neighbours(hub, &[Gid::new(10_000 + u)])?;
    }
    println!(
        "\nsame hub under Move growth: chain of {} sub-blocks (copies up on every\nlevel crossing instead of linking)",
        mv.chain_length(hub)?
    );

    // Reads are exact regardless of layout.
    let mut adj = Vec::new();
    store.read_adjacency(hub, &mut adj)?;
    assert_eq!(adj.len(), 50_000);
    assert_eq!(adj[0], Gid::new(10_000));
    assert_eq!(adj[49_999], Gid::new(59_999));
    println!(
        "\nhub adjacency read back intact ({} entries, order preserved)",
        adj.len()
    );
    Ok(())
}
