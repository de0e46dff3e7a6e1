//! The grDB storage engine: multi-level sub-block files behind a block
//! cache, with Link/Move growth and background defragmentation.

use crate::config::{GrdbConfig, GrowthPolicy, LevelConfig, WORD};
use crate::layout::{
    decode_slot, occupancy, pointer_target, pointer_word, read_slot, sub_position, write_slot, Slot,
};
use mssg_types::{Gid, GraphStorageError, Result};
use simio::{CacheKey, EngineCache, IoStats, MultiFile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const META_MAGIC: u32 = 0x6772_4231; // "grB1"

/// A grDB instance rooted in a directory (`level0.NNNN`, `level1.NNNN`, …,
/// plus `grdb.meta`).
///
/// ```
/// use grdb::{GrdbConfig, GrdbStore};
/// use mssg_types::Gid;
/// use simio::IoStats;
/// let dir = std::env::temp_dir().join("grdb-doc");
/// let _ = std::fs::remove_dir_all(&dir);
///
/// let mut store = GrdbStore::open(&dir, GrdbConfig::tiny(), IoStats::new()).unwrap();
/// for u in 0..9 {
///     store.append_neighbours(Gid::new(7), &[Gid::new(100 + u)]).unwrap();
/// }
/// let mut adj = Vec::new();
/// store.read_adjacency(Gid::new(7), &mut adj).unwrap();
/// assert_eq!(adj.len(), 9);
/// // Degree 9 under the tiny geometry (d = 2, 4, 8) spans three levels:
/// assert_eq!(store.chain_length(Gid::new(7)).unwrap(), 3);
/// // ...and compacts to two after defragmentation:
/// store.defragment(Gid::new(7)).unwrap();
/// assert_eq!(store.chain_length(Gid::new(7)).unwrap(), 2);
/// ```
pub struct GrdbStore {
    config: GrdbConfig,
    files: Vec<MultiFile>,
    cache: EngineCache,
    /// Next unallocated sub-block per level (level 0 allocates by vertex).
    next_sub: Vec<u64>,
    /// Recycled sub-blocks per level.
    free: Vec<Vec<u64>>,
    entries: u64,
    dir: PathBuf,
    /// [`GrdbStore::walk`]'s current and next wave of requests, kept between
    /// calls so a point lookup allocates nothing. A request — "decode
    /// sub-block `s` of level `ℓ`" — is the [`pointer_word`] that names the
    /// sub-block on disk: requests sort into file order as integers, and a
    /// pointer met while decoding is the next wave's request as it stands.
    wave: Vec<u64>,
    next_wave: Vec<u64>,
}

impl GrdbStore {
    /// Opens (creating if needed) an instance in `dir`.
    pub fn open(dir: &Path, config: GrdbConfig, stats: Arc<IoStats>) -> Result<GrdbStore> {
        config.validate()?;
        std::fs::create_dir_all(dir)?;
        let mut files = Vec::with_capacity(config.levels.len());
        for (i, l) in config.levels.iter().enumerate() {
            files.push(MultiFile::open(
                dir,
                &format!("level{i}"),
                l.block_bytes,
                config.max_file_bytes,
                Arc::clone(&stats),
            )?);
        }
        let n = config.levels.len();
        let cache = EngineCache::with_hasher(config.cache_blocks);
        let mut store = GrdbStore {
            config,
            files,
            cache,
            next_sub: vec![0; n],
            free: vec![Vec::new(); n],
            entries: 0,
            dir: dir.to_path_buf(),
            wave: Vec::new(),
            next_wave: Vec::new(),
        };
        store.load_meta()?;
        Ok(store)
    }

    /// The instance configuration.
    pub fn config(&self) -> &GrdbConfig {
        &self.config
    }

    /// Directed adjacency entries stored.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Block-cache statistics.
    pub fn cache_stats(&self) -> simio::CacheStats {
        self.cache.stats()
    }

    fn level(&self, l: usize) -> &LevelConfig {
        &self.config.levels[l]
    }

    fn top_level(&self) -> usize {
        self.config.levels.len() - 1
    }

    // ---- block and sub-block I/O through the cache ----

    /// Runs `f` over the (cached) block bytes **in place** — the hot path
    /// must not copy whole blocks around: with 256 KB top-level blocks, a
    /// clone per access turns hub appends quadratic. On a miss the block
    /// is read from disk, operated on, and inserted (writing back any
    /// evicted dirty victim, or going straight to disk when the cache is
    /// disabled).
    fn with_block<T>(
        &mut self,
        level: usize,
        block: u64,
        dirty: bool,
        f: impl FnOnce(&mut [u8]) -> T,
    ) -> Result<T> {
        let key = CacheKey::new(level as u32, block);
        if let Some(bytes) = self.cache.get(&key) {
            let out = f(bytes);
            if dirty {
                self.cache.mark_dirty(&key);
            }
            return Ok(out);
        }
        let mut buf = vec![0u8; self.level(level).block_bytes];
        self.files[level].read_block(block, &mut buf)?;
        let out = f(&mut buf);
        match self.cache.insert(key, buf, dirty) {
            // Capacity-0 cache bounces the block straight back.
            Some(ev) if ev.key == key && dirty => {
                self.files[level].write_block(block, &ev.data)?;
            }
            Some(ev) if ev.key != key && ev.dirty => {
                self.files[ev.key.space as usize].write_block(ev.key.block, &ev.data)?;
            }
            _ => {}
        }
        Ok(out)
    }

    /// Writes sub-block `s` of `level` in place.
    fn write_sub(&mut self, level: usize, s: u64, sub: &[u8]) -> Result<()> {
        let lc = *self.level(level);
        debug_assert_eq!(sub.len(), lc.sub_bytes());
        let (block, off) = sub_position(s, lc.k(), lc.sub_bytes());
        self.with_block(level, block, true, |buf| {
            buf[off..off + lc.sub_bytes()].copy_from_slice(sub);
        })
    }

    /// Occupancy and decoded last slot of a sub-block, computed in place —
    /// the per-hop cost of a chain walk is O(log d) word reads, no copies.
    fn sub_meta(&mut self, level: usize, s: u64) -> Result<(usize, Slot)> {
        let lc = *self.level(level);
        let d = lc.d as usize;
        let (block, off) = sub_position(s, lc.k(), lc.sub_bytes());
        self.with_block(level, block, false, |buf| {
            let sub = &buf[off..off + lc.sub_bytes()];
            let occ = occupancy(sub, d);
            let last = read_slot(sub, d - 1)?;
            Ok((occ, last))
        })?
    }

    /// Writes `slots` into consecutive slots of a sub-block from `idx` on,
    /// in place and under one block access.
    fn write_sub_slots(
        &mut self,
        level: usize,
        s: u64,
        idx: usize,
        slots: impl IntoIterator<Item = Slot>,
    ) -> Result<()> {
        let lc = *self.level(level);
        let (block, off) = sub_position(s, lc.k(), lc.sub_bytes());
        self.with_block(level, block, true, |buf| {
            let sub = &mut buf[off..off + lc.sub_bytes()];
            slots
                .into_iter()
                .enumerate()
                .try_for_each(|(i, slot)| write_slot(sub, idx + i, slot))
        })?
    }

    /// Ensures the level-0 sub-block for vertex `v` is backed by storage.
    fn ensure_level0(&mut self, v: Gid) -> Result<()> {
        let lc = *self.level(0);
        let (block, _) = sub_position(v.raw(), lc.k(), lc.sub_bytes());
        self.files[0].grow_to(block + 1)?;
        if v.raw() >= self.next_sub[0] {
            self.next_sub[0] = v.raw() + 1;
        }
        Ok(())
    }

    /// Allocates a sub-block at `level ≥ 1`, reusing the free list.
    fn alloc_sub(&mut self, level: usize) -> Result<u64> {
        debug_assert!(level >= 1);
        if let Some(s) = self.free[level].pop() {
            // Recycled sub-blocks must read back empty.
            let zero = vec![0u8; self.level(level).sub_bytes()];
            self.write_sub(level, s, &zero)?;
            return Ok(s);
        }
        let s = self.next_sub[level];
        self.next_sub[level] += 1;
        let lc = *self.level(level);
        let (block, _) = sub_position(s, lc.k(), lc.sub_bytes());
        self.files[level].grow_to(block + 1)?;
        Ok(s)
    }

    fn free_sub(&mut self, level: usize, s: u64) {
        debug_assert!(level >= 1, "level-0 sub-blocks are never freed");
        self.free[level].push(s);
    }

    // ---- public graph operations ----

    /// Appends neighbours to vertex `v`'s adjacency list, in order. The
    /// chain is walked to its tail once and the cursor advanced in place:
    /// each run that fits the tail sub-block is written under one block
    /// access, and growth past a full tail (Link or Move) is the same step
    /// whatever the batch size, so a list lays out the same files however
    /// its entries were batched. A size-B batch onto a length-L chain costs
    /// O(L + B) sub-block accesses.
    pub fn append_neighbours(&mut self, v: Gid, us: &[Gid]) -> Result<()> {
        if us.is_empty() {
            return Ok(());
        }
        if let Some(g) = std::iter::once(&v).chain(us).find(|g| !g.is_vertex()) {
            return Err(GraphStorageError::InvalidVertex(format!(
                "tagged word passed as vertex: {g:?} (appending to {v:?})"
            )));
        }
        self.ensure_level0(v)?;
        // Locate the tail once.
        let mut level = 0usize;
        let mut sub = v.raw();
        let mut prev: Option<(usize, u64)> = None;
        let mut occ;
        loop {
            let d = self.level(level).d as usize;
            let (o, last) = self.sub_meta(level, sub)?;
            occ = o;
            match last {
                Slot::Pointer { level: nl, sub: ns } if o == d => {
                    prev = Some((level, sub));
                    level = nl as usize;
                    sub = ns;
                }
                _ => break,
            }
        }
        let mut rest = us;
        while !rest.is_empty() {
            let d = self.level(level).d as usize;
            if occ < d {
                let (run, after) = rest.split_at((d - occ).min(rest.len()));
                self.write_sub_slots(level, sub, occ, run.iter().map(|&g| Slot::Entry(g)))?;
                occ += run.len();
                self.entries += run.len() as u64;
                rest = after;
                continue;
            }
            let displaced = match self.sub_meta(level, sub)?.1 {
                Slot::Entry(g) => g,
                _ => unreachable!("the cursor tail never ends in a pointer"),
            };
            let (nl, ns, no, moved) = self.grow_chain(level, sub, displaced, rest[0], prev)?;
            if !moved {
                // Link left a pointer behind: the old tail is now the new
                // tail's predecessor. (Move redirected the old predecessor
                // instead, so `prev` stays.)
                prev = Some((level, sub));
            }
            level = nl;
            sub = ns;
            occ = no;
            self.entries += 1;
            rest = &rest[1..];
        }
        Ok(())
    }

    /// Grows a chain whose tail sub-block `(level, sub)` is full of
    /// entries. `displaced` is the entry in the tail's last slot, `new` the
    /// incoming one. Returns the new tail `(level, sub, occupancy)` and
    /// whether the Move policy relocated the old tail (vs. linking past
    /// it).
    fn grow_chain(
        &mut self,
        level: usize,
        sub: u64,
        displaced: Gid,
        new: Gid,
        prev: Option<(usize, u64)>,
    ) -> Result<(usize, u64, usize, bool)> {
        let top = self.top_level();
        let target = (level + 1).min(top);
        let use_move =
            self.config.growth == GrowthPolicy::Move && level >= 1 && level < top && prev.is_some();
        if use_move {
            // Copy the whole sub-block up a level, plus the new entry; the
            // predecessor's pointer is redirected and the old sub-block
            // freed. d_{ℓ+1} ≥ 2·d_ℓ guarantees room.
            let lc = *self.level(level);
            let d = lc.d as usize;
            let kept = (d - 1) * WORD;
            let (block, off) = sub_position(sub, lc.k(), lc.sub_bytes());
            let mut up = vec![0u8; self.level(target).sub_bytes()];
            self.with_block(level, block, false, |buf| {
                up[..kept].copy_from_slice(&buf[off..off + kept]);
            })?;
            let new_sub = self.alloc_sub(target)?;
            write_slot(&mut up, d - 1, Slot::Entry(displaced))?;
            write_slot(&mut up, d, Slot::Entry(new))?;
            self.write_sub(target, new_sub, &up)?;
            let (plevel, psub) = prev.expect("checked");
            let pd = self.level(plevel).d as usize;
            self.write_sub_slots(
                plevel,
                psub,
                pd - 1,
                [Slot::Pointer {
                    level: target as u8,
                    sub: new_sub,
                }],
            )?;
            self.free_sub(level, sub);
            Ok((target, new_sub, d + 1, true))
        } else {
            // Link: displace the last entry into a fresh sub-block and leave
            // a pointer behind.
            let d = self.level(level).d as usize;
            let new_sub = self.alloc_sub(target)?;
            let mut fresh = vec![0u8; self.level(target).sub_bytes()];
            write_slot(&mut fresh, 0, Slot::Entry(displaced))?;
            write_slot(&mut fresh, 1, Slot::Entry(new))?;
            self.write_sub(target, new_sub, &fresh)?;
            self.write_sub_slots(
                level,
                sub,
                d - 1,
                [Slot::Pointer {
                    level: target as u8,
                    sub: new_sub,
                }],
            )?;
            Ok((target, new_sub, 2, false))
        }
    }

    /// Level-0 sub-blocks backed by storage; a vertex at or past this was
    /// never stored here.
    fn level0_subs(&self) -> u64 {
        self.files[0].len_blocks() * self.level(0).k()
    }

    /// The one chain decoder, behind [`expand`](Self::expand) and every
    /// other read: calls `entry` with each adjacency entry of each vertex
    /// in `fringe`, and `hop` with each `(level, sub-block)` a pointer
    /// leads to.
    fn walk(
        &mut self,
        fringe: &[Gid],
        mut entry: impl FnMut(Gid),
        mut hop: impl FnMut(usize, u64),
    ) -> Result<()> {
        let mut wave = std::mem::take(&mut self.wave);
        let mut next = std::mem::take(&mut self.next_wave);
        let stored = self.level0_subs();
        wave.extend(
            fringe
                .iter()
                .filter(|v| v.raw() < stored)
                .map(|v| pointer_word(0, v.raw())),
        );
        let levels = self.config.levels.len();
        while !wave.is_empty() {
            wave.sort_unstable();
            let mut rest = wave.as_slice();
            while let Some(&first) = rest.first() {
                let (level, sub) = pointer_target(first);
                let lc = *self.level(level);
                let (k, sub_bytes, d) = (lc.k(), lc.sub_bytes(), lc.d as usize);
                let block = sub / k;
                let base = block * k; // The block's first sub-block.
                let run = rest
                    .iter()
                    .take_while(|&&r| {
                        let (l, s) = pointer_target(r);
                        l == level && s - base < k
                    })
                    .count();
                let (group, tail) = rest.split_at(run);
                rest = tail;
                self.with_block(level, block, false, |buf| {
                    for &r in group {
                        let off = (pointer_target(r).1 - base) as usize * sub_bytes;
                        let words = buf[off..off + sub_bytes].chunks_exact(WORD);
                        for (i, w) in words.enumerate() {
                            let word = u64::from_le_bytes(w.try_into().unwrap());
                            match decode_slot(word)? {
                                Slot::Empty => break,
                                Slot::Entry(g) => entry(g),
                                Slot::Pointer { level: nl, sub: ns } => {
                                    if i != d - 1 || nl as usize >= levels {
                                        return Err(GraphStorageError::corrupt(
                                            "pointer before the last slot or past the top level",
                                        ));
                                    }
                                    hop(nl as usize, ns);
                                    next.push(word);
                                }
                            }
                        }
                    }
                    Ok(())
                })??;
            }
            std::mem::swap(&mut wave, &mut next);
            next.clear();
        }
        self.wave = wave;
        self.next_wave = next;
        Ok(())
    }

    /// Calls `sink` with every adjacency entry of every vertex in `fringe`;
    /// vertices never stored here contribute nothing.
    ///
    /// The fringe is expanded in **waves**. Wave 0 is the fringe's level-0
    /// sub-blocks; a wave is sorted by `(level, sub-block)`, which is file
    /// order; requests that fall in one block are decoded in place under a
    /// single block access; and the pointers met on the way form the next
    /// wave. So a block is touched at most once per wave, a level's blocks
    /// are read in ascending order (segment by segment in a multi-file
    /// level), and nothing is read that was not asked for. A vertex that
    /// occurs twice is decoded twice. A one-vertex fringe has one request
    /// per wave, so its entries arrive in insertion order; a larger fringe
    /// yields the same multiset, wave by wave.
    pub fn expand(&mut self, fringe: &[Gid], sink: impl FnMut(Gid)) -> Result<()> {
        self.walk(fringe, sink, |_, _| {})
    }

    /// Collects vertex `v`'s full adjacency list into `out` (append), in
    /// insertion order.
    pub fn read_adjacency(&mut self, v: Gid, out: &mut Vec<Gid>) -> Result<()> {
        self.expand(&[v], |u| out.push(u))
    }

    /// Enumerates every vertex with a non-empty level-0 sub-block, in id
    /// order.
    pub fn vertices(&mut self) -> Result<Vec<Gid>> {
        let mut out = Vec::new();
        for v in 0..self.next_sub[0] {
            if self.sub_meta(0, v)?.0 > 0 {
                out.push(Gid::new(v));
            }
        }
        Ok(out)
    }

    /// Degree of `v` in this instance.
    pub fn degree(&mut self, v: Gid) -> Result<usize> {
        let mut n = 0;
        self.expand(&[v], |_| n += 1)?;
        Ok(n)
    }

    /// Length of `v`'s sub-block chain (1 = inline in level 0). Exposed so
    /// tests and benches can observe fragmentation.
    pub fn chain_length(&mut self, v: Gid) -> Result<usize> {
        if v.raw() >= self.level0_subs() {
            return Ok(0);
        }
        let mut subs = 1;
        self.walk(&[v], |_| {}, |_, _| subs += 1)?;
        Ok(subs)
    }

    /// Rewrites vertex `v`'s chain into the most compact shape — the
    /// "background defragmentation during idle time" of §3.4.1. Returns
    /// `true` if anything changed.
    pub fn defragment(&mut self, v: Gid) -> Result<bool> {
        // The entries, and the old chain above level 0 to free.
        let mut entries = Vec::new();
        let mut old_chain: Vec<(usize, u64)> = Vec::new();
        self.walk(&[v], |u| entries.push(u), |l, s| old_chain.push((l, s)))?;
        if entries.is_empty() {
            return Ok(false);
        }
        let compact = self.plan_compact_chain(entries.len());
        if old_chain.len() == compact.len()
            && old_chain
                .iter()
                .map(|(l, _)| *l)
                .eq(compact.iter().copied())
        {
            return Ok(false); // Already compact.
        }
        for &(l, s) in &old_chain {
            self.free_sub(l, s);
        }
        self.rewrite_chain(v, &entries, &compact)?;
        Ok(true)
    }

    /// Defragments every vertex with a fragmented chain. Returns the number
    /// of vertices rewritten.
    pub fn defragment_all(&mut self) -> Result<u64> {
        let mut rewritten = 0;
        for v in 0..self.next_sub[0] {
            if self.defragment(Gid::new(v))? {
                rewritten += 1;
            }
        }
        Ok(rewritten)
    }

    /// Levels (one per hop, after level 0) of the compact chain for a
    /// degree-`n` list.
    fn plan_compact_chain(&self, n: usize) -> Vec<usize> {
        let d0 = self.level(0).d as usize;
        if n <= d0 {
            return Vec::new();
        }
        let mut remaining = n - (d0 - 1);
        let top = self.top_level();
        // Ideal: one hop into the smallest level that holds everything —
        // pointers carry an explicit target level, so levels may be
        // skipped. Oversized lists chain through top-level sub-blocks.
        if let Some(l) = (1..=top).find(|&l| remaining <= self.level(l).d as usize) {
            return vec![l];
        }
        let d_top = self.level(top).d as usize;
        let mut chain = Vec::new();
        while remaining > d_top {
            chain.push(top);
            remaining -= d_top - 1;
        }
        chain.push(top);
        chain
    }

    /// Writes `entries` as a fresh chain over the given levels.
    fn rewrite_chain(&mut self, v: Gid, entries: &[Gid], chain: &[usize]) -> Result<()> {
        let d0 = self.level(0).d as usize;
        let mut l0 = vec![0u8; self.level(0).sub_bytes()];
        if chain.is_empty() {
            for (i, g) in entries.iter().enumerate() {
                write_slot(&mut l0, i, Slot::Entry(*g))?;
            }
            self.write_sub(0, v.raw(), &l0)?;
            return Ok(());
        }
        // Allocate chain sub-blocks first so pointers can be written.
        let subs: Vec<u64> = chain
            .iter()
            .map(|&l| self.alloc_sub(l))
            .collect::<Result<_>>()?;
        for (i, g) in entries[..d0 - 1].iter().enumerate() {
            write_slot(&mut l0, i, Slot::Entry(*g))?;
        }
        write_slot(
            &mut l0,
            d0 - 1,
            Slot::Pointer {
                level: chain[0] as u8,
                sub: subs[0],
            },
        )?;
        self.write_sub(0, v.raw(), &l0)?;
        let mut cursor = d0 - 1;
        for (hop, (&l, &s)) in chain.iter().zip(&subs).enumerate() {
            let d = self.level(l).d as usize;
            let last_hop = hop + 1 == chain.len();
            let take = if last_hop {
                entries.len() - cursor
            } else {
                d - 1
            };
            debug_assert!(take <= d);
            let mut buf = vec![0u8; self.level(l).sub_bytes()];
            for (i, g) in entries[cursor..cursor + take].iter().enumerate() {
                write_slot(&mut buf, i, Slot::Entry(*g))?;
            }
            cursor += take;
            if !last_hop {
                write_slot(
                    &mut buf,
                    d - 1,
                    Slot::Pointer {
                        level: chain[hop + 1] as u8,
                        sub: subs[hop + 1],
                    },
                )?;
            }
            self.write_sub(l, s, &buf)?;
        }
        debug_assert_eq!(cursor, entries.len());
        Ok(())
    }

    // ---- persistence ----

    /// Writes back dirty cached blocks, the metadata file, and syncs.
    pub fn flush(&mut self) -> Result<()> {
        for ev in self.cache.flush_dirty() {
            self.files[ev.key.space as usize].write_block(ev.key.block, &ev.data)?;
        }
        for f in &mut self.files {
            f.sync()?;
        }
        self.save_meta()
    }

    fn meta_path(&self) -> PathBuf {
        self.dir.join("grdb.meta")
    }

    fn save_meta(&self) -> Result<()> {
        let mut out = Vec::new();
        out.extend_from_slice(&META_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.config.levels.len() as u32).to_le_bytes());
        for l in &self.config.levels {
            out.extend_from_slice(&l.d.to_le_bytes());
            out.extend_from_slice(&(l.block_bytes as u64).to_le_bytes());
        }
        out.extend_from_slice(&self.entries.to_le_bytes());
        for &n in &self.next_sub {
            out.extend_from_slice(&n.to_le_bytes());
        }
        for f in &self.free {
            out.extend_from_slice(&(f.len() as u64).to_le_bytes());
            for &s in f {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        let tmp = self.meta_path().with_extension("tmp");
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, self.meta_path())?;
        Ok(())
    }

    fn load_meta(&mut self) -> Result<()> {
        let path = self.meta_path();
        if !path.exists() {
            return Ok(());
        }
        let bytes = std::fs::read(&path)?;
        let mut pos = 0usize;
        let u32_at = |pos: &mut usize| -> Result<u32> {
            let end = *pos + 4;
            let s = bytes
                .get(*pos..end)
                .ok_or_else(|| GraphStorageError::corrupt("grdb.meta truncated"))?;
            *pos = end;
            Ok(u32::from_le_bytes(s.try_into().unwrap()))
        };
        let magic = u32_at(&mut pos)?;
        if magic != META_MAGIC {
            return Err(GraphStorageError::corrupt("grdb.meta has bad magic"));
        }
        let nlevels = u32_at(&mut pos)? as usize;
        if nlevels != self.config.levels.len() {
            return Err(GraphStorageError::corrupt(format!(
                "instance built with {nlevels} levels, opened with {}",
                self.config.levels.len()
            )));
        }
        let u64_at = |pos: &mut usize| -> Result<u64> {
            let end = *pos + 8;
            let s = bytes
                .get(*pos..end)
                .ok_or_else(|| GraphStorageError::corrupt("grdb.meta truncated"))?;
            *pos = end;
            Ok(u64::from_le_bytes(s.try_into().unwrap()))
        };
        for (i, l) in self.config.levels.iter().enumerate() {
            let d = {
                let end = pos + 4;
                let s = bytes
                    .get(pos..end)
                    .ok_or_else(|| GraphStorageError::corrupt("grdb.meta truncated"))?;
                pos = end;
                u32::from_le_bytes(s.try_into().unwrap())
            };
            let bb = u64_at(&mut pos)? as usize;
            if d != l.d || bb != l.block_bytes {
                return Err(GraphStorageError::corrupt(format!(
                    "level {i} geometry mismatch: file has d={d}, B={bb}"
                )));
            }
        }
        self.entries = u64_at(&mut pos)?;
        for i in 0..nlevels {
            self.next_sub[i] = u64_at(&mut pos)?;
        }
        for i in 0..nlevels {
            let n = u64_at(&mut pos)?;
            if n > (bytes.len() - pos) as u64 / 8 {
                return Err(GraphStorageError::corrupt(format!(
                    "level {i} free list of {n} sub-blocks exceeds grdb.meta"
                )));
            }
            let mut list = Vec::with_capacity(n as usize);
            for _ in 0..n {
                list.push(u64_at(&mut pos)?);
            }
            self.free[i] = list;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GrdbConfig;

    fn g(v: u64) -> Gid {
        Gid::new(v)
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("grdb-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn store(tag: &str) -> GrdbStore {
        GrdbStore::open(&fresh_dir(tag), GrdbConfig::tiny(), IoStats::new()).unwrap()
    }

    #[test]
    fn low_degree_stays_in_level0() {
        let mut s = store("inline");
        s.append_neighbours(g(3), &[g(10)]).unwrap();
        s.append_neighbours(g(3), &[g(11)]).unwrap();
        let mut adj = Vec::new();
        s.read_adjacency(g(3), &mut adj).unwrap();
        assert_eq!(adj, vec![g(10), g(11)]);
        assert_eq!(s.chain_length(g(3)).unwrap(), 1, "d0=2 holds both inline");
    }

    #[test]
    fn third_neighbour_spills_to_level1() {
        // The exact scenario of §3.4.1: "if vertex v already has d0 adjacent
        // vertices and one more is added, a new sub-block is allocated for
        // that vertex in level 1" — with the displaced entry moved there.
        let mut s = store("spill");
        for u in 10..13u64 {
            s.append_neighbours(g(0), &[g(u)]).unwrap();
        }
        let mut adj = Vec::new();
        s.read_adjacency(g(0), &mut adj).unwrap();
        assert_eq!(
            adj,
            vec![g(10), g(11), g(12)],
            "order preserved across the spill"
        );
        assert_eq!(s.chain_length(g(0)).unwrap(), 2);
    }

    #[test]
    fn vertex_zero_neighbour_zero() {
        // The +1 slot bias must keep vertex 0 storable and distinct.
        let mut s = store("zero");
        s.append_neighbours(g(0), &[g(0)]).unwrap();
        let mut adj = Vec::new();
        s.read_adjacency(g(0), &mut adj).unwrap();
        assert_eq!(adj, vec![g(0)]);
    }

    #[test]
    fn unknown_vertex_reads_empty() {
        let mut s = store("unknown");
        s.append_neighbours(g(1), &[g(2)]).unwrap();
        let mut adj = Vec::new();
        s.read_adjacency(g(9999), &mut adj).unwrap();
        assert!(adj.is_empty());
        // A vertex inside the grown range but never written also reads
        // empty (zeroed sub-block).
        let mut adj2 = Vec::new();
        s.read_adjacency(g(0), &mut adj2).unwrap();
        assert!(adj2.is_empty());
    }

    #[test]
    fn hub_chains_through_all_levels() {
        let mut s = store("hub");
        let n = 40u64; // tiny config: single-pass capacity is 12.
        for u in 0..n {
            s.append_neighbours(g(5), &[g(100 + u)]).unwrap();
        }
        let mut adj = Vec::new();
        s.read_adjacency(g(5), &mut adj).unwrap();
        assert_eq!(adj.len(), n as usize);
        assert_eq!(adj, (0..n).map(|u| g(100 + u)).collect::<Vec<_>>());
        // Chain must pass through levels 1 and 2 and keep chaining at the
        // top level.
        assert!(
            s.chain_length(g(5)).unwrap() >= 4,
            "got {}",
            s.chain_length(g(5)).unwrap()
        );
    }

    #[test]
    fn many_vertices_dont_interfere() {
        let mut s = store("many");
        for v in 0..50u64 {
            for u in 0..(v % 7 + 1) {
                s.append_neighbours(g(v), &[g(1000 + v * 10 + u)]).unwrap();
            }
        }
        for v in 0..50u64 {
            let mut adj = Vec::new();
            s.read_adjacency(g(v), &mut adj).unwrap();
            assert_eq!(adj.len() as u64, v % 7 + 1, "vertex {v}");
            assert!(adj.iter().all(|u| (u.raw() - 1000) / 10 == v), "vertex {v}");
        }
        assert_eq!(s.entries(), (0..50u64).map(|v| v % 7 + 1).sum::<u64>());
    }

    #[test]
    fn move_policy_keeps_chains_short() {
        // 8 neighbours under tiny geometry (d = 2, 4, 8):
        // Move  -> L0(1+ptr) -> L2 holding the other 7: chain 2.
        // Link  -> L0(1+ptr) -> L1(3+ptr) -> L2(4): chain 3.
        let dir = fresh_dir("move");
        let mut cfg = GrdbConfig::tiny();
        cfg.growth = GrowthPolicy::Move;
        let mut mv = GrdbStore::open(&dir, cfg, IoStats::new()).unwrap();
        let mut ln = store("move-link-contrast");
        for u in 0..8u64 {
            mv.append_neighbours(g(1), &[g(50 + u)]).unwrap();
            ln.append_neighbours(g(1), &[g(50 + u)]).unwrap();
        }
        for s in [&mut mv, &mut ln] {
            let mut adj = Vec::new();
            s.read_adjacency(g(1), &mut adj).unwrap();
            assert_eq!(adj, (0..8).map(|u| g(50 + u)).collect::<Vec<_>>());
        }
        assert_eq!(mv.chain_length(g(1)).unwrap(), 2);
        assert_eq!(ln.chain_length(g(1)).unwrap(), 3);
    }

    #[test]
    fn link_policy_fragments_then_defragment_compacts() {
        // Degree 7 under Link spreads over L0(1) -> L1(3) -> L2(3): three
        // hops where a single level-2 sub-block (d=8) would do.
        let mut s = store("defrag");
        for u in 0..7u64 {
            s.append_neighbours(g(1), &[g(50 + u)]).unwrap();
        }
        let fragmented = s.chain_length(g(1)).unwrap();
        assert_eq!(fragmented, 3, "link policy should fragment");
        let changed = s.defragment(g(1)).unwrap();
        assert!(changed);
        let compact = s.chain_length(g(1)).unwrap();
        assert_eq!(compact, 2, "compact chain is L0 -> L2");
        let mut adj = Vec::new();
        s.read_adjacency(g(1), &mut adj).unwrap();
        assert_eq!(adj, (0..7).map(|u| g(50 + u)).collect::<Vec<_>>());
        // Second defragment is a no-op.
        assert!(!s.defragment(g(1)).unwrap());
    }

    #[test]
    fn defragment_all_reports_rewrites() {
        let mut s = store("defragall");
        for v in 0..5u64 {
            for u in 0..7u64 {
                s.append_neighbours(g(v), &[g(u)]).unwrap();
            }
        }
        let rewritten = s.defragment_all().unwrap();
        assert_eq!(rewritten, 5);
        assert_eq!(s.defragment_all().unwrap(), 0);
        for v in 0..5u64 {
            assert_eq!(s.degree(g(v)).unwrap(), 7);
        }
    }

    #[test]
    fn freed_subblocks_are_recycled() {
        // Under Move, growing past level 1 frees the level-1 sub-block;
        // the next vertex that spills must reuse it instead of extending
        // the level-1 file.
        let dir = fresh_dir("recycle");
        let mut cfg = GrdbConfig::tiny();
        cfg.growth = GrowthPolicy::Move;
        let mut s = GrdbStore::open(&dir, cfg, IoStats::new()).unwrap();
        for u in 0..8u64 {
            s.append_neighbours(g(1), &[g(u)]).unwrap();
        }
        assert_eq!(
            s.free[1].len(),
            1,
            "move must have freed the level-1 sub-block"
        );
        let next1_before = s.next_sub[1];
        for u in 0..3u64 {
            s.append_neighbours(g(2), &[g(u)]).unwrap();
        }
        assert_eq!(
            s.next_sub[1], next1_before,
            "spill must reuse the freed sub-block"
        );
        assert!(s.free[1].is_empty());
        let mut adj = Vec::new();
        s.read_adjacency(g(2), &mut adj).unwrap();
        assert_eq!(adj.len(), 3);
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = fresh_dir("persist");
        {
            let mut s = GrdbStore::open(&dir, GrdbConfig::tiny(), IoStats::new()).unwrap();
            for u in 0..20u64 {
                s.append_neighbours(g(7), &[g(u)]).unwrap();
            }
            s.flush().unwrap();
        }
        let mut s = GrdbStore::open(&dir, GrdbConfig::tiny(), IoStats::new()).unwrap();
        assert_eq!(s.entries(), 20);
        let mut adj = Vec::new();
        s.read_adjacency(g(7), &mut adj).unwrap();
        assert_eq!(adj, (0..20).map(g).collect::<Vec<_>>());
        // Appends continue cleanly after reopen.
        s.append_neighbours(g(7), &[g(99)]).unwrap();
        assert_eq!(s.degree(g(7)).unwrap(), 21);
    }

    #[test]
    fn a_free_list_count_past_the_file_is_corrupt() {
        let dir = fresh_dir("free-count");
        {
            let mut s = GrdbStore::open(&dir, GrdbConfig::tiny(), IoStats::new()).unwrap();
            s.append_neighbours(g(0), &[g(1)]).unwrap();
            s.flush().unwrap();
        }
        // magic, level count, (d, B) per level, entries, next_sub per
        // level, then level 0's free-list count.
        let levels = GrdbConfig::tiny().levels.len();
        let at = 4 + 4 + levels * 12 + 8 + levels * 8;
        let meta = dir.join("grdb.meta");
        let mut bytes = std::fs::read(&meta).unwrap();
        assert_eq!(bytes[at..at + 8], 0u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&meta, &bytes).unwrap();
        let reopened = GrdbStore::open(&dir, GrdbConfig::tiny(), IoStats::new());
        assert!(
            matches!(reopened, Err(GraphStorageError::Corrupt(_))),
            "a free-list count larger than grdb.meta must be Corrupt"
        );
    }

    #[test]
    fn geometry_mismatch_on_reopen_rejected() {
        let dir = fresh_dir("mismatch");
        {
            let mut s = GrdbStore::open(&dir, GrdbConfig::tiny(), IoStats::new()).unwrap();
            s.append_neighbours(g(0), &[g(1)]).unwrap();
            s.flush().unwrap();
        }
        let mut other = GrdbConfig::tiny();
        other.levels[1].d = 8;
        other.levels[2].d = 16;
        other.levels[2].block_bytes = 128;
        assert!(GrdbStore::open(&dir, other, IoStats::new()).is_err());
    }

    #[test]
    fn cache_disabled_still_correct() {
        let dir = fresh_dir("nocache");
        let mut cfg = GrdbConfig::tiny();
        cfg.cache_blocks = 0;
        let mut s = GrdbStore::open(&dir, cfg, IoStats::new()).unwrap();
        for u in 0..15u64 {
            s.append_neighbours(g(2), &[g(u)]).unwrap();
        }
        let mut adj = Vec::new();
        s.read_adjacency(g(2), &mut adj).unwrap();
        assert_eq!(adj, (0..15).map(g).collect::<Vec<_>>());
    }

    #[test]
    fn cache_hits_on_hot_vertex() {
        let mut s = store("hot");
        s.append_neighbours(g(1), &[g(2)]).unwrap();
        let mut adj = Vec::new();
        for _ in 0..50 {
            adj.clear();
            s.read_adjacency(g(1), &mut adj).unwrap();
        }
        assert!(s.cache_stats().hits >= 50);
    }

    #[test]
    fn figure_3_4_shape() {
        // Thesis Figure 3.4: 3-level instance with d = 2, 4, 8. A vertex
        // with 9 neighbours occupies L0 (1 entry + ptr), L1 (3 + ptr),
        // L2 (5).
        let mut s = store("fig34");
        for u in 0..9u64 {
            s.append_neighbours(g(4), &[g(20 + u)]).unwrap();
        }
        assert_eq!(s.chain_length(g(4)).unwrap(), 3);
        let mut adj = Vec::new();
        s.read_adjacency(g(4), &mut adj).unwrap();
        assert_eq!(adj, (0..9).map(|u| g(20 + u)).collect::<Vec<_>>());
    }

    #[test]
    fn tagged_vertex_rejected() {
        let mut s = store("tagged");
        assert!(s.append_neighbours(Gid::tagged(1, 5), &[g(0)]).is_err());
        assert!(s.append_neighbours(g(0), &[Gid::tagged(2, 5)]).is_err());
        assert!(s
            .append_neighbours(g(0), &[g(1), Gid::tagged(2, 5)])
            .is_err());
    }

    /// Every file of a flushed instance, by name.
    fn files_of(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn batched_append_is_layout_identical() {
        // Batched appends must write the same files as one-at-a-time
        // appends — across spill boundaries, under both growth policies,
        // and when batches land on an already-fragmented chain whose
        // growth interleaves with another vertex's.
        let us: Vec<Gid> = (0..40u64).map(|u| g(100 + u)).collect();
        for growth in [GrowthPolicy::Link, GrowthPolicy::Move] {
            let mut cfg = GrdbConfig::tiny();
            cfg.growth = growth;
            // Each vertex takes `batch` entries in turn, in one call or
            // one call per entry.
            let build = |batch: usize, per_entry: bool| {
                let dir = fresh_dir(&format!("batch-{growth:?}-{batch}-{per_entry}"));
                let mut s = GrdbStore::open(&dir, cfg.clone(), IoStats::new()).unwrap();
                for chunk in us.chunks(batch) {
                    for v in [g(5), g(6)] {
                        if per_entry {
                            for u in chunk {
                                s.append_neighbours(v, std::slice::from_ref(u)).unwrap();
                            }
                        } else {
                            s.append_neighbours(v, chunk).unwrap();
                        }
                    }
                }
                s.flush().unwrap();
                (s, files_of(&dir))
            };
            for batch in 1..=us.len() {
                let (mut one, one_files) = build(batch, true);
                let (mut many, many_files) = build(batch, false);
                assert_eq!(one.entries(), many.entries());
                for v in [g(5), g(6)] {
                    assert_eq!(
                        one.chain_length(v).unwrap(),
                        many.chain_length(v).unwrap(),
                        "{growth:?} batch={batch}"
                    );
                    let mut b = Vec::new();
                    many.read_adjacency(v, &mut b).unwrap();
                    assert_eq!(b, us, "{growth:?} batch={batch}");
                }
                assert!(
                    one_files == many_files,
                    "{growth:?} batch={batch}: files differ from one-at-a-time appends"
                );
            }
        }
    }
}
