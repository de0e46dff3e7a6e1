//! Visited sets for the search algorithms.
//!
//! Algorithm 1 keeps `level[v]` per vertex, but the only question a search
//! ever asks of it is "has `v` been seen?", so what lives here is a *set*,
//! and it is asked a slice at a time: [`VisitedSet::visit_new`] filters a
//! whole batch of candidates — one BFS level's adjacency entries — down to
//! the ones seen for the first time. The trait call, and the `Result`, are
//! paid once per batch; the loop inside is the implementation's own. A
//! two-sided search keeps a set per side and asks the other side's set,
//! a batch at a time too, whether a vertex is in it
//! ([`VisitedSet::first_visited`]).
//!
//! The thesis runs most experiments with the visited structure in memory
//! ("the simplest way to obtain a fair comparison is to simply fix the
//! visited data-structure") so that it is not what gets measured, and
//! Syn-2B with an **external-memory** one as well (Figures 5.8/5.9), since
//! at 10^12 vertices even one bit per vertex outgrows RAM. Those are the
//! two implementations: [`PagedBitmap`] and [`ExternalVisited`].
//!
//! # The paged bitmap
//!
//! One bit per vertex id, held in zeroed pages of [`PAGE_BYTES`] bytes that
//! are allocated when an id first falls in them, so memory follows the
//! pages touched, not the id space. A page is found through the page
//! directory: page numbers below [`DIRECT_PAGES`] index a table directly
//! (a search of ids below 2^25 never hashes), higher ones go through a
//! hash table. A probe is a shift, a mask, a directory entry and one cache
//! line of bits.
//!
//! Dense ids cost about a bit each. The worst case — every visited id
//! alone in its page, as with uniformly random 61-bit ids — is one page and
//! one hash-directory entry per vertex, under
//! [`WORST_CASE_BYTES_PER_VERTEX`]; the direct table adds at most
//! 6 × `DIRECT_PAGES` bytes (384 KiB: the table, and the list of the
//! entries a search set) to each of a copy's sets, and only as far as the
//! highest low page it touches.
//!
//! A bitmap outlives its search: an engine copy keeps one per side and
//! [`PagedBitmap::reset`]s it for the next search. A reset keeps the pages
//! and the direct table and clears only the directory entries the last
//! search set; a page is zeroed when a search first touches it. A search
//! therefore costs O(the pages it touches), however many the set holds.
//! Pages of the hashed directory are dropped at a reset, so what a set
//! keeps is bounded by the direct range (4 MiB of pages). The external set
//! is a file per search and is not kept.
//!
//! Page size was chosen by measurement (`query_qps` @ mem-hashmap, with a
//! hash-only directory and a remembered last page): 64 B and 512 B pages
//! ran alike, 4 KiB pages ~20 % faster — but only because that graph's
//! 29 k ids fit one 4 KiB page and never reached the directory, at 64×
//! the worst case. The direct table gives every dense id space that speed
//! at cache-line pages; remembering the last page on top of it measured
//! slower (a branch per entry) and is not done.

use kvdb::{KvOptions, KvStore};
use mssg_types::gidmap::GidHasher;
use mssg_types::{Gid, Result};
use simio::IoStats;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::path::Path;
use std::sync::Arc;

/// Which visited structure a search uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VisitedKind {
    /// Paged bitmap in memory (the thesis' default experimental setup).
    #[default]
    InMemory,
    /// B-tree on disk (the Figure 5.8/5.9 configuration).
    External,
}

/// A per-processor set of visited vertices.
pub trait VisitedSet: Send {
    /// Marks every vertex of `candidates` visited and appends to `fresh`,
    /// in order, those that were not: a vertex neither visited by an
    /// earlier call nor occurring earlier in `candidates` (of duplicates
    /// within one batch, the first is fresh and the rest are not).
    fn visit_new(&mut self, candidates: &[Gid], fresh: &mut Vec<Gid>) -> Result<()>;

    /// The first vertex of `candidates` that is visited, if any; marks
    /// nothing.
    fn first_visited(&mut self, candidates: &[Gid]) -> Result<Option<Gid>>;

    /// Number of visited vertices.
    fn len(&self) -> u64;

    /// `true` when nothing is visited.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bytes in one bitmap page: one cache line, 512 vertex ids.
pub const PAGE_BYTES: usize = 64;

const PAGE_WORDS: usize = PAGE_BYTES / 8;
/// `id >> PAGE_SHIFT` is the id's page number.
const PAGE_SHIFT: u32 = (PAGE_BYTES * 8).trailing_zeros();

/// Page numbers below this (ids below 2^25) are looked up by index.
pub const DIRECT_PAGES: u64 = 1 << 16;

/// Upper bound on [`PagedBitmap`]'s heap bytes per visited vertex beyond
/// the direct table, met when every vertex is alone in its page: the page,
/// twice over while the page vector has just doubled, and a 17-byte
/// hash-directory bucket in a table 7/16 full just after it doubled.
pub const WORST_CASE_BYTES_PER_VERTEX: usize = 2 * PAGE_BYTES + 40;

type Page = [u64; PAGE_WORDS];

/// In-memory visited set: a bitmap over the id space, paged (see the
/// module docs).
#[derive(Default)]
pub struct PagedBitmap {
    /// The pages this search uses, `pages[..used]`, then zeroed or stale
    /// ones an earlier search left, kept for reuse.
    pages: Vec<Page>,
    used: usize,
    /// The page directory. Both halves hold a page's index into `pages`
    /// plus one: `direct[n]` for page number `n < DIRECT_PAGES` (0: no page
    /// yet; as long as the highest such page ever touched), `hashed`
    /// beyond.
    direct: Vec<u32>,
    hashed: HashMap<u64, u32, BuildHasherDefault<GidHasher>>,
    /// The entries of `direct` this search set, which a reset clears.
    touched: Vec<u16>,
    len: u64,
}

// `touched` holds a direct page number in 16 bits.
const _: () = assert!(DIRECT_PAGES <= 1 << 16);

impl PagedBitmap {
    /// An empty set.
    pub fn new() -> PagedBitmap {
        PagedBitmap::default()
    }

    /// Empties the set for the next search, keeping its pages and direct
    /// table; the hashed directory and its pages are dropped. Costs
    /// O(the low pages the last search touched).
    pub fn reset(&mut self) {
        for &number in &self.touched {
            self.direct[number as usize] = 0;
        }
        self.touched.clear();
        if !self.hashed.is_empty() {
            self.hashed = HashMap::default();
            // Without hashed pages a search uses at most DIRECT_PAGES.
            if self.pages.len() > DIRECT_PAGES as usize {
                self.pages.truncate(DIRECT_PAGES as usize);
                self.pages.shrink_to_fit();
            }
        }
        self.used = 0;
        self.len = 0;
    }

    /// Page `number`, zeroed on this search's first touch: a kept page,
    /// or a new one.
    #[inline]
    fn page(&mut self, number: u64) -> &mut Page {
        let entry = if number < DIRECT_PAGES {
            let number = number as usize;
            if number >= self.direct.len() {
                self.direct.resize(number + 1, 0);
            }
            &mut self.direct[number]
        } else {
            self.hashed.entry(number).or_insert(0)
        };
        if *entry == 0 {
            match self.pages.get_mut(self.used) {
                Some(page) => *page = [0; PAGE_WORDS],
                None => self.pages.push([0; PAGE_WORDS]),
            }
            self.used += 1;
            if number < DIRECT_PAGES {
                self.touched.push(number as u16);
            }
            *entry = u32::try_from(self.used).expect("fewer than 2^32 bitmap pages (256 GiB)");
        }
        &mut self.pages[*entry as usize - 1]
    }

    /// Whether `v` is visited; allocates nothing.
    #[inline]
    fn contains(&self, v: Gid) -> bool {
        let raw = v.raw();
        let number = raw >> PAGE_SHIFT;
        let entry = if number < DIRECT_PAGES {
            self.direct.get(number as usize)
        } else {
            self.hashed.get(&number)
        };
        match entry.copied() {
            Some(index) if index > 0 => {
                let word = self.pages[index as usize - 1][(raw >> 6) as usize % PAGE_WORDS];
                word & (1u64 << (raw % 64)) != 0
            }
            _ => false,
        }
    }
}

impl VisitedSet for PagedBitmap {
    fn visit_new(&mut self, candidates: &[Gid], fresh: &mut Vec<Gid>) -> Result<()> {
        let before = fresh.len();
        for &v in candidates {
            let raw = v.raw();
            let word = &mut self.page(raw >> PAGE_SHIFT)[(raw >> 6) as usize % PAGE_WORDS];
            let bit = 1u64 << (raw % 64);
            if *word & bit == 0 {
                *word |= bit;
                fresh.push(v);
            }
        }
        self.len += (fresh.len() - before) as u64;
        Ok(())
    }

    fn first_visited(&mut self, candidates: &[Gid]) -> Result<Option<Gid>> {
        Ok(candidates.iter().copied().find(|&v| self.contains(v)))
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// Disk-backed visited set over the `kvdb` B-tree: one key per vertex.
pub struct ExternalVisited {
    store: KvStore,
}

impl ExternalVisited {
    /// Creates a fresh structure backed by a file at `path` (any existing
    /// file is replaced — a visited set is per-query state).
    pub fn create(path: &Path, stats: Arc<IoStats>) -> Result<ExternalVisited> {
        let _ = std::fs::remove_file(path);
        Ok(ExternalVisited {
            store: KvStore::open(path, KvOptions::default(), stats)?,
        })
    }
}

impl VisitedSet for ExternalVisited {
    fn visit_new(&mut self, candidates: &[Gid], fresh: &mut Vec<Gid>) -> Result<()> {
        for &v in candidates {
            let key = v.raw().to_be_bytes();
            // Probe before writing: a vertex already seen dirties no page.
            if self.store.get(&key)?.is_none() {
                self.store.put(&key, &[])?;
                fresh.push(v);
            }
        }
        Ok(())
    }

    fn first_visited(&mut self, candidates: &[Gid]) -> Result<Option<Gid>> {
        for &v in candidates {
            if self.store.get(&v.raw().to_be_bytes())?.is_some() {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn len(&self) -> u64 {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn g(v: u64) -> Gid {
        Gid::new(v)
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("core-visited-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.db"))
    }

    fn external(tag: &str) -> ExternalVisited {
        ExternalVisited::create(&scratch(tag), IoStats::new()).unwrap()
    }

    /// Heap bytes a bitmap holds, at the capacities of its pages and
    /// directory. A hashbrown bucket is the (u64, u32) pair padded to 16
    /// bytes plus one control byte; `capacity()` is 7/8 of the buckets.
    fn heap_bytes(vs: &PagedBitmap) -> usize {
        vs.pages.capacity() * PAGE_BYTES
            + vs.direct.capacity() * 4
            + vs.touched.capacity() * 2
            + vs.hashed.capacity() * 8 / 7 * 17
    }

    fn visit(vs: &mut dyn VisitedSet, batch: &[u64]) -> Vec<u64> {
        let batch: Vec<Gid> = batch.iter().map(|&v| Gid::from_raw(v)).collect();
        let mut fresh = Vec::new();
        vs.visit_new(&batch, &mut fresh).unwrap();
        fresh.iter().map(|v| v.raw()).collect()
    }

    fn first_visited(vs: &mut dyn VisitedSet, batch: &[u64]) -> Option<u64> {
        let batch: Vec<Gid> = batch.iter().map(|&v| Gid::from_raw(v)).collect();
        vs.first_visited(&batch).unwrap().map(Gid::raw)
    }

    fn check_contract(vs: &mut dyn VisitedSet) {
        assert!(vs.is_empty());
        assert_eq!(first_visited(vs, &[5, 0]), None);
        assert_eq!(visit(vs, &[5, 0, 5, 7]), [5, 0, 7], "first occurrence only");
        assert_eq!(first_visited(vs, &[6, 1 << 40, 7, 5]), Some(7));
        assert_eq!(vs.len(), 3, "asking marks nothing");
        assert_eq!(visit(vs, &[7, 6, 5]), [6], "earlier batches are remembered");
        assert_eq!(visit(vs, &[]), [0u64; 0]);
        assert_eq!(vs.len(), 4);
        // `fresh` is appended to, not cleared.
        let mut fresh = vec![g(99)];
        vs.visit_new(&[g(1)], &mut fresh).unwrap();
        assert_eq!(fresh, [g(99), g(1)]);
    }

    #[test]
    fn bitmap_contract() {
        check_contract(&mut PagedBitmap::new());
    }

    #[test]
    fn external_contract() {
        check_contract(&mut external("contract"));
    }

    #[test]
    fn external_is_fresh_per_query() {
        let path = scratch("fresh");
        {
            let mut vs = ExternalVisited::create(&path, IoStats::new()).unwrap();
            visit(&mut vs, &[1]);
        }
        let vs = ExternalVisited::create(&path, IoStats::new()).unwrap();
        assert!(vs.is_empty(), "create() must start a fresh query state");
    }

    #[test]
    fn external_bulk() {
        let mut vs = external("bulk");
        let ids: Vec<u64> = (0..5000).collect();
        assert_eq!(visit(&mut vs, &ids).len(), 5000);
        assert_eq!(vs.len(), 5000);
        assert!(visit(&mut vs, &ids).is_empty());
    }

    #[test]
    fn dense_ids_cost_about_a_bit_each() {
        let mut vs = PagedBitmap::new();
        let ids: Vec<u64> = (0..1 << 20).collect();
        assert_eq!(visit(&mut vs, &ids).len(), 1 << 20);
        // 128 KiB of bits; page-vector doubling and the directory on top.
        assert!(heap_bytes(&vs) < 512 << 10, "{} bytes", heap_bytes(&vs));
    }

    #[test]
    fn random_61_bit_ids_stay_under_the_stated_worst_case() {
        // 10 k uniformly random ids: every one alone in its page.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let ids: Vec<u64> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & Gid::MAX.raw()
            })
            .collect();
        let mut vs = PagedBitmap::new();
        let fresh = visit(&mut vs, &ids).len();
        assert_eq!(vs.len() as usize, fresh);
        let per_vertex = heap_bytes(&vs) / fresh;
        assert!(
            (PAGE_BYTES..=WORST_CASE_BYTES_PER_VERTEX).contains(&per_vertex),
            "{per_vertex} bytes per visited vertex"
        );
    }

    /// Id shapes a search meets: dense, what `GID % p` leaves on one node,
    /// neighbours of a page boundary, ids past 2^40, and the largest id.
    fn id() -> impl Strategy<Value = u64> {
        let page = (PAGE_BYTES * 8) as u64;
        prop_oneof![
            0u64..2000,
            (0u64..2000, 2u64..17).prop_map(|(i, p)| i * p + 1),
            (1u64..40, 0u64..4).prop_map(move |(n, d)| n * page - 2 + d),
            (0u64..64).prop_map(|i| (1 << 40) + i * 511),
            (0u64..3).prop_map(|d| Gid::MAX.raw() - d),
        ]
    }

    fn batches() -> impl Strategy<Value = Vec<Vec<u64>>> {
        prop::collection::vec(prop::collection::vec(id(), 0..60), 1..8)
    }

    /// `visit_new` against the obvious model, batch by batch.
    fn check_against_model(vs: &mut dyn VisitedSet, batches: &[Vec<u64>]) {
        let mut model: HashSet<u64> = HashSet::new();
        for batch in batches {
            let seen = batch.iter().copied().find(|v| model.contains(v));
            assert_eq!(first_visited(vs, batch), seen);
            let want: Vec<u64> = batch.iter().copied().filter(|&v| model.insert(v)).collect();
            assert_eq!(visit(vs, batch), want);
            assert_eq!(vs.len(), model.len() as u64);
        }
    }

    #[test]
    fn a_search_after_a_large_one_zeroes_only_its_own_pages() {
        let mut vs = PagedBitmap::new();
        let large: Vec<u64> = (0..1 << 20).step_by(7).collect();
        visit(&mut vs, &large);
        let held = vs.pages.len();
        assert_eq!((vs.used, vs.touched.len()), (held, held));
        vs.reset();
        assert!(vs.is_empty());
        assert_eq!((vs.used, vs.touched.len()), (0, 0), "nothing in use");
        assert!(vs.direct.iter().all(|&entry| entry == 0));
        // Three ids in two pages: two pages handed out and zeroed, and the
        // large search's pages kept, not reallocated.
        let page = (PAGE_BYTES * 8) as u64;
        assert_eq!(visit(&mut vs, &[3, 5 * page, 3, 7]), [3, 5 * page, 7]);
        assert_eq!((vs.used, vs.touched.len(), vs.pages.len()), (2, 2, held));
        assert_eq!(first_visited(&mut vs, &[page, 14, 7]), Some(7));
    }

    #[test]
    fn a_reset_drops_the_hashed_directory() {
        let mut vs = PagedBitmap::new();
        let high: Vec<u64> = (0..DIRECT_PAGES + 100)
            .map(|i| (1 << 40) + i * 512)
            .collect();
        visit(&mut vs, &high);
        assert!(vs.pages.len() > DIRECT_PAGES as usize);
        vs.reset();
        assert_eq!(vs.hashed.capacity(), 0);
        assert!(
            vs.pages.capacity() <= DIRECT_PAGES as usize,
            "bounded by the direct range"
        );
        assert_eq!(first_visited(&mut vs, &high[..4]), None);
        assert_eq!(visit(&mut vs, &high[..2]), high[..2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        #[test]
        fn bitmap_matches_hashset_model(batches in batches()) {
            check_against_model(&mut PagedBitmap::new(), &batches);
        }

        #[test]
        fn a_reset_set_is_a_fresh_set(
            searches in prop::collection::vec(batches(), 1..6),
        ) {
            // One set across searches, reset between them, answers each
            // search as a new set would, and holds no more pages than the
            // largest search used.
            let mut vs = PagedBitmap::new();
            let mut largest = 0;
            for batches in &searches {
                vs.reset();
                prop_assert_eq!(vs.len(), 0);
                check_against_model(&mut vs, batches);
                largest = largest.max(vs.used);
                prop_assert_eq!(vs.pages.len(), largest);
            }
        }

        #[test]
        fn external_matches_hashset_model(batches in batches()) {
            check_against_model(&mut external("model"), &batches);
        }
    }
}
