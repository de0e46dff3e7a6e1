//! What a warm query allocates (DESIGN.md §10.5), counted by a global
//! allocator, which is why this is its own test binary. A search's engine
//! copies keep their scratch between jobs, so on threads other than the
//! caller a warm search allocates only the messages it sends: a message is
//! a `Vec` and its `Arc`. On its caller a warm search allocates a fixed
//! few times, for its job, its result slots and its report: at most
//! [`CALLER_BOUND`]. A k-hop expansion takes its scratch from the cluster,
//! so on its caller it allocates only its answer's vector.
//!
//! The graph is PubMed-S ÷1024 on two HashMap back-ends; every query runs
//! once to warm up, then once measured.

use mssg::core::bfs::{bfs, BfsOptions};
use mssg::core::ingest::{ingest, IngestOptions};
use mssg::core::{k_hop, BackendKind, BackendOptions, MssgCluster};
use mssg::graphgen::{GraphPreset, Xoshiro256};
use mssg::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

const NODES: u64 = 2;

/// The most a warm search allocates on its caller.
const CALLER_BOUND: u64 = 8;

/// Allocations and reallocations on every thread, and their bytes.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The same, on this thread alone. `Cell` has no destructor, so the
    /// allocator may touch it at any point in a thread's life.
    static MINE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count(bytes: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        MINE.with(|mine| {
            let (allocs, total) = mine.get();
            mine.set((allocs + 1, total + bytes as u64));
        });
    }
}

// SAFETY: delegates directly to the system allocator; only bookkeeping is
// added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations and bytes so far: on every thread, and on this one.
#[derive(Clone, Copy)]
struct Tally {
    all: (u64, u64),
    mine: (u64, u64),
}

impl Tally {
    fn now() -> Tally {
        Tally {
            all: (
                ALLOCS.load(Ordering::Relaxed),
                BYTES.load(Ordering::Relaxed),
            ),
            mine: MINE.with(Cell::get),
        }
    }

    /// What `f` allocated: on this thread, and on every other.
    fn of<T>(f: impl FnOnce() -> T) -> (T, (u64, u64), (u64, u64)) {
        let before = Tally::now();
        let out = f();
        let after = Tally::now();
        let mine = (after.mine.0 - before.mine.0, after.mine.1 - before.mine.1);
        let all = (after.all.0 - before.all.0, after.all.1 - before.all.1);
        (out, mine, (all.0 - mine.0, all.1 - mine.1))
    }
}

/// PubMed-S ÷1024 on two HashMap back-ends, and query ends drawn from its
/// edges (so most pairs are connected).
fn cluster() -> (MssgCluster, Vec<(Gid, Gid)>) {
    let dir = std::env::temp_dir().join(format!("mssg-warm-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let edges = GraphPreset::PubMedS.workload(1024, 42).collect_edges();
    let mut cluster = MssgCluster::new(
        &dir,
        NODES as usize,
        BackendKind::HashMap,
        &BackendOptions::default(),
    )
    .unwrap();
    ingest(
        &mut cluster,
        edges.clone().into_iter(),
        &IngestOptions::default(),
    )
    .unwrap();
    let mut rng = Xoshiro256::seeded(42);
    let mut end = || edges[rng.next_below(edges.len() as u64) as usize].src;
    let pairs = (0..40).map(|_| (end(), end())).collect();
    (cluster, pairs)
}

/// One test, so that no other test's thread allocates while a query is
/// being measured.
#[test]
fn warm_queries_allocate_only_their_messages_and_answers() {
    let (cluster, pairs) = cluster();
    let options = BfsOptions::default();
    for &(source, dest) in &pairs {
        bfs(&cluster, source, dest, &options).unwrap();
        k_hop(&cluster, source, 2).unwrap();
    }

    let (mut msgs, mut copies, mut caller) = (0, (0, 0), (0, 0));
    for &(source, dest) in &pairs {
        let (m, mine, others) = Tally::of(|| bfs(&cluster, source, dest, &options).unwrap());
        let sent = m.telemetry.net.total_msgs();
        assert!(
            others.0 <= 2 * sent + NODES,
            "{source:?} -> {dest:?}: the copies allocated {} times for {sent} messages",
            others.0
        );
        assert!(
            mine.0 <= CALLER_BOUND,
            "{source:?} -> {dest:?}: the caller allocated {} times",
            mine.0
        );
        msgs += sent;
        copies = (copies.0 + others.0, copies.1 + others.1);
        caller = (caller.0 + mine.0, caller.1 + mine.1);
    }
    let searches = pairs.len() as f64;
    eprintln!(
        "per warm search: {:.2} messages; copies {:.2} allocations ({:.0} B); \
         caller {:.2} ({:.0} B)",
        msgs as f64 / searches,
        copies.0 as f64 / searches,
        copies.1 as f64 / searches,
        caller.0 as f64 / searches,
        caller.1 as f64 / searches,
    );

    for &(source, _) in &pairs {
        let (r, mine, others) = Tally::of(|| k_hop(&cluster, source, 2).unwrap());
        let answer = (r.vertices.len() * std::mem::size_of::<Gid>()) as u64;
        assert_eq!(mine, (1, answer), "k_hop({source:?}, 2) on its caller");
        assert_eq!(others, (0, 0), "k_hop({source:?}, 2) elsewhere");
    }
    let _ = std::fs::remove_dir_all(cluster.dir());
}
