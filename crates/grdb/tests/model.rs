//! Model-based property tests for grDB: arbitrary append sequences and
//! multi-source batches (through `GraphDb::store_edges`, which applies a
//! batch in ascending source order) with defragmentation and reopens
//! interleaved at random points, checked against a plain in-memory model, across geometries (tiny multi-level/multi-file, and
//! the thesis geometry) — and whole-fringe expansion checked against
//! per-vertex lookups on the same model.

use graphdb::{GraphDb, GraphDbExt};
use grdb::{GrdbConfig, GrdbGraphDb, GrdbStore, GrowthPolicy};
use mssg_types::{AdjBuffer, Edge, Gid, Meta, MetaOp};
use proptest::prelude::*;
use simio::IoStats;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "grdb-model-{}-{tag}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One step of the model workload.
#[derive(Clone, Debug)]
enum Op {
    /// Append neighbour `u` to vertex `v`.
    Append { v: u64, u: u64 },
    /// Store a batch of `(v, u)` entries in one `store_edges` call: its
    /// sources come in no order and repeat.
    Batch { edges: Vec<(u64, u64)> },
    /// Defragment vertex `v`.
    Defrag { v: u64 },
    /// Defragment everything.
    DefragAll,
    /// Flush, drop, and reopen the store.
    Reopen,
}

fn arb_op(max_v: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..max_v, 0..max_v).prop_map(|(v, u)| Op::Append { v, u }),
        2 => prop::collection::vec((0..max_v, 0..max_v), 2..40)
            .prop_map(|edges| Op::Batch { edges }),
        1 => (0..max_v).prop_map(|v| Op::Defrag { v }),
        1 => Just(Op::DefragAll),
        1 => Just(Op::Reopen),
    ]
}

fn check_model(cfg: GrdbConfig, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let dir = fresh_dir("ops");
    let mut db = GrdbGraphDb::open(&dir, cfg.clone(), IoStats::new()).unwrap();
    let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
    for op in ops {
        // The vertices the op touched, spot-checked after it to catch
        // corruption early.
        let touched: Vec<u64> = match &op {
            &Op::Append { v, u } => {
                db.store()
                    .append_neighbours(Gid::new(v), &[Gid::new(u)])
                    .unwrap();
                model.entry(v).or_default().push(u);
                vec![v]
            }
            Op::Batch { edges } => {
                let batch: Vec<Edge> = edges.iter().map(|&(v, u)| Edge::of(v, u)).collect();
                db.store_edges(&batch).unwrap();
                for &(v, u) in edges {
                    model.entry(v).or_default().push(u);
                }
                edges.iter().map(|&(v, _)| v).collect()
            }
            &Op::Defrag { v } => {
                db.store().defragment(Gid::new(v)).unwrap();
                vec![v]
            }
            Op::DefragAll => {
                db.store().defragment_all().unwrap();
                Vec::new()
            }
            Op::Reopen => {
                db.flush().unwrap();
                drop(db);
                db = GrdbGraphDb::open(&dir, cfg.clone(), IoStats::new()).unwrap();
                Vec::new()
            }
        };
        for v in touched {
            let mut adj = Vec::new();
            db.store().read_adjacency(Gid::new(v), &mut adj).unwrap();
            let got: Vec<u64> = adj.iter().map(|g| g.raw()).collect();
            let want = model.get(&v).cloned().unwrap_or_default();
            prop_assert_eq!(&got, &want, "vertex {} after {:?}", v, op);
        }
    }
    // Full check at the end.
    let store = db.store();
    for (v, want) in &model {
        let mut adj = Vec::new();
        store.read_adjacency(Gid::new(*v), &mut adj).unwrap();
        let got: Vec<u64> = adj.iter().map(|g| g.raw()).collect();
        prop_assert_eq!(&got, want, "vertex {} at end", v);
    }
    let total: usize = model.values().map(Vec::len).sum();
    prop_assert_eq!(store.entries() as usize, total);
    Ok(())
}

/// The metadata word the filtered expansions compare against, held by
/// every third vertex.
const MARK: Meta = 7;

fn marked(v: u64) -> bool {
    v.is_multiple_of(3)
}

fn sorted(mut v: Vec<Gid>) -> Vec<Gid> {
    v.sort_unstable();
    v
}

/// `expand_fringe` over `fringe` against the model and against per-vertex
/// `neighbors()`: same multiset under `Ignore`, insertion order for a
/// one-vertex fringe, and `NotEqual`/`Equal` equal to filtering the
/// `Ignore` output by hand.
fn check_expansion(
    db: &mut GrdbGraphDb,
    model: &HashMap<u64, Vec<u64>>,
    fringe: &[Gid],
    stage: &str,
) -> Result<(), TestCaseError> {
    let mut per_vertex = Vec::new();
    for &v in fringe {
        let list = db.neighbors(v).unwrap();
        let want: Vec<Gid> = model
            .get(&v.raw())
            .map(|l| l.iter().map(|&u| Gid::new(u)).collect())
            .unwrap_or_default();
        prop_assert_eq!(&list, &want, "{}: insertion order of {:?}", stage, v);
        per_vertex.extend(list);
    }
    let mut out = AdjBuffer::new();
    db.expand_fringe(fringe, &mut out, 0, MetaOp::Ignore)
        .unwrap();
    let all = out.take();
    prop_assert_eq!(sorted(all.clone()), sorted(per_vertex), "{}: Ignore", stage);
    for op in [MetaOp::NotEqual, MetaOp::Equal] {
        db.expand_fringe(fringe, &mut out, MARK, op).unwrap();
        let by_hand: Vec<Gid> = all
            .iter()
            .copied()
            .filter(|u| marked(u.raw()) == (op == MetaOp::Equal))
            .collect();
        prop_assert_eq!(sorted(out.take()), sorted(by_hand), "{}: {:?}", stage, op);
    }
    Ok(())
}

/// One random graph through its life — stored, defragmented, reopened —
/// with the same fringe expanded at each stage.
fn check_fringe_equivalence(
    cfg: GrdbConfig,
    edges: Vec<(u64, u64)>,
    fringe: Vec<u64>,
) -> Result<(), TestCaseError> {
    let dir = fresh_dir("fringe");
    let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(v, u) in &edges {
        model.entry(v).or_default().push(u);
    }
    let edges: Vec<Edge> = edges.iter().map(|&(v, u)| Edge::of(v, u)).collect();
    // Far beyond the level-0 file, one of them not a vertex word at all.
    let fringe: Vec<Gid> = fringe
        .into_iter()
        .map(Gid::new)
        .chain([Gid::new(1 << 40), Gid::NIL])
        .collect();
    let open = |dir: &PathBuf| {
        let mut db = GrdbGraphDb::open(dir, cfg.clone(), IoStats::new()).unwrap();
        for v in (0..FRINGE_IDS).filter(|&v| marked(v)) {
            db.set_metadata(Gid::new(v), MARK).unwrap();
        }
        db
    };
    let mut db = open(&dir);
    db.store_edges(&edges).unwrap();
    check_expansion(&mut db, &model, &fringe, "stored")?;
    db.store().defragment_all().unwrap();
    check_expansion(&mut db, &model, &fringe, "defragmented")?;
    db.flush().unwrap();
    drop(db);
    check_expansion(&mut open(&dir), &model, &fringe, "reopened")
}

/// Fringe and neighbour ids are drawn from `0..FRINGE_IDS`, sources from
/// the lower half (two level-0 segments under `tiny()`): the fringe is in
/// no order, repeats vertices, and names ids that were never a source,
/// inside the level-0 file and past its end.
const FRINGE_IDS: u64 = 64;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn fringe_expansion_equals_point_lookups(
        edges in prop::collection::vec((0..FRINGE_IDS / 2, 0..FRINGE_IDS), 1..400),
        fringe in prop::collection::vec(0..FRINGE_IDS, 0..80),
    ) {
        for growth in [GrowthPolicy::Link, GrowthPolicy::Move] {
            for cache_blocks in [0, 8] {
                let cfg = GrdbConfig { growth, cache_blocks, ..GrdbConfig::tiny() };
                check_fringe_equivalence(cfg, edges.clone(), fringe.clone())?;
            }
        }
    }

    #[test]
    fn tiny_geometry_link(ops in prop::collection::vec(arb_op(8), 1..250)) {
        check_model(GrdbConfig::tiny(), ops)?;
    }

    #[test]
    fn tiny_geometry_move(ops in prop::collection::vec(arb_op(8), 1..250)) {
        let mut cfg = GrdbConfig::tiny();
        cfg.growth = GrowthPolicy::Move;
        check_model(cfg, ops)?;
    }

    #[test]
    fn thesis_geometry(ops in prop::collection::vec(arb_op(64), 1..150)) {
        // The real level schedule; hub degrees stay below d0+d1 here, so
        // this exercises the level-0/level-1 boundary with 4 KB blocks.
        check_model(GrdbConfig::thesis_defaults(), ops)?;
    }

    #[test]
    fn uncached_tiny(ops in prop::collection::vec(arb_op(8), 1..150)) {
        let mut cfg = GrdbConfig::tiny();
        cfg.cache_blocks = 0;
        check_model(cfg, ops)?;
    }
}

#[test]
fn heavy_hub_through_all_levels_with_reopen() {
    // Deterministic heavy case: one hub accumulating 500 neighbours with
    // periodic reopen and defragment — exercises deep top-level chaining.
    let dir = fresh_dir("hub");
    let cfg = GrdbConfig::tiny();
    let mut store = GrdbStore::open(&dir, cfg.clone(), IoStats::new()).unwrap();
    let mut expected = Vec::new();
    for i in 0..500u64 {
        store
            .append_neighbours(Gid::new(3), &[Gid::new(1000 + i)])
            .unwrap();
        expected.push(1000 + i);
        if i % 97 == 0 {
            store.flush().unwrap();
            drop(store);
            store = GrdbStore::open(&dir, cfg.clone(), IoStats::new()).unwrap();
        }
        if i % 131 == 0 {
            store.defragment(Gid::new(3)).unwrap();
        }
    }
    let mut adj = Vec::new();
    store.read_adjacency(Gid::new(3), &mut adj).unwrap();
    let got: Vec<u64> = adj.iter().map(|g| g.raw()).collect();
    assert_eq!(got, expected);
    // The chain is long; defragment shortens it and preserves content.
    let before = store.chain_length(Gid::new(3)).unwrap();
    store.defragment(Gid::new(3)).unwrap();
    let after = store.chain_length(Gid::new(3)).unwrap();
    assert!(after <= before);
    adj.clear();
    store.read_adjacency(Gid::new(3), &mut adj).unwrap();
    assert_eq!(adj.iter().map(|g| g.raw()).collect::<Vec<_>>(), expected);
}
