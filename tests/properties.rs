//! Property-based tests over the core invariants, spanning crates.
//!
//! Strategy: generate random edge sets / operation sequences; check every
//! storage engine against the in-memory `HashMapDb` reference and the
//! parallel BFS against a sequential oracle.

use mssg::core::bfs::{bfs, BfsOptions};
use mssg::core::ingest::{ingest, IngestOptions};
use mssg::core::{BackendKind, BackendOptions, MssgCluster};
use mssg::graphdb::{chunk, GraphDb, GraphDbExt, HashMapDb};
use mssg::prelude::*;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mssg-prop-{}-{tag}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn arb_edges(max_v: u64, max_e: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..max_v, 0..max_v), 1..max_e)
        .prop_map(|pairs| pairs.into_iter().map(|(a, b)| Edge::of(a, b)).collect())
}

fn oracle_bfs(edges: &[Edge], source: Gid, dest: Gid) -> Option<u32> {
    if source == dest {
        return Some(0);
    }
    let mut adj: HashMap<Gid, Vec<Gid>> = HashMap::new();
    for e in edges {
        adj.entry(e.src).or_default().push(e.dst);
        adj.entry(e.dst).or_default().push(e.src);
    }
    let mut dist: HashMap<Gid, u32> = HashMap::new();
    dist.insert(source, 0);
    let mut q = VecDeque::from([source]);
    while let Some(v) = q.pop_front() {
        let d = dist[&v];
        for &u in adj.get(&v).into_iter().flatten() {
            if u == dest {
                return Some(d + 1);
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(u) {
                e.insert(d + 1);
                q.push_back(u);
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Every other engine returns exactly the adjacency lists the
    /// in-memory reference returns, for arbitrary edge batches — filtered
    /// by arbitrary per-vertex words under any `MetaOp`, one vertex at a
    /// time and as a fringe with repeats. Vertices 24..30 are never
    /// stored.
    #[test]
    fn storage_engines_match_reference(
        edges in arb_edges(24, 300),
        words in prop::collection::vec(0..5 as Meta, 30),
        code in -2i8..3,
        meta in 0..5 as Meta,
        fringe in prop::collection::vec(0u64..30, 0..16),
    ) {
        // Word 4 is left unset, and reads UNVISITED; `meta` 4 compares
        // against UNVISITED.
        let words: Vec<Option<Meta>> = words.into_iter().map(|w| Some(w).filter(|&w| w < 4)).collect();
        let meta = if meta == 4 { UNVISITED } else { meta };
        let op = MetaOp::from_code(code).unwrap();
        let word = |u: &Gid| words[u.index()].unwrap_or(UNVISITED);
        let fringe: Vec<Gid> = fringe.into_iter().map(Gid::new).collect();
        let sorted = |mut vs: Vec<Gid>| {
            vs.sort_unstable();
            vs
        };
        let expand = |db: &mut dyn GraphDb, fringe: &[Gid], op| {
            let mut out = AdjBuffer::new();
            db.expand_fringe(fringe, &mut out, meta, op).unwrap();
            out.take()
        };
        let adjacency = |db: &mut dyn GraphDb, v, op| {
            let mut out = AdjBuffer::new();
            db.adjacency(v, &mut out, meta, op).unwrap();
            out.take()
        };
        let mut reference = HashMapDb::new();
        reference.store_edges(&edges).unwrap();
        for (v, w) in words.iter().enumerate() {
            if let Some(w) = *w {
                reference.set_metadata(Gid::new(v as u64), w).unwrap();
            }
        }
        for kind in [BackendKind::Grdb, BackendKind::BerkeleyDb, BackendKind::MySql,
                     BackendKind::StreamDb, BackendKind::Array] {
            let name = kind.name();
            let dir = tmpdir(&format!("engines-{name}"));
            let mut db = mssg::core::backend::open_backend(
                kind, &dir, &BackendOptions::default(), mssg::simio::IoStats::new(),
            ).unwrap();
            db.store_edges(&edges).unwrap();
            db.flush().unwrap();
            for (v, w) in words.iter().enumerate() {
                if let Some(w) = *w {
                    db.set_metadata(Gid::new(v as u64), w).unwrap();
                }
            }
            for v in (0..30u64).map(Gid::new) {
                prop_assert_eq!(db.get_metadata(v).unwrap(), word(&v), "{} word of {:?}", name, v);
                let all = adjacency(db.as_mut(), v, MetaOp::Ignore);
                let kept = adjacency(db.as_mut(), v, op);
                prop_assert_eq!(
                    sorted(kept.clone()), sorted(adjacency(&mut reference, v, op)),
                    "{} {:?} of {:?}", name, op, v
                );
                let want: Vec<Gid> = all.into_iter().filter(|u| op.admits(word(u), meta)).collect();
                prop_assert_eq!(kept, want, "{} {:?} of {:?} drops in order", name, op, v);
            }
            let all = expand(db.as_mut(), &fringe, MetaOp::Ignore);
            let kept = expand(db.as_mut(), &fringe, op);
            prop_assert_eq!(
                sorted(kept.clone()), sorted(expand(&mut reference, &fringe, op)),
                "{} {:?} of fringe {:?}", name, op, &fringe
            );
            let want: Vec<Gid> = all.into_iter().filter(|u| op.admits(word(u), meta)).collect();
            prop_assert_eq!(kept, want, "{} {:?} of fringe drops in order", name, op);
            // An unknown vertex adds nothing, and leaves what `out` held.
            let mut out = AdjBuffer::new();
            out.push(Gid::new(7));
            db.adjacency(Gid::new(29), &mut out, meta, MetaOp::Ignore).unwrap();
            db.expand_fringe(&[Gid::new(24), Gid::new(29)], &mut out, meta, op).unwrap();
            prop_assert_eq!(out.as_slice(), &[Gid::new(7)], "{}", name);
        }
    }

    /// The distributed out-of-core BFS agrees with a sequential oracle on
    /// arbitrary graphs, cluster sizes, and query pairs.
    #[test]
    fn parallel_bfs_matches_oracle(
        edges in arb_edges(30, 200),
        nodes in 1usize..5,
        s in 0u64..30,
        d in 0u64..30,
    ) {
        let dir = tmpdir("bfs");
        let mut cluster = MssgCluster::new(
            &dir, nodes, BackendKind::HashMap, &BackendOptions::default(),
        ).unwrap();
        ingest(&mut cluster, edges.clone().into_iter(), &IngestOptions::default()).unwrap();
        let got = bfs(&cluster, Gid::new(s), Gid::new(d), &BfsOptions::default())
            .unwrap()
            .path_length;
        let want = oracle_bfs(&edges, Gid::new(s), Gid::new(d));
        prop_assert_eq!(got, want, "{} nodes, {}->{}", nodes, s, d);
    }

    /// Pipelined BFS (Algorithm 2) is equivalent to Algorithm 1 for any
    /// threshold.
    #[test]
    fn pipelined_bfs_equivalent(
        edges in arb_edges(25, 150),
        threshold in 1usize..64,
        s in 0u64..25,
        d in 0u64..25,
    ) {
        let dir = tmpdir("pipe");
        let mut cluster = MssgCluster::new(
            &dir, 3, BackendKind::HashMap, &BackendOptions::default(),
        ).unwrap();
        ingest(&mut cluster, edges.into_iter(), &IngestOptions::default()).unwrap();
        let a = bfs(&cluster, Gid::new(s), Gid::new(d), &BfsOptions::default())
            .unwrap().path_length;
        let b = bfs(&cluster, Gid::new(s), Gid::new(d), &BfsOptions {
            mode: mssg::core::BfsMode::Pipelined { threshold },
            ..Default::default()
        }).unwrap().path_length;
        prop_assert_eq!(a, b);
    }

    /// The adjacency chunk codec round-trips arbitrary lists at arbitrary
    /// chunk sizes.
    #[test]
    fn chunk_codec_roundtrip(
        raw in prop::collection::vec(0u64..1_000_000, 0..500),
        chunk_bytes in 12usize..256,
    ) {
        let gids: Vec<Gid> = raw.into_iter().map(Gid::new).collect();
        let chunks = chunk::encode(&gids, chunk_bytes);
        let back = chunk::decode_all(chunks.iter().map(|c| c.as_slice())).unwrap();
        prop_assert_eq!(back, gids.clone());
        // Every chunk except the last is exactly full.
        for c in chunks.iter().rev().skip(1) {
            prop_assert_eq!(
                chunk::chunk_len(c).unwrap(),
                chunk::capacity(chunk_bytes)
            );
        }
        let _ = gids;
    }

    /// grDB defragmentation never changes the stored adjacency data.
    #[test]
    fn grdb_defrag_preserves_data(edges in arb_edges(12, 250)) {
        use mssg::grdb::{GrdbConfig, GrdbGraphDb};
        let dir = tmpdir("defrag");
        let mut db = GrdbGraphDb::open(
            &dir, GrdbConfig::tiny(), mssg::simio::IoStats::new(),
        ).unwrap();
        db.store_edges(&edges).unwrap();
        let before: Vec<Vec<Gid>> = (0..12)
            .map(|v| db.neighbors(Gid::new(v)).unwrap())
            .collect();
        db.store().defragment_all().unwrap();
        for v in 0..12u64 {
            prop_assert_eq!(
                db.neighbors(Gid::new(v)).unwrap(),
                before[v as usize].clone(),
                "vertex {} changed after defragment", v
            );
        }
    }

    /// No declustering loses or duplicates a directed entry: the union
    /// over all nodes equals the input.
    #[test]
    fn declustering_is_a_partition(edges in arb_edges(20, 200), nodes in 1usize..6) {
        use mssg::core::decluster::{DeclusterKind, Declustering};
        for kind in [
            DeclusterKind::VertexHash,
            DeclusterKind::VertexRoundRobin,
            DeclusterKind::EdgeRoundRobin,
        ] {
            let mut placement = Declustering::new(kind, nodes);
            let mut all: Vec<(usize, Edge)> = Vec::new();
            for (&e, pos) in edges.iter().zip(0..) {
                all.extend(placement.assign(e, pos));
            }
            prop_assert_eq!(all.len(), edges.len() * 2);
            prop_assert!(all.iter().all(|&(n, _)| n < nodes));
            let mut got: Vec<Edge> = all.into_iter().map(|(_, e)| e).collect();
            let mut want: Vec<Edge> =
                edges.iter().flat_map(|e| [*e, e.reversed()]).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// kvdb behaves like a BTreeMap under arbitrary operation sequences.
    #[test]
    fn kvdb_matches_btreemap(
        ops in prop::collection::vec((0u16..200, 0usize..3, 0usize..40), 1..300),
    ) {
        use mssg::kvdb::KvStore;
        let dir = tmpdir("kv");
        let mut store = KvStore::open_default(&dir.join("p.db")).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for (key, op, len) in ops {
            let k = key.to_be_bytes();
            match op {
                0 => {
                    let v = vec![(key % 251) as u8; len];
                    store.put(&k, &v).unwrap();
                    model.insert(k.to_vec(), v);
                }
                1 => {
                    let got = store.delete(&k).unwrap();
                    prop_assert_eq!(got, model.remove(k.as_slice()).is_some());
                }
                _ => {
                    let got = store.get(&k).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(k.as_slice()));
                }
            }
        }
        prop_assert_eq!(store.len() as usize, model.len());
        let scanned = store.range_to_vec(None, None).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expected);
    }
}
