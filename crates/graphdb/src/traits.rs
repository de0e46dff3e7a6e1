//! The `GraphDb` trait — Rust rendering of thesis Listing 3.1.

use mssg_types::{AdjBuffer, Edge, Gid, Meta, MetaOp, Result};

/// The GraphDB service interface.
///
/// Semantics carried over from the thesis:
///
/// - All operations are **local**: no method communicates with other nodes.
/// - [`adjacency`](GraphDb::adjacency) **appends** the (filtered) neighbours
///   of `v` to `out` and returns the empty set for vertices this node does
///   not store — Algorithm 1 depends on that to handle every distribution
///   case without special-casing.
/// - The metadata filter compares each *neighbour's* metadata word against
///   the `meta` argument under `op` (so a BFS fringe expansion can ask the
///   engine for "neighbours not yet at this level"). It is written once,
///   here: an engine supplies the unfiltered [`read_fringe`](GraphDb::read_fringe)
///   and its metadata words, and the provided reads filter what it appended.
/// - Metadata of a vertex never seen defaults to
///   [`UNVISITED`](mssg_types::UNVISITED).
pub trait GraphDb {
    /// Stores a batch of directed adjacency entries. (The ingestion service
    /// materialises each undirected edge as two directed entries before
    /// calling this.)
    fn store_edges(&mut self, edges: &[Edge]) -> Result<()>;

    /// Reads the metadata word of `v`.
    fn get_metadata(&mut self, v: Gid) -> Result<Meta>;

    /// Writes the metadata word of `v`.
    fn set_metadata(&mut self, v: Gid, meta: Meta) -> Result<()>;

    /// Appends to `out` every stored neighbour of every vertex in `fringe`,
    /// unfiltered; a vertex listed twice contributes twice, and unknown
    /// vertices contribute nothing. A one-vertex fringe appends its list
    /// in insertion order.
    ///
    /// This is the one read an engine implements. StreamDB answers it with
    /// a single scan of its edge log — the thesis' Active-Disk-style design
    /// requires search algorithms to "post a request for all of the fringe
    /// vertices at once" — and grDB with one block-ordered pass.
    fn read_fringe(&mut self, fringe: &[Gid], out: &mut AdjBuffer) -> Result<()>;

    /// Appends to `out` every neighbour `u` of `v` whose metadata satisfies
    /// `op` against `meta`. Unknown vertices contribute nothing.
    fn adjacency(&mut self, v: Gid, out: &mut AdjBuffer, meta: Meta, op: MetaOp) -> Result<()> {
        self.expand_fringe(std::slice::from_ref(&v), out, meta, op)
    }

    /// Expands a whole fringe at once: appends the filtered neighbours of
    /// every vertex in `fringe` to `out`, in [`read_fringe`](GraphDb::read_fringe)'s
    /// order. Metadata is read only when `op` compares it.
    fn expand_fringe(
        &mut self,
        fringe: &[Gid],
        out: &mut AdjBuffer,
        meta: Meta,
        op: MetaOp,
    ) -> Result<()> {
        let start = out.len();
        self.read_fringe(fringe, out)?;
        if op == MetaOp::Ignore {
            return Ok(());
        }
        let mut kept = start;
        for i in start..out.len() {
            let u = out.as_slice()[i];
            if op.admits(self.get_metadata(u)?, meta) {
                out.as_mut_slice()[kept] = u;
                kept += 1;
            }
        }
        out.truncate(kept);
        Ok(())
    }

    /// How many directed entries the ingestion service should accumulate
    /// before one [`store_edges`](GraphDb::store_edges) call: the capacity
    /// of the engine's largest storage block, in adjacency words. 0 (the
    /// default, for engines with no block geometry) means each window is
    /// stored as it arrives.
    fn store_batch_entries(&self) -> usize {
        0
    }

    /// Flushes buffered state to its final home (disk for out-of-core
    /// engines, the CSR arrays for `ArrayDb`). Called by the ingestion
    /// service when a stream ends.
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    /// Idle-time maintenance (e.g. grDB's background defragmentation).
    /// Default: nothing to do.
    fn maintenance(&mut self) -> Result<()> {
        Ok(())
    }

    /// The distinct source vertices stored locally (vertices whose
    /// adjacency list — or part of it, under edge granularity — lives on
    /// this node). Whole-graph analyses such as connected components use
    /// this to seed their per-node state.
    fn local_vertices(&mut self) -> Result<Vec<Gid>>;

    /// Number of directed adjacency entries stored locally.
    fn stored_entries(&self) -> u64;

    /// Block-cache counters `(hits, misses, evictions)` for engines that
    /// run one; `None` for engines without a cache. Feeds the
    /// `grdb.cache.*` gauges in cluster telemetry.
    fn cache_counters(&self) -> Option<(u64, u64, u64)> {
        None
    }

    /// Short engine name for reports ("Array", "grDB", …).
    fn backend_name(&self) -> &'static str;
}

/// Convenience helpers layered on [`GraphDb`].
pub trait GraphDbExt: GraphDb {
    /// All neighbours of `v`, unfiltered, as a fresh vector.
    fn neighbors(&mut self, v: Gid) -> Result<Vec<Gid>> {
        let mut buf = AdjBuffer::new();
        self.adjacency(v, &mut buf, 0, MetaOp::Ignore)?;
        Ok(buf.take())
    }

    /// Degree of `v` in this node's partition.
    fn degree(&mut self, v: Gid) -> Result<usize> {
        Ok(self.neighbors(v)?.len())
    }

    /// Stores one undirected edge as two directed entries.
    fn store_undirected(&mut self, e: Edge) -> Result<()> {
        self.store_edges(&[e, e.reversed()])
    }
}

impl<T: GraphDb + ?Sized> GraphDbExt for T {}

/// Groups a batch's entries by source vertex, so an engine walks each
/// vertex's storage once per batch: calls `each` with every source and its
/// run of destinations. Sources come in ascending order — file order for
/// an engine that addresses a vertex by its id, so one batch is one sweep
/// over the files — and each run keeps its entries in batch order, so a
/// vertex's neighbours are stored in stream order and a given stream
/// always lays out the same files.
pub fn group_by_source(
    edges: &[Edge],
    mut each: impl FnMut(Gid, &[Gid]) -> Result<()>,
) -> Result<()> {
    let mut sorted = edges.to_vec();
    sorted.sort_by_key(|e| e.src); // Stable: a run keeps batch order.
    let dsts: Vec<Gid> = sorted.iter().map(|e| e.dst).collect();
    let mut at = 0;
    for run in sorted.chunk_by(|a, b| a.src == b.src) {
        each(run[0].src, &dsts[at..at + run.len()])?;
        at += run.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Minimal reference implementation used to pin the default-method
    /// behaviour of the trait itself.
    #[derive(Default)]
    struct ToyDb {
        adj: HashMap<Gid, Vec<Gid>>,
        meta: HashMap<Gid, Meta>,
        entries: u64,
    }

    impl GraphDb for ToyDb {
        fn store_edges(&mut self, edges: &[Edge]) -> Result<()> {
            for e in edges {
                self.adj.entry(e.src).or_default().push(e.dst);
                self.entries += 1;
            }
            Ok(())
        }

        fn get_metadata(&mut self, v: Gid) -> Result<Meta> {
            Ok(self.meta.get(&v).copied().unwrap_or(mssg_types::UNVISITED))
        }

        fn set_metadata(&mut self, v: Gid, meta: Meta) -> Result<()> {
            self.meta.insert(v, meta);
            Ok(())
        }

        fn read_fringe(&mut self, fringe: &[Gid], out: &mut AdjBuffer) -> Result<()> {
            for v in fringe {
                out.extend_from_slice(self.adj.get(v).map_or(&[], Vec::as_slice));
            }
            Ok(())
        }

        fn local_vertices(&mut self) -> Result<Vec<Gid>> {
            let mut vs: Vec<Gid> = self.adj.keys().copied().collect();
            vs.sort_unstable();
            Ok(vs)
        }

        fn stored_entries(&self) -> u64 {
            self.entries
        }

        fn backend_name(&self) -> &'static str {
            "Toy"
        }
    }

    /// The filter compacts only the tail a call appended: what `out`
    /// held before stays, even where `op` would reject it.
    #[test]
    fn expand_fringe_filters_only_what_it_appended() {
        let mut db = ToyDb::default();
        db.store_edges(&[
            Edge::of(0, 1),
            Edge::of(0, 2),
            Edge::of(3, 1),
            Edge::of(3, 4),
        ])
        .unwrap();
        db.set_metadata(Gid::new(1), 5).unwrap();
        let mut out = AdjBuffer::new();
        out.push(Gid::new(1));
        db.expand_fringe(&[Gid::new(0), Gid::new(3)], &mut out, 5, MetaOp::NotEqual)
            .unwrap();
        assert_eq!(out.as_slice(), &[Gid::new(1), Gid::new(2), Gid::new(4)]);
    }

    #[test]
    fn ext_neighbors_and_degree() {
        let mut db = ToyDb::default();
        db.store_undirected(Edge::of(7, 8)).unwrap();
        assert_eq!(db.neighbors(Gid::new(7)).unwrap(), vec![Gid::new(8)]);
        assert_eq!(db.degree(Gid::new(8)).unwrap(), 1);
        assert_eq!(db.degree(Gid::new(9)).unwrap(), 0);
    }

    #[test]
    fn unknown_vertex_is_empty_not_error() {
        let mut db = ToyDb::default();
        let mut out = AdjBuffer::new();
        db.adjacency(Gid::new(99), &mut out, 0, MetaOp::Ignore)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn works_as_trait_object() {
        let mut db: Box<dyn GraphDb> = Box::new(ToyDb::default());
        db.store_edges(&[Edge::of(1, 2)]).unwrap();
        assert_eq!(db.stored_entries(), 1);
        // Ext methods resolve through the blanket impl for ?Sized.
        assert_eq!(db.neighbors(Gid::new(1)).unwrap(), vec![Gid::new(2)]);
    }

    /// The grouping of `edges` as a `BTreeMap`: ascending sources, each
    /// with its destinations in batch order.
    fn reference(edges: &[Edge]) -> Vec<(Gid, Vec<Gid>)> {
        let mut m: std::collections::BTreeMap<Gid, Vec<Gid>> = Default::default();
        for e in edges {
            m.entry(e.src).or_default().push(e.dst);
        }
        m.into_iter().collect()
    }

    fn grouped(edges: &[Edge]) -> Vec<(Gid, Vec<Gid>)> {
        let mut out = Vec::new();
        group_by_source(edges, |v, ns| {
            out.push((v, ns.to_vec()));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn group_by_source_sorts_sources_and_keeps_batch_order() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let shuffled: Vec<Edge> = (0..500)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Edge::of(x % 37, (x >> 20) % 11)
            })
            .collect();
        let cases = [
            shuffled,
            // Repeated sources, repeated entries, descending ids.
            vec![
                Edge::of(9, 1),
                Edge::of(2, 5),
                Edge::of(9, 1),
                Edge::of(0, 3),
                Edge::of(2, 4),
                Edge::of(9, 0),
                Edge::of(2, 5),
            ],
            vec![Edge::of(4, 4)],
            Vec::new(),
        ];
        for edges in &cases {
            assert_eq!(grouped(edges), reference(edges), "{edges:?}");
        }
    }
}
