//! The Query service (thesis §3.3).
//!
//! "All implemented data analysis techniques are registered with the system
//! and can be queried by the user." [`QueryService`] is that registry: a
//! named table of analyses, each a function from a parameter struct to a
//! serialisable result. BFS relationship analysis (§4.2) is pre-registered;
//! applications add their own with [`QueryService::register`].

use crate::bfs::{bfs, BfsOptions};
use crate::cluster::MssgCluster;
use crate::components::connected_components;
use crate::degrees::degree_distribution;
use crate::msf::minimum_spanning_forest;
use crate::visited::{PagedBitmap, VisitedSet};
use mssg_types::{AdjBuffer, Gid, GraphStorageError, MetaOp, Result};
use std::collections::BTreeMap;

/// Parameters of a registered analysis, as key/value strings (the thin
/// waist a user-facing front end would marshal into).
pub type QueryParams = BTreeMap<String, String>;

/// A registered analysis.
pub type Analysis = Box<dyn Fn(&MssgCluster, &QueryParams) -> Result<String> + Send + Sync>;

/// The analysis registry.
pub struct QueryService {
    analyses: BTreeMap<String, Analysis>,
}

impl QueryService {
    /// A service with the built-in analyses registered: `bfs` (path search)
    /// and `degree` (local degree lookup).
    pub fn new() -> QueryService {
        let mut svc = QueryService {
            analyses: BTreeMap::new(),
        };
        svc.register("bfs", Box::new(run_bfs_analysis));
        svc.register("components", Box::new(run_components_analysis));
        svc.register("degree", Box::new(run_degree_analysis));
        svc.register("degree_distribution", Box::new(run_degree_distribution));
        svc.register("khop", Box::new(run_khop_analysis));
        svc.register("msf", Box::new(run_msf_analysis));
        svc
    }

    /// Registers (or replaces) an analysis under `name`.
    pub fn register(&mut self, name: &str, analysis: Analysis) {
        self.analyses.insert(name.to_string(), analysis);
    }

    /// Names of the registered analyses.
    pub fn registered(&self) -> Vec<&str> {
        self.analyses.keys().map(String::as_str).collect()
    }

    /// Runs the analysis `name` with `params` against `cluster`.
    pub fn run(&self, cluster: &MssgCluster, name: &str, params: &QueryParams) -> Result<String> {
        let analysis = self.analyses.get(name).ok_or_else(|| {
            GraphStorageError::Query(format!(
                "no analysis {name:?} registered (have: {:?})",
                self.registered()
            ))
        })?;
        analysis(cluster, params)
    }
}

impl Default for QueryService {
    fn default() -> Self {
        QueryService::new()
    }
}

fn param_u64(params: &QueryParams, key: &str) -> Result<u64> {
    params
        .get(key)
        .ok_or_else(|| GraphStorageError::Query(format!("missing parameter {key:?}")))?
        .parse()
        .map_err(|_| GraphStorageError::Query(format!("parameter {key:?} is not an integer")))
}

fn param_gid(params: &QueryParams, key: &str) -> Result<Gid> {
    let raw = param_u64(params, key)?;
    Gid::try_new(raw).ok_or_else(|| {
        GraphStorageError::Query(format!(
            "parameter {key:?} = {raw} overflows the 61-bit vertex id space"
        ))
    })
}

/// Result of a [`k_hop`] neighborhood expansion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KHopResult {
    /// The expansion source.
    pub source: Gid,
    /// The hop bound the expansion ran to.
    pub k: u32,
    /// Every vertex within `k` hops of `source` (source included),
    /// ascending. A source absent from the graph has no neighbours, so
    /// the result is just `[source]`.
    pub vertices: Vec<Gid>,
    /// Directed adjacency entries scanned during the expansion.
    pub edges_scanned: u64,
}

/// The k-hop neighborhood of `source`: every vertex reachable in at most
/// `k` hops. A level-synchronous expansion on the front end from the
/// pieces BFS's level kernel is made of: per level, one `expand_fringe` of
/// the whole fringe on *every* back-end — correct under all three
/// declustering strategies (an edge-granularity ingestion scatters a
/// vertex's list across nodes, so the union is required) — filtered
/// through one visited set into the next fringe.
pub fn k_hop(cluster: &MssgCluster, source: Gid, k: u32) -> Result<KHopResult> {
    let mut visited = PagedBitmap::new();
    let mut vertices = Vec::new();
    visited.visit_new(&[source], &mut vertices)?;
    let mut fringe: Vec<Gid> = vec![source];
    let mut next: Vec<Gid> = Vec::new();
    let mut adj = AdjBuffer::new();
    let mut edges_scanned = 0u64;
    for _ in 0..k {
        for node in 0..cluster.nodes() {
            adj.clear();
            cluster.with_backend(node, |db| {
                db.expand_fringe(&fringe, &mut adj, 0, MetaOp::Ignore)
            })?;
            edges_scanned += adj.len() as u64;
            visited.visit_new(adj.as_slice(), &mut next)?;
        }
        if next.is_empty() {
            break;
        }
        vertices.extend_from_slice(&next);
        fringe.clear();
        std::mem::swap(&mut fringe, &mut next);
    }
    vertices.sort_unstable();
    Ok(KHopResult {
        source,
        k,
        vertices,
        edges_scanned,
    })
}

fn run_khop_analysis(cluster: &MssgCluster, params: &QueryParams) -> Result<String> {
    let source = param_gid(params, "source")?;
    let k = param_u64(params, "k")?;
    let k = u32::try_from(k)
        .map_err(|_| GraphStorageError::Query(format!("parameter \"k\" = {k} exceeds u32")))?;
    let r = k_hop(cluster, source, k)?;
    Ok(format!(
        "vertices={} edges_scanned={}",
        r.vertices.len(),
        r.edges_scanned
    ))
}

fn run_bfs_analysis(cluster: &MssgCluster, params: &QueryParams) -> Result<String> {
    let source = param_gid(params, "source")?;
    let dest = param_gid(params, "dest")?;
    let metrics = bfs(cluster, source, dest, &BfsOptions::default())?;
    Ok(match metrics.path_length {
        Some(len) => format!(
            "path_length={len} rounds={} edges_scanned={}",
            metrics.rounds, metrics.edges_scanned
        ),
        None => "unreachable".to_string(),
    })
}

fn run_components_analysis(cluster: &MssgCluster, _params: &QueryParams) -> Result<String> {
    let r = connected_components(cluster)?;
    Ok(format!(
        "components={} vertices={} largest={} rounds={}",
        r.components, r.vertices, r.largest, r.rounds
    ))
}

fn run_degree_distribution(cluster: &MssgCluster, _params: &QueryParams) -> Result<String> {
    let r = degree_distribution(cluster)?;
    Ok(format!(
        "vertices={} max_degree={} avg_degree={:.2} powerlaw={}",
        r.vertices,
        r.max_degree,
        r.avg_degree,
        r.powerlaw_exponent
            .map_or("n/a".to_string(), |b| format!("{b:.2}"))
    ))
}

fn run_msf_analysis(cluster: &MssgCluster, _params: &QueryParams) -> Result<String> {
    let r = minimum_spanning_forest(cluster)?;
    Ok(format!(
        "forest_edges={} total_weight={} components={} rounds={}",
        r.edges.len(),
        r.total_weight,
        r.components,
        r.rounds
    ))
}

fn run_degree_analysis(cluster: &MssgCluster, params: &QueryParams) -> Result<String> {
    use graphdb::GraphDbExt;
    let v = param_gid(params, "vertex")?;
    let mut total = 0usize;
    for i in 0..cluster.nodes() {
        total += cluster.with_backend(i, |db| db.degree(v))?;
    }
    Ok(format!("degree={total}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, BackendOptions};
    use crate::ingest::{ingest, IngestOptions};
    use mssg_types::Edge;

    fn cluster(tag: &str) -> MssgCluster {
        let dir = std::env::temp_dir().join(format!("core-query-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let edges: Vec<Edge> = (0..10).map(|i| Edge::of(i, i + 1)).collect();
        ingest(&mut c, edges.into_iter(), &IngestOptions::default()).unwrap();
        c
    }

    fn params(pairs: &[(&str, &str)]) -> QueryParams {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn builtins_registered() {
        let svc = QueryService::new();
        assert_eq!(
            svc.registered(),
            vec![
                "bfs",
                "components",
                "degree",
                "degree_distribution",
                "khop",
                "msf"
            ]
        );
    }

    #[test]
    fn components_analysis_by_name() {
        let c = cluster("components");
        let svc = QueryService::new();
        let out = svc.run(&c, "components", &params(&[])).unwrap();
        assert!(out.contains("components=1"), "{out}");
        assert!(out.contains("vertices=11"), "{out}");
    }

    #[test]
    fn bfs_analysis_by_name() {
        let c = cluster("bfs");
        let svc = QueryService::new();
        let out = svc
            .run(&c, "bfs", &params(&[("source", "0"), ("dest", "4")]))
            .unwrap();
        assert!(out.contains("path_length=4"), "{out}");
    }

    #[test]
    fn bfs_analysis_unreachable() {
        let c = cluster("unreach");
        let svc = QueryService::new();
        let out = svc
            .run(&c, "bfs", &params(&[("source", "0"), ("dest", "5000")]))
            .unwrap();
        assert_eq!(out, "unreachable");
    }

    #[test]
    fn degree_distribution_analysis() {
        let c = cluster("degdist");
        let svc = QueryService::new();
        let out = svc.run(&c, "degree_distribution", &params(&[])).unwrap();
        assert!(out.contains("vertices=11"), "{out}");
        assert!(out.contains("max_degree=2"), "{out}");
    }

    #[test]
    fn msf_analysis_by_name() {
        let c = cluster("msf");
        let svc = QueryService::new();
        let out = svc.run(&c, "msf", &params(&[])).unwrap();
        assert!(out.contains("forest_edges=10"), "{out}");
        assert!(out.contains("components=1"), "{out}");
    }

    #[test]
    fn degree_analysis() {
        let c = cluster("deg");
        let svc = QueryService::new();
        let out = svc.run(&c, "degree", &params(&[("vertex", "5")])).unwrap();
        assert_eq!(out, "degree=2");
    }

    #[test]
    fn unknown_analysis_and_bad_params() {
        let c = cluster("err");
        let svc = QueryService::new();
        assert!(svc.run(&c, "pagerank", &params(&[])).is_err());
        assert!(svc.run(&c, "bfs", &params(&[("source", "0")])).is_err());
        assert!(svc
            .run(&c, "bfs", &params(&[("source", "x"), ("dest", "1")]))
            .is_err());
        // An id past 61 bits, and a hop bound past 32, are refused, not
        // a panic and not a truncated k.
        let tagged = (1u64 << 61).to_string();
        let tagged = tagged.as_str();
        for (name, p) in [
            ("bfs", params(&[("source", tagged), ("dest", "1")])),
            ("khop", params(&[("source", tagged), ("k", "1")])),
            ("degree", params(&[("vertex", tagged)])),
            ("khop", params(&[("source", "5"), ("k", "4294967298")])),
        ] {
            assert!(
                matches!(svc.run(&c, name, &p), Err(GraphStorageError::Query(_))),
                "{name} {p:?}"
            );
        }
    }

    #[test]
    fn khop_expands_the_chain() {
        let c = cluster("khop");
        // Chain 0–1–…–10: 2 hops from vertex 5 reach {3,4,5,6,7}.
        let r = k_hop(&c, Gid::new(5), 2).unwrap();
        assert_eq!(
            r.vertices,
            (3..=7).map(Gid::new).collect::<Vec<_>>(),
            "sorted 2-hop ball around 5"
        );
        assert!(r.edges_scanned > 0);
        let out = QueryService::new()
            .run(&c, "khop", &params(&[("source", "5"), ("k", "2")]))
            .unwrap();
        assert!(out.contains("vertices=5"), "{out}");
    }

    #[test]
    fn khop_from_absent_vertex_is_just_the_source() {
        let c = cluster("khop-absent");
        let r = k_hop(&c, Gid::new(9999), 3).unwrap();
        assert_eq!(r.vertices, vec![Gid::new(9999)]);
        assert_eq!(r.edges_scanned, 0, "an absent vertex has no adjacency");
        // k = 0 never expands, present or not.
        let r0 = k_hop(&c, Gid::new(5), 0).unwrap();
        assert_eq!(r0.vertices, vec![Gid::new(5)]);
    }

    #[test]
    fn bfs_on_an_empty_epoch_is_unreachable_not_an_error() {
        // A cluster before its first ingestion: epoch 0, no edges at all.
        let dir = std::env::temp_dir().join(format!("core-query-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        assert_eq!(c.epoch(), 0);
        let svc = QueryService::new();
        let out = svc
            .run(&c, "bfs", &params(&[("source", "0"), ("dest", "1")]))
            .unwrap();
        assert_eq!(out, "unreachable");
        let r = k_hop(&c, Gid::new(0), 4).unwrap();
        assert_eq!(r.vertices, vec![Gid::new(0)]);
    }

    #[test]
    fn custom_analysis_registration() {
        let c = cluster("custom");
        let mut svc = QueryService::new();
        svc.register(
            "node_count",
            Box::new(|cluster, _| Ok(format!("nodes={}", cluster.nodes()))),
        );
        assert_eq!(svc.run(&c, "node_count", &params(&[])).unwrap(), "nodes=2");
    }
}
