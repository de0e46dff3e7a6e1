//! The Query service (thesis §3.3): "all implemented data analysis
//! techniques are registered with the system and can be queried by the
//! user". The registry is closed at compile time, like the six backends:
//! [`Query`] has one variant per analysis, [`Query::run`] executes one and
//! `encode`/`decode` are its wire form. [`QueryService::run`] is the one
//! string entry, a parse into a [`Query`] (plus `degree_distribution` and
//! `msf`, which have no variant yet).

use crate::bfs::{bfs, BfsOptions};
use crate::cluster::MssgCluster;
use crate::components::connected_components;
use crate::degrees::degree_distribution;
use crate::msf::minimum_spanning_forest;
use crate::visited::{PagedBitmap, VisitedSet};
use graphdb::GraphDbExt;
use mssg_types::{AdjBuffer, Gid, GraphStorageError, MetaOp, Result};
use std::collections::BTreeMap;
use std::str::FromStr;

/// Version byte leading every serving-plane payload, [`Query`]'s and
/// `mssg-serve`'s.
pub const ENCODING_VERSION: u8 = 2;

/// One query a client can ask of an MSSG deployment.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Query {
    /// Shortest path length from `source` to `dest` (BFS).
    Bfs {
        /// Search source vertex.
        source: Gid,
        /// Search destination vertex.
        dest: Gid,
    },
    /// Every vertex within `k` hops of `source`.
    KHop {
        /// Expansion source vertex.
        source: Gid,
        /// Hop bound.
        k: u32,
    },
    /// Total degree of `vertex` across the cluster.
    Degree {
        /// The vertex to look up.
        vertex: Gid,
    },
    /// Connected-component count over the whole graph.
    Components,
}

impl Query {
    const OP_BFS: u8 = 1;
    const OP_KHOP: u8 = 2;
    const OP_DEGREE: u8 = 3;
    const OP_COMPONENTS: u8 = 4;

    /// Executes the query on `cluster`: the answer text a client is served.
    pub fn run(&self, cluster: &MssgCluster) -> Result<String> {
        match *self {
            Query::Bfs { source, dest } => {
                let metrics = bfs(cluster, source, dest, &BfsOptions::default())?;
                Ok(match metrics.path_length {
                    Some(len) => format!(
                        "path_length={len} rounds={} edges_scanned={}",
                        metrics.rounds, metrics.edges_scanned
                    ),
                    None => "unreachable".to_string(),
                })
            }
            Query::KHop { source, k } => {
                let r = k_hop(cluster, source, k)?;
                Ok(format!(
                    "vertices={} edges_scanned={}",
                    r.vertices.len(),
                    r.edges_scanned
                ))
            }
            Query::Degree { vertex } => {
                let mut total = 0usize;
                for node in &cluster.members {
                    total += node.db().degree(vertex)?;
                }
                Ok(format!("degree={total}"))
            }
            Query::Components => {
                let r = connected_components(cluster)?;
                Ok(format!(
                    "components={} vertices={} largest={} rounds={}",
                    r.components, r.vertices, r.largest, r.rounds
                ))
            }
        }
    }

    /// The wire encoding: `[version][op][operands LE]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![ENCODING_VERSION];
        match self {
            Query::Bfs { source, dest } => {
                out.push(Self::OP_BFS);
                out.extend_from_slice(&source.raw().to_le_bytes());
                out.extend_from_slice(&dest.raw().to_le_bytes());
            }
            Query::KHop { source, k } => {
                out.push(Self::OP_KHOP);
                out.extend_from_slice(&source.raw().to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
            }
            Query::Degree { vertex } => {
                out.push(Self::OP_DEGREE);
                out.extend_from_slice(&vertex.raw().to_le_bytes());
            }
            Query::Components => out.push(Self::OP_COMPONENTS),
        }
        out
    }

    /// Decodes an encoded query, validating version, opcode, and length.
    /// Only the canonical encoding is accepted, so a decoded query's
    /// `encode()` equals `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Query> {
        let (&op, operands) = versioned(bytes, "query")?
            .split_first()
            .ok_or_else(|| GraphStorageError::Corrupt("query missing an opcode".into()))?;
        let q = match op {
            Self::OP_BFS => Query::Bfs {
                source: read_gid(operands, 0, "bfs.source")?,
                dest: read_gid(operands, 8, "bfs.dest")?,
            },
            Self::OP_KHOP => Query::KHop {
                source: read_gid(operands, 0, "khop.source")?,
                k: u32::from_le_bytes(bytes_at(operands, 8, "khop.k")?),
            },
            Self::OP_DEGREE => Query::Degree {
                vertex: read_gid(operands, 0, "degree.vertex")?,
            },
            Self::OP_COMPONENTS => Query::Components,
            other => {
                return Err(GraphStorageError::Corrupt(format!(
                    "unknown query opcode {other:#x}"
                )))
            }
        };
        if q.encode() != bytes {
            return Err(GraphStorageError::Corrupt(
                "query payload has trailing or missing bytes".into(),
            ));
        }
        Ok(q)
    }
}

/// The bytes after a serving-plane payload's version byte: another
/// [`ENCODING_VERSION`] is a typed `Unsupported`, an empty payload `Corrupt`.
pub fn versioned<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8]> {
    match bytes.split_first() {
        Some((&ENCODING_VERSION, rest)) => Ok(rest),
        Some((version, _)) => Err(GraphStorageError::Unsupported(format!(
            "{what} encoding v{version} (this end speaks v{ENCODING_VERSION})"
        ))),
        None => Err(GraphStorageError::Corrupt(format!("empty {what} payload"))),
    }
}

/// The `N` bytes at `bytes[at..]` (a little-endian operand), or a typed
/// `Corrupt` naming `what`.
pub fn bytes_at<const N: usize>(bytes: &[u8], at: usize, what: &str) -> Result<[u8; N]> {
    bytes
        .get(at..at + N)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| GraphStorageError::Corrupt(format!("{what}: payload too short")))
}

/// A vertex id off the wire: a word with a tag bit set is corrupt, not a
/// panic in the connection's reader.
fn read_gid(bytes: &[u8], at: usize, what: &str) -> Result<Gid> {
    let raw = u64::from_le_bytes(bytes_at(bytes, at, what)?);
    Gid::try_new(raw).ok_or_else(|| {
        GraphStorageError::Corrupt(format!(
            "{what}: {raw:#x} overflows the 61-bit vertex id space"
        ))
    })
}

/// Parameters of a named analysis, as key/value strings (the thin waist
/// a user-facing front end would marshal into).
pub type QueryParams = BTreeMap<String, String>;

/// The Query service's string entry: analyses by name.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryService;

impl QueryService {
    /// The service; it holds nothing.
    pub fn new() -> QueryService {
        QueryService
    }

    /// Runs the analysis `name` with `params` against `cluster`: `bfs`
    /// (`source`, `dest`), `khop` (`source`, `k`), `degree` (`vertex`),
    /// `components`, and the parameterless `degree_distribution` and `msf`.
    pub fn run(&self, cluster: &MssgCluster, name: &str, params: &QueryParams) -> Result<String> {
        let query = match name {
            "bfs" => Query::Bfs {
                source: param_gid(params, "source")?,
                dest: param_gid(params, "dest")?,
            },
            "khop" => Query::KHop {
                source: param_gid(params, "source")?,
                k: param(params, "k")?,
            },
            "degree" => Query::Degree {
                vertex: param_gid(params, "vertex")?,
            },
            "components" => Query::Components,
            "degree_distribution" => {
                let r = degree_distribution(cluster)?;
                return Ok(format!(
                    "vertices={} max_degree={} avg_degree={:.2} powerlaw={}",
                    r.vertices,
                    r.max_degree,
                    r.avg_degree,
                    r.powerlaw_exponent
                        .map_or("n/a".to_string(), |b| format!("{b:.2}"))
                ));
            }
            "msf" => {
                let r = minimum_spanning_forest(cluster)?;
                return Ok(format!(
                    "forest_edges={} total_weight={} components={} rounds={}",
                    r.edges.len(),
                    r.total_weight,
                    r.components,
                    r.rounds
                ));
            }
            other => {
                return Err(GraphStorageError::Query(format!(
                    "no analysis {other:?} (have: bfs, components, degree, \
                     degree_distribution, khop, msf)"
                )))
            }
        };
        query.run(cluster)
    }
}

fn param<T: FromStr>(params: &QueryParams, key: &str) -> Result<T> {
    let raw = params
        .get(key)
        .ok_or_else(|| GraphStorageError::Query(format!("missing parameter {key:?}")))?;
    raw.parse().map_err(|_| {
        let want = std::any::type_name::<T>();
        GraphStorageError::Query(format!("parameter {key:?} = {raw:?} is not a {want}"))
    })
}

fn param_gid(params: &QueryParams, key: &str) -> Result<Gid> {
    let raw = param(params, key)?;
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

/// What a k-hop expansion works in: the visited set, the vertices reached
/// so far — level by level, so the last level is the fringe — and the
/// adjacency buffer. The cluster keeps idle ones, and an expansion takes
/// one and hands it back, so a warm expansion allocates only its answer.
#[derive(Default)]
pub(crate) struct HopScratch {
    visited: PagedBitmap,
    reached: Vec<Gid>,
    adj: AdjBuffer,
}

/// The k-hop neighborhood of `source`: every vertex reachable in at most
/// `k` hops. A level-synchronous expansion on the front end from the
/// pieces BFS's level kernel is made of: per level, one `expand_fringe` of
/// the whole fringe on *every* back-end — correct under all three
/// declustering strategies (an edge-granularity ingestion scatters a
/// vertex's list across nodes, so the union is required) — filtered
/// through one visited set into the next fringe.
pub fn k_hop(cluster: &MssgCluster, source: Gid, k: u32) -> Result<KHopResult> {
    let mut scratch = cluster.hops.lock().pop().unwrap_or_default();
    let HopScratch {
        visited,
        reached,
        adj,
    } = &mut scratch;
    visited.reset();
    reached.clear();
    visited.visit_new(&[source], reached)?;
    let mut fringe = 0..reached.len();
    let mut edges_scanned = 0u64;
    for _ in 0..k {
        for node in &cluster.members {
            adj.clear();
            node.db()
                .expand_fringe(&reached[fringe.clone()], adj, 0, MetaOp::Ignore)?;
            edges_scanned += adj.len() as u64;
            visited.visit_new(adj.as_slice(), reached)?;
        }
        if reached.len() == fringe.end {
            break;
        }
        fringe = fringe.end..reached.len();
    }
    let mut vertices = reached.to_vec();
    cluster.hops.lock().push(scratch);
    vertices.sort_unstable();
    Ok(KHopResult {
        source,
        k,
        vertices,
        edges_scanned,
    })
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
    fn khop_after_a_larger_expansion_returns_only_its_own_neighbourhood() {
        // Every expansion reuses the one scratch the cluster keeps, and
        // answers as an expansion on a cluster of its own does.
        let c = cluster("khop-reuse");
        let expansions = [(0, 10), (5, 1), (10, 3), (9999, 2), (5, 2), (2, 0)];
        for (i, (source, k)) in expansions.into_iter().enumerate() {
            let r = k_hop(&c, Gid::new(source), k).unwrap();
            let want: Vec<Gid> = match source {
                0..=10 => (source.saturating_sub(k as u64)..=(source + k as u64).min(10))
                    .map(Gid::new)
                    .collect(),
                _ => vec![Gid::new(source)],
            };
            assert_eq!(r.vertices, want, "k_hop({source}, {k})");
            let alone = k_hop(&cluster(&format!("khop-alone-{i}")), Gid::new(source), k).unwrap();
            assert_eq!(r, alone, "k_hop({source}, {k})");
        }
        assert_eq!(c.hops.lock().len(), 1, "one scratch, reused");
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
    fn typed_and_string_paths_agree() {
        let c = cluster("agree");
        let svc = QueryService::new();
        for (query, name, p) in [
            (
                Query::Bfs {
                    source: Gid::new(0),
                    dest: Gid::new(4),
                },
                "bfs",
                params(&[("source", "0"), ("dest", "4")]),
            ),
            (
                Query::KHop {
                    source: Gid::new(5),
                    k: 2,
                },
                "khop",
                params(&[("source", "5"), ("k", "2")]),
            ),
            (
                Query::Degree {
                    vertex: Gid::new(5),
                },
                "degree",
                params(&[("vertex", "5")]),
            ),
            (Query::Components, "components", params(&[])),
        ] {
            assert_eq!(
                svc.run(&c, name, &p).unwrap(),
                query.run(&c).unwrap(),
                "{query:?}"
            );
        }
    }

    fn all_queries() -> Vec<Query> {
        vec![
            Query::Bfs {
                source: Gid::new(7),
                dest: Gid::new(999),
            },
            Query::KHop {
                source: Gid::new(0),
                k: 3,
            },
            Query::Degree {
                vertex: Gid::new(u64::MAX >> 8),
            },
            Query::Components,
        ]
    }

    #[test]
    fn queries_round_trip() {
        for q in all_queries() {
            assert_eq!(Query::decode(&q.encode()).unwrap(), q, "{q:?}");
        }
    }

    #[test]
    fn version_opcode_and_length_are_validated() {
        let mut wrong_version = Query::Components.encode();
        wrong_version[0] = 9;
        assert!(matches!(
            Query::decode(&wrong_version),
            Err(GraphStorageError::Unsupported(_))
        ));
        // The previous encoding's requests are refused, typed.
        assert!(matches!(
            Query::decode(&[1, 4]),
            Err(GraphStorageError::Unsupported(_))
        ));
        assert!(matches!(
            Query::decode(&[ENCODING_VERSION, 0xEE]),
            Err(GraphStorageError::Corrupt(_))
        ));
        // Truncated operands and trailing garbage are both corrupt.
        let bfs = Query::Bfs {
            source: Gid::new(1),
            dest: Gid::new(2),
        }
        .encode();
        assert!(Query::decode(&bfs[..bfs.len() - 1]).is_err());
        let mut extra = bfs.clone();
        extra.push(0);
        assert!(Query::decode(&extra).is_err());
        assert!(Query::decode(&[]).is_err());
        // A vertex id with a tag bit set is corrupt, in every id operand.
        let tagged = Gid::tagged(1, 0).raw().to_le_bytes();
        let q = all_queries();
        for (q, at) in [(&q[0], 2), (&q[0], 10), (&q[1], 2), (&q[2], 2)] {
            let mut e = q.encode();
            e[at..at + 8].copy_from_slice(&tagged);
            assert!(
                matches!(Query::decode(&e), Err(GraphStorageError::Corrupt(_))),
                "{q:?} with a tagged id at byte {at}"
            );
        }
    }
}
