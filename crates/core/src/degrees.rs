//! Distributed degree-distribution analysis.
//!
//! The degree histogram is the fingerprint of a scale-free graph — the
//! thesis' Table 5.1 columns and the power-law property both derive from
//! it. This analysis computes it over the *stored* graph (not the input
//! stream): each processor measures the degrees of its local partition and
//! ships `(vertex, partial degree)` pairs to hash owners, which sum the
//! partials (under edge granularity a vertex's adjacency is spread over
//! many nodes) and fold the totals into a histogram.

use crate::cluster::MssgCluster;
use crate::decluster::hash_node;
use crate::superstep;
use crate::telemetry::TelemetryReport;
use datacutter::superstep::Phase;
use graphdb::GraphDbExt;
use mssg_types::Result;
use std::collections::HashMap;

/// Result of a degree-distribution run.
#[derive(Clone, Debug)]
pub struct DegreeReport {
    /// `histogram[d]` = number of vertices with degree `d` (index 0 unused
    /// for graphs without isolated vertices).
    pub histogram: Vec<u64>,
    /// Distinct vertices.
    pub vertices: u64,
    /// Sum of all degrees (= 2 × undirected edges when both directions are
    /// stored).
    pub degree_sum: u64,
    /// Maximum degree.
    pub max_degree: u64,
    /// Mean degree.
    pub avg_degree: f64,
    /// Least-squares power-law exponent fit of the histogram tail, when
    /// enough points exist.
    pub powerlaw_exponent: Option<f64>,
    /// Time, traffic, and per-filter breakdown of the run.
    pub telemetry: TelemetryReport,
}

/// (vertex, partial degree), to the vertex's hash owner.
pub(crate) const PARTIALS: Phase = Phase::nth(0);
pub(crate) const KINDS: u64 = 2;

/// Computes the degree distribution of the stored graph.
pub fn degree_distribution(cluster: &MssgCluster) -> Result<DegreeReport> {
    let (copies, telemetry) = superstep::run(cluster, "degrees", KINDS, |peers, node, _| {
        let p = peers.copies();
        // Measure the local partition.
        let mut batches: Vec<Vec<u64>> = vec![Vec::new(); p];
        {
            let mut db = node.db();
            for v in db.local_vertices()? {
                let deg = db.degree(v)? as u64;
                batches[hash_node(v, p)].extend([v.raw(), deg]);
            }
        }
        // Sum partials for the vertices this processor hash-owns.
        let mut owned: HashMap<u64, u64> = HashMap::new();
        let own = peers.scatter(PARTIALS.data, 0, &mut batches)?;
        peers.finish::<2>(PARTIALS, 0, &own, 0, |[v, partial]| {
            *owned.entry(v).or_insert(0) += partial;
            Ok(())
        })?;
        Ok(owned)
    })?;

    // A vertex has one hash owner, so the copies' tables are disjoint.
    let degrees = || copies.iter().flat_map(|owned| owned.values().copied());
    let vertices = degrees().count() as u64;
    let degree_sum: u64 = degrees().sum();
    let max_degree = degrees().max().unwrap_or(0);
    let mut histogram = vec![0u64; max_degree as usize + 1];
    for d in degrees() {
        histogram[d as usize] += 1;
    }
    let powerlaw_exponent = graphgen::stats::powerlaw_exponent(&histogram);
    Ok(DegreeReport {
        histogram,
        vertices,
        degree_sum,
        max_degree,
        avg_degree: if vertices == 0 {
            0.0
        } else {
            degree_sum as f64 / vertices as f64
        },
        powerlaw_exponent,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, BackendOptions};
    use crate::ingest::{ingest, DeclusterKind, IngestOptions};
    use mssg_types::Edge;

    fn run(
        tag: &str,
        nodes: usize,
        kind: BackendKind,
        edges: Vec<Edge>,
        decl: DeclusterKind,
    ) -> DegreeReport {
        let dir = std::env::temp_dir().join(format!("core-deg-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cluster = MssgCluster::new(&dir, nodes, kind, &BackendOptions::default()).unwrap();
        ingest(
            &mut cluster,
            edges.into_iter(),
            &IngestOptions {
                declustering: decl,
                ..Default::default()
            },
        )
        .unwrap();
        degree_distribution(&cluster).unwrap()
    }

    #[test]
    fn star_graph_histogram() {
        let edges: Vec<Edge> = (1..=6).map(|i| Edge::of(0, i)).collect();
        let r = run(
            "star",
            3,
            BackendKind::HashMap,
            edges,
            DeclusterKind::VertexHash,
        );
        assert_eq!(r.vertices, 7);
        assert_eq!(r.max_degree, 6);
        assert_eq!(r.degree_sum, 12);
        assert_eq!(r.histogram[1], 6, "six leaves");
        assert_eq!(r.histogram[6], 1, "one hub");
        assert!((r.avg_degree - 12.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn edge_granularity_sums_partials() {
        // Under edge round-robin a vertex's adjacency is spread over many
        // nodes; the analysis must sum the partial degrees.
        let edges: Vec<Edge> = (1..=8).map(|i| Edge::of(0, i)).collect();
        let r = run(
            "edgerr",
            4,
            BackendKind::HashMap,
            edges,
            DeclusterKind::EdgeRoundRobin,
        );
        assert_eq!(r.max_degree, 8);
        assert_eq!(r.vertices, 9);
        assert_eq!(r.histogram[8], 1);
    }

    #[test]
    fn scale_free_graph_fits_powerlaw() {
        let w = graphgen::GraphPreset::PubMedS.workload(16384, 6);
        let dir = std::env::temp_dir().join(format!("core-deg-{}-sf", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cluster =
            MssgCluster::new(&dir, 4, BackendKind::Grdb, &BackendOptions::default()).unwrap();
        ingest(&mut cluster, w.edge_stream(), &IngestOptions::default()).unwrap();
        let r = degree_distribution(&cluster).unwrap();
        assert_eq!(r.degree_sum, 2 * w.edges());
        let beta = r.powerlaw_exponent.expect("enough histogram points");
        assert!(beta > 0.1 && beta < 5.0, "implausible exponent {beta}");
        // Agrees with the generator-side statistics.
        let gen_stats = graphgen::degree_stats(w.edge_stream(), w.vertices());
        assert_eq!(r.vertices, gen_stats.vertices);
        assert_eq!(r.max_degree, gen_stats.max_degree);
    }

    #[test]
    fn empty_cluster() {
        let dir = std::env::temp_dir().join(format!("core-deg-{}-empty", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster =
            MssgCluster::new(&dir, 2, BackendKind::HashMap, &BackendOptions::default()).unwrap();
        let r = degree_distribution(&cluster).unwrap();
        assert_eq!(r.vertices, 0);
        assert_eq!(r.max_degree, 0);
        assert_eq!(r.avg_degree, 0.0);
    }
}
