//! One function per table/figure of thesis chapter 5.
//!
//! Each function builds its workload, runs the experiment, and returns a
//! [`Table`] whose rows mirror the published figure's series. The
//! experiment ↔ module mapping lives in DESIGN.md §4; measured-vs-paper
//! shape comparisons live in EXPERIMENTS.md.

use crate::report::{fmt_count, fmt_duration, fmt_rate, Table};
use crate::workloads::{
    bucket_by_path_length, build_and_ingest, fresh_dir, preset, run_queries, sample_queries,
};
use graphgen::{degree_stats, GraphPreset};
use mssg_core::ingest::DeclusterKind;
use mssg_core::{BackendKind, BackendOptions, BfsOptions, IngestOptions, VisitedKind};
use mssg_types::Result;
use std::path::PathBuf;

/// Experiment scaling and placement knobs.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Workload scale divisor (1 = the paper's full size).
    pub scale: u64,
    /// Random BFS queries per search experiment (paper: 100).
    pub queries: usize,
    /// Back-end node count for the PubMed-S experiments (paper: 16).
    pub nodes: usize,
    /// PRNG seed for graphs and query sampling.
    pub seed: u64,
    /// Directory experiments build their clusters under.
    pub root: PathBuf,
    /// Telemetry bundle attached to every cluster the experiments build.
    /// Disabled by default; `figures --trace-out` enables it and exports
    /// the collected spans as a Chrome trace.
    pub telemetry: mssg_obs::Telemetry,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 256,
            queries: 20,
            nodes: 16,
            seed: 42,
            root: std::env::temp_dir().join("mssg-bench"),
            telemetry: mssg_obs::Telemetry::disabled(),
        }
    }
}

impl ExpConfig {
    /// A configuration small enough for CI.
    pub fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 16384,
            queries: 5,
            nodes: 4,
            seed: 42,
            root: std::env::temp_dir().join("mssg-bench-tiny"),
            telemetry: mssg_obs::Telemetry::disabled(),
        }
    }

    /// PubMed-L and Syn-2B are 10–40× larger than PubMed-S; scale them
    /// further so every experiment stays laptop-sized at the default
    /// scale. The extra factor is constant, so cross-graph comparisons
    /// stay meaningful.
    fn large_scale(&self) -> u64 {
        self.scale * 8
    }
}

/// Table 5.1 — statistics of the (scaled) experiment graphs.
pub fn table5_1(cfg: &ExpConfig) -> Result<Table> {
    let mut t = Table::new(
        format!("Table 5.1 — graph statistics (scale 1/{})", cfg.scale),
        &[
            "Graph",
            "Vertices",
            "Und. Edges",
            "Min. Deg.",
            "Max. Deg.",
            "Avg. Deg.",
            "Paper Avg.",
        ],
    );
    for p in [
        GraphPreset::PubMedS,
        GraphPreset::PubMedL,
        GraphPreset::Syn2B,
    ] {
        let scale = if p == GraphPreset::PubMedS {
            cfg.scale
        } else {
            cfg.large_scale()
        };
        let w = preset(p, scale, cfg.seed);
        let stats = degree_stats(w.edge_stream(), w.vertices());
        t.row(vec![
            p.name().to_string(),
            fmt_count(stats.vertices),
            fmt_count(stats.und_edges),
            stats.min_degree.to_string(),
            fmt_count(stats.max_degree),
            format!("{:.2}", stats.avg_degree),
            format!("{:.2}", p.paper_avg_degree()),
        ]);
    }
    Ok(t)
}

/// Shared body of the search figures: ingest `workload` into a cluster
/// per backend, run the query batch, and emit one row per
/// (backend, path length) bucket.
#[allow(clippy::too_many_arguments)]
fn search_figure(
    cfg: &ExpConfig,
    title: String,
    graph: GraphPreset,
    graph_scale: u64,
    backends: &[BackendKind],
    nodes: &[usize],
    backend_opts: &dyn Fn(BackendKind) -> BackendOptions,
    bfs_opts: &dyn Fn(BackendKind) -> BfsOptions,
    label: &dyn Fn(BackendKind) -> String,
) -> Result<Table> {
    let mut t = Table::new(
        title,
        &[
            "Backend",
            "Nodes",
            "Path len",
            "Queries",
            "Avg time",
            "Edges/s",
            "Blk reads",
            "Modeled I/O",
        ],
    );
    let w = preset(graph, graph_scale, cfg.seed);
    let queries = sample_queries(&w, cfg.queries, cfg.seed);
    for &kind in backends {
        for &n in nodes {
            let dir = fresh_dir(&cfg.root, &format!("search-{}-{n}", label(kind)));
            let (cluster, _) = build_and_ingest(
                &dir,
                &w,
                kind,
                n,
                &backend_opts(kind),
                &IngestOptions {
                    declustering: DeclusterKind::VertexHash,
                    ..Default::default()
                },
                &cfg.telemetry,
            )?;
            let results = run_queries(&cluster, &queries, &bfs_opts(kind))?;
            for (len, b) in bucket_by_path_length(&results) {
                t.row(vec![
                    label(kind),
                    n.to_string(),
                    len.to_string(),
                    b.count.to_string(),
                    fmt_duration(b.avg_time),
                    fmt_rate(b.avg_edges_per_sec),
                    format!("{:.0}", b.avg_block_reads),
                    fmt_duration(b.avg_modeled_io),
                ]);
            }
            drop(cluster);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(t)
}

/// Figure 5.1 — search performance of the in-memory backends on PubMed-S.
pub fn fig5_1(cfg: &ExpConfig) -> Result<Table> {
    search_figure(
        cfg,
        format!(
            "Figure 5.1 — in-memory search, PubMed-S (1/{}), {} nodes",
            cfg.scale, cfg.nodes
        ),
        GraphPreset::PubMedS,
        cfg.scale,
        &[BackendKind::Array, BackendKind::HashMap],
        &[cfg.nodes],
        &|_| BackendOptions::default(),
        &|_| BfsOptions::default(),
        &|k| k.name().to_string(),
    )
}

/// Figure 5.2 — BerkeleyDB and grDB with and without their block caches.
pub fn fig5_2(cfg: &ExpConfig) -> Result<Table> {
    let mut t = Table::new(
        format!(
            "Figure 5.2 — cache effect, PubMed-S (1/{}), {} nodes",
            cfg.scale, cfg.nodes
        ),
        &[
            "Backend",
            "Nodes",
            "Path len",
            "Queries",
            "Avg time",
            "Edges/s",
            "Blk reads",
            "Modeled I/O",
        ],
    );
    for cached in [true, false] {
        let opts = if cached {
            BackendOptions::default()
        } else {
            BackendOptions {
                cache_blocks: 0,
                ..Default::default()
            }
        };
        let suffix = if cached { "cache" } else { "no cache" };
        let sub = search_figure(
            cfg,
            String::new(),
            GraphPreset::PubMedS,
            cfg.scale,
            &[BackendKind::BerkeleyDb, BackendKind::Grdb],
            &[cfg.nodes],
            &|_| opts.clone(),
            &|_| BfsOptions::default(),
            &|k| format!("{} ({suffix})", k.name()),
        )?;
        for row in sub.rows {
            t.row(row);
        }
    }
    Ok(t)
}

/// Shared body of the ingestion figures.
fn ingest_figure(
    cfg: &ExpConfig,
    title: String,
    graph: GraphPreset,
    graph_scale: u64,
    backends: &[BackendKind],
    front_ends: &[usize],
    node_counts: &[usize],
) -> Result<Table> {
    let mut t = Table::new(
        title,
        &[
            "Backend",
            "Front-ends",
            "Back-ends",
            "Edges",
            "Time",
            "Edges/s",
            "Blk writes",
            "Modeled I/O",
        ],
    );
    let w = preset(graph, graph_scale, cfg.seed);
    for &kind in backends {
        for &f in front_ends {
            for &n in node_counts {
                let dir = fresh_dir(&cfg.root, &format!("ingest-{}-{f}-{n}", kind.name()));
                let (cluster, report) = build_and_ingest(
                    &dir,
                    &w,
                    kind,
                    n,
                    &BackendOptions::default(),
                    &IngestOptions {
                        front_ends: f,
                        declustering: DeclusterKind::VertexHash,
                        ..Default::default()
                    },
                    &cfg.telemetry,
                )?;
                let rate = report.edges as f64 / report.telemetry.elapsed.as_secs_f64().max(1e-9);
                let modeled = simio::DiskCostModel::sata_2006().modeled_time(&report.telemetry.io);
                t.row(vec![
                    kind.name().to_string(),
                    f.to_string(),
                    n.to_string(),
                    fmt_count(report.edges),
                    fmt_duration(report.telemetry.elapsed),
                    fmt_rate(rate),
                    fmt_count(report.telemetry.io.block_writes),
                    fmt_duration(modeled),
                ]);
                drop(cluster);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    Ok(t)
}

/// Figure 5.3 — PubMed-S ingestion, five backends × {1, 4} front-ends.
pub fn fig5_3(cfg: &ExpConfig) -> Result<Table> {
    ingest_figure(
        cfg,
        format!(
            "Figure 5.3 — ingestion, PubMed-S (1/{}), {} back-ends",
            cfg.scale, cfg.nodes
        ),
        GraphPreset::PubMedS,
        cfg.scale,
        &BackendKind::FIGURE_FIVE,
        &[1, 4],
        &[cfg.nodes],
    )
}

/// Figure 5.4 — PubMed-S search across the five comparative backends.
pub fn fig5_4(cfg: &ExpConfig) -> Result<Table> {
    search_figure(
        cfg,
        format!(
            "Figure 5.4 — search, PubMed-S (1/{}), {} nodes",
            cfg.scale, cfg.nodes
        ),
        GraphPreset::PubMedS,
        cfg.scale,
        &BackendKind::FIGURE_FIVE,
        &[cfg.nodes],
        &|_| BackendOptions::default(),
        &|_| BfsOptions::default(),
        &|k| k.name().to_string(),
    )
}

/// Figure 5.5 — PubMed-L ingestion: 8 front-ends, back-ends ∈ {4, 8, 16}.
pub fn fig5_5(cfg: &ExpConfig) -> Result<Table> {
    ingest_figure(
        cfg,
        format!("Figure 5.5 — ingestion, PubMed-L (1/{})", cfg.large_scale()),
        GraphPreset::PubMedL,
        cfg.large_scale(),
        &BackendKind::FIGURE_LARGE,
        &[8],
        &[4, 8, 16],
    )
}

/// Figures 5.6 + 5.7 — PubMed-L search, five backends, 4/8/16 nodes
/// (execution time and edges/s come from the same runs, as in the paper).
pub fn fig5_6_7(cfg: &ExpConfig) -> Result<Table> {
    search_figure(
        cfg,
        format!(
            "Figures 5.6/5.7 — search, PubMed-L (1/{})",
            cfg.large_scale()
        ),
        GraphPreset::PubMedL,
        cfg.large_scale(),
        &BackendKind::FIGURE_LARGE,
        &[4, 8, 16],
        &|_| BackendOptions::default(),
        &|_| BfsOptions::default(),
        &|k| k.name().to_string(),
    )
}

/// Figures 5.8 + 5.9 — Syn-2B search with grDB, in-memory vs
/// external-memory visited structure, 4/8/16 nodes.
pub fn fig5_8_9(cfg: &ExpConfig) -> Result<Table> {
    let mut t = Table::new(
        format!(
            "Figures 5.8/5.9 — search, Syn-2B (1/{}), grDB",
            cfg.large_scale()
        ),
        &[
            "Backend",
            "Nodes",
            "Path len",
            "Queries",
            "Avg time",
            "Edges/s",
            "Blk reads",
            "Modeled I/O",
        ],
    );
    for visited in [VisitedKind::InMemory, VisitedKind::External] {
        let label = match visited {
            VisitedKind::InMemory => "grDB (in-mem visited)",
            VisitedKind::External => "grDB (ext visited)",
        };
        let sub = search_figure(
            cfg,
            String::new(),
            GraphPreset::Syn2B,
            cfg.large_scale(),
            &[BackendKind::Grdb],
            &[4, 8, 16],
            &|_| BackendOptions::default(),
            &|_| BfsOptions {
                visited,
                ..Default::default()
            },
            &|_| label.to_string(),
        )?;
        for row in sub.rows {
            t.row(row);
        }
    }
    Ok(t)
}

/// Ablation (beyond the paper): grDB growth policy — Link vs Move vs
/// Link + defragment — measured on search time and chain I/O.
pub fn ablation_grdb_growth(cfg: &ExpConfig) -> Result<Table> {
    use grdb::{GrdbConfig, GrowthPolicy};
    let mut t = Table::new(
        format!("Ablation — grDB growth policy, PubMed-S (1/{})", cfg.scale),
        &[
            "Backend",
            "Nodes",
            "Path len",
            "Queries",
            "Avg time",
            "Edges/s",
            "Blk reads",
            "Modeled I/O",
        ],
    );
    for (label, growth, defrag) in [
        ("grDB (link)", GrowthPolicy::Link, false),
        ("grDB (move)", GrowthPolicy::Move, false),
        ("grDB (link+defrag)", GrowthPolicy::Link, true),
    ] {
        let w = preset(GraphPreset::PubMedS, cfg.scale, cfg.seed);
        let queries = sample_queries(&w, cfg.queries, cfg.seed);
        let dir = fresh_dir(&cfg.root, &format!("ablation-growth-{label}"));
        let mut grdb_cfg = GrdbConfig::thesis_defaults();
        grdb_cfg.growth = growth;
        let opts = BackendOptions {
            grdb: Some(grdb_cfg),
            ..Default::default()
        };
        let (cluster, _) = build_and_ingest(
            &dir,
            &w,
            BackendKind::Grdb,
            cfg.nodes,
            &opts,
            &IngestOptions::default(),
            &cfg.telemetry,
        )?;
        if defrag {
            // "During idle time, the grDB service can defragment these
            // multi-level adjacency lists in the background."
            for i in 0..cluster.nodes() {
                cluster.with_backend(i, |db| db.maintenance())?;
            }
        }
        let results = run_queries(&cluster, &queries, &BfsOptions::default())?;
        for (len, b) in bucket_by_path_length(&results) {
            t.row(vec![
                label.to_string(),
                cfg.nodes.to_string(),
                len.to_string(),
                b.count.to_string(),
                fmt_duration(b.avg_time),
                fmt_rate(b.avg_edges_per_sec),
                format!("{:.0}", b.avg_block_reads),
                fmt_duration(b.avg_modeled_io),
            ]);
        }
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(t)
}

/// Ablation (beyond the paper): Algorithm 1 vs Algorithm 2 across
/// pipeline thresholds.
pub fn ablation_pipeline(cfg: &ExpConfig) -> Result<Table> {
    use mssg_core::BfsMode;
    let mut t = Table::new(
        format!("Ablation — BFS pipelining, PubMed-S (1/{})", cfg.scale),
        &[
            "Backend",
            "Nodes",
            "Path len",
            "Queries",
            "Avg time",
            "Edges/s",
            "Blk reads",
            "Modeled I/O",
        ],
    );
    let modes: Vec<(String, BfsMode)> = std::iter::once(("Alg 1".to_string(), BfsMode::Standard))
        .chain([64usize, 512, 4096].into_iter().map(|th| {
            (
                format!("Alg 2 (thr {th})"),
                BfsMode::Pipelined { threshold: th },
            )
        }))
        .collect();
    for (label, mode) in modes {
        let sub = search_figure(
            cfg,
            String::new(),
            GraphPreset::PubMedS,
            cfg.scale,
            &[BackendKind::Grdb],
            &[cfg.nodes],
            &|_| BackendOptions::default(),
            &|_| BfsOptions {
                mode,
                ..Default::default()
            },
            &|_| label.clone(),
        )?;
        for row in sub.rows {
            t.row(row);
        }
    }
    Ok(t)
}

/// Ablation (beyond the paper): declustering strategies (§3.2) and their
/// effect on search routing.
pub fn ablation_decluster(cfg: &ExpConfig) -> Result<Table> {
    let mut t = Table::new(
        format!("Ablation — declustering, PubMed-S (1/{})", cfg.scale),
        &[
            "Backend",
            "Nodes",
            "Path len",
            "Queries",
            "Avg time",
            "Edges/s",
            "Blk reads",
            "Modeled I/O",
        ],
    );
    for (label, kind) in [
        ("vertex-hash", DeclusterKind::VertexHash),
        ("vertex-RR", DeclusterKind::VertexRoundRobin),
        ("edge-RR (bcast)", DeclusterKind::EdgeRoundRobin),
    ] {
        let w = preset(GraphPreset::PubMedS, cfg.scale, cfg.seed);
        let queries = sample_queries(&w, cfg.queries, cfg.seed);
        let dir = fresh_dir(&cfg.root, &format!("ablation-decl-{label}"));
        let (cluster, _) = build_and_ingest(
            &dir,
            &w,
            BackendKind::HashMap,
            cfg.nodes,
            &BackendOptions::default(),
            &IngestOptions {
                declustering: kind,
                ..Default::default()
            },
            &cfg.telemetry,
        )?;
        let results = run_queries(&cluster, &queries, &BfsOptions::default())?;
        for (len, b) in bucket_by_path_length(&results) {
            t.row(vec![
                format!("HashMap [{label}]"),
                cfg.nodes.to_string(),
                len.to_string(),
                b.count.to_string(),
                fmt_duration(b.avg_time),
                fmt_rate(b.avg_edges_per_sec),
                format!("{:.0}", b.avg_block_reads),
                fmt_duration(b.avg_modeled_io),
            ]);
        }
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(t)
}

/// Ablation (beyond the paper): DB-side visited filtering — the fused
/// `getAdjacencyListUsingMetadata` path of Listing 3.1 — vs filtering in
/// the search algorithm.
pub fn ablation_db_filter(cfg: &ExpConfig) -> Result<Table> {
    let mut t = Table::new(
        format!(
            "Ablation — DB-side metadata filter, PubMed-S (1/{})",
            cfg.scale
        ),
        &[
            "Backend",
            "Nodes",
            "Path len",
            "Queries",
            "Avg time",
            "Edges/s",
            "Blk reads",
            "Modeled I/O",
        ],
    );
    for (label, db_filter) in [("grDB (algo filter)", false), ("grDB (DB filter)", true)] {
        let sub = search_figure(
            cfg,
            String::new(),
            GraphPreset::PubMedS,
            cfg.scale,
            &[BackendKind::Grdb],
            &[cfg.nodes],
            &|_| BackendOptions::default(),
            &|_| BfsOptions {
                db_filter,
                ..Default::default()
            },
            &|_| label.to_string(),
        )?;
        for row in sub.rows {
            t.row(row);
        }
    }
    Ok(t)
}

/// Ablation (beyond the paper): grDB level geometry — the thesis suggests
/// `d_ℓ = 2^(2^ℓ)`-style exponential schedules; this compares the published
/// six-level schedule against a shallow and a steep alternative.
pub fn ablation_grdb_geometry(cfg: &ExpConfig) -> Result<Table> {
    use grdb::{GrdbConfig, LevelConfig};
    let mut t = Table::new(
        format!("Ablation — grDB level geometry, PubMed-S (1/{})", cfg.scale),
        &[
            "Backend",
            "Nodes",
            "Path len",
            "Queries",
            "Avg time",
            "Edges/s",
            "Blk reads",
            "Modeled I/O",
        ],
    );
    let schedules: Vec<(&str, Vec<LevelConfig>)> = vec![
        (
            "thesis 2,4,16,256,4K,16K",
            GrdbConfig::thesis_defaults().levels,
        ),
        (
            "shallow 2,4K",
            vec![
                LevelConfig {
                    d: 2,
                    block_bytes: 4096,
                },
                LevelConfig {
                    d: 4096,
                    block_bytes: 32 * 1024,
                },
            ],
        ),
        (
            "doubling 2,4,8,...,64",
            vec![
                LevelConfig {
                    d: 2,
                    block_bytes: 4096,
                },
                LevelConfig {
                    d: 4,
                    block_bytes: 4096,
                },
                LevelConfig {
                    d: 8,
                    block_bytes: 4096,
                },
                LevelConfig {
                    d: 16,
                    block_bytes: 4096,
                },
                LevelConfig {
                    d: 32,
                    block_bytes: 4096,
                },
                LevelConfig {
                    d: 64,
                    block_bytes: 4096,
                },
            ],
        ),
    ];
    for (label, levels) in schedules {
        let mut grdb_cfg = GrdbConfig::thesis_defaults();
        grdb_cfg.levels = levels;
        let opts = BackendOptions {
            grdb: Some(grdb_cfg),
            ..Default::default()
        };
        let name = format!("grDB ({label})");
        let sub = search_figure(
            cfg,
            String::new(),
            GraphPreset::PubMedS,
            cfg.scale,
            &[BackendKind::Grdb],
            &[cfg.nodes],
            &|_| opts.clone(),
            &|_| BfsOptions::default(),
            &|_| name.clone(),
        )?;
        for row in sub.rows {
            t.row(row);
        }
    }
    Ok(t)
}

/// An experiment harness: takes a config, produces one figure's table.
pub type Experiment = fn(&ExpConfig) -> Result<Table>;

/// Every experiment in order, for `figures all`.
pub fn all_experiments() -> Vec<(&'static str, Experiment)> {
    vec![
        ("table5_1", table5_1),
        ("fig5_1", fig5_1),
        ("fig5_2", fig5_2),
        ("fig5_3", fig5_3),
        ("fig5_4", fig5_4),
        ("fig5_5", fig5_5),
        ("fig5_6_7", fig5_6_7),
        ("fig5_8_9", fig5_8_9),
        ("ablation_grdb_growth", ablation_grdb_growth),
        ("ablation_pipeline", ablation_pipeline),
        ("ablation_decluster", ablation_decluster),
        ("ablation_db_filter", ablation_db_filter),
        ("ablation_grdb_geometry", ablation_grdb_geometry),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(tag: &str) -> ExpConfig {
        let mut c = ExpConfig::tiny();
        c.root = std::env::temp_dir().join(format!("bench-exp-{}-{tag}", std::process::id()));
        c
    }

    #[test]
    fn table5_1_has_three_graphs() {
        let t = table5_1(&cfg("t51")).unwrap();
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][0], "PubMed-S");
        assert_eq!(t.rows[2][0], "Syn-2B");
    }

    #[test]
    fn fig5_1_runs_both_in_memory_backends() {
        let t = fig5_1(&cfg("f51")).unwrap();
        let backends: std::collections::HashSet<&str> =
            t.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(backends.contains("Array"));
        assert!(backends.contains("HashMap"));
    }

    #[test]
    fn fig5_2_covers_cache_states() {
        let t = fig5_2(&cfg("f52")).unwrap();
        let labels: std::collections::HashSet<&str> =
            t.rows.iter().map(|r| r[0].as_str()).collect();
        for want in [
            "grDB (cache)",
            "grDB (no cache)",
            "BerkeleyDB (cache)",
            "BerkeleyDB (no cache)",
        ] {
            assert!(labels.contains(want), "missing {want}: {labels:?}");
        }
    }

    #[test]
    fn fig5_3_covers_front_end_counts() {
        let mut c = cfg("f53");
        c.queries = 2;
        let t = fig5_3(&c).unwrap();
        // 5 backends × 2 front-end settings.
        assert_eq!(t.rows.len(), 10);
        assert!(t.rows.iter().any(|r| r[1] == "1"));
        assert!(t.rows.iter().any(|r| r[1] == "4"));
    }

    #[test]
    fn trace_round_trip_covers_pipeline_spans() {
        // The acceptance criterion for `figures --trace-out`: an enabled
        // telemetry bundle yields a parseable Chrome trace containing the
        // ingest-window, per-filter-copy, and BFS-level spans.
        let mut c = cfg("trace");
        c.queries = 2;
        c.telemetry = mssg_obs::Telemetry::enabled();
        fig5_1(&c).unwrap();
        let json = c.telemetry.tracer.chrome_trace_json();
        let doc = mssg_obs::json::parse(&json).expect("trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let names: std::collections::HashSet<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        for want in ["ingest.window", "filter.run", "bfs.level"] {
            assert!(
                names.contains(want),
                "trace missing {want} spans: {names:?}"
            );
        }
    }
}
