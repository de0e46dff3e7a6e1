//! Smoke test over the whole figure-reproduction harness: every
//! experiment must run end to end at a tiny scale and produce a
//! well-formed, non-empty table. This guards the benchmark suite itself —
//! a broken experiment would otherwise only surface during a (long)
//! `figures all` run.

use mssg_bench::experiments::{self, ExpConfig};

fn smoke_cfg() -> ExpConfig {
    ExpConfig {
        scale: 32768,
        queries: 3,
        nodes: 2,
        seed: 7,
        root: std::env::temp_dir().join(format!("mssg-harness-smoke-{}", std::process::id())),
        telemetry: Default::default(),
    }
}

#[test]
fn every_experiment_runs_and_produces_rows() {
    let cfg = smoke_cfg();
    for (name, f) in experiments::all_experiments() {
        let table = f(&cfg).unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(!table.rows.is_empty(), "{name} produced no rows");
        assert!(!table.headers.is_empty(), "{name} has no headers");
        for row in &table.rows {
            assert_eq!(row.len(), table.headers.len(), "{name} row width");
        }
        // Both renderings must succeed.
        let text = table.to_string();
        let md = table.to_markdown();
        assert!(text.contains(&table.headers[0]), "{name} text rendering");
        assert!(md.starts_with("###"), "{name} markdown rendering");
    }
}

#[test]
fn experiment_registry_is_complete() {
    let names: Vec<&str> = experiments::all_experiments()
        .iter()
        .map(|(n, _)| *n)
        .collect();
    // The paper's one table and eight figure harnesses...
    for required in [
        "table5_1", "fig5_1", "fig5_2", "fig5_3", "fig5_4", "fig5_5", "fig5_6_7", "fig5_8_9",
    ] {
        assert!(names.contains(&required), "missing {required}");
    }
    // ...plus the ablations DESIGN.md commits to.
    for ablation in [
        "ablation_grdb_growth",
        "ablation_pipeline",
        "ablation_decluster",
        "ablation_db_filter",
        "ablation_grdb_geometry",
    ] {
        assert!(names.contains(&ablation), "missing {ablation}");
    }
}
