//! Criterion benches wrapping the figure-reproduction experiments at a
//! small scale — one benchmark per thesis table/figure plus the ablations,
//! so `cargo bench` exercises every experiment path and tracks regressions
//! in the framework itself.
//!
//! For the real reproduction runs (larger scale, full output tables) use
//! the `figures` binary; these benches keep iterations short on purpose.

use criterion::{criterion_group, criterion_main, Criterion};
use mssg_bench::experiments::{self, ExpConfig};

fn bench_cfg(tag: &str) -> ExpConfig {
    let mut cfg = ExpConfig::tiny();
    cfg.root = std::env::temp_dir().join(format!("mssg-criterion-{tag}"));
    cfg
}

macro_rules! figure_bench {
    ($fn_name:ident, $exp:path, $id:literal) => {
        fn $fn_name(c: &mut Criterion) {
            let cfg = bench_cfg($id);
            c.bench_function($id, |b| {
                b.iter(|| $exp(&cfg).expect("experiment runs"));
            });
        }
    };
}

figure_bench!(bench_table5_1, experiments::table5_1, "table5_1_stats");
figure_bench!(bench_fig5_1, experiments::fig5_1, "fig5_1_inmem_search");
figure_bench!(bench_fig5_2, experiments::fig5_2, "fig5_2_cache_effect");
figure_bench!(bench_fig5_3, experiments::fig5_3, "fig5_3_ingest_pubmed_s");
figure_bench!(bench_fig5_4, experiments::fig5_4, "fig5_4_search_pubmed_s");
figure_bench!(bench_fig5_5, experiments::fig5_5, "fig5_5_ingest_pubmed_l");
figure_bench!(
    bench_fig5_6_7,
    experiments::fig5_6_7,
    "fig5_6_7_search_pubmed_l"
);
figure_bench!(bench_fig5_8_9, experiments::fig5_8_9, "fig5_8_9_syn_grdb");
figure_bench!(
    bench_ablation_growth,
    experiments::ablation_grdb_growth,
    "ablation_grdb_growth_policy"
);
figure_bench!(
    bench_ablation_pipeline,
    experiments::ablation_pipeline,
    "ablation_bfs_pipeline"
);
figure_bench!(
    bench_ablation_decluster,
    experiments::ablation_decluster,
    "ablation_declustering"
);
figure_bench!(
    bench_ablation_cache,
    experiments::ablation_cache_policy,
    "ablation_cache_policy"
);
figure_bench!(
    bench_ablation_db_filter,
    experiments::ablation_db_filter,
    "ablation_db_filter"
);
figure_bench!(
    bench_ablation_bulk,
    experiments::ablation_bulk_load,
    "ablation_bulk_load"
);
figure_bench!(
    bench_ablation_geometry,
    experiments::ablation_grdb_geometry,
    "ablation_grdb_level_geometry"
);

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets =
        bench_table5_1,
        bench_fig5_1,
        bench_fig5_2,
        bench_fig5_3,
        bench_fig5_4,
        bench_fig5_5,
        bench_fig5_6_7,
        bench_fig5_8_9,
        bench_ablation_growth,
        bench_ablation_pipeline,
        bench_ablation_decluster,
        bench_ablation_cache,
        bench_ablation_db_filter,
        bench_ablation_bulk,
        bench_ablation_geometry,
}
criterion_main!(figures);
