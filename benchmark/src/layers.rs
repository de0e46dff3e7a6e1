//! Direct timed calls into each layer's public functions — the per-layer
//! metrics whose source is "time one call from outside". A workload's
//! traced run calls the ones for the layers it exercises, on its own
//! data where the layer takes data.
//!
//! Every loop here runs a fixed number of operations and reports the
//! best of a few repetitions, like the end-to-end phases.

use crate::stats::{quantile, Summary};
use crate::Ctx;
use datacutter::{DataBuffer, Filter, FilterContext, GraphBuilder};
use graphgen::{Workload, Xoshiro256};
use mssg_core::backend::open_backend;
use mssg_core::{BackendKind, BackendOptions, BfsOptions, MssgCluster};
use mssg_serve::{Admission, Query, ResponseBody, ResultCache};
use mssg_types::{AdjBuffer, Edge, Gid, MetaOp, Result};
use simio::IoStats;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions of each direct measurement.
const REPS: usize = 3;

/// Seconds `f` takes, best of [`REPS`].
fn best_secs(mut f: impl FnMut() -> Result<()>) -> Result<f64> {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let started = Instant::now();
        f()?;
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(Summary::of(&times).min)
}

/// `graphgen.gen_eps`: edges per second out of `Workload::collect_edges`.
pub fn gen_eps(ctx: &Ctx, workload: &Workload) -> Result<f64> {
    let _span = ctx.spans.enter("graphgen.collect_edges", 0);
    let secs = best_secs(|| {
        black_box(workload.collect_edges());
        Ok(())
    })?;
    Ok(workload.edges() as f64 / secs)
}

/// What one storage engine does on its own, below the pipeline.
pub struct BackendBench {
    /// Directed entries per second through `store_edges` in 4096-edge
    /// windows plus the final `flush`.
    pub store_eps: f64,
    /// Microseconds per `adjacency` call over seeded vertices.
    pub adj_us: f64,
    /// Entries per second out of `expand_fringe` over 1024-vertex fringes.
    pub expand_eps: f64,
    /// Bytes on disk per directed entry stored (0 for in-memory engines).
    pub disk_bytes_per_entry: f64,
}

/// Times one backend of `kind` directly: store the whole edge list, then
/// read it back by point lookups and by fringes.
pub fn backend(
    ctx: &Ctx,
    kind: BackendKind,
    edges: &[Edge],
    vertices: u64,
) -> Result<BackendBench> {
    let directed: Vec<Edge> = edges.iter().flat_map(|&e| [e, e.reversed()]).collect();
    let mut store_secs = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let dir = ctx.scratch.fresh("layer-db");
        let mut db = open_backend(kind, &dir, &BackendOptions::default(), IoStats::new())?;
        let _span = ctx.spans.enter("graphdb.store_edges", 0);
        let started = Instant::now();
        for window in directed.chunks(2 * 4096) {
            db.store_edges(window)?;
        }
        db.flush()?;
        store_secs.push(started.elapsed().as_secs_f64());
        if let Some((_, old)) = last.replace((db, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (mut db, dir) = last.expect("REPS is at least one");
    let disk_bytes_per_entry = crate::host::dir_bytes(&dir) as f64 / directed.len() as f64;

    let mut rng = Xoshiro256::seeded(ctx.seed ^ 0xad1a_ce47);
    let lookups: Vec<Gid> = (0..ctx.size(20_000, 500))
        .map(|_| Gid::new(rng.next_below(vertices)))
        .collect();
    let mut buf = AdjBuffer::new();
    let adj_secs = {
        let _span = ctx.spans.enter("graphdb.adjacency", 0);
        best_secs(|| {
            for &v in &lookups {
                buf.clear();
                db.adjacency(v, &mut buf, 0, MetaOp::Ignore)?;
            }
            Ok(())
        })?
    };
    let mut expanded = 0usize;
    let expand_secs = {
        let _span = ctx.spans.enter("graphdb.expand_fringe", 0);
        best_secs(|| {
            expanded = 0;
            for fringe in lookups.chunks(1024) {
                buf.clear();
                db.expand_fringe(fringe, &mut buf, 0, MetaOp::Ignore)?;
                expanded += buf.len();
            }
            Ok(())
        })?
    };
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    Ok(BackendBench {
        store_eps: directed.len() as f64 / Summary::of(&store_secs).min,
        adj_us: adj_secs * 1e6 / lookups.len() as f64,
        expand_eps: expanded as f64 / expand_secs,
        disk_bytes_per_entry,
    })
}

/// A filter that does nothing: what is left of a search when there is no
/// graph to search.
struct Idle;

impl Filter for Idle {
    fn process(&mut self, _ctx: &mut FilterContext) -> Result<()> {
        Ok(())
    }
}

/// `dc.run_setup_us`: microseconds to build and `run()` a two-copy
/// filter graph wired like a search (every copy to every copy) whose
/// filters return at once — the fixed cost each query pays the runtime.
pub fn dc_run_setup_us(ctx: &Ctx) -> Result<f64> {
    let _span = ctx.spans.enter("dc.run_setup", 0);
    let runs = ctx.size(200, 20);
    let secs = best_secs(|| {
        for _ in 0..runs {
            let mut g = GraphBuilder::new();
            g.stream_timeout(Duration::from_secs(30));
            let f = g.add_filter("idle", vec![0, 1], |_| Box::new(Idle))?;
            g.connect(f, "peers", f, "peers")?;
            g.run()?;
        }
        Ok(())
    })?;
    Ok(secs * 1e6 / runs as f64)
}

struct Producer {
    buffers: usize,
    bytes: usize,
}

impl Filter for Producer {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        let payload = vec![0xa5u8; self.bytes];
        for i in 0..self.buffers {
            ctx.output("out")?
                .send_rr(DataBuffer::new(i as u64, payload.clone()))?;
        }
        Ok(())
    }
}

struct Consumer;

impl Filter for Consumer {
    fn process(&mut self, ctx: &mut FilterContext) -> Result<()> {
        let mut bytes = 0usize;
        while let Some(buf) = ctx.input("in")?.recv()? {
            bytes += buf.len();
        }
        black_box(bytes);
        Ok(())
    }
}

/// `dc.stream_mb_per_s`: MB per second from one producer to one consumer
/// in 32 KiB buffers over one stream.
pub fn dc_stream_mb_per_s(ctx: &Ctx) -> Result<f64> {
    let _span = ctx.spans.enter("dc.stream", 0);
    let (buffers, bytes) = (ctx.size(8192, 256), 32 * 1024);
    let secs = best_secs(|| {
        let mut g = GraphBuilder::new();
        g.stream_timeout(Duration::from_secs(30));
        let p = g.add_filter("producer", vec![0], move |_| {
            Box::new(Producer { buffers, bytes })
        })?;
        let c = g.add_filter("consumer", vec![1], |_| Box::new(Consumer))?;
        g.connect(p, "out", c, "in")?;
        g.run()?;
        Ok(())
    })?;
    Ok((buffers * bytes) as f64 / 1e6 / secs)
}

/// `core.bfs_floor_ms`: median milliseconds of a search between two
/// adjacent vertices — one round, almost nothing scanned.
pub fn bfs_floor_ms(ctx: &Ctx, cluster: &MssgCluster, edges: &[Edge]) -> Result<f64> {
    let _span = ctx.spans.enter("core.bfs_floor", 0);
    let options = BfsOptions::default();
    let mut times = Vec::new();
    for e in edges.iter().filter(|e| !e.is_loop()).take(ctx.size(60, 6)) {
        let started = Instant::now();
        let found = mssg_core::bfs::bfs(cluster, e.src, e.dst, &options)?;
        times.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            found.path_length,
            Some(1),
            "adjacent vertices are one hop apart"
        );
    }
    Ok(quantile(&times, 0.5))
}

/// `core.khop2_ms`: median milliseconds of `k_hop(cluster, s, 2)` over
/// seeded sources.
pub fn khop2_ms(ctx: &Ctx, cluster: &MssgCluster, vertices: u64) -> Result<f64> {
    let _span = ctx.spans.enter("core.k_hop", 0);
    let mut rng = Xoshiro256::seeded(ctx.seed ^ 0x2b0b);
    let mut times = Vec::new();
    for _ in 0..ctx.size(200, 10) {
        let source = Gid::new(rng.next_below(vertices));
        let started = Instant::now();
        black_box(mssg_core::k_hop(cluster, source, 2)?);
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(quantile(&times, 0.5))
}

/// `core.epoch.pin_ns`: nanoseconds to pin the current epoch and let go.
pub fn epoch_pin_ns(ctx: &Ctx, cluster: &MssgCluster) -> Result<f64> {
    let _span = ctx.spans.enter("core.epoch.pin", 0);
    let epochs = cluster.epoch_manager();
    let pins = ctx.size(1_000_000, 10_000);
    let secs = best_secs(|| {
        for _ in 0..pins {
            black_box(epochs.pin().epoch());
        }
        Ok(())
    })?;
    Ok(secs * 1e9 / pins as f64)
}

/// `net.wire.codec_mb_per_s`: MB per second through `write_data_frame`
/// into a buffer and `read_frame` back out of it, 32 KiB payloads.
pub fn wire_codec_mb_per_s(ctx: &Ctx) -> Result<f64> {
    use mssg_net::wire::{read_frame, write_data_frame};
    let _span = ctx.spans.enter("net.wire.codec", 0);
    let payload = vec![0x5au8; 32 * 1024];
    let frames = ctx.size(8192, 256);
    let mut wire = Vec::with_capacity(payload.len() + 64);
    let secs = best_secs(|| {
        for i in 0..frames {
            wire.clear();
            write_data_frame(&mut wire, 1, i as u64, 0, &payload)?;
            let frame = read_frame(&mut wire.as_slice())?;
            black_box(frame);
        }
        Ok(())
    })?;
    Ok((frames * payload.len()) as f64 / 1e6 / secs)
}

/// `serve.proto.codec_ns`: nanoseconds to encode and decode one query
/// and one response body.
pub fn serve_proto_codec_ns(ctx: &Ctx) -> Result<f64> {
    let _span = ctx.spans.enter("serve.proto.codec", 0);
    let cycles = ctx.size(200_000, 2_000);
    let body = ResponseBody {
        epoch: 3,
        cached: false,
        result: "vertices=1234 edges_scanned=56789".to_string(),
    };
    let secs = best_secs(|| {
        for i in 0..cycles {
            let q = Query::KHop {
                source: Gid::new(i as u64),
                k: 2,
            };
            black_box(Query::decode(&q.encode())?);
            black_box(ResponseBody::decode(&body.encode())?);
        }
        Ok(())
    })?;
    Ok(secs * 1e9 / cycles as f64)
}

/// `serve.cache.insert_ns` and `serve.cache.get_ns`: nanoseconds per
/// `ResultCache::insert` of a new key (evicting once full) and per
/// `ResultCache::get` that hits.
pub fn serve_cache_ns(ctx: &Ctx) -> Result<(f64, f64)> {
    let _span = ctx.spans.enter("serve.cache", 0);
    let ops = ctx.size(100_000usize, 2_000);
    let keys: Vec<Vec<u8>> = (0..ops as u64)
        .map(|i| {
            Query::KHop {
                source: Gid::new(i),
                k: 2,
            }
            .encode()
        })
        .collect();
    let mut cache = ResultCache::new(1024);
    let insert_secs = best_secs(|| {
        for k in &keys {
            cache.insert(1, k, "vertices=1234 edges_scanned=56789");
        }
        Ok(())
    })?;
    // The last 512 keys inserted are resident: cycle over those.
    let resident = &keys[keys.len() - 512.min(keys.len())..];
    let get_secs = best_secs(|| {
        for i in 0..ops {
            let hit = cache.get(1, &resident[i % resident.len()]);
            assert!(hit.is_some(), "a resident key must hit");
        }
        Ok(())
    })?;
    Ok((insert_secs * 1e9 / ops as f64, get_secs * 1e9 / ops as f64))
}

/// `serve.admission.cycle_ns`: nanoseconds for one job to go through
/// `Admission::submit` and `Admission::next` and free its slot.
pub fn serve_admission_cycle_ns(ctx: &Ctx) -> Result<f64> {
    let _span = ctx.spans.enter("serve.admission", 0);
    let cycles = ctx.size(200_000u32, 2_000);
    let adm: Admission<u32> = Admission::new(4, 16, 50);
    let client = adm.register();
    let secs = best_secs(|| {
        for i in 0..cycles {
            adm.submit(client, i).expect("an empty queue admits");
            let (job, slot) = adm.next().expect("a queued job is dispatched");
            black_box(job);
            drop(slot);
        }
        Ok(())
    })?;
    Ok(secs * 1e9 / cycles as f64)
}
