//! Scale-free edge-stream generators.
//!
//! Generators are plain `Iterator<Item = Edge>` so the ingestion service can
//! consume them exactly like an external edge stream. All are seeded and
//! deterministic.
//!
//! Two scale-free constructions are provided:
//!
//! - [`ChungLu`]: each edge draws both endpoints from a fixed power-law
//!   weight distribution; expected vertex degrees follow the weights. This
//!   is the workhorse because its parameters can be *calibrated* to the
//!   published Table 5.1 statistics (see [`solve_exponent`]).
//! - [`BarabasiAlbert`]: classic preferential attachment, the construction
//!   the scale-free literature the thesis cites (Barabási & Albert 1999)
//!   introduced.

use crate::alias::AliasTable;
use crate::rng::Xoshiro256;
use mssg_types::{Edge, Gid};

/// Configuration for the Chung–Lu generator.
#[derive(Clone, Debug, PartialEq)]
pub struct ChungLuConfig {
    /// Number of vertices `n`; ids are `0..n`.
    pub vertices: u64,
    /// Number of undirected edges to emit.
    pub edges: u64,
    /// Power-law weight exponent `s` in `w_i ∝ (i+1)^{-s}`, `0 < s < 1`.
    /// Larger `s` concentrates degree into fewer, bigger hubs.
    pub exponent: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl ChungLuConfig {
    /// Expected degree of the biggest hub under this configuration:
    /// `2·edges · w_0 / Σw`.
    pub fn expected_max_degree(&self) -> f64 {
        let w = weight_sum(self.vertices, self.exponent);
        2.0 * self.edges as f64 / w
    }

    /// Average degree `2·edges / vertices`.
    pub fn avg_degree(&self) -> f64 {
        2.0 * self.edges as f64 / self.vertices as f64
    }
}

/// Sum of `(i+1)^{-s}` for `i` in `0..n`, computed exactly for small `n` and
/// by the Euler–Maclaurin leading terms for large `n`.
fn weight_sum(n: u64, s: f64) -> f64 {
    if n <= 100_000 {
        (0..n).map(|i| ((i + 1) as f64).powf(-s)).sum()
    } else {
        // ∫1^n x^-s dx + correction: accurate to well under 0.1 % here.
        let exact: f64 = (0..100_000u64).map(|i| ((i + 1) as f64).powf(-s)).sum();
        let tail = ((n as f64).powf(1.0 - s) - 100_000f64.powf(1.0 - s)) / (1.0 - s);
        exact + tail
    }
}

/// Solves for the Chung–Lu exponent `s` that makes the expected maximum
/// degree equal `target_max`, by bisection on the monotone map
/// `s ↦ expected_max_degree`.
///
/// Used to calibrate the PubMed-like presets to Table 5.1's max-degree
/// column. Returns a value clamped to `[0.05, 0.95]`.
pub fn solve_exponent(vertices: u64, edges: u64, target_max: f64) -> f64 {
    let hub = |s: f64| 2.0 * edges as f64 / weight_sum(vertices, s);
    let (mut lo, mut hi) = (0.05, 0.95);
    if hub(lo) >= target_max {
        return lo;
    }
    if hub(hi) <= target_max {
        return hi;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if hub(mid) < target_max {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Chung–Lu scale-free edge stream. See [`ChungLuConfig`].
///
/// Self-loops are resampled; parallel edges are allowed (real ingestion
/// streams contain duplicates too, and the storage engines must cope).
pub struct ChungLu {
    table: AliasTable,
    rng: Xoshiro256,
    remaining: u64,
}

impl ChungLu {
    /// Prepares the generator (builds the alias table, O(n)).
    pub fn new(cfg: &ChungLuConfig) -> ChungLu {
        assert!(cfg.vertices >= 2, "need at least two vertices");
        assert!(
            cfg.exponent > 0.0 && cfg.exponent < 1.0,
            "exponent must lie in (0, 1), got {}",
            cfg.exponent
        );
        let weights: Vec<f64> = (0..cfg.vertices)
            .map(|i| ((i + 1) as f64).powf(-cfg.exponent))
            .collect();
        ChungLu {
            table: AliasTable::new(&weights),
            rng: Xoshiro256::seeded(cfg.seed),
            remaining: cfg.edges,
        }
    }
}

impl Iterator for ChungLu {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        loop {
            let a = self.table.sample(&mut self.rng) as u64;
            let b = self.table.sample(&mut self.rng) as u64;
            if a != b {
                return Some(Edge::of(a, b));
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining as usize;
        (r, Some(r))
    }
}

impl ExactSizeIterator for ChungLu {}

/// Barabási–Albert preferential attachment.
///
/// Starts from a star on `m + 1` vertices, then every new vertex attaches
/// `m` edges to existing vertices chosen proportionally to degree (via the
/// repeated-endpoints trick: sampling uniformly from the list of all edge
/// endpoints *is* degree-proportional sampling).
pub struct BarabasiAlbert {
    n: u64,
    m: u64,
    rng: Xoshiro256,
    /// Every endpoint of every emitted edge; uniform sampling from this is
    /// degree-proportional.
    endpoints: Vec<Gid>,
    next_vertex: u64,
    pending: Vec<Edge>,
}

impl BarabasiAlbert {
    /// `n` total vertices, `m` edges per arriving vertex.
    pub fn new(n: u64, m: u64, seed: u64) -> BarabasiAlbert {
        assert!(m >= 1, "m must be at least 1");
        assert!(
            n > m,
            "need more vertices ({n}) than attachment edges ({m})"
        );
        let mut gen = BarabasiAlbert {
            n,
            m,
            rng: Xoshiro256::seeded(seed),
            endpoints: Vec::new(),
            next_vertex: m + 1,
            pending: Vec::new(),
        };
        // Seed star: vertices 1..=m each connect to vertex 0.
        for i in 1..=m {
            gen.push_edge(Edge::of(i, 0));
        }
        gen.pending.reverse();
        gen
    }

    fn push_edge(&mut self, e: Edge) {
        self.endpoints.push(e.src);
        self.endpoints.push(e.dst);
        self.pending.push(e);
    }

    /// Number of vertices this stream will cover.
    pub fn vertex_count(&self) -> u64 {
        self.n
    }
}

impl Iterator for BarabasiAlbert {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if let Some(e) = self.pending.pop() {
            return Some(e);
        }
        if self.next_vertex >= self.n {
            return None;
        }
        let v = self.next_vertex;
        self.next_vertex += 1;
        // Choose m distinct targets by degree-proportional sampling.
        let mut targets: Vec<Gid> = Vec::with_capacity(self.m as usize);
        let mut guard = 0;
        while (targets.len() as u64) < self.m {
            let t = *self.rng.choose(&self.endpoints);
            if t.raw() != v && !targets.contains(&t) {
                targets.push(t);
            }
            guard += 1;
            if guard > 64 * self.m {
                // Degenerate tiny graphs: fall back to any distinct vertex.
                for u in 0..v {
                    let g = Gid::new(u);
                    if !targets.contains(&g) {
                        targets.push(g);
                        if targets.len() as u64 == self.m {
                            break;
                        }
                    }
                }
                break;
            }
        }
        for t in targets {
            self.push_edge(Edge::new(Gid::new(v), t));
        }
        self.pending.reverse();
        self.pending.pop()
    }
}

/// R-MAT (recursive matrix) generator — the other standard scale-free
/// construction in the systems literature (Chakrabarti et al., 2004, and
/// the kernel of the later Graph500 benchmark). Each edge is placed by
/// recursively descending into one of four adjacency-matrix quadrants with
/// probabilities `(a, b, c, d)`; skewed probabilities concentrate edges on
/// low-numbered vertices, yielding a power-law graph.
pub struct Rmat {
    scale: u32,
    remaining: u64,
    a: f64,
    ab: f64,
    abc: f64,
    rng: Xoshiro256,
}

impl Rmat {
    /// `2^scale` vertices, `edges` edges, quadrant probabilities
    /// `(a, b, c)` with `d = 1 − a − b − c`.
    ///
    /// # Panics
    /// Panics unless `0 < a, b, c` and `a + b + c < 1`.
    pub fn new(scale: u32, edges: u64, a: f64, b: f64, c: f64, seed: u64) -> Rmat {
        assert!((1..61).contains(&scale), "scale out of range");
        assert!(
            a > 0.0 && b > 0.0 && c > 0.0 && a + b + c < 1.0,
            "bad quadrant probabilities"
        );
        Rmat {
            scale,
            remaining: edges,
            a,
            ab: a + b,
            abc: a + b + c,
            rng: Xoshiro256::seeded(seed),
        }
    }

    /// The canonical skew used throughout the literature:
    /// `(a, b, c) = (0.57, 0.19, 0.19)`.
    pub fn standard(scale: u32, edges: u64, seed: u64) -> Rmat {
        Rmat::new(scale, edges, 0.57, 0.19, 0.19, seed)
    }

    /// Number of vertices (`2^scale`).
    pub fn vertex_count(&self) -> u64 {
        1u64 << self.scale
    }
}

impl Iterator for Rmat {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        loop {
            let (mut src, mut dst) = (0u64, 0u64);
            for bit in (0..self.scale).rev() {
                let r = self.rng.next_f64();
                if r < self.a {
                    // top-left: neither bit set
                } else if r < self.ab {
                    dst |= 1 << bit;
                } else if r < self.abc {
                    src |= 1 << bit;
                } else {
                    src |= 1 << bit;
                    dst |= 1 << bit;
                }
            }
            if src != dst {
                return Some(Edge::of(src, dst));
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for Rmat {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::degree_stats;

    #[test]
    fn chung_lu_emits_requested_edges() {
        let cfg = ChungLuConfig {
            vertices: 1000,
            edges: 5000,
            exponent: 0.6,
            seed: 1,
        };
        let edges: Vec<Edge> = ChungLu::new(&cfg).collect();
        assert_eq!(edges.len(), 5000);
        assert!(edges.iter().all(|e| !e.is_loop()));
        assert!(edges
            .iter()
            .all(|e| e.src.raw() < 1000 && e.dst.raw() < 1000));
    }

    #[test]
    fn chung_lu_deterministic() {
        let cfg = ChungLuConfig {
            vertices: 500,
            edges: 1000,
            exponent: 0.5,
            seed: 7,
        };
        let a: Vec<Edge> = ChungLu::new(&cfg).collect();
        let b: Vec<Edge> = ChungLu::new(&cfg).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn chung_lu_is_skewed() {
        let cfg = ChungLuConfig {
            vertices: 2000,
            edges: 20_000,
            exponent: 0.8,
            seed: 3,
        };
        let stats = degree_stats(ChungLu::new(&cfg), 2000);
        // Hub must be far above average — the defining scale-free property.
        assert!(
            stats.max_degree as f64 > 10.0 * stats.avg_degree,
            "max {} vs avg {}",
            stats.max_degree,
            stats.avg_degree
        );
    }

    #[test]
    fn chung_lu_hub_matches_prediction() {
        let cfg = ChungLuConfig {
            vertices: 5000,
            edges: 50_000,
            exponent: 0.7,
            seed: 11,
        };
        let predicted = cfg.expected_max_degree();
        let stats = degree_stats(ChungLu::new(&cfg), 5000);
        let got = stats.max_degree as f64;
        assert!(
            (got - predicted).abs() < predicted * 0.25,
            "hub degree {got} far from predicted {predicted}"
        );
    }

    #[test]
    fn solve_exponent_hits_target() {
        let (n, e) = (100_000u64, 1_000_000u64);
        for target in [500.0, 2000.0, 10_000.0] {
            let s = solve_exponent(n, e, target);
            let cfg = ChungLuConfig {
                vertices: n,
                edges: e,
                exponent: s,
                seed: 0,
            };
            let hub = cfg.expected_max_degree();
            assert!(
                (hub - target).abs() < target * 0.02,
                "target {target}: solved s={s}, hub={hub}"
            );
        }
    }

    #[test]
    fn weight_sum_large_n_approximation() {
        // Compare approximate vs exact at the crossover point.
        let s = 0.7;
        let exact: f64 = (0..200_000u64).map(|i| ((i + 1) as f64).powf(-s)).sum();
        let approx = weight_sum(200_000, s);
        assert!((approx - exact).abs() / exact < 1e-3);
    }

    #[test]
    fn ba_edge_count_and_range() {
        let n = 500;
        let m = 3;
        let edges: Vec<Edge> = BarabasiAlbert::new(n, m, 9).collect();
        // Star seed: m edges; each of the n-m-1 later vertices adds m.
        assert_eq!(edges.len() as u64, m + (n - m - 1) * m);
        assert!(edges.iter().all(|e| e.src.raw() < n && e.dst.raw() < n));
        assert!(edges.iter().all(|e| !e.is_loop()));
    }

    #[test]
    fn ba_is_scale_free_ish() {
        let edges: Vec<Edge> = BarabasiAlbert::new(3000, 4, 13).collect();
        let stats = degree_stats(edges.into_iter(), 3000);
        assert!(stats.max_degree as f64 > 5.0 * stats.avg_degree);
        // Every non-seed vertex has degree >= m.
        assert!(stats.min_degree >= 4 || stats.min_degree >= 1);
    }

    #[test]
    fn ba_deterministic() {
        let a: Vec<Edge> = BarabasiAlbert::new(200, 2, 5).collect();
        let b: Vec<Edge> = BarabasiAlbert::new(200, 2, 5).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn rmat_edge_count_and_range() {
        let gen = Rmat::standard(8, 2000, 3);
        assert_eq!(gen.vertex_count(), 256);
        let edges: Vec<Edge> = gen.collect();
        assert_eq!(edges.len(), 2000);
        assert!(edges.iter().all(|e| e.src.raw() < 256 && e.dst.raw() < 256));
        assert!(edges.iter().all(|e| !e.is_loop()));
    }

    #[test]
    fn rmat_deterministic() {
        let a: Vec<Edge> = Rmat::standard(7, 500, 9).collect();
        let b: Vec<Edge> = Rmat::standard(7, 500, 9).collect();
        assert_eq!(a, b);
        let c: Vec<Edge> = Rmat::standard(7, 500, 10).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_standard_is_skewed() {
        let edges: Vec<Edge> = Rmat::standard(10, 20_000, 4).collect();
        let stats = degree_stats(edges.into_iter(), 1024);
        assert!(
            stats.max_degree as f64 > 8.0 * stats.avg_degree,
            "max {} vs avg {}",
            stats.max_degree,
            stats.avg_degree
        );
    }

    #[test]
    fn rmat_uniform_probabilities_are_flat() {
        // (0.25, 0.25, 0.25, 0.25) degenerates to Erdős–Rényi.
        let edges: Vec<Edge> = Rmat::new(10, 20_000, 0.25, 0.25, 0.25, 4).collect();
        let stats = degree_stats(edges.into_iter(), 1024);
        assert!(
            (stats.max_degree as f64) < 3.0 * stats.avg_degree,
            "max {} vs avg {}",
            stats.max_degree,
            stats.avg_degree
        );
    }

    #[test]
    #[should_panic(expected = "bad quadrant probabilities")]
    fn rmat_rejects_bad_probabilities() {
        let _ = Rmat::new(8, 10, 0.5, 0.5, 0.2, 0);
    }
}
