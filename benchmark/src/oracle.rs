//! The reference the program's answers are checked against: a
//! single-threaded BFS over a CSR built from the same edge list. It
//! shares no code with `mssg-core`'s search.
//!
//! The oracle also knows how much work each query is — the adjacency
//! entries a level-synchronous search has to scan — which is what lets a
//! workload pick a small query set that represents a large random pool
//! (see [`spread_by_work`]).

use graphgen::Xoshiro256;
use mssg_types::Edge;

/// Undirected graph in compressed-sparse-row form, vertices `0..n`.
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// `stamp[v] == round` marks `v` visited in the current search, so a
    /// search needs no clearing pass.
    stamp: Vec<u32>,
    round: u32,
}

impl Csr {
    /// Builds the graph; every edge contributes both directions, exactly
    /// as ingestion stores it.
    pub fn build(vertices: u64, edges: &[Edge]) -> Csr {
        let n = vertices as usize;
        let mut offsets = vec![0u32; n + 1];
        for e in edges {
            offsets[e.src.index() + 1] += 1;
            offsets[e.dst.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let mut targets = vec![0u32; edges.len() * 2];
        for e in edges {
            let (s, d) = (e.src.index(), e.dst.index());
            targets[next[s] as usize] = d as u32;
            next[s] += 1;
            targets[next[d] as usize] = s as u32;
            next[d] += 1;
        }
        Csr {
            offsets,
            targets,
            stamp: vec![0; n],
            round: 0,
        }
    }

    pub fn neighbours(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    pub fn degree(&self, v: usize) -> u64 {
        (self.offsets[v + 1] - self.offsets[v]) as u64
    }

    /// Shortest path length in edges from `source` to `dest` (`None` when
    /// unreachable), and the search's work: the adjacency entries of
    /// every vertex on a level the search expands, the level that
    /// discovers `dest` included. A level-synchronous search scans
    /// exactly those, whatever order it takes them in.
    pub fn search(&mut self, source: u64, dest: u64) -> (Option<u32>, u64) {
        if source == dest {
            return (Some(0), 0);
        }
        self.round += 1;
        let round = self.round;
        self.stamp[source as usize] = round;
        let mut fringe = vec![source as u32];
        let (mut level, mut work) = (0, 0);
        while !fringe.is_empty() {
            level += 1;
            let mut found = false;
            let mut next = Vec::new();
            for &v in &fringe {
                work += self.degree(v as usize);
                let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
                for &u in &self.targets[lo as usize..hi as usize] {
                    found |= u as u64 == dest;
                    if self.stamp[u as usize] != round {
                        self.stamp[u as usize] = round;
                        next.push(u);
                    }
                }
            }
            if found {
                return (Some(level), work);
            }
            fringe = next;
        }
        (None, work)
    }

    /// Work of a two-hop expansion from `source`: its own adjacency
    /// entries and its neighbours'.
    pub fn two_hop_work(&self, source: u64) -> u64 {
        let s = source as usize;
        self.degree(s)
            + self
                .neighbours(s)
                .iter()
                .map(|&u| self.degree(u as usize))
                .sum::<u64>()
    }
}

/// A search the oracle has answered: source, destination, path length.
pub type Search = (u64, u64, Option<u32>);

/// Random pairs the oracle ranks for each search it keeps.
const POOL_PER_SEARCH: usize = 30;

impl Csr {
    /// `n` searches between distinct vertices that represent a pool of
    /// `30 n` random ones (see [`spread_by_work`]), with their answers.
    pub fn representative_searches(&mut self, n: usize, rng: &mut Xoshiro256) -> Vec<Search> {
        let vertices = self.stamp.len() as u64;
        let pool: Vec<(u64, Search)> = (0..n * POOL_PER_SEARCH)
            .map(|_| {
                let s = rng.next_below(vertices);
                let mut d = rng.next_below(vertices);
                while d == s {
                    d = rng.next_below(vertices);
                }
                let (distance, work) = self.search(s, d);
                (work, (s, d, distance))
            })
            .collect();
        spread_by_work(&pool, n, rng)
    }

    /// `n` distinct two-hop expansion sources that represent every
    /// vertex of the graph.
    pub fn representative_expansions(&self, n: usize, rng: &mut Xoshiro256) -> Vec<u64> {
        let pool: Vec<(u64, u64)> = (0..self.stamp.len() as u64)
            .map(|v| (self.two_hop_work(v), v))
            .collect();
        spread_by_work(&pool, n, rng)
    }
}

/// Picks `n` items that represent `pool`: the pool is ordered by work and
/// the items at its `n` evenly spaced mid-quantiles are taken, then
/// shuffled so that run order says nothing about cost.
///
/// Query cost on a scale-free graph is heavy-tailed — whether a search
/// stops before or after the hub's level changes it a hundredfold — so
/// the quantiles of a hundred random queries move by a quarter from one
/// seed to the next. The quantiles of a pool of thousands do not, and
/// the oracle can rank a pool that size in a second.
pub fn spread_by_work<T: Clone + Ord>(pool: &[(u64, T)], n: usize, rng: &mut Xoshiro256) -> Vec<T> {
    assert!(n > 0 && pool.len() >= n, "pool smaller than the sample");
    let mut ranked = pool.to_vec();
    ranked.sort();
    let mut picked: Vec<T> = (0..n)
        .map(|i| ranked[(2 * i + 1) * ranked.len() / (2 * n)].1.clone())
        .collect();
    rng.shuffle(&mut picked);
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_on_a_path_with_a_shortcut_and_an_island() {
        // 0-1-2-3-4, shortcut 0-3, island 5-6.
        let edges: Vec<Edge> = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (5, 6)]
            .iter()
            .map(|&(a, b)| Edge::of(a, b))
            .collect();
        let mut g = Csr::build(7, &edges);
        assert_eq!(g.neighbours(3), &[2, 4, 0]);
        assert_eq!(g.search(0, 0), (Some(0), 0));
        // Level 1 expands 0 (degree 2), level 2 expands 1 and 3.
        assert_eq!(g.search(0, 4), (Some(2), 2 + 2 + 3));
        assert_eq!(g.search(4, 1).0, Some(3));
        // Unreachable: the whole component is scanned.
        assert_eq!(g.search(0, 5), (None, 10));
        // Searches do not leak visited marks into each other.
        assert_eq!(g.search(2, 0).0, Some(2));
        assert_eq!(g.search(6, 5), (Some(1), 1));
        assert_eq!(g.two_hop_work(4), 1 + 3);
        assert_eq!(g.two_hop_work(0), 2 + 2 + 3);

        let mut rng = Xoshiro256::seeded(3);
        let mut sources = g.representative_expansions(7, &mut rng);
        sources.sort_unstable();
        assert_eq!(sources, [0, 1, 2, 3, 4, 5, 6]);
        for (s, d, distance) in g.representative_searches(5, &mut rng) {
            assert_ne!(s, d);
            assert_eq!(g.search(s, d).0, distance);
        }
    }

    #[test]
    fn spread_by_work_takes_evenly_spaced_quantiles() {
        let pool: Vec<(u64, u32)> = (0..100).rev().map(|i| (i * i, i as u32)).collect();
        let mut picked = spread_by_work(&pool, 4, &mut Xoshiro256::seeded(1));
        picked.sort_unstable();
        assert_eq!(picked, [12, 37, 62, 87]);
        let all = spread_by_work(&pool, 100, &mut Xoshiro256::seeded(1));
        assert_ne!(all, (0..100).collect::<Vec<u32>>(), "not shuffled");
        let again = spread_by_work(&pool, 100, &mut Xoshiro256::seeded(1));
        assert_eq!(all, again, "same seed, same order");
    }
}
