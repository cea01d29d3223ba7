//! Seeded synthetic graph generators.
//!
//! The paper's datasets are heavy-tailed social networks; what its
//! experiments actually consume is the *request-size distribution* (the
//! out-degree distribution) plus uniform-random friend identities. The
//! generators here sample out-degrees from a truncated discrete power law
//! (the canonical social-network degree model — cf. Ugander et al., "The
//! anatomy of the Facebook social graph", which the paper cites) and wire
//! targets uniformly at random.

use crate::graph::DiGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sample `n` out-degrees from the discrete power law
/// `P(d) ∝ d^-alpha, d ∈ [d_min, d_max]`, then rescale so the total is
/// exactly `target_edges` (multiplicative rescale preserving the tail
/// shape, then ±1 fix-ups).
pub fn powerlaw_degrees(
    n: usize,
    alpha: f64,
    d_min: u32,
    d_max: u32,
    target_edges: usize,
    rng: &mut StdRng,
) -> Vec<u32> {
    assert!(n > 0, "need at least one node");
    assert!(d_min >= 1 && d_min <= d_max, "need 1 <= d_min <= d_max");
    assert!(
        target_edges >= n * d_min as usize && target_edges <= n * d_max as usize,
        "target_edges {target_edges} unreachable with n={n}, d in [{d_min},{d_max}]"
    );

    // Inverse-CDF table over the truncated support.
    let support: Vec<u32> = (d_min..=d_max).collect();
    let weights: Vec<f64> = support.iter().map(|&d| (d as f64).powf(-alpha)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }

    let mut degrees: Vec<u32> = (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            let idx = cdf.partition_point(|&c| c < u).min(support.len() - 1);
            support[idx]
        })
        .collect();

    // Multiplicative rescale toward the target sum.
    let sum: usize = degrees.iter().map(|&d| d as usize).sum();
    if sum != target_edges {
        let scale = target_edges as f64 / sum as f64;
        for d in &mut degrees {
            *d = (((*d as f64) * scale).round() as u32).clamp(d_min, d_max);
        }
    }

    // ±1 fix-ups to land exactly on target_edges.
    let mut sum: isize = degrees.iter().map(|&d| d as isize).sum();
    let target = target_edges as isize;
    while sum != target {
        let i = rng.random_range(0..n);
        if sum > target && degrees[i] > d_min {
            degrees[i] -= 1;
            sum -= 1;
        } else if sum < target && degrees[i] < d_max {
            degrees[i] += 1;
            sum += 1;
        }
    }
    degrees
}

/// Wire a directed graph from an out-degree sequence: each node's
/// `degree[v]` targets are distinct, uniform, and never `v` itself.
pub fn wire_uniform_targets(degrees: &[u32], rng: &mut StdRng) -> DiGraph {
    let n = degrees.len();
    assert!(
        degrees.iter().all(|&d| (d as usize) < n),
        "a node cannot have more distinct neighbours than n-1"
    );
    let total: usize = degrees.iter().map(|&d| d as usize).sum();
    let mut edges = Vec::with_capacity(total);
    let mut chosen: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for (v, &d) in degrees.iter().enumerate() {
        chosen.clear();
        while chosen.len() < d as usize {
            let t = rng.random_range(0..n as u32);
            if t as usize != v && chosen.insert(t) {
                edges.push((v as u32, t));
            }
        }
    }
    DiGraph::from_edges(n, &edges)
}

/// Wire a directed graph where targets are drawn **preferentially**:
/// node `j` is chosen as a friend with probability proportional to its
/// own out-degree. This makes the in-degree distribution heavy-tailed and
/// correlated with out-degree — the shape of real (largely reciprocal)
/// social networks like Slashdot, where popular users are also requested
/// often. Item-popularity skew matters for the memory-limited experiments
/// (Figs 8–10): per-server LRUs exploit it.
pub fn wire_preferential_targets(degrees: &[u32], rng: &mut StdRng) -> DiGraph {
    let n = degrees.len();
    assert!(
        degrees.iter().all(|&d| (d as usize) < n),
        "a node cannot have more distinct neighbours than n-1"
    );
    // Cumulative weights for binary-search sampling; +1 smoothing keeps
    // degree-0 nodes reachable.
    let mut cum: Vec<u64> = Vec::with_capacity(n);
    let mut acc = 0u64;
    for &d in degrees {
        acc += d as u64 + 1;
        cum.push(acc);
    }
    let total = acc;

    let total_edges: usize = degrees.iter().map(|&d| d as usize).sum();
    let mut edges = Vec::with_capacity(total_edges);
    let mut chosen: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for (v, &d) in degrees.iter().enumerate() {
        chosen.clear();
        let mut attempts = 0usize;
        while chosen.len() < d as usize {
            // Fall back to uniform draws if the weighted draws keep
            // colliding (can happen for very large d).
            let t = if attempts < 20 * d as usize {
                let x = rng.random_range(0..total);
                cum.partition_point(|&c| c <= x) as u32
            } else {
                rng.random_range(0..n as u32)
            };
            attempts += 1;
            if t as usize != v && chosen.insert(t) {
                edges.push((v as u32, t));
            }
        }
    }
    DiGraph::from_edges(n, &edges)
}

/// One-call generator: power-law degrees + uniform wiring.
pub fn powerlaw_graph(
    n: usize,
    alpha: f64,
    d_min: u32,
    d_max: u32,
    target_edges: usize,
    seed: u64,
) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let degrees = powerlaw_degrees(n, alpha, d_min, d_max, target_edges, &mut rng);
    wire_uniform_targets(&degrees, &mut rng)
}

/// One-call generator: power-law degrees + preferential wiring (the
/// social-network-shaped variant used by the paper-matched datasets).
pub fn powerlaw_graph_preferential(
    n: usize,
    alpha: f64,
    d_min: u32,
    d_max: u32,
    target_edges: usize,
    seed: u64,
) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let degrees = powerlaw_degrees(n, alpha, d_min, d_max, target_edges, &mut rng);
    wire_preferential_targets(&degrees, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_hit_exact_edge_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let degrees = powerlaw_degrees(1000, 1.8, 1, 200, 8000, &mut rng);
        assert_eq!(degrees.len(), 1000);
        assert_eq!(degrees.iter().map(|&d| d as usize).sum::<usize>(), 8000);
        assert!(degrees.iter().all(|&d| (1..=200).contains(&d)));
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(2);
        let degrees = powerlaw_degrees(20_000, 1.8, 1, 2000, 200_000, &mut rng);
        // Heavy tail: the max should be far above the mean (10), and
        // degree-1 nodes should be the most common value.
        let max = *degrees.iter().max().unwrap();
        assert!(max > 100, "max degree {max} not heavy-tailed");
        let ones = degrees.iter().filter(|&&d| d == 1).count();
        let mode = {
            let mut counts = std::collections::HashMap::new();
            for &d in &degrees {
                *counts.entry(d).or_insert(0usize) += 1;
            }
            *counts.iter().max_by_key(|(_, c)| **c).unwrap().0
        };
        assert!(ones > degrees.len() / 10, "too few degree-1 nodes: {ones}");
        assert!(mode <= 2, "mode {mode} should sit at the small-degree end");
    }

    #[test]
    fn wiring_respects_degrees() {
        let mut rng = StdRng::seed_from_u64(3);
        let degrees: Vec<u32> = vec![3, 0, 4, 1, 2];
        let g = wire_uniform_targets(&degrees, &mut rng);
        for (v, &d) in degrees.iter().enumerate() {
            assert_eq!(g.out_degree(v as u32), d as usize, "node {v}");
            assert!(
                !g.neighbors(v as u32).contains(&(v as u32)),
                "self-loop at {v}"
            );
        }
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn full_generator_deterministic() {
        let a = powerlaw_graph(500, 1.8, 1, 100, 3000, 42);
        let b = powerlaw_graph(500, 1.8, 1, 100, 3000, 42);
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..500u32 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
        let c = powerlaw_graph(500, 1.8, 1, 100, 3000, 43);
        let same = (0..500u32).all(|v| a.neighbors(v) == c.neighbors(v));
        assert!(!same, "different seeds gave identical graphs");
    }

    #[test]
    fn preferential_wiring_respects_degrees_and_skews_in_degree() {
        let mut rng = StdRng::seed_from_u64(8);
        let degrees = powerlaw_degrees(5000, 1.8, 1, 400, 40_000, &mut rng);
        let g = wire_preferential_targets(&degrees, &mut rng);
        for (v, &d) in degrees.iter().enumerate() {
            assert_eq!(g.out_degree(v as u32), d as usize, "node {v}");
        }
        // In-degree must be far more skewed than uniform wiring's
        // (Poisson with mean 8 ⇒ p99 ≈ 15): preferential attachment gives
        // the popular nodes hundreds of followers.
        let in_deg = g.in_degrees();
        let max_in = *in_deg.iter().max().unwrap();
        assert!(max_in > 60, "in-degree max {max_in} not skewed");
        // And in/out degree are positively correlated: the top-out-degree
        // node should have far more followers than the median node.
        let top_out = (0..5000u32).max_by_key(|&v| g.out_degree(v)).unwrap();
        let mut sorted_in = in_deg.clone();
        sorted_in.sort_unstable();
        let median_in = sorted_in[2500];
        assert!(
            in_deg[top_out as usize] > 4 * median_in.max(1),
            "no in/out correlation: top node has {} followers, median {}",
            in_deg[top_out as usize],
            median_in
        );
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn impossible_target_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        powerlaw_degrees(10, 2.0, 1, 5, 1000, &mut rng);
    }

    #[test]
    #[should_panic(expected = "distinct neighbours")]
    fn oversized_degree_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        wire_uniform_targets(&[5], &mut rng);
    }
}
