//! Ego requests: "we randomly and uniformly picked a user … we needed to
//! fetch the items representing all of the user's friends" (§III-B).

use crate::{Request, RequestStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnb_graph::DiGraph;

/// Generates ego requests from a social graph.
///
/// Users with no friends would yield empty requests, which correspond to
/// no storage traffic at all; like the paper's simulator we skip them by
/// resampling (documented substitution — it only rescales the request
/// rate, not any per-request metric).
///
/// ```
/// use rnb_workload::{EgoRequests, RequestStream};
/// let graph = rnb_graph::generate::powerlaw_graph(500, 2.0, 2, 50, 4000, 1);
/// let mut requests = EgoRequests::new(&graph, 42);
/// let request = requests.next_request();
/// assert!(!request.is_empty()); // someone's friend list
/// ```
pub struct EgoRequests<'g> {
    graph: &'g DiGraph,
    rng: StdRng,
    /// Pre-filtered users with at least one friend.
    eligible: Vec<u32>,
}

impl<'g> EgoRequests<'g> {
    /// Build a generator over `graph`, seeded for reproducibility. Users
    /// are sampled uniformly, as in the paper ("we randomly and uniformly
    /// picked a user").
    ///
    /// Panics if no node has outgoing edges (no request could ever be
    /// produced).
    pub fn new(graph: &'g DiGraph, seed: u64) -> Self {
        let eligible: Vec<u32> = (0..graph.num_nodes() as u32)
            .filter(|&v| graph.out_degree(v) > 0)
            .collect();
        assert!(!eligible.is_empty(), "graph has no node with friends");
        EgoRequests {
            graph,
            rng: StdRng::seed_from_u64(seed),
            eligible,
        }
    }

    /// The request a specific user would issue (their friends' items).
    pub fn request_of(&self, user: u32) -> Request {
        self.graph
            .neighbors(user)
            .iter()
            .map(|&f| f as u64)
            .collect()
    }
}

impl RequestStream for EgoRequests<'_> {
    fn next_request(&mut self) -> Request {
        let idx = self.rng.random_range(0..self.eligible.len());
        self.request_of(self.eligible[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiny_test_graph;

    #[test]
    fn requests_are_friend_sets() {
        let g = tiny_test_graph();
        let mut gen = EgoRequests::new(&g, 1);
        for _ in 0..50 {
            let req = gen.next_request();
            assert!(
                req == vec![1, 2, 3, 4, 5] || req == vec![7, 8],
                "unexpected request {req:?}"
            );
        }
    }

    #[test]
    fn never_empty() {
        let g = tiny_test_graph();
        let mut gen = EgoRequests::new(&g, 2);
        for _ in 0..200 {
            assert!(!gen.next_request().is_empty());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = tiny_test_graph();
        let a = EgoRequests::new(&g, 3).take_requests(20);
        let b = EgoRequests::new(&g, 3).take_requests(20);
        assert_eq!(a, b);
        let c = EgoRequests::new(&g, 4).take_requests(20);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn request_of_specific_user() {
        let g = tiny_test_graph();
        let gen = EgoRequests::new(&g, 0);
        assert_eq!(gen.request_of(6), vec![7, 8]);
        assert!(gen.request_of(1).is_empty());
    }

    #[test]
    fn mean_request_size_tracks_mean_degree_of_eligible() {
        // Uniform sampling over eligible users → mean request size equals
        // total edges / eligible users.
        let g = tiny_test_graph();
        let mut gen = EgoRequests::new(&g, 5);
        let reqs = gen.take_requests(4000);
        let mean = reqs.iter().map(|r| r.len()).sum::<usize>() as f64 / reqs.len() as f64;
        let expect = 7.0 / 2.0;
        assert!(
            (mean - expect).abs() < 0.25,
            "mean {mean}, expected ~{expect}"
        );
    }

    #[test]
    #[should_panic(expected = "no node with friends")]
    fn friendless_graph_rejected() {
        let g = DiGraph::from_edges(3, &[]);
        EgoRequests::new(&g, 0);
    }
}
