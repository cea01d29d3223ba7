//! Zipf-skewed Monte-Carlo requests — the skewed traffic behind the
//! cluster harness's hot-key storm.
//!
//! Uniform draws ([`UniformRequests`](crate::UniformRequests)) spread
//! load evenly across shards; real key-value traffic concentrates on a
//! small popular set. A Zipf law with exponent `s` gives item of rank
//! `k` (1-based) probability proportional to `1 / k^s`: at `s ≈ 1` the
//! top 1% of a 10⁴ universe draws ~20% of accesses, at `s ≈ 1.3` well
//! over half. Item ids double as ranks (id 0 is the hottest), so the hot
//! set is contiguous and easy to reason about in tests and benches.
//!
//! Sampling inverts the precomputed CDF with a binary search per draw —
//! O(log universe), no rejection loop over the heavy head, and exactly
//! one `rng.random::<f64>()` per accepted item, so streams are
//! deterministic per seed.

use crate::{Request, RequestStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Requests of exactly `request_size` distinct items drawn from a
/// universe of `universe` items under a Zipf(`exponent`) popularity law.
pub struct ZipfRequests {
    /// `cdf[i]` = P(item <= i); the last entry is exactly 1.0.
    cdf: Vec<f64>,
    request_size: usize,
    rng: StdRng,
}

impl ZipfRequests {
    /// Build a generator. `request_size` must not exceed `universe`, and
    /// `exponent` must be finite and positive (the paper-style skew
    /// sweeps use 0.9–1.3).
    pub fn new(universe: u64, request_size: usize, exponent: f64, seed: u64) -> Self {
        assert!(request_size >= 1, "request_size must be >= 1");
        assert!(
            request_size as u64 <= universe,
            "cannot draw {request_size} distinct items from a universe of {universe}"
        );
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "zipf exponent must be finite and > 0, got {exponent}"
        );
        let mut cdf = Vec::with_capacity(universe as usize);
        let mut acc = 0.0f64;
        for rank in 1..=universe {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        // Guard the binary search against floating-point round-off: the
        // final bucket must cover every u in [0, 1).
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfRequests {
            cdf,
            request_size,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured request size.
    pub fn request_size(&self) -> usize {
        self.request_size
    }

    /// One Zipf draw: invert the CDF at a uniform `u ∈ [0, 1)`.
    fn draw(&mut self) -> u64 {
        let u = self.rng.random::<f64>();
        // partition_point returns the first index whose cdf >= u... more
        // precisely the count of entries with cdf < u — exactly the item
        // whose CDF bucket contains u.
        self.cdf.partition_point(|&p| p < u) as u64
    }
}

impl RequestStream for ZipfRequests {
    fn next_request(&mut self) -> Request {
        // Rejection sampling for distinctness, like UniformRequests. The
        // head is heavy, so collisions are common when request_size is a
        // sizable fraction of the universe — still fine for the bench
        // shapes (requests ≤ 100 over universes ≥ 10⁴), and the assert in
        // `new` keeps the loop finite.
        let mut items = std::collections::HashSet::with_capacity(self.request_size);
        let mut out = Vec::with_capacity(self.request_size);
        while out.len() < self.request_size {
            let item = self.draw();
            if items.insert(item) {
                out.push(item);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_size_distinct_in_range() {
        let mut gen = ZipfRequests::new(1000, 50, 1.1, 1);
        for _ in 0..100 {
            let req = gen.next_request();
            assert_eq!(req.len(), 50);
            let mut sorted = req.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 50, "duplicates in request");
            assert!(sorted.iter().all(|&i| i < 1000));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ZipfRequests::new(500, 20, 1.3, 7).take_requests(10);
        let b = ZipfRequests::new(500, 20, 1.3, 7).take_requests(10);
        assert_eq!(a, b);
        let c = ZipfRequests::new(500, 20, 1.3, 8).take_requests(10);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn head_is_heavy() {
        // With s = 1.3 over 10⁴ items the top 1% must dominate: compare
        // the draw mass of the first 100 ids against a uniform baseline.
        let mut gen = ZipfRequests::new(10_000, 10, 1.3, 3);
        let mut head = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            for item in gen.next_request() {
                total += 1;
                if item < 100 {
                    head += 1;
                }
            }
        }
        let frac = head as f64 / total as f64;
        assert!(
            frac > 0.4,
            "top 1% drew only {frac:.3} of accesses — not skewed"
        );
    }

    #[test]
    fn rank_order_is_respected() {
        // Item 0 must be drawn at least as often as item universe-1 by a
        // wide margin.
        let mut gen = ZipfRequests::new(100, 1, 1.0, 5);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[gen.next_request()[0] as usize] += 1;
        }
        assert!(
            counts[0] > counts[99] * 4,
            "{} vs {}",
            counts[0],
            counts[99]
        );
        assert!(
            counts[0] > counts[50] * 2,
            "{} vs {}",
            counts[0],
            counts[50]
        );
    }

    #[test]
    fn full_universe_request_terminates() {
        let mut gen = ZipfRequests::new(10, 10, 1.2, 2);
        let mut req = gen.next_request();
        req.sort_unstable();
        assert_eq!(req, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "zipf exponent")]
    fn bad_exponent_rejected() {
        ZipfRequests::new(10, 1, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn oversized_request_rejected() {
        ZipfRequests::new(5, 6, 1.0, 0);
    }
}
