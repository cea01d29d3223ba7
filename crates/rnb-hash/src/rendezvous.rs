//! Rendezvous (highest-random-weight) placement.
//!
//! Not used by the paper, but included as an ablation baseline: HRW gives
//! perfectly distinct replica sets and optimal rebalancing by construction,
//! at O(N) lookup cost per item versus RCH's O(log N + k). The ablation
//! bench (`placement` in `rnb-bench`) quantifies that trade-off.

use crate::xxhash::xxh64;
use crate::{ItemId, Placement, ServerId};

/// Highest-random-weight placement: replicas are the `k` servers with the
/// highest `hash(item, server)` scores.
pub struct RendezvousPlacement {
    seed: u64,
    num_servers: usize,
    replication: usize,
}

impl RendezvousPlacement {
    /// Build an HRW placement.
    pub fn new(num_servers: usize, replication: usize, seed: u64) -> Self {
        assert!(num_servers > 0, "placement needs at least one server");
        assert!(replication >= 1, "replication must be at least 1");
        RendezvousPlacement {
            seed,
            num_servers,
            replication,
        }
    }

    fn score(&self, item: ItemId, server: ServerId) -> u64 {
        let mut key = [0u8; 12];
        key[..8].copy_from_slice(&item.to_le_bytes());
        key[8..].copy_from_slice(&server.to_le_bytes());
        xxh64(&key, self.seed)
    }
}

impl Placement for RendezvousPlacement {
    fn num_servers(&self) -> usize {
        self.num_servers
    }

    fn replication(&self) -> usize {
        self.replication
    }

    fn replicas_into(&self, item: ItemId, out: &mut Vec<ServerId>) {
        out.clear();
        let want = self.replication.min(self.num_servers);
        // Partial selection of the top-k scores. N is small (≤ thousands),
        // so a simple scored sort is fine; callers needing speed use RCH.
        let mut scored: Vec<(u64, ServerId)> = (0..self.num_servers as ServerId)
            .map(|s| (self.score(item, s), s))
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        out.extend(scored[..want].iter().map(|&(_, s)| s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance_stats;

    #[test]
    fn distinct_replicas_by_construction() {
        let p = RendezvousPlacement::new(16, 4, 11);
        for item in 0..2000 {
            let reps = p.replicas(item);
            let mut s = reps.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 4);
        }
    }

    #[test]
    fn prefix_stability_across_replication_levels() {
        let p2 = RendezvousPlacement::new(16, 2, 11);
        let p5 = RendezvousPlacement::new(16, 5, 11);
        for item in 0..1000 {
            assert_eq!(&p5.replicas(item)[..2], &p2.replicas(item)[..]);
        }
    }

    #[test]
    fn near_perfect_balance() {
        let p = RendezvousPlacement::new(16, 3, 12);
        let mut counts = vec![0usize; 16];
        for item in 0..30_000 {
            for s in p.replicas(item) {
                counts[s as usize] += 1;
            }
        }
        let (_, _, factor) = balance_stats(&counts);
        assert!(factor < 1.1, "HRW imbalance {factor}");
    }

    #[test]
    fn adding_server_only_steals_keys() {
        // Growing the cluster by one server must never move a replica
        // between two pre-existing servers (minimal-disruption property).
        let p16 = RendezvousPlacement::new(16, 3, 13);
        let p17 = RendezvousPlacement::new(17, 3, 13);
        for item in 0..5000 {
            let old = p16.replicas(item);
            let new = p17.replicas(item);
            for s in &new {
                assert!(
                    *s == 16 || old.contains(s),
                    "item {item}: {old:?} -> {new:?}"
                );
            }
        }
    }
}
