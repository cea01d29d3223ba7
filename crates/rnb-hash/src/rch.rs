//! Ranged Consistent Hashing (RCH), the paper's §IV extension of
//! consistent hashing.
//!
//! > "It entails traveling along the consistent hashing continuum,
//! > gathering servers until there are enough unique ones."
//!
//! RCH keeps consistent hashing's properties (stateless, uniform,
//! incremental growth) while producing, for every item, an ordered set of
//! `k` *distinct* servers to host its replicas. The first unique server on
//! the walk is the item's distinguished copy, which coincides with plain
//! consistent hashing's owner — so an RCH deployment with `k = 1` is
//! byte-for-byte a memcached deployment.

use crate::ring::ConsistentHashRing;
use crate::{ItemId, Placement, ServerId};

/// Ranged Consistent Hashing placement: `k` distinct replica servers
/// gathered by walking the continuum clockwise from the item's point.
pub struct RangedConsistentHash {
    ring: ConsistentHashRing,
    replication: usize,
}

impl RangedConsistentHash {
    /// Build an RCH placement over `num_servers` servers with `replication`
    /// logical replicas per item.
    pub fn new(num_servers: usize, replication: usize, seed: u64) -> Self {
        assert!(replication >= 1, "replication must be at least 1");
        RangedConsistentHash {
            ring: ConsistentHashRing::new(num_servers, seed),
            replication,
        }
    }

    /// Add a server to the underlying ring; replica sets of only the keys
    /// whose walk crosses the new server's points change.
    pub fn add_server(&mut self) -> ServerId {
        self.ring.add_server()
    }
}

impl Placement for RangedConsistentHash {
    fn num_servers(&self) -> usize {
        self.ring.num_servers()
    }

    fn replication(&self) -> usize {
        self.replication
    }

    fn replicas_into(&self, item: ItemId, out: &mut Vec<ServerId>) {
        out.clear();
        let want = self.replication.min(self.ring.num_servers());
        for server in self.ring.walk_from(item) {
            if !out.contains(&server) {
                out.push(server);
                if out.len() == want {
                    return;
                }
            }
        }
        // A full lap visits every server, so we can only get here if the
        // ring has fewer servers than `want`, which the `min` above
        // prevents.
        unreachable!("continuum walk ended before gathering {want} unique servers");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance_stats;

    fn rch(n: usize, k: usize) -> RangedConsistentHash {
        RangedConsistentHash::new(n, k, 42)
    }

    #[test]
    fn replicas_are_distinct_and_sized() {
        let p = rch(16, 4);
        for item in 0..5000 {
            let reps = p.replicas(item);
            assert_eq!(reps.len(), 4);
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                4,
                "duplicate replica for item {item}: {reps:?}"
            );
        }
    }

    #[test]
    fn first_replica_matches_plain_consistent_hashing() {
        let p = rch(16, 4);
        for item in 0..5000 {
            assert_eq!(p.distinguished(item), p.ring.server_for(item));
        }
    }

    #[test]
    fn replication_capped_at_cluster_size() {
        let p = rch(3, 8);
        for item in 0..100 {
            let reps = p.replicas(item);
            assert_eq!(reps.len(), 3);
            let mut s = reps.clone();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1, 2]);
        }
    }

    #[test]
    fn prefix_stability() {
        // The k-replica list must be a prefix of the (k+1)-replica list for
        // the same ring: raising the replication level only *adds* copies,
        // it never moves existing ones. This is what makes RnB deployable
        // incrementally (§IV).
        let p3 = rch(16, 3);
        let p4 = rch(16, 4);
        for item in 0..2000 {
            let r3 = p3.replicas(item);
            let r4 = p4.replicas(item);
            assert_eq!(&r4[..3], &r3[..], "prefix violated for item {item}");
        }
    }

    #[test]
    fn replica_load_is_balanced() {
        let p = rch(16, 3);
        let mut counts = vec![0usize; 16];
        for item in 0..30_000 {
            for s in p.replicas(item) {
                counts[s as usize] += 1;
            }
        }
        let (_, _, factor) = balance_stats(&counts);
        assert!(factor < 1.35, "replica imbalance {factor}");
    }

    #[test]
    fn growth_preserves_most_replica_sets() {
        let mut p = rch(16, 3);
        let before: Vec<Vec<ServerId>> = (0..20_000).map(|i| p.replicas(i)).collect();
        p.add_server();
        let mut changed = 0;
        for (i, old) in before.iter().enumerate() {
            if &p.replicas(i as ItemId) != old {
                changed += 1;
            }
        }
        // Each of the 3 replicas moves with probability ~1/17, so ~17% of
        // sets may change; assert we are well below full reshuffle.
        assert!(
            changed < 20_000 / 3,
            "{changed} of 20000 replica sets changed"
        );
    }
}
