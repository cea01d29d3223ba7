//! Multi-hash replica placement — the scheme the paper's simulator uses:
//! "replicating the data items using multiple hash functions".
//!
//! Replica `i` of an item is `H_i(item) mod N` where `H_0..H_{k-1}` are
//! xxHash64 under `k` sub-seeds of one seed. Collisions (two hash functions
//! picking the same server) are resolved by rehashing with a probe
//! counter, so the produced servers are always distinct. `H_0` defines the
//! distinguished copy.

use crate::mix::sub_seed;
use crate::xxhash::xxh64;
use crate::{ItemId, Placement, ServerId};

/// Placement by `k` independent hash functions with open-address collision
/// probing.
pub struct MultiHashPlacement {
    /// Seed of each replica's hash function `H_i`.
    seeds: Vec<u64>,
    num_servers: usize,
}

impl MultiHashPlacement {
    /// Build a placement of `replication` hash functions over
    /// `num_servers` servers, all derived from `seed`.
    pub fn new(num_servers: usize, replication: usize, seed: u64) -> Self {
        assert!(num_servers > 0, "placement needs at least one server");
        assert!(replication >= 1, "replication must be at least 1");
        let seeds = (0..replication as u64).map(|i| sub_seed(seed, i)).collect();
        MultiHashPlacement { seeds, num_servers }
    }
}

impl Placement for MultiHashPlacement {
    fn num_servers(&self) -> usize {
        self.num_servers
    }

    fn replication(&self) -> usize {
        self.seeds.len()
    }

    fn replicas_into(&self, item: ItemId, out: &mut Vec<ServerId>) {
        out.clear();
        let n = self.num_servers as u64;
        let want = self.seeds.len().min(self.num_servers);
        for &seed in &self.seeds {
            let mut h = xxh64(&item.to_le_bytes(), seed);
            let mut server = (h % n) as ServerId;
            // Probe past servers already chosen by earlier hash functions.
            // Each probe re-mixes the hash, so the fallback server remains
            // pseudo-random rather than the linear neighbour.
            let mut probe: u64 = 0;
            while out.contains(&server) {
                probe += 1;
                // The item's 8 bytes, then the probe's, little-endian.
                let key = ((u128::from(probe) << 64) | u128::from(item)).to_le_bytes();
                h = xxh64(&key, seed);
                server = (h % n) as ServerId;
            }
            out.push(server);
            if out.len() == want {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance_stats;

    fn mh(n: usize, k: usize) -> MultiHashPlacement {
        MultiHashPlacement::new(n, k, 7)
    }

    #[test]
    fn replicas_distinct() {
        let p = mh(16, 4);
        for item in 0..5000 {
            let reps = p.replicas(item);
            assert_eq!(reps.len(), 4);
            let mut s = reps.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 4, "duplicate replicas {reps:?}");
        }
    }

    #[test]
    fn deterministic() {
        let a = mh(16, 3);
        let b = mh(16, 3);
        for item in 0..1000 {
            assert_eq!(a.replicas(item), b.replicas(item));
        }
    }

    #[test]
    fn replication_capped_at_cluster() {
        let p = mh(2, 5);
        for item in 0..50 {
            let mut reps = p.replicas(item);
            reps.sort_unstable();
            assert_eq!(reps, vec![0, 1]);
        }
    }

    #[test]
    fn distinguished_ignores_replication_level() {
        // H_0 is shared across replication levels built from the same
        // seed, so the distinguished copy's location is stable when the
        // declared replica count changes (needed for overbooking).
        let p2 = mh(16, 2);
        let p4 = mh(16, 4);
        for item in 0..2000 {
            assert_eq!(p2.distinguished(item), p4.distinguished(item));
        }
    }

    #[test]
    fn per_replica_balance() {
        let p = mh(16, 3);
        let mut counts = vec![0usize; 16];
        for item in 0..30_000 {
            for s in p.replicas(item) {
                counts[s as usize] += 1;
            }
        }
        let (_, _, factor) = balance_stats(&counts);
        assert!(
            factor < 1.1,
            "multi-hash should balance tightly, got {factor}"
        );
    }

    #[test]
    fn pairwise_placements_look_independent() {
        // Replica 1 should be (nearly) uniform over the 15 servers that are
        // not replica 0.
        let p = mh(16, 2);
        let mut joint = vec![0usize; 16 * 16];
        for item in 0..60_000 {
            let r = p.replicas(item);
            joint[r[0] as usize * 16 + r[1] as usize] += 1;
        }
        for s0 in 0..16 {
            for s1 in 0..16 {
                let c = joint[s0 * 16 + s1];
                if s0 == s1 {
                    assert_eq!(c, 0);
                } else {
                    // Expected 60000/(16*15) = 250; demand within ±50%.
                    assert!((125..=375).contains(&c), "joint count ({s0},{s1}) = {c}");
                }
            }
        }
    }
}
