//! The replica placement every client shares: Ranged Consistent Hashing
//! (paper §IV) over xxHash64.

use crate::config::RnbConfig;
use rnb_hash::rch::RangedConsistentHash;
use rnb_hash::{ItemId, Placement, ServerId};

/// The deployment's replica placement: Ranged Consistent Hashing (paper
/// §IV), which walks the continuum gathering distinct servers.
pub struct PlacementStrategy(RangedConsistentHash);

impl PlacementStrategy {
    /// Build the placement described by `config`.
    ///
    /// ```
    /// use rnb_core::{Placement, PlacementStrategy, RnbConfig};
    /// let placement = PlacementStrategy::from_config(&RnbConfig::new(16, 3));
    /// assert_eq!(placement.num_servers(), 16);
    /// assert_eq!(placement.replication(), 3);
    /// ```
    pub fn from_config(config: &RnbConfig) -> Self {
        PlacementStrategy(RangedConsistentHash::new(
            config.servers,
            config.replication,
            config.seed,
        ))
    }

    /// The memcached baseline: one copy per item on a consistent-hashing
    /// ring (RCH with replication 1 — identical to plain consistent
    /// hashing; see `rnb_hash::rch` tests).
    ///
    /// ```
    /// use rnb_core::{Placement, PlacementStrategy};
    /// let placement = PlacementStrategy::no_replication(8, 0);
    /// assert_eq!(placement.replication(), 1);
    /// assert_eq!(placement.replicas(3).len(), 1);
    /// ```
    pub fn no_replication(servers: usize, seed: u64) -> Self {
        PlacementStrategy(RangedConsistentHash::new(servers, 1, seed))
    }
}

impl Placement for PlacementStrategy {
    fn num_servers(&self) -> usize {
        self.0.num_servers()
    }

    fn replication(&self) -> usize {
        self.0.replication()
    }

    fn replicas_into(&self, item: ItemId, out: &mut Vec<ServerId>) {
        self.0.replicas_into(item, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_replication_is_single_copy() {
        let p = PlacementStrategy::no_replication(8, 1);
        assert_eq!(p.replication(), 1);
        for item in 0..100 {
            assert_eq!(p.replicas(item).len(), 1);
        }
    }

    /// Pins placement across versions: every client must map an item to
    /// the same servers, so a silent change re-homes every item of a
    /// running deployment. Each row holds the replica lists of items 0..8,
    /// one hex digit per server, and an xxh64 digest of the lists of items
    /// 0..10,000.
    #[test]
    fn placement_golden_vectors() {
        use crate::FullSystemReplication;
        use rnb_hash::xxhash::xxh64;
        fn pinned(replicas: impl Fn(ItemId) -> Vec<ServerId>) -> (String, u64) {
            let head: Vec<String> = (0..8)
                .map(|item| replicas(item).iter().map(|s| format!("{s:x}")).collect())
                .collect();
            let bytes: Vec<u8> = (0..10_000)
                .flat_map(replicas)
                .flat_map(u32::to_le_bytes)
                .collect();
            (head.join(" "), xxh64(&bytes, 0))
        }
        // 16 servers (the figures' fleet), then 4 and 2 (e2e's fleet and
        // its `--quick` fleet).
        #[rustfmt::skip]
        let golden = [
            (16, 1, "8 6 8 e b d d 2", 0x95a7a7d0bd45bab4),
            (16, 2, "89 69 8d e2 bd d7 d5 2e", 0x8fe5ad7cbcbd57df),
            (16, 3, "893 697 8d6 e28 bdc d7b d5e 2eb", 0xe039f18c064317ef),
            (16, 4, "8935 697f 8d6e e28b bdca d7b9 d5e1 2eb1", 0xc4cbde4c4dd708cc),
            (4, 1, "3 2 1 2 2 1 1 2", 0xf8d0c54ae4b64e16),
            (4, 2, "32 20 13 23 23 13 10 21", 0xa20778da475d4010),
            (4, 3, "320 201 130 230 231 130 102 213", 0x92bb9cfae2a77ad9),
            (2, 1, "0 0 1 0 1 1 1 1", 0xb11b18fda19bbb66),
            (2, 2, "01 01 10 01 10 10 10 10", 0xb59104a5b26f90ad),
        ];
        for (servers, k, head, digest) in golden {
            let p = PlacementStrategy::from_config(&RnbConfig::new(servers, k));
            let got = pinned(|item| p.replicas(item));
            assert_eq!(got, (head.to_string(), digest), "{servers} servers k={k}");
        }
        let ch = PlacementStrategy::no_replication(8, 0);
        let got = pinned(|item| ch.replicas(item));
        assert_eq!(got, ("4 4 6 5 0 7 2 5".to_string(), 0x09e1737399847e61));
        let fsr = FullSystemReplication::new(16, 4, 1);
        let got = pinned(|item| fsr.write_set(item));
        let head = "37bf 048c 159d 159d 048c 159d 37bf 37bf";
        assert_eq!(got, (head.to_string(), 0xf20f924922538d44));
    }
}
