//! Concrete placement strategies behind one enum, so callers can switch
//! schemes without generics.

use crate::config::{PlacementKind, RnbConfig};
use rnb_hash::jump::JumpPlacement;
use rnb_hash::multihash::MultiHashPlacement;
use rnb_hash::rch::RangedConsistentHash;
use rnb_hash::rendezvous::RendezvousPlacement;
use rnb_hash::{ItemId, Placement, ServerId};

/// A replica placement scheme chosen at runtime.
pub enum PlacementStrategy {
    /// Ranged Consistent Hashing (paper §IV).
    Rch(RangedConsistentHash),
    /// Multiple independent hash functions (paper §III-B).
    MultiHash(MultiHashPlacement),
    /// Rendezvous hashing (ablation).
    Rendezvous(RendezvousPlacement),
    /// Jump consistent hashing (ablation).
    Jump(JumpPlacement),
}

impl PlacementStrategy {
    /// Build the strategy described by `config`.
    ///
    /// ```
    /// use rnb_core::{Placement, PlacementStrategy, RnbConfig};
    /// let placement = PlacementStrategy::from_config(&RnbConfig::new(16, 3));
    /// assert_eq!(placement.num_servers(), 16);
    /// assert_eq!(placement.replication(), 3);
    /// ```
    pub fn from_config(config: &RnbConfig) -> Self {
        Self::build(
            config.placement,
            config.servers,
            config.replication,
            config.seed,
        )
    }

    /// Build a strategy from explicit parameters. `seed` seeds the
    /// placement's xxHash64 hashing (jump hashing mixes it in itself).
    ///
    /// ```
    /// use rnb_core::{Placement, PlacementKind, PlacementStrategy};
    /// let placement = PlacementStrategy::build(PlacementKind::Jump, 8, 2, 7);
    /// assert_eq!(placement.name(), "jump");
    /// assert_eq!(placement.replicas(42).len(), 2);
    /// ```
    pub fn build(kind: PlacementKind, servers: usize, replication: usize, seed: u64) -> Self {
        match kind {
            PlacementKind::Rch => {
                PlacementStrategy::Rch(RangedConsistentHash::new(servers, replication, seed))
            }
            PlacementKind::MultiHash => {
                PlacementStrategy::MultiHash(MultiHashPlacement::new(servers, replication, seed))
            }
            PlacementKind::Rendezvous => {
                PlacementStrategy::Rendezvous(RendezvousPlacement::new(servers, replication, seed))
            }
            PlacementKind::Jump => {
                PlacementStrategy::Jump(JumpPlacement::new(servers, replication, seed))
            }
        }
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
        PlacementStrategy::Rch(RangedConsistentHash::new(servers, 1, seed))
    }

    /// Name for tables and logs.
    ///
    /// ```
    /// use rnb_core::PlacementStrategy;
    /// assert_eq!(PlacementStrategy::no_replication(4, 0).name(), "rch");
    /// ```
    pub fn name(&self) -> &'static str {
        match self {
            PlacementStrategy::Rch(_) => "rch",
            PlacementStrategy::MultiHash(_) => "multihash",
            PlacementStrategy::Rendezvous(_) => "rendezvous",
            PlacementStrategy::Jump(_) => "jump",
        }
    }
}

impl Placement for PlacementStrategy {
    fn num_servers(&self) -> usize {
        match self {
            PlacementStrategy::Rch(p) => p.num_servers(),
            PlacementStrategy::MultiHash(p) => p.num_servers(),
            PlacementStrategy::Rendezvous(p) => p.num_servers(),
            PlacementStrategy::Jump(p) => p.num_servers(),
        }
    }

    fn replication(&self) -> usize {
        match self {
            PlacementStrategy::Rch(p) => p.replication(),
            PlacementStrategy::MultiHash(p) => p.replication(),
            PlacementStrategy::Rendezvous(p) => p.replication(),
            PlacementStrategy::Jump(p) => p.replication(),
        }
    }

    fn replicas_into(&self, item: ItemId, out: &mut Vec<ServerId>) {
        match self {
            PlacementStrategy::Rch(p) => p.replicas_into(item, out),
            PlacementStrategy::MultiHash(p) => p.replicas_into(item, out),
            PlacementStrategy::Rendezvous(p) => p.replicas_into(item, out),
            PlacementStrategy::Jump(p) => p.replicas_into(item, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_buildable_and_distinct_replicas() {
        for kind in [
            PlacementKind::Rch,
            PlacementKind::MultiHash,
            PlacementKind::Rendezvous,
            PlacementKind::Jump,
        ] {
            let p = PlacementStrategy::build(kind, 16, 3, 5);
            assert_eq!(p.num_servers(), 16);
            assert_eq!(p.replication(), 3);
            for item in 0..500 {
                let reps = p.replicas(item);
                let mut s = reps.clone();
                s.sort_unstable();
                s.dedup();
                assert_eq!(s.len(), 3, "{kind:?} produced duplicate replicas");
            }
        }
    }

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
        use PlacementKind::{Jump, MultiHash, Rch, Rendezvous};
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
        #[rustfmt::skip]
        let golden = [
            (Rch, 1, "8 6 8 e b d d 2", 0x95a7a7d0bd45bab4),
            (Rch, 2, "89 69 8d e2 bd d7 d5 2e", 0x8fe5ad7cbcbd57df),
            (Rch, 3, "893 697 8d6 e28 bdc d7b d5e 2eb", 0xe039f18c064317ef),
            (Rch, 4, "8935 697f 8d6e e28b bdca d7b9 d5e1 2eb1", 0xc4cbde4c4dd708cc),
            (MultiHash, 1, "5 8 4 8 d e a a", 0x24c3151191d209cd),
            (MultiHash, 2, "5e 81 4e 85 d3 e7 ac a0", 0x4ad93a3cc69b3291),
            (MultiHash, 3, "5ed 817 4e8 852 d3c e73 ac6 a04", 0xa5c75cb591a72955),
            (MultiHash, 4, "5ed7 817d 4e8c 8524 d3cf e735 ac65 a048", 0xada81d21e22d497a),
            (Rendezvous, 1, "0 e 4 c f c 6 5", 0x8fee40d9e51b90bf),
            (Rendezvous, 2, "01 e4 48 cb fd c7 64 5b", 0x83b83f9187be243b),
            (Rendezvous, 3, "014 e45 486 cb8 fd3 c7b 64d 5b3", 0xf6ba023795fd6fe4),
            (Rendezvous, 4, "0148 e45d 4869 cb81 fd35 c7b4 64d5 5b3f", 0xa20247b2f17ec8ff),
            (Jump, 1, "4 f f e b e b 7", 0xf4aa70f08963a4aa),
            (Jump, 2, "45 fb f3 e0 b1 e5 b5 72", 0xd8b774f6edbef308),
            (Jump, 3, "450 fb4 f32 e06 b16 e5a b5c 725", 0x9ee6cb63a1a04d7f),
            (Jump, 4, "4509 fb49 f32e e06b b163 e5a2 b5cf 725f", 0xb5244d699bee1381),
        ];
        for (kind, k, head, digest) in golden {
            let p = PlacementStrategy::from_config(&RnbConfig::new(16, k).with_placement(kind));
            let got = pinned(|item| p.replicas(item));
            assert_eq!(got, (head.to_string(), digest), "{kind:?} k={k}");
        }
        let ch = PlacementStrategy::no_replication(8, 0);
        let got = pinned(|item| ch.replicas(item));
        assert_eq!(got, ("4 4 6 5 0 7 2 5".to_string(), 0x09e1737399847e61));
        let fsr = FullSystemReplication::new(16, 4, 1);
        let got = pinned(|item| fsr.write_set(item));
        let head = "37bf 048c 159d 159d 048c 159d 37bf 37bf";
        assert_eq!(got, (head.to_string(), 0xf20f924922538d44));
    }

    #[test]
    fn names() {
        assert_eq!(PlacementStrategy::no_replication(2, 0).name(), "rch");
        let c = RnbConfig::new(4, 2).with_placement(PlacementKind::Rendezvous);
        assert_eq!(PlacementStrategy::from_config(&c).name(), "rendezvous");
    }
}
