//! RnB deployment configuration.

/// Which replica-placement scheme the deployment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// Ranged Consistent Hashing (paper §IV) — walk the continuum
    /// gathering distinct servers. The default; what a production
    /// deployment would run.
    Rch,
    /// `k` independent hash functions (paper §III-B) — what the paper's
    /// simulator used.
    MultiHash,
    /// Rendezvous / highest-random-weight — ablation baseline.
    Rendezvous,
    /// Jump consistent hashing (Lamping–Veach) — the modern zero-memory
    /// alternative, for the placement ablation.
    Jump,
}

/// Configuration of an RnB deployment.
///
/// `replication` is the *logical* (declared) replication level; with
/// overbooking (§III-C1) the physically resident copies may be fewer —
/// that is the storage layer's business (see `rnb-sim` / `rnb-store`), not
/// the client's: "when the client is handling a request, it is practically
/// oblivious to the overbooking".
#[derive(Debug, Clone)]
pub struct RnbConfig {
    /// Number of storage servers.
    pub servers: usize,
    /// Declared replicas per item (≥ 1; 1 disables bundling gains).
    pub replication: usize,
    /// Placement scheme.
    pub placement: PlacementKind,
    /// Seed of the placement's xxHash64 hashing; every client must share
    /// it (it is the entire "configuration information" RnB needs beyond
    /// memcached's).
    pub seed: u64,
}

impl RnbConfig {
    /// A default-policy config: RCH placement, seed 0x52_6e_42 ("RnB").
    /// Every placement hashes with xxHash64; the seed is the only hashing
    /// parameter.
    ///
    /// ```
    /// use rnb_core::{PlacementKind, RnbConfig};
    /// let config = RnbConfig::new(16, 4);
    /// assert_eq!(config.servers, 16);
    /// assert_eq!(config.replication, 4);
    /// assert_eq!(config.placement, PlacementKind::Rch);
    /// ```
    pub fn new(servers: usize, replication: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(replication >= 1, "replication must be >= 1");
        RnbConfig {
            servers,
            replication,
            placement: PlacementKind::Rch,
            seed: 0x52_6e_42,
        }
    }

    /// Builder-style: set the placement kind.
    ///
    /// ```
    /// use rnb_core::{PlacementKind, RnbConfig};
    /// let config = RnbConfig::new(8, 3).with_placement(PlacementKind::MultiHash);
    /// assert_eq!(config.placement, PlacementKind::MultiHash);
    /// ```
    pub fn with_placement(mut self, kind: PlacementKind) -> Self {
        self.placement = kind;
        self
    }

    /// Builder-style: set the seed.
    ///
    /// ```
    /// use rnb_core::RnbConfig;
    /// let config = RnbConfig::new(8, 3).with_seed(99);
    /// assert_eq!(config.seed, 99);
    /// ```
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = RnbConfig::new(8, 3)
            .with_placement(PlacementKind::MultiHash)
            .with_seed(99);
        assert_eq!(c.servers, 8);
        assert_eq!(c.replication, 3);
        assert_eq!(c.placement, PlacementKind::MultiHash);
        assert_eq!(c.seed, 99);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        RnbConfig::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "replication must be >= 1")]
    fn zero_replication_rejected() {
        RnbConfig::new(4, 0);
    }
}
