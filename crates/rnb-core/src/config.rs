//! RnB deployment configuration.

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
    /// Seed of the placement's xxHash64 hashing; every client must share
    /// it (it is the entire "configuration information" RnB needs beyond
    /// memcached's).
    pub seed: u64,
}

impl RnbConfig {
    /// A config with seed 0x52_6e_42 ("RnB"). Placement is Ranged
    /// Consistent Hashing over xxHash64; the seed is its only hashing
    /// parameter.
    ///
    /// ```
    /// use rnb_core::RnbConfig;
    /// let config = RnbConfig::new(16, 4);
    /// assert_eq!(config.servers, 16);
    /// assert_eq!(config.replication, 4);
    /// ```
    pub fn new(servers: usize, replication: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(replication >= 1, "replication must be >= 1");
        RnbConfig {
            servers,
            replication,
            seed: 0x52_6e_42,
        }
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
        let c = RnbConfig::new(8, 3).with_seed(99);
        assert_eq!(c.servers, 8);
        assert_eq!(c.replication, 3);
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
