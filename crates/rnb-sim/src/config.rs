//! Simulation configuration.

use rnb_core::{PlacementKind, RnbConfig};

/// How much physical memory the cluster has for replicas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryModel {
    /// Every logical replica is physically resident (Fig 6's setting:
    /// "we assume that all objects are found in memory").
    Unlimited,
    /// Total memory = `factor` × (one copy of the data set). Distinguished
    /// copies consume exactly 1.0× (pinned, never miss — §III-D: "we
    /// allocate for the distinguished copies the same amount of memory
    /// that the original system had"); the remaining
    /// `(factor − 1) × universe` item slots are split evenly across
    /// servers as LRU replica caches. `factor` < 1 is rejected.
    Factor(f64),
}

impl MemoryModel {
    /// Per-server replica-cache capacity (in items) for a data set of
    /// `universe` items on `servers` servers, when distinguished copies
    /// are pinned outside the cache ([`DistinguishedMode::Pinned`]).
    pub fn replica_capacity_per_server(&self, universe: usize, servers: usize) -> usize {
        match *self {
            MemoryModel::Unlimited => usize::MAX,
            MemoryModel::Factor(f) => {
                assert!(
                    f >= 1.0,
                    "memory factor {f} cannot store even the distinguished copies"
                );
                (((f - 1.0) * universe as f64) / servers as f64).floor() as usize
            }
        }
    }

    /// Per-server total cache capacity (in items) when everything —
    /// distinguished copies included — shares one LRU
    /// ([`DistinguishedMode::InLru`]).
    pub fn total_capacity_per_server(&self, universe: usize, servers: usize) -> usize {
        match *self {
            MemoryModel::Unlimited => usize::MAX,
            MemoryModel::Factor(f) => {
                assert!(f > 0.0, "memory factor must be positive");
                ((f * universe as f64) / servers as f64).floor() as usize
            }
        }
    }
}

/// How hitchhiker probes interact with the server LRUs — §III-C2 leaves
/// this open ("whether a server's LRU should be updated based on a
/// hitchhiker … topics for further research"); the paper's results use
/// [`HitchhikerLru::OnHit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HitchhikerLru {
    /// "we … updated the LRU only upon a hit in the hitchhiking request"
    /// — the paper's choice.
    #[default]
    OnHit,
    /// Hitchhiker hits do not refresh recency at all (hitchhikers are
    /// opportunistic; only planned traffic shapes the caches).
    Never,
}

/// How distinguished copies are protected — the "two service classes in
/// LRU based caching systems" approaches the paper's §I-C claims
/// (evaluated in the thesis; §III-D uses the pinned form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistinguishedMode {
    /// Dedicated, guaranteed space: distinguished copies can never be
    /// evicted and never miss (§III-D's accounting).
    #[default]
    Pinned,
    /// No second service class: distinguished copies share the ordinary
    /// LRU with replicas and may be evicted — a distinguished-copy miss
    /// becomes a database fetch (counted separately; this mode shows why
    /// the protection is needed).
    InLru,
}

/// What happens after a planned replica miss — §III-C2 fixes the paper's
/// choice ("we write the missing item only to the replica that was the
/// first to be picked by the greedy set cover algorithm").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritebackPolicy {
    /// No refill: caches only ever shrink toward the distinguished set.
    None,
    /// The paper's policy: refill the planned (first-picked) replica.
    #[default]
    FirstPicked,
    /// Aggressive: refill every replica server of the missed item.
    AllReplicas,
}

/// Full configuration of a simulated RnB deployment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of memcached servers.
    pub servers: usize,
    /// Declared (logical) replication level. With `MemoryModel::Factor`
    /// below the declared level this is *overbooking* (§III-C1).
    pub logical_replication: usize,
    /// Replica placement scheme.
    pub placement: PlacementKind,
    /// Placement seed (shared by all simulated clients).
    pub seed: u64,
    /// Physical memory model.
    pub memory: MemoryModel,
    /// Enable hitchhiking (§III-C2).
    pub hitchhiking: bool,
    /// Hitchhiker LRU policy (§III-C2 research question).
    pub hitchhiker_lru: HitchhikerLru,
    /// Distinguished-copy service class (§I-C / §III-D).
    pub distinguished: DistinguishedMode,
    /// Miss write-back policy (§III-C2).
    pub writeback: WritebackPolicy,
}

impl SimConfig {
    /// A basic-RnB config: RCH placement, unlimited memory, no
    /// hitchhiking, paper-default policies.
    pub fn basic(servers: usize, replication: usize) -> Self {
        SimConfig {
            servers,
            logical_replication: replication,
            placement: PlacementKind::Rch,
            seed: 0x52_6e_42,
            memory: MemoryModel::Unlimited,
            hitchhiking: false,
            hitchhiker_lru: HitchhikerLru::default(),
            distinguished: DistinguishedMode::default(),
            writeback: WritebackPolicy::default(),
        }
    }

    /// An enhanced-RnB config (§III-C/D): memory-limited with overbooking
    /// support and hitchhiking on.
    pub fn enhanced(servers: usize, logical_replication: usize, memory_factor: f64) -> Self {
        SimConfig {
            memory: MemoryModel::Factor(memory_factor),
            hitchhiking: true,
            ..SimConfig::basic(servers, logical_replication)
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style placement override.
    pub fn with_placement(mut self, kind: PlacementKind) -> Self {
        self.placement = kind;
        self
    }

    /// Builder-style hitchhiking toggle.
    pub fn with_hitchhiking(mut self, on: bool) -> Self {
        self.hitchhiking = on;
        self
    }

    /// The client-side RnB config implied by this simulation config.
    pub fn client_config(&self) -> RnbConfig {
        RnbConfig::new(self.servers, self.logical_replication)
            .with_placement(self.placement)
            .with_seed(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_capacity_math() {
        // 1000 items, 10 servers, factor 2.5 → 1500 replica slots → 150
        // per server.
        let m = MemoryModel::Factor(2.5);
        assert_eq!(m.replica_capacity_per_server(1000, 10), 150);
        // factor 1.0 → zero replica space.
        assert_eq!(
            MemoryModel::Factor(1.0).replica_capacity_per_server(1000, 10),
            0
        );
        assert_eq!(
            MemoryModel::Unlimited.replica_capacity_per_server(1, 1),
            usize::MAX
        );
    }

    #[test]
    #[should_panic(expected = "cannot store")]
    fn sub_unit_factor_rejected() {
        MemoryModel::Factor(0.5).replica_capacity_per_server(100, 4);
    }

    #[test]
    fn config_builders() {
        let c = SimConfig::basic(16, 4);
        assert_eq!(c.servers, 16);
        assert_eq!(c.memory, MemoryModel::Unlimited);
        assert!(!c.hitchhiking);
        let e = SimConfig::enhanced(16, 4, 2.0)
            .with_seed(9)
            .with_hitchhiking(false);
        assert_eq!(e.memory, MemoryModel::Factor(2.0));
        assert_eq!(e.seed, 9);
        assert!(!e.hitchhiking);
        let cc = e.client_config();
        assert_eq!(cc.servers, 16);
        assert_eq!(cc.replication, 4);
        assert_eq!(cc.seed, 9);
    }
}
