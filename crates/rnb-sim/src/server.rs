//! A simulated memcached server: a pinned set of distinguished copies
//! plus an LRU replica cache.

use crate::lru::ItemLru;
use rnb_hash::ItemId;
use std::collections::HashSet;

/// Per-server access counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Lookups that hit (pinned or replica).
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Replica insertions.
    pub inserts: u64,
    /// Replica evictions caused by inserts.
    pub evictions: u64,
}

/// One simulated storage server.
#[derive(Debug)]
pub struct SimServer {
    /// Distinguished copies homed here — guaranteed resident (§III-D
    /// gives them dedicated memory equal to the unreplicated system's).
    pinned: HashSet<ItemId>,
    /// Adaptive replica cache (overbooking's enforcement point).
    replicas: ItemLru,
    stats: ServerStats,
}

impl SimServer {
    /// A server with `replica_capacity` item slots for replicas.
    pub fn new(replica_capacity: usize) -> Self {
        SimServer {
            pinned: HashSet::new(),
            replicas: ItemLru::new(replica_capacity),
            stats: ServerStats::default(),
        }
    }

    /// Pin `item`'s distinguished copy here.
    pub fn pin(&mut self, item: ItemId) {
        self.pinned.insert(item);
    }

    /// Serve a *planned* access: hit on pinned or replica (replica hits
    /// refresh the LRU).
    pub fn access(&mut self, item: ItemId) -> bool {
        if self.pinned.contains(&item) {
            self.stats.hits += 1;
            return true;
        }
        if self.replicas.touch(item) {
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Serve a *hitchhiker* probe: per §III-C2 we "updated the LRU only
    /// upon a hit in the hitchhiking request" — identical observable
    /// behaviour to [`SimServer::access`], but a miss is free (no
    /// second-round obligation arises from it), so the caller accounts it
    /// differently and we do not count it as a server miss.
    pub fn probe_hitchhiker(&mut self, item: ItemId) -> bool {
        if self.pinned.contains(&item) {
            self.stats.hits += 1;
            return true;
        }
        if self.replicas.touch(item) {
            self.stats.hits += 1;
            true
        } else {
            false
        }
    }

    /// Write a replica of `item` into the cache (miss write-back or
    /// initial fill). Pinned items are not duplicated into the replica
    /// cache. Returns the evicted item, if any.
    pub fn insert_replica(&mut self, item: ItemId) -> Option<ItemId> {
        if self.pinned.contains(&item) {
            return None;
        }
        self.stats.inserts += 1;
        let evicted = self.replicas.insert(item);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// Serve a probe without any recency side effect (the
    /// [`crate::config::HitchhikerLru::Never`] policy).
    pub fn peek(&mut self, item: ItemId) -> bool {
        if self.pinned.contains(&item) || self.replicas.contains(item) {
            self.stats.hits += 1;
            true
        } else {
            false
        }
    }

    /// Drop a replica (write invalidation, §IV's atomic scheme). Pinned
    /// distinguished copies are never droppable. Returns whether a
    /// replica was present.
    pub fn remove_replica(&mut self, item: ItemId) -> bool {
        self.replicas.remove(item)
    }

    /// Presence check without recency side effects (for tests/invariants).
    pub fn holds(&self, item: ItemId) -> bool {
        self.pinned.contains(&item) || self.replicas.contains(item)
    }

    /// Resident replica count (excludes pinned items).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Pinned item count.
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }

    /// Replica cache capacity.
    pub fn replica_capacity(&self) -> usize {
        self.replicas.capacity()
    }

    /// Access counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_items_always_hit() {
        let mut s = SimServer::new(0);
        s.pin(7);
        assert!(s.access(7));
        assert!(s.access(7));
        assert_eq!(s.stats().hits, 2);
        assert_eq!(s.stats().misses, 0);
    }

    #[test]
    fn replica_lifecycle() {
        let mut s = SimServer::new(2);
        assert!(!s.access(1));
        assert_eq!(s.stats().misses, 1);
        s.insert_replica(1);
        assert!(s.access(1));
        s.insert_replica(2);
        s.insert_replica(3); // evicts LRU: 1 (2 is more recent than 1's hit)
        assert_eq!(s.stats().evictions, 1);
        assert!(!s.holds(1));
        assert!(s.holds(2));
        assert!(s.holds(3));
    }

    #[test]
    fn pinned_not_duplicated_as_replica() {
        let mut s = SimServer::new(4);
        s.pin(5);
        assert_eq!(s.insert_replica(5), None);
        assert_eq!(s.replica_count(), 0);
        assert_eq!(s.pinned_count(), 1);
        assert!(s.holds(5));
    }

    #[test]
    fn hitchhiker_miss_not_counted() {
        let mut s = SimServer::new(2);
        assert!(!s.probe_hitchhiker(9));
        assert_eq!(s.stats().misses, 0, "hitchhiker misses are free");
        s.insert_replica(9);
        assert!(s.probe_hitchhiker(9));
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut s = SimServer::new(2);
        s.insert_replica(1);
        s.insert_replica(2);
        assert!(s.peek(1)); // would promote under probe_hitchhiker
        assert!(!s.peek(9));
        s.insert_replica(3); // evicts 1 (still LRU)
        assert!(!s.holds(1));
        assert!(s.holds(2) && s.holds(3));
    }

    #[test]
    fn hitchhiker_hit_refreshes_lru() {
        let mut s = SimServer::new(2);
        s.insert_replica(1);
        s.insert_replica(2);
        assert!(s.probe_hitchhiker(1)); // promotes 1
        s.insert_replica(3); // evicts 2, not 1
        assert!(s.holds(1));
        assert!(!s.holds(2));
    }

    #[test]
    fn zero_capacity_server_never_caches() {
        let mut s = SimServer::new(0);
        s.insert_replica(1);
        assert!(!s.holds(1));
        assert_eq!(s.replica_capacity(), 0);
    }
}
