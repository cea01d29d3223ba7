//! Consistent-hashing ring with virtual nodes (Karger et al., STOC '97),
//! the placement scheme memcached clients use and the baseline the paper
//! starts from.

use crate::xxhash::xxh64;
use crate::{ItemId, Placement, ServerId};

/// Default number of virtual nodes per server. 128 keeps the imbalance
/// factor under ~1.15 for the cluster sizes studied in the paper (≤ 4096).
pub const DEFAULT_VNODES: usize = 128;

/// A consistent-hashing ring.
///
/// Each server contributes `vnodes` points on the `u64` continuum; an item
/// is owned by the server whose point is the first at or clockwise of the
/// item's hash.
pub struct ConsistentHashRing {
    /// Sorted `(point, server)` pairs — the continuum.
    points: Vec<(u64, ServerId)>,
    num_servers: usize,
    vnodes: usize,
    seed: u64,
}

impl ConsistentHashRing {
    /// Build a ring of `num_servers` servers with [`DEFAULT_VNODES`]
    /// virtual nodes each, hashing with xxHash64 seeded by `seed`.
    pub fn new(num_servers: usize, seed: u64) -> Self {
        Self::with_vnodes(num_servers, DEFAULT_VNODES, seed)
    }

    /// Build a ring with an explicit virtual-node count.
    pub fn with_vnodes(num_servers: usize, vnodes: usize, seed: u64) -> Self {
        assert!(num_servers > 0, "ring needs at least one server");
        assert!(vnodes > 0, "ring needs at least one vnode per server");
        let mut points = Vec::with_capacity(num_servers * vnodes);
        for server in 0..num_servers as ServerId {
            push_server_points(&mut points, seed, server, vnodes);
        }
        points.sort_unstable();
        let mut ring = ConsistentHashRing {
            points,
            num_servers,
            vnodes,
            seed,
        };
        ring.dedup_points();
        ring
    }

    fn dedup_points(&mut self) {
        // Ties on the continuum are broken towards the lower server id so
        // every client resolves them identically.
        self.points.dedup_by_key(|&mut (p, _)| p);
    }

    /// Number of servers on the ring.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Hash of an item on the continuum.
    pub fn point_of(&self, item: ItemId) -> u64 {
        xxh64(&item.to_le_bytes(), self.seed)
    }

    /// Index into `points` of the first point at or clockwise of `point`.
    fn successor_index(&self, point: u64) -> usize {
        match self.points.binary_search_by(|&(p, _)| p.cmp(&point)) {
            Ok(i) => i,
            Err(i) => {
                if i == self.points.len() {
                    0 // wrap around
                } else {
                    i
                }
            }
        }
    }

    /// The server owning `item` (single-copy consistent hashing).
    pub fn server_for(&self, item: ItemId) -> ServerId {
        let idx = self.successor_index(self.point_of(item));
        self.points[idx].1
    }

    /// Walk the continuum clockwise starting at `item`'s point, yielding
    /// `(point_index, server)` pairs including duplicates. Used by
    /// [`crate::rch::RangedConsistentHash`].
    pub fn walk_from(&self, item: ItemId) -> ContinuumWalk<'_> {
        let start = self.successor_index(self.point_of(item));
        ContinuumWalk {
            ring: self,
            next: start,
            emitted: 0,
        }
    }

    /// Add one server (id = current `num_servers`) to the ring and return
    /// its id. Only the keys that land on the new server's arcs move — the
    /// consistent-hashing property the paper's deployability argument rests
    /// on.
    pub fn add_server(&mut self) -> ServerId {
        let server = self.num_servers as ServerId;
        push_server_points(&mut self.points, self.seed, server, self.vnodes);
        self.points.sort_unstable();
        self.dedup_points();
        self.num_servers += 1;
        server
    }
}

fn push_server_points(
    points: &mut Vec<(u64, ServerId)>,
    seed: u64,
    server: ServerId,
    vnodes: usize,
) {
    let mut key = [0u8; 12];
    key[..4].copy_from_slice(&server.to_le_bytes());
    for vnode in 0..vnodes as u64 {
        key[4..].copy_from_slice(&vnode.to_le_bytes()[..8]);
        points.push((xxh64(&key, seed), server));
    }
}

/// Iterator over continuum points clockwise from a start position.
pub struct ContinuumWalk<'a> {
    ring: &'a ConsistentHashRing,
    next: usize,
    emitted: usize,
}

impl Iterator for ContinuumWalk<'_> {
    type Item = ServerId;

    fn next(&mut self) -> Option<ServerId> {
        if self.emitted >= self.ring.points.len() {
            return None; // full lap completed
        }
        let (_, server) = self.ring.points[self.next];
        self.next = (self.next + 1) % self.ring.points.len();
        self.emitted += 1;
        Some(server)
    }
}

impl Placement for ConsistentHashRing {
    fn num_servers(&self) -> usize {
        self.num_servers
    }

    fn replication(&self) -> usize {
        1
    }

    fn replicas_into(&self, item: ItemId, out: &mut Vec<ServerId>) {
        out.clear();
        out.push(self.server_for(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_lookup() {
        let a = ConsistentHashRing::new(16, 1);
        let b = ConsistentHashRing::new(16, 1);
        for item in 0..1000 {
            assert_eq!(a.server_for(item), b.server_for(item));
        }
    }

    #[test]
    fn covers_all_servers() {
        let ring = ConsistentHashRing::new(16, 2);
        let mut seen = std::collections::HashSet::new();
        for item in 0..10_000 {
            seen.insert(ring.server_for(item));
        }
        assert_eq!(seen.len(), 16, "some server owns no keys out of 10k");
    }

    #[test]
    fn reasonable_balance() {
        let ring = ConsistentHashRing::new(16, 3);
        let mut counts = vec![0usize; 16];
        for item in 0..100_000 {
            counts[ring.server_for(item) as usize] += 1;
        }
        let (_, _, factor) = crate::balance_stats(&counts);
        assert!(
            factor < 1.35,
            "imbalance factor {factor} too high for 128 vnodes"
        );
    }

    #[test]
    fn add_server_moves_few_keys() {
        let mut ring = ConsistentHashRing::new(16, 4);
        let before: HashMap<u64, ServerId> = (0..50_000).map(|i| (i, ring.server_for(i))).collect();
        let new_id = ring.add_server();
        assert_eq!(new_id, 16);
        let mut moved = 0;
        let mut moved_elsewhere = 0;
        for i in 0..50_000u64 {
            let after = ring.server_for(i);
            if after != before[&i] {
                moved += 1;
                if after != new_id {
                    moved_elsewhere += 1;
                }
            }
        }
        // Expected fraction moved ≈ 1/17 ≈ 5.9%; allow slack for vnode noise.
        assert!(moved < 50_000 / 10, "too many keys moved: {moved}");
        assert_eq!(moved_elsewhere, 0, "keys moved between old servers");
    }

    #[test]
    fn walk_visits_every_point_once() {
        let ring = ConsistentHashRing::with_vnodes(4, 8, 5);
        let visited: Vec<ServerId> = ring.walk_from(42).collect();
        assert_eq!(visited.len(), ring.points.len());
    }

    #[test]
    fn single_server_owns_everything() {
        let ring = ConsistentHashRing::new(1, 6);
        for item in 0..100 {
            assert_eq!(ring.server_for(item), 0);
        }
    }

    #[test]
    fn placement_trait_single_replica() {
        let ring = ConsistentHashRing::new(8, 7);
        let reps = ring.replicas(99);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0], ring.server_for(99));
        assert_eq!(ring.distinguished(99), ring.server_for(99));
    }
}
