//! Hashing substrate for the RnB (Replicate and Bundle) reproduction.
//!
//! This crate provides everything the paper's placement layer needs,
//! implemented from scratch:
//!
//! * One seeded 64-bit hash function, xxHash64 ([`xxhash`]). Placement
//!   hashes with it; the seed is all that varies between hash functions.
//! * A classic consistent-hashing ring with virtual nodes ([`ring`]).
//! * **Ranged Consistent Hashing** ([`rch`]) — the paper's §IV extension
//!   that walks the continuum gathering *distinct* servers for an item's
//!   replica set. It is the one replica placement the deployment uses.
//!
//! Placement implements the [`Placement`] trait, which maps an item id to
//! an ordered list of distinct servers. Replica index 0 is the
//! *distinguished copy* in RnB terms.

pub mod mix;
pub mod rch;
pub mod ring;
pub mod xxhash;

/// Identifier of a storage server within a cluster. Dense, `0..num_servers`.
pub type ServerId = u32;

/// Identifier of a stored item (a graph node / user "status" in the paper's
/// workloads).
pub type ItemId = u64;

/// Maps an item to an ordered list of **distinct** servers holding its
/// replicas.
///
/// Replica 0 is the distinguished copy. The order must be deterministic so
/// that every client computes the same placement without coordination —
/// the property the paper leans on ("requires almost exactly the same amount
/// of configuration information as consistent hashing").
pub trait Placement: Send + Sync {
    /// Number of servers in the cluster.
    fn num_servers(&self) -> usize;

    /// Declared (logical) replication level.
    fn replication(&self) -> usize;

    /// Fill `out` (cleared first) with the ordered replica servers of
    /// `item`. Produces `min(replication, num_servers)` distinct servers.
    fn replicas_into(&self, item: ItemId, out: &mut Vec<ServerId>);

    /// Convenience allocating wrapper around [`Placement::replicas_into`].
    fn replicas(&self, item: ItemId) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(self.replication());
        self.replicas_into(item, &mut out);
        out
    }

    /// The distinguished-copy server of `item` (replica 0).
    fn distinguished(&self, item: ItemId) -> ServerId {
        let mut out = Vec::with_capacity(self.replication());
        self.replicas_into(item, &mut out);
        out[0]
    }
}

impl<P: Placement + ?Sized> Placement for &P {
    fn num_servers(&self) -> usize {
        (**self).num_servers()
    }
    fn replication(&self) -> usize {
        (**self).replication()
    }
    fn replicas_into(&self, item: ItemId, out: &mut Vec<ServerId>) {
        (**self).replicas_into(item, out)
    }
}

/// Measures how evenly `counts` (items per server) are spread.
///
/// Returns `(min, max, max/mean)` — the last value is the *imbalance
/// factor*; 1.0 is perfect balance.
pub fn balance_stats(counts: &[usize]) -> (usize, usize, f64) {
    assert!(
        !counts.is_empty(),
        "balance_stats needs at least one server"
    );
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    let factor = if mean > 0.0 { max as f64 / mean } else { 1.0 };
    (min, max, factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_stats_basics() {
        let (min, max, f) = balance_stats(&[10, 10, 10, 10]);
        assert_eq!((min, max), (10, 10));
        assert!((f - 1.0).abs() < 1e-12);
        let (min, max, f) = balance_stats(&[0, 20]);
        assert_eq!((min, max), (0, 20));
        assert!((f - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn balance_stats_empty_panics() {
        balance_stats(&[]);
    }
}
