//! Full-system replication — the industry baseline the paper compares
//! against (§II-C, solution 3, reported by Facebook):
//!
//! > "replication of every memcached in its entirety — both hardware and
//! > data, with the clients randomly picking one of the server replicas
//! > for each transaction."
//!
//! We model it at *equal total hardware*: `servers` machines are split
//! into `copies` groups; every group stores the whole data set (so memory
//! per item is `copies`×), and each request is served entirely by one
//! group chosen by the caller (round-robin or random — a `selector` value
//! the caller supplies keeps this crate rng-free and deterministic).
//! Within a group, plain consistent hashing applies. This is the "you get
//! exactly what you pay for" scheme: `k` copies → `k`-fold throughput,
//! never more.

use crate::plan::{FetchPlan, Transaction};
use rnb_hash::rch::RangedConsistentHash;
use rnb_hash::{ItemId, Placement, ServerId};

/// Full-system replication planner over `copies` complete copies of the
/// data set.
pub struct FullSystemReplication {
    /// One single-copy ring per group; group `g` occupies global server
    /// ids `g * group_size .. (g+1) * group_size`.
    groups: Vec<RangedConsistentHash>,
    group_size: usize,
}

impl FullSystemReplication {
    /// Split `servers` machines into `copies` equal groups. `servers` must
    /// be divisible by `copies` (the scheme "only permits system
    /// enlargement in relatively large strides" — the paper's words).
    ///
    /// ```
    /// use rnb_core::FullSystemReplication;
    /// let fsr = FullSystemReplication::new(16, 4, 1);
    /// assert_eq!(fsr.copies(), 4);
    /// assert_eq!(fsr.servers(), 16);
    /// ```
    pub fn new(servers: usize, copies: usize, seed: u64) -> Self {
        assert!(copies >= 1, "need at least one copy");
        assert!(
            servers.is_multiple_of(copies) && servers >= copies,
            "full-system replication needs servers ({servers}) divisible by copies ({copies})"
        );
        let group_size = servers / copies;
        // Every group hashes identically (same seed): a group is a
        // byte-for-byte copy of the original system.
        let groups = (0..copies)
            .map(|_| RangedConsistentHash::new(group_size, 1, seed))
            .collect();
        FullSystemReplication { groups, group_size }
    }

    /// Number of complete data copies.
    pub fn copies(&self) -> usize {
        self.groups.len()
    }

    /// Total servers across all groups.
    pub fn servers(&self) -> usize {
        self.group_size * self.groups.len()
    }

    /// Plan `request` against the group selected by `selector` (callers
    /// pass a request counter for round-robin or a random draw; taken
    /// modulo the number of copies).
    ///
    /// ```
    /// use rnb_core::FullSystemReplication;
    /// let fsr = FullSystemReplication::new(8, 2, 1);
    /// let request: Vec<u64> = (0..20).collect();
    /// let plan = fsr.plan(&request, 0);
    /// assert_eq!(plan.planned_items(), 20);
    /// // Selector 0 picks group 0, which owns servers 0..4.
    /// assert!(plan.transactions.iter().all(|t| t.server < 4));
    /// ```
    pub fn plan(&self, request: &[ItemId], selector: u64) -> FetchPlan {
        let g = (selector % self.groups.len() as u64) as usize;
        let ring = &self.groups[g];
        let base = (g * self.group_size) as ServerId;

        let mut items: Vec<ItemId> = request.to_vec();
        items.sort_unstable();
        items.dedup();
        let requested = items.len();

        // Group items by owning server within the chosen copy.
        let mut transactions: Vec<Transaction> = Vec::new();
        for item in items {
            let server = base + ring.distinguished(item);
            match transactions.iter_mut().find(|t| t.server == server) {
                Some(t) => t.items.push(item),
                None => transactions.push(Transaction {
                    server,
                    items: vec![item],
                }),
            }
        }
        FetchPlan {
            transactions,
            requested,
        }
    }

    /// All replica locations of `item` (one per group) — what a write
    /// must update.
    ///
    /// ```
    /// use rnb_core::FullSystemReplication;
    /// let fsr = FullSystemReplication::new(12, 3, 5);
    /// let ws = fsr.write_set(42);
    /// // One location per complete copy, one inside each group of 4.
    /// assert_eq!(ws.len(), 3);
    /// for (group, &server) in ws.iter().enumerate() {
    ///     assert_eq!(server / 4, group as u32);
    /// }
    /// ```
    pub fn write_set(&self, item: ItemId) -> Vec<ServerId> {
        self.groups
            .iter()
            .enumerate()
            .map(|(g, ring)| (g * self.group_size) as ServerId + ring.distinguished(item))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_partition_servers() {
        let fsr = FullSystemReplication::new(16, 4, 1);
        assert_eq!(fsr.copies(), 4);
        assert_eq!(fsr.servers(), 16);
        for sel in 0..4u64 {
            let plan = fsr.plan(&(0..50).collect::<Vec<_>>(), sel);
            let lo = (sel as u32) * 4;
            for t in &plan.transactions {
                assert!((lo..lo + 4).contains(&t.server), "txn escaped its group");
            }
        }
    }

    #[test]
    fn same_request_same_group_is_deterministic() {
        let fsr = FullSystemReplication::new(8, 2, 3);
        let req: Vec<ItemId> = (0..20).collect();
        assert_eq!(
            fsr.plan(&req, 0).transactions,
            fsr.plan(&req, 2).transactions
        );
    }

    #[test]
    fn groups_are_identical_copies() {
        // The same item maps to the same within-group server in every
        // group.
        let fsr = FullSystemReplication::new(12, 3, 5);
        for item in 0..100u64 {
            let ws = fsr.write_set(item);
            assert_eq!(ws.len(), 3);
            let within: Vec<u32> = ws
                .iter()
                .enumerate()
                .map(|(g, &s)| s - (g as u32) * 4)
                .collect();
            assert!(
                within.windows(2).all(|w| w[0] == w[1]),
                "copies diverge for {item}"
            );
        }
    }

    #[test]
    fn tpr_unaffected_by_copies() {
        // The defining weakness: each request still scatters over a whole
        // group, so TPR is that of an N/k-server system — copies buy
        // capacity, not bundling.
        let single = FullSystemReplication::new(4, 1, 9);
        let quad = FullSystemReplication::new(16, 4, 9);
        let req: Vec<ItemId> = (0..100).collect();
        assert_eq!(single.plan(&req, 0).tpr(), quad.plan(&req, 1).tpr());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_split_rejected() {
        FullSystemReplication::new(10, 3, 0);
    }

    #[test]
    fn plan_fetches_every_item_once() {
        let fsr = FullSystemReplication::new(8, 2, 7);
        let req: Vec<ItemId> = (0..33).collect();
        let plan = fsr.plan(&req, 1);
        let mut got: Vec<ItemId> = plan.assignment().map(|(i, _)| i).collect();
        got.sort_unstable();
        assert_eq!(got, req);
    }
}
