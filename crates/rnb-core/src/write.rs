//! The RnB write path, written once: every write batch runs one
//! invalidation round, then one write round, over any [`Transport`].
//!
//! Reads are RnB's fast path; writes must deal with the replicas:
//!
//! * §III-G: "During write access, RnB requires updating multiple
//!   replicas. However, when replication is required for reasons such as
//!   reliability, RnB does not further increase the write complexity."
//! * §IV: "we proposed schemes for atomic operations in an RnB enabled
//!   memcached system. For example, remove all but the distinguished
//!   copies of an item before modifying it, then let RnB-memcached create
//!   the new copies on demand, after the atomic operation completes."
//!
//! Every write is a round of this engine, so the §IV ordering rule lives
//! here and nowhere else (INVARIANTS.md "Invalidate before write"):
//! `rnb-client`'s `set`/`multi_set` and `rnb-sim`'s writes run
//! [`WriteEngine::store`], and `rnb-client`'s `delete` and
//! `atomic_update` run its first round, [`WriteEngine::invalidate`].
//! [`crate::ReadEngine::fetch`] sends its write-back as one more
//! [`WriteStep`] through the same [`Transport::store`].

use crate::read::{RoundBuf, Transport, Txn, WriteStep};
use rnb_hash::{ItemId, Placement, ServerId};

/// How a write propagates to an item's replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Update every logical replica in place — one `set` per replica
    /// server. Simple, keeps replicas warm, but a concurrent multi-server
    /// update is not atomic.
    WriteAll,
    /// The §IV atomic scheme: first *delete* the non-distinguished
    /// copies, then update the distinguished copy. Readers can never see
    /// a stale replica (it is gone before the new value lands); the
    /// bundler's miss path recreates replicas on demand via write-back.
    InvalidateThenWrite,
}

/// A placement and the policy writes follow over it; stateless, like the
/// read-side [`crate::Bundler`].
///
/// ```
/// use rnb_core::{PlacementStrategy, RnbConfig, WriteEngine, WritePlanner, WritePolicy};
/// let writer = WritePlanner::new(
///     PlacementStrategy::from_config(&RnbConfig::new(16, 4)),
///     WritePolicy::InvalidateThenWrite,
/// );
/// let mut engine = WriteEngine::new();
/// let plan = engine.plan_batch(&writer, [7]);
/// // The §IV atomic scheme: delete the 3 extra replicas, then write the
/// // distinguished copy.
/// assert_eq!((plan.invalidations.len(), plan.writes.len()), (3, 1));
/// ```
pub struct WritePlanner<P: Placement> {
    placement: P,
    policy: WritePolicy,
}

impl<P: Placement> WritePlanner<P> {
    /// A planner with the given policy.
    ///
    /// ```
    /// use rnb_core::{PlacementStrategy, RnbConfig, WritePlanner, WritePolicy};
    /// let planner = WritePlanner::new(
    ///     PlacementStrategy::from_config(&RnbConfig::new(8, 2)),
    ///     WritePolicy::WriteAll,
    /// );
    /// assert_eq!(planner.policy(), WritePolicy::WriteAll);
    /// ```
    pub fn new(placement: P, policy: WritePolicy) -> Self {
        WritePlanner { placement, policy }
    }

    /// The policy in force.
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// The placement in use.
    pub fn placement(&self) -> &P {
        &self.placement
    }
}

/// The two rounds of a write batch as [`WriteEngine::plan_batch`] laid
/// them out: one transaction per server and round, its keys indices into
/// the batch, in (server, batch index) order.
///
/// Ordering invariant (§IV): every `invalidations` transaction is sent
/// *and* acknowledged before any `writes` transaction goes out, so no
/// replica outlives its item's distinguished write.
#[derive(Debug, Clone, Copy)]
pub struct BatchWritePlan<'a> {
    /// `delete` bursts to flush first (empty under
    /// [`WritePolicy::WriteAll`]).
    pub invalidations: &'a [Txn],
    /// `set` bursts to issue after every invalidation is acknowledged.
    pub writes: &'a [Txn],
}

impl BatchWritePlan<'_> {
    /// Total server transactions the batch costs: one pipelined burst
    /// per server and round.
    ///
    /// ```
    /// use rnb_core::{PlacementStrategy, RnbConfig, WriteEngine, WritePlanner, WritePolicy};
    /// let writer = WritePlanner::new(
    ///     PlacementStrategy::from_config(&RnbConfig::new(16, 4)),
    ///     WritePolicy::WriteAll,
    /// );
    /// let mut engine = WriteEngine::new();
    /// // Bundled: at most one burst per server, never one per replica op.
    /// assert!(engine.plan_batch(&writer, 0..50).total_txns() <= 16);
    /// ```
    pub fn total_txns(&self) -> usize {
        self.invalidations.len() + self.writes.len()
    }
}

/// What one write batch cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteCounts {
    /// Invalidation-round transactions.
    pub invalidation_txns: u64,
    /// Write-round transactions.
    pub write_txns: u64,
}

/// The RnB write state machine with its pooled buffers: lays a batch out
/// with the read engine's rounds, runs the invalidation round (all of a
/// delete) to completion, then the write round of every entry whose
/// invalidations were all acknowledged. Warmed, it allocates nothing.
#[derive(Debug, Default)]
pub struct WriteEngine {
    /// The batch in flight: the index space of every round's keys.
    items: Vec<ItemId>,
    replicas: Vec<ServerId>,
    /// (server, batch index) of every op of the round being laid out.
    ops: Vec<(ServerId, usize)>,
    invalidations: RoundBuf,
    writes: RoundBuf,
    /// Per batch index: an invalidation of it went unacknowledged.
    blocked: Vec<bool>,
}

/// The engine's name where it only lays batches out.
pub type WriteBatchPlanner = WriteEngine;

impl WriteEngine {
    /// An empty engine; pools grow on first use and are reused for every
    /// later batch.
    ///
    /// ```
    /// let engine = rnb_core::WriteEngine::new();
    /// # let _ = engine;
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Make `items` the batch in flight, none of it blocked.
    fn load(&mut self, items: impl IntoIterator<Item = ItemId>) {
        self.items.clear();
        self.items.extend(items);
        self.blocked.clear();
        self.blocked.resize(self.items.len(), false);
    }

    /// Set `ops` to the copies whose replica position (0: distinguished)
    /// `copy` accepts, of every entry no failed invalidation blocked.
    fn select(&mut self, placement: &impl Placement, copy: impl Fn(usize) -> bool) {
        self.ops.clear();
        for (index, &item) in self.items.iter().enumerate() {
            if !self.blocked[index] {
                placement.replicas_into(item, &mut self.replicas);
                let copies = self.replicas.iter().enumerate().filter(|&(at, _)| copy(at));
                self.ops.extend(copies.map(|(_, &server)| (server, index)));
            }
        }
    }

    /// Lay out one batch without running it: item `i` of the iterator is
    /// batch index `i`. Items are *not* deduplicated — each occurrence is
    /// one op, and a server's ops keep batch order, so a batch with
    /// repeated items leaves exactly the state a per-item loop would.
    ///
    /// ```
    /// use rnb_core::{Placement, PlacementStrategy, RnbConfig, WriteEngine, WritePlanner,
    ///                WritePolicy};
    /// let writer = WritePlanner::new(
    ///     PlacementStrategy::from_config(&RnbConfig::new(16, 4)),
    ///     WritePolicy::InvalidateThenWrite,
    /// );
    /// let mut engine = WriteEngine::new();
    /// let plan = engine.plan_batch(&writer, [7u64, 9]);
    /// // Per item: 3 replica invalidations, then 1 distinguished write.
    /// let ops: usize = plan.invalidations.iter().map(|t| t.to - t.from).sum();
    /// assert_eq!(ops, 6);
    /// let write_servers: Vec<_> = plan.writes.iter().map(|t| t.server).collect();
    /// assert!(write_servers.contains(&writer.placement().replicas(7)[0]));
    /// ```
    pub fn plan_batch<P: Placement>(
        &mut self,
        writer: &WritePlanner<P>,
        items: impl IntoIterator<Item = ItemId>,
    ) -> BatchWritePlan<'_> {
        let all = writer.policy() == WritePolicy::WriteAll;
        self.load(items);
        self.select(writer.placement(), |at| at > 0 && !all);
        self.invalidations.group(&mut self.ops);
        self.select(writer.placement(), |at| at == 0 || all);
        self.writes.group(&mut self.ops);
        BatchWritePlan {
            invalidations: &self.invalidations.txns,
            writes: &self.writes.txns,
        }
    }

    /// The invalidation round of `items`, run through `transport` to
    /// completion, one transaction per server (returns how many): every
    /// copy but the distinguished one is deleted, and that one too if
    /// `distinguished_too`. Every write's invalidations run here, so §IV's
    /// "remove all but the distinguished copies" is written once.
    ///
    /// ```
    /// use rnb_core::{PlacementStrategy, RnbConfig, Round, Transport, WriteEngine};
    /// struct Wire;
    /// impl Transport for Wire { fn run_round(&mut self, _: Round<'_>) {} }
    /// let placement = PlacementStrategy::from_config(&RnbConfig::new(8, 3));
    /// let mut engine = WriteEngine::new();
    /// // A delete reaches all 3 copies; an atomic update's first round 2.
    /// assert_eq!(engine.invalidate(&placement, [5], true, &mut Wire), 3);
    /// assert_eq!(engine.invalidate(&placement, [5], false, &mut Wire), 2);
    /// ```
    pub fn invalidate(
        &mut self,
        placement: &impl Placement,
        items: impl IntoIterator<Item = ItemId>,
        distinguished_too: bool,
        transport: &mut impl Transport,
    ) -> u64 {
        self.load(items);
        self.select(placement, |at| distinguished_too || at > 0);
        let round = &mut self.invalidations;
        round.group(&mut self.ops);
        if !round.txns.is_empty() {
            transport.store(round.view(&self.items), WriteStep::Invalidate);
            for (&index, &acked) in round.keys.iter().zip(&round.answered) {
                self.blocked[index] |= !acked;
            }
        }
        round.txns.len() as u64
    }

    /// Write `items` through `transport` under `writer`'s policy: the
    /// invalidation round (§IV: every copy but the distinguished one is
    /// deleted), run to completion, then the write round. An entry is
    /// written only if every invalidation of it was acknowledged, so a
    /// failed delete never leaves a replica older than its distinguished
    /// copy (INVARIANTS.md "Invalidate before write").
    ///
    /// ```
    /// use rnb_core::{PlacementStrategy, RnbConfig, Round, Transport, WriteEngine,
    ///                WritePlanner, WritePolicy, WriteStep};
    /// struct Acks;
    /// impl Transport for Acks {
    ///     fn run_round(&mut self, _: Round<'_>) {}
    ///     fn store(&mut self, r: Round<'_>, _: WriteStep) { r.answered.fill(true); }
    /// }
    /// let writer = WritePlanner::new(
    ///     PlacementStrategy::from_config(&RnbConfig::new(8, 2)),
    ///     WritePolicy::InvalidateThenWrite,
    /// );
    /// let c = WriteEngine::new().store(&writer, [5, 6], &mut Acks);
    /// assert!(c.invalidation_txns >= 1 && c.write_txns >= 1);
    /// ```
    pub fn store<P: Placement>(
        &mut self,
        writer: &WritePlanner<P>,
        items: impl IntoIterator<Item = ItemId>,
        transport: &mut impl Transport,
    ) -> WriteCounts {
        let all = writer.policy() == WritePolicy::WriteAll;
        // Round 1: every invalidation, to completion.
        let invalidation_txns = if all {
            self.load(items);
            0
        } else {
            self.invalidate(writer.placement(), items, false, transport)
        };
        // Round 2: the writes of every entry no failed delete blocked.
        self.select(writer.placement(), |at| at == 0 || all);
        let round = &mut self.writes;
        round.group(&mut self.ops);
        if !round.txns.is_empty() {
            transport.store(round.view(&self.items), WriteStep::Write);
        }
        WriteCounts {
            invalidation_txns,
            write_txns: round.txns.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::Round;
    use crate::{PlacementStrategy, RnbConfig};

    fn planner(policy: WritePolicy) -> WritePlanner<PlacementStrategy> {
        let config = RnbConfig::new(16, 4);
        WritePlanner::new(PlacementStrategy::from_config(&config), policy)
    }

    /// (server, item) of every op of `txns`, in issue order.
    fn ops(txns: &[Txn], keys: &[ItemId]) -> Vec<(ServerId, ItemId)> {
        let mut out = Vec::new();
        for t in txns {
            out.extend((t.from..t.to).map(|at| (t.server, keys[at])));
        }
        out
    }

    /// A transport that logs every op and fails every transaction to
    /// `dead`.
    #[derive(Default)]
    struct Log {
        dead: Option<ServerId>,
        ops: Vec<(WriteStep, ServerId, ItemId)>,
    }

    impl Transport for Log {
        fn run_round(&mut self, _: Round<'_>) {}

        fn store(&mut self, round: Round<'_>, step: WriteStep) {
            for (t, txn) in round.txns.iter().enumerate() {
                let ok = Some(txn.server) != self.dead;
                round.failed[t] = !ok;
                for at in txn.from..txn.to {
                    round.answered[at] = ok;
                    let item = round.items[round.keys[at]];
                    self.ops.push((step, txn.server, item));
                }
            }
        }
    }

    #[test]
    fn one_item_touches_its_replicas_per_policy() {
        for policy in [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite] {
            let p = planner(policy);
            let mut engine = WriteEngine::new();
            for item in 0..200u64 {
                let mut replicas = p.placement().replicas(item);
                let plan = engine.plan_batch(&p, [item]);
                assert_eq!(plan.total_txns(), 4, "{policy:?}");
                let sets: Vec<_> = plan.writes.iter().map(|t| t.server).collect();
                let dels: Vec<_> = plan.invalidations.iter().map(|t| t.server).collect();
                if policy == WritePolicy::WriteAll {
                    replicas.sort_unstable();
                    assert_eq!((sets, dels), (replicas, vec![]));
                } else {
                    let mut rest = replicas[1..].to_vec();
                    rest.sort_unstable();
                    assert_eq!((sets, dels), (vec![replicas[0]], rest));
                }
            }
        }
    }

    #[test]
    fn replication_one_writes_once_either_way() {
        for policy in [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite] {
            let config = RnbConfig::new(16, 1);
            let p = WritePlanner::new(PlacementStrategy::from_config(&config), policy);
            let plan = WriteEngine::new().plan_batch(&p, [42]).total_txns();
            assert_eq!(plan, 1, "{policy:?}");
        }
    }

    /// The batch expands to exactly the per-item ops, one transaction
    /// per server and round, for both policies.
    #[test]
    fn batch_bundles_same_server_ops() {
        for policy in [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite] {
            let p = planner(policy);
            let items: Vec<u64> = (0..60).map(|i| i * 13 % 47).collect();
            let mut engine = WriteEngine::new();
            engine.plan_batch(&p, items.iter().copied());
            let (dels, sets) = (&engine.invalidations, &engine.writes);
            let item_of = |round: &RoundBuf| -> Vec<ItemId> {
                round.keys.iter().map(|&i| items[i]).collect()
            };
            let mut got_sets = ops(&sets.txns, &item_of(sets));
            let mut got_dels = ops(&dels.txns, &item_of(dels));
            let (mut want_sets, mut want_dels) = (Vec::new(), Vec::new());
            for &item in &items {
                let replicas = p.placement().replicas(item);
                for (at, &server) in replicas.iter().enumerate() {
                    if at == 0 || policy == WritePolicy::WriteAll {
                        want_sets.push((server, item));
                    } else {
                        want_dels.push((server, item));
                    }
                }
            }
            for v in [&mut got_sets, &mut got_dels, &mut want_sets, &mut want_dels] {
                v.sort_unstable();
            }
            assert_eq!((got_sets, got_dels), (want_sets, want_dels), "{policy:?}");
            for txns in [&dels.txns, &sets.txns] {
                let mut servers: Vec<_> = txns.iter().map(|t| t.server).collect();
                servers.dedup();
                assert_eq!(servers.len(), txns.len(), "{policy:?}: a server twice");
            }
        }
    }

    /// Duplicate items keep one op per occurrence, in batch order, so the
    /// later value wins.
    #[test]
    fn duplicate_occurrences_keep_batch_order() {
        let p = planner(WritePolicy::WriteAll);
        let mut engine = WriteEngine::new();
        let plan = engine.plan_batch(&p, [7u64, 9, 7]);
        assert_eq!(plan.writes.iter().map(|t| t.to - t.from).sum::<usize>(), 12);
        let (txns, keys) = (&engine.writes.txns, &engine.writes.keys);
        let with_seven: Vec<Vec<usize>> = txns
            .iter()
            .map(|t| {
                keys[t.from..t.to]
                    .iter()
                    .copied()
                    .filter(|&i| i != 1)
                    .collect()
            })
            .filter(|indices: &Vec<usize>| !indices.is_empty())
            .collect();
        assert_eq!(with_seven, vec![vec![0, 2]; 4], "item 7 lives on 4 servers");
    }

    /// The engine is reusable across batches of different shapes,
    /// including empty ones.
    #[test]
    fn reuse_across_shapes() {
        let p = planner(WritePolicy::InvalidateThenWrite);
        let mut engine = WriteEngine::new();
        let first = engine.plan_batch(&p, 0..40u64).total_txns();
        assert_eq!(engine.plan_batch(&p, std::iter::empty()).total_txns(), 0);
        assert_eq!(engine.plan_batch(&p, [3u64]).total_txns(), 4);
        assert_eq!(engine.plan_batch(&p, 0..40u64).total_txns(), first);
    }

    /// `store` sends the rounds `plan_batch` lays out, every delete
    /// before any set, and counts what it sent.
    #[test]
    fn store_runs_the_planned_rounds_in_order() {
        for policy in [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite] {
            let p = planner(policy);
            let items: Vec<u64> = (0..50).map(|i| i * 7 % 31).collect();
            let mut engine = WriteEngine::new();
            let plan = engine.plan_batch(&p, items.iter().copied());
            let (dels, sets) = (plan.invalidations.len(), plan.writes.len());
            let mut log = Log::default();
            let c = engine.store(&p, items.iter().copied(), &mut log);
            assert_eq!(
                (c.invalidation_txns, c.write_txns),
                (dels as u64, sets as u64),
                "{policy:?}"
            );
            let first_set = log.ops.iter().position(|op| op.0 == WriteStep::Write);
            let last_delete = log.ops.iter().rposition(|op| op.0 == WriteStep::Invalidate);
            assert!(last_delete < first_set, "{policy:?}: a set before a delete");
            assert_eq!(log.ops.len(), items.len() * 4);
        }
    }

    /// An entry with an unacknowledged invalidation is not written; the
    /// others are.
    #[test]
    fn a_failed_invalidation_blocks_only_its_entries() {
        let p = planner(WritePolicy::InvalidateThenWrite);
        let dead = 3;
        let items: Vec<u64> = (0..80).collect();
        let mut log = Log {
            dead: Some(dead),
            ..Log::default()
        };
        WriteEngine::new().store(&p, items.iter().copied(), &mut log);
        let written: Vec<ItemId> = log
            .ops
            .iter()
            .filter(|op| op.0 == WriteStep::Write)
            .map(|op| op.2)
            .collect();
        let blocked = |item: ItemId| p.placement().replicas(item)[1..].contains(&dead);
        let want: Vec<ItemId> = items.iter().copied().filter(|&i| !blocked(i)).collect();
        let mut got = written.clone();
        got.sort_unstable();
        assert!(
            want.len() < items.len(),
            "some item keeps a replica on {dead}"
        );
        assert_eq!(got, want);
    }

    /// `invalidate` deletes every copy of each item, or every copy but
    /// the distinguished one, one transaction per server.
    #[test]
    fn invalidate_deletes_the_copies_asked_for() {
        let p = planner(WritePolicy::WriteAll);
        let items: Vec<u64> = (0..30).map(|i| i * 11 % 23).collect();
        for distinguished_too in [true, false] {
            let mut log = Log::default();
            let mut engine = WriteEngine::new();
            let txns = engine.invalidate(
                p.placement(),
                items.iter().copied(),
                distinguished_too,
                &mut log,
            );
            let mut got: Vec<_> = log
                .ops
                .iter()
                .map(|&(_, server, item)| (server, item))
                .collect();
            let mut want = Vec::new();
            for &item in &items {
                let replicas = p.placement().replicas(item);
                let from = usize::from(!distinguished_too);
                want.extend(replicas[from..].iter().map(|&server| (server, item)));
            }
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "distinguished too: {distinguished_too}");
            assert!(log.ops.iter().all(|op| op.0 == WriteStep::Invalidate));
            let mut servers: Vec<_> = want.iter().map(|&(server, _)| server).collect();
            servers.dedup();
            assert_eq!(txns, servers.len() as u64);
        }
    }

    /// Under WriteAll there is nothing to invalidate, so a dead server
    /// blocks nothing: its sets simply fail.
    #[test]
    fn write_all_has_no_invalidation_round() {
        let p = planner(WritePolicy::WriteAll);
        let mut log = Log {
            dead: Some(0),
            ..Log::default()
        };
        let c = WriteEngine::new().store(&p, 0..40u64, &mut log);
        assert_eq!(c.invalidation_txns, 0);
        assert!(log.ops.iter().all(|op| op.0 == WriteStep::Write));
        assert_eq!(log.ops.len(), 40 * 4);
    }
}
