//! The bundling planner: request → minimal set of per-server transactions.

use crate::config::RnbConfig;
use crate::placement::PlacementStrategy;
use crate::plan::{FetchPlan, Transaction};
use rnb_cover::{CoverTarget, Planner};
use rnb_hash::{ItemId, Placement, ServerId};

/// Reusable per-caller planning state: every buffer the bundler needs to
/// turn a raw request into a [`FetchPlan`] — the dedup'd item list, the
/// flat candidate table, and the cover [`Planner`]'s pooled scratch.
///
/// Hold one per planning thread (every read engine keeps one) and pass
/// it to [`Bundler::plan_into`] or [`Bundler::plan_with`]; after the
/// first request of a given shape, planning performs no steady-state
/// allocations (see `rnb-cover/tests/zero_alloc.rs` and the `planner`
/// bench).
#[derive(Debug, Default)]
pub struct PlanScratch {
    /// Sorted, dedup'd request items; cover item index `i` = `items[i]`.
    items: Vec<ItemId>,
    /// Per-item replica lookup buffer.
    replicas: Vec<ServerId>,
    /// Flat candidate table: item `i`'s candidate servers are
    /// `cand_flat[cand_off[i]..cand_off[i + 1]]`.
    cand_flat: Vec<u32>,
    cand_off: Vec<u32>,
    /// Item buffers of transactions a smaller plan had no use for, kept
    /// for the next larger one: request shapes alternate, and a plan
    /// that shrinks must not free what the next one allocates again.
    spare: Vec<Vec<ItemId>>,
    /// The pooled cover solver.
    planner: Planner,
}

impl PlanScratch {
    /// Empty pools; the first planned request grows them.
    ///
    /// ```
    /// use rnb_core::{Bundler, PlanScratch, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(16, 4));
    /// let mut scratch = PlanScratch::new();
    /// // Later requests of similar shape reuse the warmed buffers.
    /// let plan = bundler.plan_with(&mut scratch, &[1, 2, 3]);
    /// assert_eq!(plan.planned_items(), 3);
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// The sorted, dedup'd items of the last planned request: the
    /// planner's own index space, which [`PlanScratch::candidates`] and
    /// [`PlanScratch::index_of`] share. An execution layer that keys its
    /// per-item state by this index needs no map of its own.
    ///
    /// ```
    /// use rnb_core::{Bundler, FetchPlan, PlanScratch, PlanTarget, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(16, 3));
    /// let (mut scratch, mut plan) = (PlanScratch::new(), FetchPlan::default());
    /// bundler.plan_into(&mut scratch, &[9, 4, 9, 1], PlanTarget::Full, &mut plan);
    /// assert_eq!(scratch.items(), &[1, 4, 9]);
    /// ```
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Position of `item` in [`PlanScratch::items`], if it was requested.
    ///
    /// ```
    /// use rnb_core::{Bundler, FetchPlan, PlanScratch, PlanTarget, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(16, 3));
    /// let (mut scratch, mut plan) = (PlanScratch::new(), FetchPlan::default());
    /// bundler.plan_into(&mut scratch, &[9, 4, 1], PlanTarget::Full, &mut plan);
    /// assert_eq!(scratch.index_of(4), Some(1));
    /// assert_eq!(scratch.index_of(5), None);
    /// ```
    pub fn index_of(&self, item: ItemId) -> Option<usize> {
        self.items.binary_search(&item).ok()
    }

    /// The replica servers of `items()[index]`, distinguished copy
    /// first, as the last plan saw them — the candidate table the planner
    /// built anyway, so a hitchhiking or fallback pass need not hash any
    /// item a second time. Empty for an index the last plan did not have.
    ///
    /// ```
    /// use rnb_core::{Bundler, FetchPlan, Placement, PlanScratch, PlanTarget, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(16, 3));
    /// let (mut scratch, mut plan) = (PlanScratch::new(), FetchPlan::default());
    /// bundler.plan_into(&mut scratch, &[7, 3], PlanTarget::Full, &mut plan);
    /// assert_eq!(scratch.candidates(1), bundler.placement().replicas(7));
    /// bundler.plan_into(&mut scratch, &[3], PlanTarget::Full, &mut plan);
    /// assert_eq!(scratch.candidates(0), bundler.placement().replicas(3));
    /// assert!(scratch.candidates(1).is_empty());
    /// ```
    pub fn candidates(&self, index: usize) -> &[ServerId] {
        match (self.cand_off.get(index), self.cand_off.get(index + 1)) {
            (Some(&from), Some(&to)) => &self.cand_flat[from as usize..to as usize],
            _ => &[],
        }
    }
}

/// How much of a request a plan must fetch: all of it, or one of the
/// paper's two LIMIT forms (§III-F).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanTarget {
    /// Every distinct item.
    Full,
    /// At least this many distinct items, clamped to the request: "fetch
    /// at least X of these items".
    AtLeast(usize),
    /// As many items as at most this many transactions carry: "as many
    /// items as possible within X milliseconds", where per-transaction
    /// latency dominates, so a deadline is a transaction budget.
    MaxTxns(usize),
}

/// Plans multi-get requests over a replica placement.
///
/// Owns the placement (placements are cheap, stateless tables) and is
/// itself stateless across requests — RnB is "a stateless, distributed
/// algorithm" (§I-C); two bundlers with the same config produce identical
/// plans.
pub struct Bundler<P: Placement = PlacementStrategy> {
    placement: P,
}

impl Bundler<PlacementStrategy> {
    /// Build a bundler for the deployment described by `config`.
    ///
    /// ```
    /// use rnb_core::{Bundler, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(16, 4));
    /// assert!(bundler.plan(&[1, 2, 3]).tpr() <= 3);
    /// ```
    pub fn from_config(config: &RnbConfig) -> Self {
        Bundler {
            placement: PlacementStrategy::from_config(config),
        }
    }
}

impl<P: Placement> Bundler<P> {
    /// Build over an explicit placement.
    ///
    /// ```
    /// use rnb_core::{Bundler, Placement, PlacementStrategy};
    /// let bundler = Bundler::new(PlacementStrategy::no_replication(8, 0));
    /// assert_eq!(bundler.placement().replication(), 1);
    /// ```
    pub fn new(placement: P) -> Self {
        Bundler { placement }
    }

    /// The placement in use.
    pub fn placement(&self) -> &P {
        &self.placement
    }

    /// Plan a full fetch of `request` (duplicates ignored).
    ///
    /// One-shot convenience over a throwaway [`PlanScratch`]; hot loops
    /// should hold a scratch and use [`Bundler::plan_into`] /
    /// [`Bundler::plan_with`] so pooled buffers are reused.
    ///
    /// ```
    /// use rnb_core::{Bundler, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(16, 4));
    /// let plan = bundler.plan(&[10, 20, 30, 40]);
    /// assert_eq!(plan.planned_items(), 4); // every distinct item fetched
    /// assert!(plan.tpr() <= 4);            // bundling never adds round-trips
    /// ```
    pub fn plan(&self, request: &[ItemId]) -> FetchPlan {
        self.plan_with(&mut PlanScratch::new(), request)
    }

    /// [`Bundler::plan`] reusing `scratch`'s pooled buffers.
    ///
    /// ```
    /// use rnb_core::{Bundler, PlanScratch, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(16, 3));
    /// let mut scratch = PlanScratch::new();
    /// // A reused scratch is invisible in the output.
    /// let pooled = bundler.plan_with(&mut scratch, &[1, 2, 3]);
    /// assert_eq!(pooled.transactions, bundler.plan(&[1, 2, 3]).transactions);
    /// ```
    pub fn plan_with(&self, scratch: &mut PlanScratch, request: &[ItemId]) -> FetchPlan {
        let mut out = FetchPlan::default();
        self.plan_into(scratch, request, PlanTarget::Full, &mut out);
        out
    }

    /// Plan `request` towards `target`, overwriting `out` in place and
    /// reusing its transaction buffers: with a warmed `scratch` and an
    /// `out` of stable shape, planning makes zero allocator calls.
    ///
    /// ```
    /// use rnb_core::{Bundler, FetchPlan, PlanScratch, PlanTarget, RnbConfig};
    /// let bundler = Bundler::from_config(&RnbConfig::new(16, 3));
    /// let (mut scratch, mut out) = (PlanScratch::new(), FetchPlan::default());
    /// let request: Vec<u64> = (0..60).collect();
    /// bundler.plan_into(&mut scratch, &request, PlanTarget::Full, &mut out);
    /// let full = out.tpr();
    /// assert_eq!(out.planned_items(), 60);
    /// bundler.plan_into(&mut scratch, &request, PlanTarget::AtLeast(20), &mut out);
    /// assert!(out.planned_items() >= 20 && out.tpr() <= full);
    /// bundler.plan_into(&mut scratch, &request, PlanTarget::MaxTxns(2), &mut out);
    /// assert!(out.tpr() <= 2 && out.planned_items() > 2); // each round-trip bundles
    /// ```
    pub fn plan_into(
        &self,
        scratch: &mut PlanScratch,
        request: &[ItemId],
        target: PlanTarget,
        out: &mut FetchPlan,
    ) {
        let PlanScratch {
            items,
            replicas,
            cand_flat,
            cand_off,
            spare,
            planner,
        } = scratch;
        items.clear();
        items.extend_from_slice(request);
        items.sort_unstable();
        items.dedup();
        let requested = items.len();
        out.requested = requested;
        // Cleared before any early return, so `PlanScratch::candidates`
        // never answers from an earlier request's table.
        cand_flat.clear();
        cand_off.clear();

        if items.is_empty() {
            retire_from(&mut out.transactions, 0, spare);
            return;
        }

        // Fast path: one item → its distinguished copy (replica 0 either
        // way), no cover needed.
        if requested == 1 {
            if matches!(target, PlanTarget::AtLeast(0) | PlanTarget::MaxTxns(0)) {
                retire_from(&mut out.transactions, 0, spare);
                return;
            }
            self.placement.replicas_into(items[0], replicas);
            cand_off.push(0);
            cand_flat.extend_from_slice(replicas);
            cand_off.push(cand_flat.len() as u32);
            let slot = txn_slot(&mut out.transactions, spare, 0, replicas[0]);
            slot.push(items[0]);
            retire_from(&mut out.transactions, 1, spare);
            return;
        }

        // Flat candidate table: cand_flat[cand_off[i]..cand_off[i+1]] =
        // replica servers of items[i]. Fed straight to the planner — no
        // CoverInstance, no per-item Vec.
        cand_off.push(0);
        for &item in items.iter() {
            self.placement.replicas_into(item, replicas);
            cand_flat.extend_from_slice(replicas);
            cand_off.push(cand_flat.len() as u32);
        }
        let cover_target = match target {
            PlanTarget::Full => CoverTarget::Full,
            PlanTarget::AtLeast(k) => CoverTarget::AtLeast(k.min(requested)),
            PlanTarget::MaxTxns(t) => CoverTarget::MaxPicks(t),
        };
        let cover = planner.solve_flat_candidates(cand_off, cand_flat, cover_target);

        let mut n = 0usize;
        for pick in cover.picks() {
            let slot = txn_slot(&mut out.transactions, spare, n, pick.label);
            slot.extend(pick.items.iter().map(|&idx| items[idx as usize]));
            n += 1;
        }
        retire_from(&mut out.transactions, n, spare);

        // §III-C1: a transaction that ended up with a single item is
        // redirected to that item's distinguished copy — the head of its
        // row of the candidate table — then transactions to the same
        // server are re-merged (redirection may create pairs).
        let mut changed = false;
        for t in out.transactions.iter_mut() {
            if t.items.len() == 1 {
                let row = items.binary_search(&t.items[0]).unwrap_or(0);
                let d = cand_flat[cand_off[row] as usize];
                if d != t.server {
                    t.server = d;
                    changed = true;
                }
            }
        }
        if changed {
            let kept = merge_by_server(&mut out.transactions);
            retire_from(&mut out.transactions, kept, spare);
        }
    }
}

/// Reuse (or create) transaction slot `idx` of `transactions` for
/// `server`, returning its cleared item buffer — the pooled counterpart of
/// pushing a fresh `Transaction`.
fn txn_slot<'a>(
    transactions: &'a mut Vec<Transaction>,
    spare: &mut Vec<Vec<ItemId>>,
    idx: usize,
    server: ServerId,
) -> &'a mut Vec<ItemId> {
    if idx == transactions.len() {
        transactions.push(Transaction {
            server,
            items: spare.pop().unwrap_or_default(),
        });
    } else {
        transactions[idx].server = server;
        transactions[idx].items.clear();
    }
    &mut transactions[idx].items
}

/// Cut `transactions` down to its first `keep`, keeping the item buffers
/// of the rest in `spare` — the pooled counterpart of `truncate`.
fn retire_from(transactions: &mut Vec<Transaction>, keep: usize, spare: &mut Vec<Vec<ItemId>>) {
    spare.extend(transactions.drain(keep.min(transactions.len())..).map(|t| {
        let mut items = t.items;
        items.clear();
        items
    }));
}

/// Merge transactions targeting the same server in place, preserving
/// first-seen order of servers. Items of a merged-away transaction are
/// appended (moved, not copied) onto the first transaction for that
/// server. Returns how many transactions are left: the merged-away ones
/// sit emptied behind them, for the caller to cut off.
fn merge_by_server(transactions: &mut [Transaction]) -> usize {
    let mut kept = 0usize;
    for i in 0..transactions.len() {
        let server = transactions[i].server;
        if let Some(m) = transactions[..kept].iter().position(|m| m.server == server) {
            let (head, tail) = transactions.split_at_mut(i);
            head[m].items.append(&mut tail[0].items);
        } else {
            transactions.swap(kept, i);
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bundler(servers: usize, replication: usize) -> Bundler {
        Bundler::from_config(&RnbConfig::new(servers, replication))
    }

    /// Servers the plan contacts: one transaction each, by construction.
    fn distinct_servers(plan: &FetchPlan) -> usize {
        let servers: std::collections::BTreeSet<_> =
            plan.transactions.iter().map(|t| t.server).collect();
        servers.len()
    }

    fn plan_for(b: &Bundler, request: &[ItemId], target: PlanTarget) -> FetchPlan {
        let mut out = FetchPlan::default();
        b.plan_into(&mut PlanScratch::new(), request, target, &mut out);
        out
    }

    #[test]
    fn plan_covers_all_items_once() {
        let b = bundler(16, 4);
        let request: Vec<ItemId> = (0..50).collect();
        let plan = b.plan(&request);
        let mut fetched: Vec<ItemId> = plan.assignment().map(|(i, _)| i).collect();
        fetched.sort_unstable();
        assert_eq!(fetched, request, "every item fetched exactly once");
        assert_eq!(distinct_servers(&plan), plan.tpr());
    }

    #[test]
    fn items_fetched_from_their_replicas() {
        let b = bundler(16, 3);
        let request: Vec<ItemId> = (100..160).collect();
        let plan = b.plan(&request);
        for (item, server) in plan.assignment() {
            let reps = b.placement().replicas(item);
            assert!(
                reps.contains(&server) || b.placement().distinguished(item) == server,
                "item {item} fetched from non-replica server {server}"
            );
        }
    }

    #[test]
    fn duplicates_deduped() {
        let b = bundler(8, 2);
        let plan = b.plan(&[5, 5, 5, 7, 7]);
        assert_eq!(plan.requested, 2);
        assert_eq!(plan.planned_items(), 2);
    }

    #[test]
    fn empty_request() {
        let b = bundler(8, 2);
        let plan = b.plan(&[]);
        assert_eq!(plan.tpr(), 0);
        assert_eq!(plan.requested, 0);
    }

    #[test]
    fn single_item_goes_to_distinguished() {
        let b = bundler(16, 4);
        for item in 0..200u64 {
            let plan = b.plan(&[item]);
            assert_eq!(plan.tpr(), 1);
            assert_eq!(
                plan.transactions[0].server,
                b.placement().distinguished(item)
            );
        }
    }

    #[test]
    fn replication_reduces_tpr_on_average() {
        // The core RnB claim (Fig 6 direction): more replicas → fewer
        // transactions for the same requests.
        let b1 = Bundler::new(PlacementStrategy::no_replication(16, 7));
        let b4 = Bundler::from_config(&RnbConfig::new(16, 4).with_seed(7));
        let mut tpr1 = 0usize;
        let mut tpr4 = 0usize;
        for r in 0..200u64 {
            let request: Vec<ItemId> = (0..30).map(|i| r * 1000 + i * 13).collect();
            tpr1 += b1.plan(&request).tpr();
            tpr4 += b4.plan(&request).tpr();
        }
        assert!(
            (tpr4 as f64) < 0.7 * tpr1 as f64,
            "4 replicas should cut TPR well below no-replication: {tpr4} vs {tpr1}"
        );
    }

    #[test]
    fn limit_plans_fetch_enough_but_not_necessarily_all() {
        let b = bundler(16, 1);
        let request: Vec<ItemId> = (0..40).collect();
        let full = b.plan(&request);
        let limited = plan_for(&b, &request, PlanTarget::AtLeast(20));
        assert!(limited.planned_items() >= 20);
        assert!(limited.tpr() <= full.tpr());
        // With no replication on 16 servers, dropping half the items must
        // save transactions (greedy drops the most expensive singletons).
        assert!(
            limited.tpr() < full.tpr(),
            "LIMIT did not save transactions"
        );
    }

    #[test]
    fn limit_clamped_to_request_size() {
        let b = bundler(8, 2);
        let request: Vec<ItemId> = (0..10).collect();
        let plan = plan_for(&b, &request, PlanTarget::AtLeast(1000));
        assert_eq!(plan.planned_items(), 10);
    }

    #[test]
    fn limit_zero_is_empty_plan() {
        let b = bundler(8, 2);
        assert_eq!(plan_for(&b, &[1, 2, 3], PlanTarget::AtLeast(0)).tpr(), 0);
        assert_eq!(plan_for(&b, &[1], PlanTarget::AtLeast(0)).tpr(), 0);
    }

    #[test]
    fn budget_plans_respect_transaction_cap() {
        let b = bundler(16, 3);
        let request: Vec<ItemId> = (0..60).collect();
        let full = b.plan(&request);
        for budget in 0..=full.tpr() + 2 {
            let plan = plan_for(&b, &request, PlanTarget::MaxTxns(budget));
            assert!(
                plan.tpr() <= budget,
                "budget {budget} exceeded: {}",
                plan.tpr()
            );
            if budget >= full.tpr() {
                assert_eq!(
                    plan.planned_items(),
                    60,
                    "ample budget must fetch everything"
                );
            }
        }
        // A budget of 1 still fetches the single best bundle.
        let one = plan_for(&b, &request, PlanTarget::MaxTxns(1));
        assert_eq!(one.tpr(), 1);
        assert!(
            one.planned_items() > 1,
            "one transaction should still bundle"
        );
    }

    #[test]
    fn budget_items_monotone_in_budget() {
        let b = bundler(16, 2);
        let request: Vec<ItemId> = (1000..1050).collect();
        let mut last = 0;
        for budget in 0..10 {
            let got = plan_for(&b, &request, PlanTarget::MaxTxns(budget)).planned_items();
            assert!(
                got >= last,
                "items fetched should not drop as the budget grows"
            );
            last = got;
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = bundler(16, 3);
        let b = bundler(16, 3);
        let request: Vec<ItemId> = (0..64).map(|i| i * 7).collect();
        assert_eq!(a.plan(&request).transactions, b.plan(&request).transactions);
    }

    #[test]
    fn large_instances_plan_correctly() {
        // A 256-server cluster with a 300-item request exercises the
        // planner's multi-word dense path and the exhausted-set skip list
        // at scale (this used to be the lazy-greedy switchover regime).
        let b = bundler(256, 3);
        let request: Vec<ItemId> = (0..300).map(|i| i * 31).collect();
        let plan = b.plan(&request);
        assert_eq!(plan.planned_items(), 300);
        let mut items: Vec<ItemId> = plan.assignment().map(|(i, _)| i).collect();
        items.sort_unstable();
        let mut expect = request.clone();
        expect.sort_unstable();
        assert_eq!(items, expect);
        // Identical plans across calls (determinism through the planner).
        assert_eq!(plan.transactions, b.plan(&request).transactions);
    }

    /// A reused scratch must be invisible in the output: `plan_with` on a
    /// warm scratch equals a fresh one-shot `plan`, for every target kind,
    /// across interleaved shapes.
    #[test]
    fn scratch_reuse_matches_one_shot_plans() {
        let b = bundler(16, 3);
        let mut scratch = PlanScratch::new();
        let requests: Vec<Vec<ItemId>> = vec![
            (0..40).collect(),
            vec![7],
            (100..103).collect(),
            vec![],
            (0..40).map(|i| i * 9).collect(),
        ];
        for request in &requests {
            let full = b.plan_with(&mut scratch, request);
            assert_eq!(full.transactions, b.plan(request).transactions);
            for target in [PlanTarget::AtLeast(10), PlanTarget::MaxTxns(3)] {
                let mut pooled = FetchPlan::default();
                b.plan_into(&mut scratch, request, target, &mut pooled);
                assert_eq!(
                    pooled.transactions,
                    plan_for(&b, request, target).transactions
                );
            }
        }
        // plan_into reuses the output plan's transaction buffers too.
        let mut out = FetchPlan::default();
        for request in &requests {
            b.plan_into(&mut scratch, request, PlanTarget::Full, &mut out);
            let fresh = b.plan(request);
            assert_eq!(out.transactions, fresh.transactions);
            assert_eq!(out.requested, fresh.requested);
        }
    }

    #[test]
    fn merge_by_server_preserves_order_and_items() {
        let mut ts = vec![
            Transaction {
                server: 2,
                items: vec![1],
            },
            Transaction {
                server: 5,
                items: vec![2],
            },
            Transaction {
                server: 2,
                items: vec![3],
            },
        ];
        let kept = merge_by_server(&mut ts);
        ts.truncate(kept);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].server, 2);
        assert_eq!(ts[0].items, vec![1, 3]);
        assert_eq!(ts[1].server, 5);
    }

    proptest! {
        /// Full plans fetch each distinct item exactly once, from a valid
        /// replica, using at most min(M, N) transactions.
        #[test]
        fn plan_invariants(
            request in proptest::collection::vec(0u64..10_000, 0..80),
            replication in 1usize..5,
        ) {
            let b = bundler(16, replication);
            let plan = b.plan(&request);
            let mut distinct = request.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(plan.requested, distinct.len());
            prop_assert_eq!(plan.planned_items(), distinct.len());
            prop_assert!(plan.tpr() <= distinct.len().min(16));
            prop_assert_eq!(distinct_servers(&plan), plan.tpr());
        }

        /// LIMIT plans never use more transactions than the full plan and
        /// always reach the (clamped) limit.
        #[test]
        fn limit_invariants(
            request in proptest::collection::vec(0u64..10_000, 1..60),
            limit in 0usize..70,
            replication in 1usize..4,
        ) {
            let b = bundler(16, replication);
            let full = b.plan(&request);
            let lim = plan_for(&b, &request, PlanTarget::AtLeast(limit));
            prop_assert!(lim.tpr() <= full.tpr());
            prop_assert!(lim.planned_items() >= limit.min(full.requested));
        }
    }
}
