//! The simulated cluster: `rnb-core`'s read and write engines over
//! simulated servers.

use crate::config::{DistinguishedMode, HitchhikerLru, MemoryModel, SimConfig, WritebackPolicy};
use crate::metrics::Metrics;
use crate::server::SimServer;
use rnb_core::{
    Bundler, PlacementStrategy, PlanTarget, ReadEngine, Round, Transport, WriteEngine,
    WritePlanner, WritePolicy, WriteStep,
};
use rnb_hash::{ItemId, Placement, ServerId};

/// Per-request execution summary (the per-request slice of [`Metrics`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Planned (round-1) transactions.
    pub round1_txns: usize,
    /// Second-round transactions to distinguished copies.
    pub round2_txns: usize,
    /// Planned fetches that missed.
    pub planned_misses: usize,
    /// Misses rescued by a hitchhiker hit (no round-2 fetch needed).
    pub rescued: usize,
    /// Items actually delivered to the user.
    pub items_delivered: usize,
}

impl RequestOutcome {
    /// Total transactions this request cost.
    pub fn total_txns(&self) -> usize {
        self.round1_txns + self.round2_txns
    }
}

/// A simulated RnB deployment: servers + client-side bundler.
///
/// ```
/// use rnb_sim::{SimCluster, SimConfig};
/// // 16 servers, 4 replicas, unlimited memory (Fig 6's setting).
/// let mut cluster = SimCluster::new(SimConfig::basic(16, 4), 10_000);
/// let outcome = cluster.execute(&(0..30).collect::<Vec<_>>());
/// assert_eq!(outcome.items_delivered, 30);
/// assert!(outcome.total_txns() < 14, "bundling beats the ~13.7 urn-model TPR");
/// ```
pub struct SimCluster {
    servers: Vec<SimServer>,
    bundler: Bundler<PlacementStrategy>,
    /// The read path, shared with `rnb-client`: pooled, so a warmed
    /// request allocates nothing.
    engine: ReadEngine,
    /// The write path, shared with `rnb-client` like `engine`.
    write: WriteEngine,
    /// Replica lookup buffer of the `AllReplicas` write-back.
    replicas: Vec<ServerId>,
    config: SimConfig,
    universe: usize,
    metrics: Metrics,
    /// Transactions served per server (both rounds) — load-balance
    /// accounting. TPRPS assumes even spread; this lets tests and
    /// ablations verify the greedy cover does not concentrate load.
    server_txns: Vec<u64>,
}

impl SimCluster {
    /// Build a cluster storing items `0..universe`.
    ///
    /// Distinguished copies (replica 0 of every item) are pinned to their
    /// servers — §III-D guarantees them dedicated memory so "the
    /// distinguished copies of the items will never suffer a miss". Under
    /// [`MemoryModel::Unlimited`] all further replicas are pre-inserted;
    /// under [`MemoryModel::Factor`] replica caches start cold and fill
    /// adaptively through miss write-back (use a warm-up phase before
    /// measuring — see [`crate::runner`]).
    pub fn new(config: SimConfig, universe: usize) -> Self {
        let client = config.client_config();
        let bundler = Bundler::from_config(&client);
        let capacity = match config.distinguished {
            DistinguishedMode::Pinned => config
                .memory
                .replica_capacity_per_server(universe, config.servers),
            DistinguishedMode::InLru => config
                .memory
                .total_capacity_per_server(universe, config.servers),
        };
        let mut servers: Vec<SimServer> = (0..config.servers)
            .map(|_| SimServer::new(capacity))
            .collect();

        let placement = bundler.placement();
        let mut replicas = Vec::with_capacity(config.logical_replication);
        for item in 0..universe as ItemId {
            placement.replicas_into(item, &mut replicas);
            match config.distinguished {
                DistinguishedMode::Pinned => servers[replicas[0] as usize].pin(item),
                DistinguishedMode::InLru => {
                    servers[replicas[0] as usize].insert_replica(item);
                }
            }
            if matches!(config.memory, MemoryModel::Unlimited) {
                for &s in &replicas[1..] {
                    servers[s as usize].insert_replica(item);
                }
            }
        }

        SimCluster {
            servers,
            bundler,
            engine: ReadEngine::new(config.hitchhiking),
            write: WriteEngine::new(),
            replicas,
            server_txns: vec![0u64; config.servers],
            config,
            universe,
            metrics: Metrics::default(),
        }
    }

    /// Number of items stored.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The simulation config.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Zero the accumulated metrics (end of warm-up).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::default();
        self.server_txns = vec![0; self.config.servers];
    }

    /// Transactions served per server since the last reset.
    pub fn server_txn_counts(&self) -> &[u64] {
        &self.server_txns
    }

    /// Load imbalance factor: max per-server transactions over the mean
    /// (1.0 = perfectly even).
    pub fn load_imbalance(&self) -> f64 {
        let max = self.server_txns.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.server_txns.iter().sum::<u64>() as f64 / self.server_txns.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Immutable access to a server (tests / invariants).
    pub fn server(&self, id: ServerId) -> &SimServer {
        &self.servers[id as usize]
    }

    /// Execute a full request.
    pub fn execute(&mut self, request: &[ItemId]) -> RequestOutcome {
        self.execute_with_limit(request, None)
    }

    /// Execute a LIMIT request: at least `min_items` of `request`
    /// (§III-F). `None` means fetch everything.
    pub fn execute_with_limit(
        &mut self,
        request: &[ItemId],
        min_items: Option<usize>,
    ) -> RequestOutcome {
        let SimCluster {
            servers,
            bundler,
            engine,
            replicas,
            config,
            metrics,
            server_txns,
            ..
        } = self;
        let mut transport = Servers {
            servers,
            server_txns,
            metrics,
            config,
            placement: bundler.placement(),
            replicas,
        };
        let target = min_items.map_or(PlanTarget::Full, PlanTarget::AtLeast);
        let c = engine.fetch(bundler, request, target, &mut transport);
        // Cache-aside: an item no server returned lost its distinguished
        // copy too (only without the distinguished service class). The
        // client reads it from the database, stores it there, and writes
        // it back where it missed like any recovered miss.
        for (item, missed_at) in engine.unavailable() {
            transport.placement.replicas_into(item, transport.replicas);
            let distinguished = transport.replicas[0];
            debug_assert_eq!(
                config.distinguished,
                DistinguishedMode::InLru,
                "pinned distinguished copy of {item} missing on server {distinguished}"
            );
            transport.metrics.db_fetches += 1;
            transport.servers[distinguished as usize].insert_replica(item);
            transport.write_back_one(item, missed_at);
        }
        let metrics = transport.metrics;
        metrics.requests += 1;
        metrics.round1_txns += c.round1_txns;
        metrics.round2_txns += c.round2_txns;
        metrics.planned_items += c.planned_items;
        metrics.planned_misses += c.planned_misses;
        metrics.hitchhiker_probes += c.hitchhikers;
        metrics.hitchhiker_hits += c.hitchhiker_hits;
        metrics.misses_rescued_by_hitchhikers += c.rescued;
        RequestOutcome {
            round1_txns: c.round1_txns as usize,
            round2_txns: c.round2_txns as usize,
            planned_misses: c.planned_misses as usize,
            rescued: c.rescued as usize,
            // Round 2 or the database delivered every planned item.
            items_delivered: c.planned_items as usize,
        }
    }

    /// Execute a bundled write of `items` under `policy` (§III-G / §IV)
    /// through the write engine `rnb-client`'s `multi_set` runs: every
    /// touched server costs ONE transaction per round (one pipelined
    /// burst) instead of one per item-replica. A one-item batch costs the
    /// item's `k` transactions. Returns the number of server transactions
    /// the batch cost.
    ///
    /// * [`WritePolicy::WriteAll`] stores every logical replica, (re)
    ///   inserting it into its server's cache and possibly evicting
    ///   colder items.
    /// * [`WritePolicy::InvalidateThenWrite`] deletes the
    ///   non-distinguished replicas and stores only the distinguished
    ///   copy — the atomic scheme; subsequent reads recreate replicas on
    ///   demand through the miss/write-back path.
    ///
    /// A stored distinguished copy is resident afterwards: pinned, it
    /// always was; in the LRU ([`DistinguishedMode::InLru`]), it is
    /// inserted like any replica, as a `set` over TCP does.
    pub fn execute_write_batch(&mut self, items: &[ItemId], policy: WritePolicy) -> usize {
        for &item in items {
            assert!(
                (item as usize) < self.universe,
                "write of unknown item {item}"
            );
        }
        let SimCluster {
            servers,
            bundler,
            write,
            replicas,
            config,
            metrics,
            server_txns,
            ..
        } = self;
        let writer = WritePlanner::new(bundler.placement(), policy);
        let mut transport = Servers {
            servers,
            server_txns,
            metrics,
            config,
            placement: bundler.placement(),
            replicas,
        };
        let c = write.store(&writer, items.iter().copied(), &mut transport);
        let txns = c.invalidation_txns + c.write_txns;
        metrics.writes += items.len() as u64;
        metrics.write_txns += txns;
        txns as usize
    }
}

/// [`SimCluster`]'s [`Transport`]: each transaction served at once by
/// its [`SimServer`], which keeps no values.
struct Servers<'a> {
    servers: &'a mut [SimServer],
    server_txns: &'a mut [u64],
    metrics: &'a mut Metrics,
    config: &'a SimConfig,
    placement: &'a PlacementStrategy,
    replicas: &'a mut Vec<ServerId>,
}

impl Transport for Servers<'_> {
    fn run_round(&mut self, round: Round<'_>) {
        for txn in round.txns {
            let server = &mut self.servers[txn.server as usize];
            self.server_txns[txn.server as usize] += 1;
            for at in txn.from..txn.to {
                let item = round.items[round.keys[at]];
                round.answered[at] = if at - txn.from < txn.planned {
                    server.access(item)
                } else {
                    // §III-C2: a hitchhiker updates the LRU only on a hit.
                    match self.config.hitchhiker_lru {
                        HitchhikerLru::OnHit => server.probe_hitchhiker(item),
                        HitchhikerLru::Never => server.peek(item),
                    }
                };
            }
            let returned = round.answered[txn.from..txn.to].iter().filter(|&&a| a);
            self.metrics.record_txn_size(returned.count());
        }
    }

    /// A delete of an absent replica still costs the round-trip, so it
    /// counts as an invalidation either way; every op is acknowledged.
    /// A write-back follows the configured [`WritebackPolicy`].
    fn store(&mut self, round: Round<'_>, step: WriteStep) {
        for txn in round.txns {
            let s = txn.server as usize;
            for &index in &round.keys[txn.from..txn.to] {
                let item = round.items[index];
                match step {
                    WriteStep::Invalidate => {
                        self.servers[s].remove_replica(item);
                        self.metrics.invalidations += 1;
                    }
                    WriteStep::Write => {
                        self.servers[s].insert_replica(item);
                    }
                    WriteStep::WriteBack => self.write_back_one(item, txn.server),
                }
            }
        }
        round.answered.fill(true);
    }
}

impl Servers<'_> {
    /// Write back `item`, which missed at `server`. The paper refills
    /// "only … the replica that was the first to be picked by the greedy
    /// set cover algorithm" (§III-C2); the other policies are the
    /// ablation's.
    fn write_back_one(&mut self, item: ItemId, server: ServerId) {
        let to = match self.config.writeback {
            WritebackPolicy::None => &[][..],
            WritebackPolicy::FirstPicked => std::slice::from_ref(&server),
            WritebackPolicy::AllReplicas => {
                self.placement.replicas_into(item, self.replicas);
                &self.replicas[..]
            }
        };
        for &s in to {
            self.servers[s as usize].insert_replica(item);
            self.metrics.writebacks += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn basic_cluster(servers: usize, replication: usize, universe: usize) -> SimCluster {
        SimCluster::new(SimConfig::basic(servers, replication), universe)
    }

    #[test]
    fn unlimited_memory_never_misses() {
        let mut c = basic_cluster(8, 3, 1000);
        for start in (0..900).step_by(90) {
            let request: Vec<ItemId> = (start..start + 30).collect();
            let out = c.execute(&request);
            assert_eq!(out.planned_misses, 0);
            assert_eq!(out.round2_txns, 0);
            assert_eq!(out.items_delivered, 30);
        }
        assert_eq!(c.metrics().planned_misses, 0);
        assert_eq!(c.metrics().requests, 10);
    }

    #[test]
    fn replication_one_equals_plain_memcached() {
        // k=1: every planned access is the pinned distinguished copy.
        let mut c = SimCluster::new(
            SimConfig {
                memory: MemoryModel::Factor(1.0),
                ..SimConfig::basic(8, 1)
            },
            500,
        );
        let request: Vec<ItemId> = (0..40).collect();
        let out = c.execute(&request);
        assert_eq!(out.planned_misses, 0, "distinguished copies never miss");
        assert_eq!(out.round2_txns, 0);
        assert_eq!(out.items_delivered, 40);
    }

    #[test]
    fn cold_replicas_miss_then_warm_up() {
        let mut c = SimCluster::new(SimConfig::enhanced(8, 3, 3.0).with_hitchhiking(false), 400);
        let request: Vec<ItemId> = (0..40).collect();
        let first = c.execute(&request);
        // Cold caches: every non-distinguished planned fetch misses, but
        // everything is still delivered via round 2.
        assert!(first.planned_misses > 0);
        assert!(first.round2_txns > 0);
        assert_eq!(first.items_delivered, 40);
        // Write-back warmed the planned replicas: the same request now
        // runs clean.
        let second = c.execute(&request);
        assert_eq!(
            second.planned_misses, 0,
            "write-back should have warmed the caches"
        );
        assert_eq!(second.round2_txns, 0);
        assert!(second.round1_txns <= first.round1_txns);
    }

    #[test]
    fn factor_one_always_falls_back_to_distinguished() {
        // Memory factor 1.0 → zero replica space → every non-distinguished
        // planned access misses forever, but delivery never fails.
        let mut c = SimCluster::new(SimConfig::enhanced(8, 4, 1.0).with_hitchhiking(false), 400);
        for _ in 0..3 {
            let out = c.execute(&(0..50).collect::<Vec<_>>());
            assert_eq!(out.items_delivered, 50);
            assert!(out.planned_misses > 0);
        }
        for s in 0..8 {
            assert_eq!(c.server(s).replica_count(), 0);
        }
    }

    #[test]
    fn hitchhiking_rescues_misses() {
        // With hitchhiking, an item whose planned replica is cold can be
        // served by its pinned distinguished copy when that server is
        // visited anyway — shrinking round 2. Cold caches + a request wide
        // enough to visit most servers make rescues very likely.
        let cfg_off = SimConfig::enhanced(8, 2, 1.0).with_hitchhiking(false);
        let cfg_on = SimConfig::enhanced(8, 2, 1.0).with_hitchhiking(true);
        let request: Vec<ItemId> = (0..60).collect();
        let mut off = SimCluster::new(cfg_off, 200);
        let mut on = SimCluster::new(cfg_on, 200);
        let o_off = off.execute(&request);
        let o_on = on.execute(&request);
        // Same plan in both runs (hitchhiking does not change planning):
        assert_eq!(o_on.round1_txns, o_off.round1_txns);
        assert_eq!(o_on.planned_misses, o_off.planned_misses);
        assert!(o_off.planned_misses > 0, "cold caches must miss");
        assert_eq!(o_off.rescued, 0, "no rescues without hitchhiking");
        assert!(o_on.rescued > 0, "hitchhiking should rescue some misses");
        assert!(o_on.round2_txns <= o_off.round2_txns);
        assert!(on.metrics().hitchhiker_hits > 0);
    }

    #[test]
    fn txn_size_histogram_counts_items_returned_not_keys_sent() {
        // A planned key that missed, or a hitchhiker that found nothing,
        // cost the server no item. An overbooked cold cell has both.
        let mut c = SimCluster::new(SimConfig::enhanced(8, 3, 1.5), 400);
        for start in (0..200).step_by(20) {
            c.execute(&(start..start + 40).collect::<Vec<_>>());
        }
        let m = c.metrics();
        assert!(m.planned_misses > 0, "{m:?}");
        assert!(m.hitchhiker_probes > m.hitchhiker_hits, "{m:?}");
        let returned: u64 = (0..).zip(&m.txn_size_hist).map(|(s, &n)| s * n).sum();
        // Round 1 returns its planned hits and its hitchhiker hits; round
        // 2, pinned, every miss no hitchhiker rescued.
        let rescued = m.misses_rescued_by_hitchhikers;
        assert_eq!(returned, m.planned_items + m.hitchhiker_hits - rescued);
    }

    #[test]
    fn metrics_accumulate_and_reset() {
        let mut c = basic_cluster(4, 2, 100);
        c.execute(&[1, 2, 3]);
        c.execute(&[4, 5]);
        assert_eq!(c.metrics().requests, 2);
        assert!(c.metrics().round1_txns >= 2);
        c.reset_metrics();
        assert_eq!(c.metrics(), &Metrics::default());
    }

    #[test]
    fn limit_requests_deliver_at_least_the_limit() {
        let mut c = basic_cluster(8, 2, 1000);
        let request: Vec<ItemId> = (0..50).collect();
        let out = c.execute_with_limit(&request, Some(25));
        assert!(out.items_delivered >= 25);
        assert!(out.items_delivered <= 50);
        let full = c.execute_with_limit(&request, None);
        assert_eq!(full.items_delivered, 50);
        assert!(out.total_txns() <= full.total_txns());
    }

    #[test]
    fn bundled_load_stays_balanced_across_servers() {
        // TPRPS assumes even load; verify the greedy cover does not
        // concentrate transactions on a few servers under a uniform
        // workload.
        let mut c = basic_cluster(16, 3, 20_000);
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..2000 {
            let request: Vec<ItemId> = (0..15).map(|_| rng.random_range(0..20_000)).collect();
            c.execute(&request);
        }
        let imbalance = c.load_imbalance();
        assert!(
            imbalance < 1.25,
            "greedy bundling skewed the load: {imbalance}"
        );
        assert_eq!(
            c.server_txn_counts().iter().sum::<u64>(),
            c.metrics().total_txns(),
            "per-server counts must reconcile with the totals"
        );
    }

    #[test]
    fn in_lru_mode_can_lose_distinguished_copies_but_db_rescues() {
        // Without the distinguished service class, heavy traffic over a
        // tight budget evicts distinguished copies; delivery still
        // succeeds via (counted) database fetches. With pinning the same
        // setup does zero database fetches — the §III-D guarantee.
        let mk = |mode: DistinguishedMode| SimConfig {
            distinguished: mode,
            ..SimConfig::enhanced(4, 3, 1.1).with_hitchhiking(false)
        };
        let universe = 300;
        let mut shared = SimCluster::new(mk(DistinguishedMode::InLru), universe);
        let mut pinned = SimCluster::new(mk(DistinguishedMode::Pinned), universe);
        for r in 0..200u64 {
            let request: Vec<ItemId> = (0..20)
                .map(|i| (r * 31 + i * 17) % universe as u64)
                .collect();
            let o1 = shared.execute(&request);
            let o2 = pinned.execute(&request);
            assert_eq!(
                o1.items_delivered,
                o1.items_delivered.max(o2.items_delivered)
            );
        }
        assert!(
            shared.metrics().db_fetches > 0,
            "tight shared LRU should lose copies"
        );
        assert_eq!(
            pinned.metrics().db_fetches,
            0,
            "pinning must prevent database fetches"
        );
    }

    #[test]
    fn in_lru_distinguished_miss_takes_no_second_round() {
        // §III-D fetches a missed item in round 2 only "if we did not yet
        // fetch their distinguished copy". Items lost from every copy and
        // visited at their distinguished server in round 1 (planned there
        // or hitchhiking) go straight to the database; only the others
        // cost a round-2 transaction.
        let cfg = SimConfig {
            distinguished: DistinguishedMode::InLru,
            ..SimConfig::basic(8, 3).with_hitchhiking(true)
        };
        let mut c = SimCluster::new(cfg, 1000);
        let request: Vec<ItemId> = (0..30).map(|i| i * 7).collect();
        let placement = c.bundler.placement();
        for &item in &request {
            for s in placement.replicas(item) {
                assert!(c.servers[s as usize].remove_replica(item));
            }
        }
        let homes: Vec<ServerId> = request
            .iter()
            .map(|&item| placement.distinguished(item))
            .collect();
        let plan = c.bundler.plan(&request);
        let visited: HashSet<ServerId> = plan.transactions.iter().map(|t| t.server).collect();
        let distinguished: HashSet<ServerId> = homes.iter().copied().collect();
        let unvisited = distinguished.difference(&visited).count();
        assert!(unvisited < distinguished.len(), "{visited:?}");

        let out = c.execute(&request);
        assert_eq!((out.planned_misses, out.rescued), (30, 0));
        assert_eq!(out.round2_txns, unvisited, "one per unvisited server");
        assert_eq!(out.items_delivered, 30);
        assert_eq!(c.metrics().db_fetches, 30, "every item still falls back");
        for (&item, &home) in request.iter().zip(&homes) {
            assert!(c.server(home).holds(item));
        }
    }

    #[test]
    fn writeback_none_keeps_caches_cold() {
        let cfg = SimConfig {
            writeback: WritebackPolicy::None,
            ..SimConfig::enhanced(8, 3, 3.0).with_hitchhiking(false)
        };
        let mut c = SimCluster::new(cfg, 400);
        let request: Vec<ItemId> = (0..40).collect();
        let first = c.execute(&request);
        let second = c.execute(&request);
        assert!(first.planned_misses > 0);
        assert_eq!(
            second.planned_misses, first.planned_misses,
            "without write-back the same plan must keep missing"
        );
        assert_eq!(c.metrics().writebacks, 0);
    }

    #[test]
    fn writeback_all_replicas_warms_faster_than_first_picked() {
        let run = |policy: WritebackPolicy| {
            let cfg = SimConfig {
                writeback: policy,
                ..SimConfig::enhanced(8, 3, 4.0).with_hitchhiking(false)
            };
            let mut c = SimCluster::new(cfg, 400);
            // One warming pass over several overlapping requests, then
            // measure misses on shifted requests (which reuse items but
            // via different plans).
            for start in 0..8u64 {
                c.execute(&(start..start + 40).collect::<Vec<_>>());
            }
            c.reset_metrics();
            for start in 0..8u64 {
                c.execute(&(start + 2..start + 38).collect::<Vec<_>>());
            }
            c.metrics().planned_misses
        };
        let first = run(WritebackPolicy::FirstPicked);
        let all = run(WritebackPolicy::AllReplicas);
        assert!(
            all <= first,
            "AllReplicas ({all}) should miss no more than FirstPicked ({first})"
        );
    }

    #[test]
    fn hitchhiker_lru_policies_have_same_hits_first_pass() {
        // On the first pass over cold caches the two policies see the
        // same state, so hit counts match; they diverge only through
        // recency effects afterwards.
        let mk = |policy: HitchhikerLru| SimConfig {
            hitchhiker_lru: policy,
            ..SimConfig::enhanced(8, 2, 1.0)
        };
        let request: Vec<ItemId> = (0..60).collect();
        let mut on_hit = SimCluster::new(mk(HitchhikerLru::OnHit), 200);
        let mut never = SimCluster::new(mk(HitchhikerLru::Never), 200);
        on_hit.execute(&request);
        never.execute(&request);
        assert_eq!(
            on_hit.metrics().hitchhiker_probes,
            never.metrics().hitchhiker_probes
        );
        assert_eq!(
            on_hit.metrics().hitchhiker_hits,
            never.metrics().hitchhiker_hits
        );
    }

    #[test]
    fn write_all_refreshes_replicas() {
        let mut c = SimCluster::new(SimConfig::enhanced(8, 3, 3.0).with_hitchhiking(false), 200);
        let txns = c.execute_write_batch(&[5], WritePolicy::WriteAll);
        assert_eq!(txns, 3);
        assert_eq!(c.metrics().writes, 1);
        assert_eq!(c.metrics().write_txns, 3);
        assert_eq!(c.metrics().invalidations, 0);
        // All replicas now resident: a read of {5} plans its distinguished
        // copy (single-item rule) and hits.
        let out = c.execute(&[5]);
        assert_eq!(out.planned_misses, 0);
    }

    #[test]
    fn invalidate_then_write_clears_replicas() {
        let mut c = SimCluster::new(SimConfig::enhanced(8, 3, 3.0).with_hitchhiking(false), 200);
        // Warm all replicas of item 5 via WriteAll, then invalidate.
        c.execute_write_batch(&[5], WritePolicy::WriteAll);
        let reps = c.bundler.placement().replicas(5);
        for &s in &reps[1..] {
            assert!(c.server(s).holds(5));
        }
        let txns = c.execute_write_batch(&[5], WritePolicy::InvalidateThenWrite);
        assert_eq!(txns, 3);
        assert_eq!(c.metrics().invalidations, 2);
        for &s in &reps[1..] {
            assert!(
                !c.server(s).holds(5),
                "replica on {s} should be invalidated"
            );
        }
        // The distinguished copy survives — reads still succeed.
        assert!(c.server(reps[0]).holds(5));
        let out = c.execute(&[5]);
        assert_eq!(out.items_delivered, 1);
        assert_eq!(
            out.planned_misses, 0,
            "single-item reads go to the distinguished copy"
        );
    }

    #[test]
    fn write_metrics_flow_into_txns_per_op() {
        let mut c = basic_cluster(8, 2, 100);
        c.execute(&(0..10).collect::<Vec<_>>());
        c.execute_write_batch(&[3], WritePolicy::WriteAll);
        let m = c.metrics();
        assert_eq!(m.requests, 1);
        assert_eq!(m.writes, 1);
        assert!(m.txns_per_op() > 0.0);
        assert_eq!(m.total_txns_with_writes(), m.total_txns() + 2);
    }

    #[test]
    #[should_panic(expected = "unknown item")]
    fn write_of_out_of_universe_item_rejected() {
        let mut c = basic_cluster(4, 2, 10);
        c.execute_write_batch(&[99], WritePolicy::WriteAll);
    }

    #[test]
    fn batched_writes_cost_one_txn_per_touched_server() {
        let cfg = SimConfig::enhanced(8, 3, 3.0).with_hitchhiking(false);
        let items: Vec<ItemId> = (0..40).collect();
        let mut batched = SimCluster::new(cfg.clone(), 200);
        let mut sequential = SimCluster::new(cfg, 200);

        let batch_txns = batched.execute_write_batch(&items, WritePolicy::WriteAll);
        let mut seq_txns = 0;
        for &item in &items {
            seq_txns += sequential.execute_write_batch(&[item], WritePolicy::WriteAll);
        }

        // The bundled burst touches each server at most once, so it can
        // never exceed the server count — while the per-item path pays
        // k txns per item (the fixed-k write amplification).
        assert!(batch_txns <= 8, "batch cost {batch_txns} txns");
        assert_eq!(seq_txns, 40 * 3);
        assert!(batch_txns < seq_txns);
        assert_eq!(batched.metrics().writes, 40);
        assert_eq!(batched.metrics().write_txns, batch_txns as u64);

        // Cache state is identical to the sequential loop.
        for &item in &items {
            for &s in &batched.bundler.placement().replicas(item) {
                assert_eq!(
                    batched.server(s).holds(item),
                    sequential.server(s).holds(item)
                );
            }
        }
    }

    #[test]
    fn batched_invalidate_counts_both_phases() {
        let mut c = SimCluster::new(SimConfig::enhanced(8, 3, 3.0).with_hitchhiking(false), 200);
        let items: Vec<ItemId> = (0..20).collect();
        // Warm every replica so the invalidations have something to clear.
        c.execute_write_batch(&items, WritePolicy::WriteAll);
        c.reset_metrics();

        let txns = c.execute_write_batch(&items, WritePolicy::InvalidateThenWrite);
        // One txn per touched server per phase: invalidation burst plus
        // distinguished-write burst, each bounded by the server count.
        assert!(txns <= 16, "two phases over 8 servers, got {txns}");
        assert_eq!(c.metrics().invalidations, 20 * 2);
        assert_eq!(c.metrics().write_txns, txns as u64);
        for &item in &items {
            let reps = c.bundler.placement().replicas(item);
            assert!(c.server(reps[0]).holds(item));
            for &s in &reps[1..] {
                assert!(!c.server(s).holds(item));
            }
        }
    }

    #[test]
    fn a_written_distinguished_copy_is_resident_again() {
        // Without the distinguished service class a distinguished copy can
        // be evicted; writing the item stores it there again, as a `set`
        // over TCP does, so the next read needs no database fetch.
        let cfg = SimConfig {
            distinguished: DistinguishedMode::InLru,
            ..SimConfig::basic(8, 3).with_hitchhiking(false)
        };
        for policy in [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite] {
            let mut c = SimCluster::new(cfg.clone(), 200);
            let home = c.bundler.placement().distinguished(5);
            assert!(c.servers[home as usize].remove_replica(5));
            c.execute_write_batch(&[5], policy);
            assert!(c.server(home).holds(5), "{policy:?}");
            let out = c.execute(&[5]);
            assert_eq!(out.items_delivered, 1);
            assert_eq!(c.metrics().db_fetches, 0, "{policy:?}");
        }
    }

    #[test]
    fn empty_write_batch_is_free() {
        let mut c = basic_cluster(4, 2, 10);
        assert_eq!(c.execute_write_batch(&[], WritePolicy::WriteAll), 0);
        assert_eq!(c.metrics().writes, 0);
        assert_eq!(c.metrics().write_txns, 0);
    }

    /// Reproduces Fig 7's locality story as a deterministic check: two
    /// overlapping requests bundle their shared items onto the same
    /// server, so the copies on other servers go cold (never touched) and
    /// are eventually evicted by unrelated traffic.
    #[test]
    fn fig7_request_locality_keeps_shared_replicas_hot() {
        let mut c = SimCluster::new(SimConfig::enhanced(4, 2, 2.0).with_hitchhiking(false), 64);
        // Two requests sharing items {1, 2}, as in the figure.
        let req1: Vec<ItemId> = vec![1, 2, 3];
        let req2: Vec<ItemId> = vec![1, 2, 4];
        // Warm up both.
        c.execute(&req1);
        c.execute(&req2);
        c.reset_metrics();
        // Greedy is deterministic: replay both requests and record where
        // the shared items are fetched from.
        let fetch_servers = |cluster: &mut SimCluster, req: &[ItemId]| {
            let plan = cluster.bundler.plan(req);
            plan.assignment()
                .filter(|(i, _)| *i == 1 || *i == 2)
                .collect::<Vec<_>>()
        };
        let a = fetch_servers(&mut c, &req1);
        let b = fetch_servers(&mut c, &req2);
        // Both requests fetch item 1 and item 2 from the same server as
        // each other (the property that makes the *other* replicas cold).
        assert_eq!(
            a, b,
            "shared items should be fetched identically across requests"
        );
        c.execute(&req1);
        c.execute(&req2);
        assert_eq!(
            c.metrics().planned_misses,
            0,
            "locality keeps the chosen replicas warm"
        );
    }
}
