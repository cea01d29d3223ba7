//! Property tests over the full cluster simulator: invariants that must
//! hold for *any* configuration and request mix.

use proptest::prelude::*;
use rnb_core::WritePolicy;
use rnb_sim::config::{DistinguishedMode, HitchhikerLru, WritebackPolicy};
use rnb_sim::{MemoryModel, SimCluster, SimConfig};

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        1usize..12, // servers
        1usize..5,  // logical replication
        prop_oneof![
            Just(MemoryModel::Unlimited),
            (10u32..40).prop_map(|f| MemoryModel::Factor(f as f64 / 10.0)),
        ],
        any::<bool>(), // hitchhiking
        prop_oneof![Just(HitchhikerLru::OnHit), Just(HitchhikerLru::Never)],
        prop_oneof![
            Just(WritebackPolicy::None),
            Just(WritebackPolicy::FirstPicked),
            Just(WritebackPolicy::AllReplicas),
        ],
    )
        .prop_map(|(servers, k, memory, hh, hh_lru, wb)| SimConfig {
            memory,
            hitchhiking: hh,
            hitchhiker_lru: hh_lru,
            writeback: wb,
            ..SimConfig::basic(servers, k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request is fully delivered, transaction counts are within
    /// bounds, and accounting reconciles — for arbitrary configurations.
    #[test]
    fn delivery_and_accounting_invariants(
        config in arb_config(),
        requests in proptest::collection::vec(
            proptest::collection::vec(0u64..300, 1..40), 1..25),
    ) {
        let servers = config.servers;
        let mut cluster = SimCluster::new(config, 300);
        for request in &requests {
            let mut distinct = request.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let out = cluster.execute(request);
            // Pinned distinguished copies guarantee full delivery.
            prop_assert_eq!(out.items_delivered, distinct.len());
            // Never more round-1 transactions than servers or items.
            prop_assert!(out.round1_txns <= servers.min(distinct.len()));
            // Round 2 can at most revisit every server once.
            prop_assert!(out.round2_txns <= servers);
            // Rescues never exceed misses.
            prop_assert!(out.rescued <= out.planned_misses);
        }
        let m = cluster.metrics();
        prop_assert_eq!(m.requests, requests.len() as u64);
        prop_assert_eq!(
            cluster.server_txn_counts().iter().sum::<u64>(),
            m.total_txns()
        );
        // Histogram reconciles with the transaction count.
        prop_assert_eq!(m.txn_size_hist.iter().sum::<u64>(), m.total_txns());
        // Without hitchhiking there can be no hitchhiker traffic.
        if !cluster.config().hitchhiking {
            prop_assert_eq!(m.hitchhiker_probes, 0);
        }
        if cluster.config().writeback == WritebackPolicy::None {
            prop_assert_eq!(m.writebacks, 0);
        }
    }

    /// Replaying the same stream on two identically configured clusters
    /// produces identical metrics (full determinism).
    #[test]
    fn determinism(
        config in arb_config(),
        requests in proptest::collection::vec(
            proptest::collection::vec(0u64..200, 1..25), 1..15),
    ) {
        let mut a = SimCluster::new(config.clone(), 200);
        let mut b = SimCluster::new(config, 200);
        for request in &requests {
            let oa = a.execute(request);
            let ob = b.execute(request);
            prop_assert_eq!(oa, ob);
        }
        prop_assert_eq!(a.metrics(), b.metrics());
    }

    /// Writes never break subsequent reads, under either policy.
    #[test]
    fn writes_then_reads(
        config in arb_config(),
        ops in proptest::collection::vec((0u64..100, any::<bool>()), 1..40),
    ) {
        let mut cluster = SimCluster::new(config, 100);
        for (item, write_all) in ops {
            let policy = if write_all {
                WritePolicy::WriteAll
            } else {
                WritePolicy::InvalidateThenWrite
            };
            let txns = cluster.execute_write_batch(&[item], policy);
            prop_assert!(txns >= 1);
            let out = cluster.execute(&[item, (item + 1) % 100]);
            prop_assert_eq!(out.items_delivered, 2);
        }
    }
}

/// The InLru distinguished mode may fetch from the database but must
/// still deliver everything.
#[test]
fn in_lru_mode_always_delivers() {
    let config = SimConfig {
        distinguished: DistinguishedMode::InLru,
        ..SimConfig::enhanced(4, 3, 1.2)
    };
    let mut cluster = SimCluster::new(config, 200);
    for r in 0..100u64 {
        let request: Vec<u64> = (0..15).map(|i| (r * 13 + i * 7) % 200).collect();
        let mut distinct = request.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let out = cluster.execute(&request);
        assert_eq!(out.items_delivered, distinct.len());
    }
}
