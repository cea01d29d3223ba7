//! Proof that a steady-state simulated read or write allocates nothing:
//! the plan, the hitchhikers, every round, the write-back and the metrics
//! all live in buffers the cluster keeps (`rnb-core`'s read and write
//! engines and the simulated servers).
//!
//! Kept to a single `#[test]` so no sibling test thread muddies the
//! warm-up ordering.

use alloc_counter::{count_alloc, AllocCounterSystem};
use rnb_core::{PlacementKind, WritePolicy};
use rnb_sim::{MemoryModel, SimCluster, SimConfig};

#[global_allocator]
static ALLOC: AllocCounterSystem = AllocCounterSystem;

#[test]
fn steady_state_reads_do_not_allocate() {
    // Requests of 1 to 23 items, some repeating an item.
    let requests: Vec<Vec<u64>> = (0..64u64)
        .map(|r| (0..r % 23 + 1).map(|i| (r * 37 + i * 11) % 2_000).collect())
        .collect();
    let resident = SimConfig::basic(16, 3).with_hitchhiking(true);
    // Multi-hash placement probes past colliding replica servers.
    let multihash = resident.clone().with_placement(PlacementKind::MultiHash);
    for config in [resident, multihash, SimConfig::enhanced(16, 3, 1.1)] {
        let overbooked = config.memory != MemoryModel::Unlimited;
        let mut cluster = SimCluster::new(config, 2_000);
        // Warm-up: every pool grows to its largest shape and the replica
        // caches fill to capacity.
        let pass = |cluster: &mut SimCluster| {
            for request in &requests {
                cluster.execute(request);
            }
        };
        (0..50).for_each(|_| pass(&mut cluster));
        let before = cluster.metrics().clone();
        let (counts, ()) = count_alloc(|| pass(&mut cluster));
        assert_eq!(counts, (0, 0, 0), "overbooked: {overbooked}");
        // The overbooked pass missed, fell back and wrote back.
        let m = cluster.metrics();
        let repaired = m.round2_txns > before.round2_txns && m.writebacks > before.writebacks;
        assert_eq!(repaired, overbooked, "{m:?}");

        // Write bursts, warmed like the reads, under both policies.
        for policy in [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite] {
            let write = |cluster: &mut SimCluster| {
                for request in &requests {
                    cluster.execute_write_batch(request, policy);
                }
            };
            (0..3).for_each(|_| write(&mut cluster));
            let before = cluster.metrics().write_txns;
            let (counts, ()) = count_alloc(|| write(&mut cluster));
            assert_eq!(counts, (0, 0, 0), "{policy:?}, overbooked: {overbooked}");
            assert!(cluster.metrics().write_txns > before);
        }
    }
}
