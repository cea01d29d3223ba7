//! End-to-end pin of distinguished-copy failover over real TCP
//! (paper §IV): kill the primary replica holder mid-workload and assert
//! the client completes the multi-get from the distinguished copies and
//! the survivor sweep, with `ClientStats` counters moving exactly as
//! documented in `rnb-client`.
//!
//! The request is *constructed* so the greedy cover must plan every
//! item on the victim node: all items carry the victim in their replica
//! set (so the victim covers all of them), while the other replicas are
//! split across both remaining servers (so no other server ties the
//! victim's cover). Killing the victim then forces, deterministically:
//!
//! * round 1: the single planned transaction fails (`failed_txns`);
//! * round 2: misses regroup by distinguished copy — items whose
//!   distinguished copy is alive are served there, the group whose
//!   distinguished copy IS the victim fails again (`failed_txns`);
//! * round 3: the survivor sweep walks each remaining item's replica
//!   list, skipping the victim whose transactions already failed, and
//!   recovers it from the surviving copy (`round3_txns`);
//! * write-back: none — every miss was at the victim, whose transaction
//!   failed, so the client does not dial it again once per item.
//!
//! The healthy requests before the kill and after the restart each find
//! four replicas missing on the victim and write them back in one burst.

use rnb_client::{item_key, RnbClient, RnbClientConfig};
use rnb_cluster::{Cluster, NodeConfig};
use rnb_hash::Placement;
use rnb_store::StoreClient;

const VICTIM: u32 = 1;
const UNIVERSE: u64 = 512;

fn value_for(item: u64) -> Vec<u8> {
    format!("data-{item:04}").into_bytes()
}

#[test]
fn kill_primary_replica_holder_mid_round() {
    let mut cluster = Cluster::launch(3, NodeConfig::default()).expect("fleet up");
    let mut client =
        RnbClient::connect(&cluster.addrs(), RnbClientConfig::new(2)).expect("client connects");
    for item in 0..UNIVERSE {
        client.set(item, &value_for(item)).expect("populate");
    }

    // Two items per (distinguished, secondary) combination involving the
    // victim: (v,0), (v,2) — distinguished ON the victim — and (0,v),
    // (2,v) — victim as secondary. The victim covers all 8; servers 0
    // and 2 cover 4 each, so the greedy cover's first (and only) pick is
    // the victim.
    let mut buckets: std::collections::HashMap<(u32, u32), Vec<u64>> =
        std::collections::HashMap::new();
    for item in 0..UNIVERSE {
        let reps = client.bundler().placement().replicas(item);
        assert_eq!(reps.len(), 2);
        if reps.contains(&VICTIM) {
            let other = if reps[0] == VICTIM { reps[1] } else { reps[0] };
            let key = if reps[0] == VICTIM {
                (VICTIM, other)
            } else {
                (other, VICTIM)
            };
            buckets.entry(key).or_default().push(item);
        }
    }
    let mut request: Vec<u64> = Vec::new();
    for key in [(VICTIM, 0), (VICTIM, 2), (0, VICTIM), (2, VICTIM)] {
        let bucket = buckets.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        assert!(
            bucket.len() >= 2,
            "universe too small to find 2 items for replica pattern {key:?}"
        );
        request.extend_from_slice(&bucket[..2]);
    }
    let expect: Vec<Option<Vec<u8>>> = request.iter().map(|&i| Some(value_for(i))).collect();

    // Sanity round with the fleet healthy, after evicting from the victim
    // the four items whose distinguished copy lives elsewhere: they miss,
    // round 2 recovers them, and one burst writes them back.
    let mut victim = StoreClient::connect(cluster.addrs()[VICTIM as usize]).expect("dial victim");
    for &item in &request[4..] {
        assert!(victim.delete(&item_key(item)).expect("evict"));
    }
    drop(victim);
    let before = client.stats();
    let values = client.multi_get(&request).expect("healthy multi_get");
    assert_eq!(values, expect);
    let d = client.stats().since(&before);
    assert_eq!(
        (d.planned_misses, d.writebacks, d.writeback_txns),
        (4, 4, 1),
        "{d:?}"
    );

    // Mid-workload crash of the node every item is planned on.
    cluster.kill(VICTIM as usize).expect("kill victim");
    let before = client.stats();
    let values = client.multi_get(&request).expect("degraded multi_get");
    assert_eq!(values, expect, "failover must still serve every item");
    let d = client.stats().since(&before);
    assert_eq!(d.requests, 1);
    // One planned transaction (the victim covers the whole request)...
    assert_eq!(d.round1_txns, 1, "cover should plan exactly the victim");
    assert_eq!(d.planned_misses, 8, "every planned item missed");
    // ...three distinguished-copy groups (victim, server 0, server 2),
    // of which the victim's fails too...
    assert_eq!(
        d.round2_txns, 3,
        "one fallback txn per distinguished server"
    );
    assert_eq!(
        d.failed_txns, 2,
        "round-1 txn and the victim's round-2 txn both fail"
    );
    // ...and the survivor sweep recovers the 4 victim-distinguished
    // items from their live replica, without dialing the victim again:
    // its transactions already failed in this request.
    assert_eq!(
        d.round3_txns, 4,
        "4 items x live replica; the failed victim is skipped"
    );
    assert_eq!(d.unavailable_items, 0, "k=2 loses nothing on one crash");
    assert_eq!(d.reconnects, 0, "failed dials are not reconnects");
    // Every recovered item missed at the victim, whose transactions
    // failed: nothing is written back, so the dead node is not dialed
    // once per item.
    assert_eq!((d.writebacks, d.writeback_txns), (0, 0), "{d:?}");

    // Restart on a fresh port; the client follows by slot index. The
    // node comes back empty, so re-install the items whose distinguished
    // copy lives there (the deployment's repair step) before reading
    // through it again; the other four are replicas there, which the
    // read repairs by write-back.
    let addr = cluster.restart(VICTIM as usize).expect("restart victim");
    client.set_server_addr(VICTIM as usize, addr);
    let before = client.stats();
    for &item in &request[..4] {
        client.set(item, &value_for(item)).expect("repair");
    }
    let values = client.multi_get(&request).expect("post-restart multi_get");
    assert_eq!(values, expect);
    let d = client.stats().since(&before);
    assert_eq!(
        (d.planned_misses, d.writebacks, d.writeback_txns),
        (4, 4, 1),
        "{d:?}"
    );
    assert!(
        d.reconnects >= 1,
        "the restarted node must have been re-dialed lazily"
    );
    assert_eq!(d.failed_txns, 0, "fleet is healthy again");
    assert_eq!(d.round3_txns, 0, "no survivor sweep after recovery");

    // Close our connections before the graceful shutdown: a drain waits
    // (bounded) for clients to hang up.
    drop(client);
    cluster.shutdown_all().expect("graceful shutdown");
}
