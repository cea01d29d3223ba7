//! End-to-end tests: RnbClient against a fleet of real StoreServers over
//! loopback TCP — the paper's §IV proof-of-concept exercised as a system.

use rnb_client::{item_key, ClientStats, RnbClient, RnbClientConfig, HITCHHIKE_WINDOW};
use rnb_core::{Placement, WritePolicy};
use rnb_store::{Store, StoreServer};
use std::net::SocketAddr;
use std::sync::Arc;

struct Fleet {
    servers: Vec<StoreServer>,
}

impl Fleet {
    fn start(n: usize, mem: usize) -> Fleet {
        let servers = (0..n)
            .map(|_| StoreServer::start(Arc::new(Store::new(mem))).expect("server"))
            .collect();
        Fleet { servers }
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.addr()).collect()
    }

    fn store(&self, i: usize) -> &Arc<Store> {
        self.servers[i].store()
    }

    /// `set`s applied across the fleet.
    fn sets(&self) -> u64 {
        self.servers.iter().map(|s| s.store().stats().sets).sum()
    }
}

#[test]
fn set_then_multi_get_roundtrip() {
    let fleet = Fleet::start(8, 1 << 22);
    let mut client = RnbClient::connect(&fleet.addrs(), RnbClientConfig::new(3)).unwrap();
    for item in 0..300u64 {
        client
            .set(item, format!("value-{item}").as_bytes())
            .unwrap();
    }
    let request: Vec<u64> = (0..300).step_by(11).collect();
    let values = client.multi_get(&request).unwrap();
    for (item, value) in request.iter().zip(&values) {
        assert_eq!(
            value.as_deref(),
            Some(format!("value-{item}").as_bytes()),
            "item {item}"
        );
    }
    // Replication was actually written: each item's bytes exist on k
    // servers.
    let copies: usize = (0..8).map(|s| fleet.store(s).len()).sum();
    assert_eq!(copies, 300 * 3);
    // Bundling happened: far fewer round-1 txns than items.
    let stats = client.stats();
    assert!(stats.round1_txns < request.len() as u64);
    assert_eq!(stats.planned_misses, 0);
    assert_eq!(stats.unavailable_items, 0);
}

#[test]
fn missing_items_come_back_as_none() {
    let fleet = Fleet::start(4, 1 << 20);
    let mut client = RnbClient::connect(&fleet.addrs(), RnbClientConfig::new(2)).unwrap();
    client.set(1, b"one").unwrap();
    let values = client.multi_get(&[1, 2, 3]).unwrap();
    assert_eq!(values[0].as_deref(), Some(&b"one"[..]));
    assert!(values[1].is_none() && values[2].is_none());
    assert_eq!(client.stats().unavailable_items, 2);
}

#[test]
fn round2_fallback_recovers_evicted_replicas_and_writes_back() {
    let fleet = Fleet::start(4, 1 << 22);
    let mut client = RnbClient::connect(&fleet.addrs(), RnbClientConfig::new(3)).unwrap();
    client.set(7, b"payload").unwrap();
    // Sabotage: delete item 7 from every server except its distinguished
    // copy (simulating LRU eviction under overbooking).
    let replicas = client.bundler().placement().replicas(7);
    for &server in &replicas[1..] {
        fleet.store(server as usize).delete(&item_key(7));
    }
    // A read bundled with other items may plan 7 on an evicted replica;
    // force that by requesting only item 7 plus items that pull the plan
    // away from the distinguished copy. Simplest deterministic check:
    // read repeatedly; the answer must always be correct.
    for _ in 0..3 {
        let values = client.multi_get(&[7]).unwrap();
        assert_eq!(values[0].as_deref(), Some(&b"payload"[..]));
    }
    // Single-item requests go straight to the distinguished copy, so no
    // misses are even incurred (§III-C1's rule, now over real TCP).
    assert_eq!(client.stats().planned_misses, 0);

    // Now a multi-item request that includes 7 — whatever the plan, the
    // item must arrive, and any round-1 miss must be written back.
    for batch in 0..10u64 {
        for item in 100 + batch * 10..110 + batch * 10 {
            client.set(item, b"x").unwrap();
        }
        let request: Vec<u64> = (100 + batch * 10..110 + batch * 10).chain([7]).collect();
        let values = client.multi_get(&request).unwrap();
        assert!(values.iter().all(Option::is_some));
    }
    let s = client.stats();
    assert_eq!(s.unavailable_items, 0);
    // If any plan hit the sabotaged replicas, recovery (round 2 or a
    // hitchhiker) plus write-back must have fired.
    if s.planned_misses > 0 {
        assert!(
            s.writebacks > 0 || s.rescued_by_hitchhikers > 0,
            "misses occurred but nothing recovered/wrote back: {s:?}"
        );
    }
}

/// A resident fleet of six with items `0..300` on all three replicas, a
/// fresh client, and a request its plan spreads over several servers.
fn resident_fleet() -> (Fleet, RnbClient, Vec<u64>) {
    let fleet = Fleet::start(6, 1 << 22);
    let mut client = RnbClient::connect(&fleet.addrs(), RnbClientConfig::new(3)).unwrap();
    for item in 0..300u64 {
        client.set(item, format!("r{item}").as_bytes()).unwrap();
    }
    let request: Vec<u64> = (0..30).map(|i| i * 7).collect();
    assert!(client.bundler().plan(&request).transactions.len() > 2);
    (fleet, client, request)
}

/// Planned (item, server) pairs of `request` whose server is a replica,
/// not the item's distinguished copy: deleting one there makes a miss
/// that round 2 recovers.
fn planned_on_replicas(client: &RnbClient, request: &[u64]) -> Vec<(u64, u32)> {
    let placement = client.bundler().placement();
    client
        .bundler()
        .plan(request)
        .assignment()
        .filter(|&(item, server)| placement.replicas(item)[0] != server)
        .collect()
}

/// Delete `item` on `server` through the wire, as an eviction would.
fn evict(fleet: &Fleet, item: u64, server: u32) {
    let mut conn = rnb_store::StoreClient::connect(fleet.addrs()[server as usize]).unwrap();
    assert!(conn.delete(&item_key(item)).unwrap());
}

#[test]
fn write_back_is_one_burst_per_server() {
    let (fleet, mut client, request) = resident_fleet();
    // Every replica-planned item of the first two servers that have one.
    let on_replicas = planned_on_replicas(&client, &request);
    let mut servers: Vec<u32> = on_replicas.iter().map(|&(_, server)| server).collect();
    servers.dedup();
    let evicted: Vec<(u64, u32)> = on_replicas
        .into_iter()
        .filter(|(_, server)| servers[..2].contains(server))
        .collect();
    assert!(evicted.len() > 2, "{evicted:?}");
    for &(item, server) in &evicted {
        evict(&fleet, item, server);
    }

    let before = client.stats();
    let values = client.multi_get(&request).unwrap();
    assert!(values.iter().all(Option::is_some));
    let d = client.stats().since(&before);
    assert_eq!(d.planned_misses, evicted.len() as u64, "{d:?}");
    assert_eq!(
        d.writebacks,
        evicted.len() as u64,
        "every recovered miss: {d:?}"
    );
    assert_eq!(d.writeback_txns, 2, "one burst per server: {d:?}");

    // The bursts were not acknowledged, but the next read rides the same
    // connections behind them, so by the time it returns they are in.
    let before = client.stats();
    client.multi_get(&request).unwrap();
    let d = client.stats().since(&before);
    assert_eq!(
        (d.planned_misses, d.writebacks, d.writeback_txns),
        (0, 0, 0)
    );
    for &(item, server) in &evicted {
        assert!(fleet.store(server as usize).get(&item_key(item)).is_some());
    }
}

#[test]
fn write_back_lands_before_the_same_clients_later_writes() {
    // Item X is written back to replica R unacknowledged; straight after,
    // the same client invalidates X everywhere but its distinguished copy
    // and writes it there. The invalidation of R rides R's connection
    // behind the write-back, so it cannot be overtaken by it: R ends up
    // empty, never holding the stale value.
    let (fleet, mut restorer, request) = resident_fleet();
    let config = RnbClientConfig::new(3).with_write_policy(WritePolicy::InvalidateThenWrite);
    let mut client = RnbClient::connect(&fleet.addrs(), config).unwrap();
    for (item, replica) in planned_on_replicas(&client, &request) {
        evict(&fleet, item, replica);
        let before = client.stats();
        assert!(client
            .multi_get(&request)
            .unwrap()
            .iter()
            .all(Option::is_some));
        let d = client.stats().since(&before);
        assert_eq!((d.planned_misses, d.writebacks), (1, 1), "{d:?}");

        client.multi_set(&[(item, &b"fresh"[..])]).unwrap();
        let key = item_key(item);
        let mut bare = rnb_store::StoreClient::connect(fleet.addrs()[replica as usize]).unwrap();
        let got = bare.get_multi(&[&key[..]]).unwrap();
        assert_eq!(
            got,
            vec![None],
            "item {item}: stale copy on server {replica}"
        );
        let distinguished = client.bundler().placement().replicas(item)[0];
        let got = fleet.store(distinguished as usize).get(&key);
        assert_eq!(got.map(|v| v.data.to_vec()), Some(b"fresh".to_vec()));

        // Put the item back on every replica, as the fleet had it.
        restorer.set(item, format!("r{item}").as_bytes()).unwrap();
    }
}

#[test]
fn hitchhikers_ride_only_for_servers_that_have_been_missing() {
    let (fleet, mut client, request) = resident_fleet();
    let plan = client.bundler().plan(&request);
    let read = |client: &mut RnbClient| {
        let before = client.stats();
        assert!(client
            .multi_get(&request)
            .unwrap()
            .iter()
            .all(Option::is_some));
        client.stats().since(&before)
    };

    // A fresh client is insured: its first HITCHHIKE_WINDOW requests
    // (one clean round-1 transaction per planned server each) hitchhike.
    for _ in 0..HITCHHIKE_WINDOW {
        let d = read(&mut client);
        assert!(d.hitchhikers > 0 && d.planned_misses == 0, "{d:?}");
    }
    // Then none: each server looks up exactly the items planned there.
    let gets = |fleet: &Fleet| {
        (0..6)
            .map(|s| fleet.store(s).stats().gets)
            .collect::<Vec<_>>()
    };
    let before = gets(&fleet);
    let d = read(&mut client);
    assert_eq!(d.hitchhikers, 0, "{d:?}");
    let after = gets(&fleet);
    for s in 0..6 {
        let planned: usize = plan
            .transactions
            .iter()
            .filter(|txn| txn.server as usize == s)
            .map(|txn| txn.items.len())
            .sum();
        assert_eq!(after[s] - before[s], planned as u64, "server {s}");
    }

    // One evicted replica: the next request misses there (uninsured, so
    // round 2 recovers it) and the one after hitchhikes again.
    let (item, server) = planned_on_replicas(&client, &request)[0];
    evict(&fleet, item, server);
    let d = read(&mut client);
    assert_eq!((d.planned_misses, d.hitchhikers, d.round2_txns), (1, 0, 1));
    let d = read(&mut client);
    assert!(d.hitchhikers > 0 && d.planned_misses == 0, "{d:?}");

    // Switched off, never — not even cold.
    let mut off = RnbClient::connect(
        &fleet.addrs(),
        RnbClientConfig::new(3).with_hitchhiking(false),
    )
    .unwrap();
    for _ in 0..3 {
        assert_eq!(read(&mut off).hitchhikers, 0);
    }
}

/// Delete `item` on every replica server, then read `request`: `item`
/// comes back `None` and every other item is found. Returns the
/// request's counters.
fn read_with_item_gone(
    fleet: &Fleet,
    client: &mut RnbClient,
    request: &[u64],
    item: u64,
) -> ClientStats {
    for server in client.bundler().placement().replicas(item) {
        evict(fleet, item, server);
    }
    let before = client.stats();
    let values = client.multi_get(request).unwrap();
    for (&asked, value) in request.iter().zip(&values) {
        assert_eq!(value.is_some(), asked != item, "item {asked}");
    }
    client.stats().since(&before)
}

#[test]
fn a_distinguished_miss_where_planned_is_final() {
    // §III-D fetches a missed item in round 2 only "if we did not yet
    // fetch their distinguished copy". Planned there and missed, the
    // item is unavailable at once.
    let (fleet, mut client, request) = resident_fleet();
    let placement = client.bundler().placement();
    let (item, _) = client
        .bundler()
        .plan(&request)
        .assignment()
        .find(|&(item, server)| placement.replicas(item)[0] == server)
        .expect("some item is planned on its distinguished copy");
    let d = read_with_item_gone(&fleet, &mut client, &request, item);
    assert_eq!(
        (d.planned_misses, d.round2_txns, d.unavailable_items),
        (1, 0, 1),
        "{d:?}"
    );
    assert_eq!((d.writebacks, d.failed_txns, d.round3_txns), (0, 0, 0));
}

#[test]
fn a_distinguished_miss_seen_by_a_hitchhiker_is_final() {
    // Planned on a replica, the item rides as a hitchhiker to its
    // distinguished server, which answers without it: round 2 would ask
    // the same server the same question.
    let (fleet, mut client, request) = resident_fleet();
    let plan = client.bundler().plan(&request);
    let placement = client.bundler().placement();
    let (item, _) = planned_on_replicas(&client, &request)
        .into_iter()
        .find(|&(item, _)| {
            let distinguished = placement.replicas(item)[0];
            plan.transactions
                .iter()
                .any(|txn| txn.server == distinguished)
        })
        .expect("some replica-planned item has its distinguished server in the plan");
    let d = read_with_item_gone(&fleet, &mut client, &request, item);
    assert!(d.hitchhikers > 0, "a fresh client hitchhikes: {d:?}");
    assert_eq!(
        (d.planned_misses, d.round2_txns, d.unavailable_items),
        (1, 0, 1),
        "{d:?}"
    );
}

#[test]
fn a_distinguished_server_outside_the_plan_is_still_asked() {
    // The boundary of the rule: a miss on a replica whose distinguished
    // server took no part in round 1 still goes there in round 2, and the
    // recovered value is written back to the replica that missed.
    let (fleet, mut client, _) = resident_fleet();
    let placement = client.bundler().placement();
    // Two items that share a replica: one transaction, no hitchhikers.
    let (request, replica) = (0..300u64)
        .flat_map(|x| (x + 1..300).map(move |y| [x, y]))
        .find_map(|request| {
            let plan = client.bundler().plan(&request);
            match plan.transactions.as_slice() {
                [txn] if txn.server != placement.replicas(request[0])[0] => {
                    Some((request, txn.server))
                }
                _ => None,
            }
        })
        .expect("two items share a replica");
    let item = request[0];
    evict(&fleet, item, replica);

    let before = client.stats();
    let values = client.multi_get(&request).unwrap();
    assert!(values.iter().all(Option::is_some), "{values:?}");
    let d = client.stats().since(&before);
    assert_eq!(
        (
            d.round1_txns,
            d.planned_misses,
            d.round2_txns,
            d.unavailable_items
        ),
        (1, 1, 1, 0),
        "{d:?}"
    );
    assert_eq!((d.writebacks, d.writeback_txns), (1, 1), "{d:?}");
    // The next read rides the same connection behind the write-back.
    client.multi_get(&request).unwrap();
    assert!(fleet.store(replica as usize).get(&item_key(item)).is_some());
}

#[test]
fn bundling_reduces_transactions_vs_no_replication_over_tcp() {
    let fleet = Fleet::start(8, 1 << 22);
    let addrs = fleet.addrs();
    let mut rnb = RnbClient::connect(&addrs, RnbClientConfig::new(3)).unwrap();
    let mut plain = RnbClient::connect(&addrs, RnbClientConfig::new(1)).unwrap();
    for item in 0..500u64 {
        rnb.set(item, b"v").unwrap();
        plain.set(item, b"v").unwrap();
    }
    for r in 0..40u64 {
        let request: Vec<u64> = (0..25).map(|i| (r * 41 + i * 19) % 500).collect();
        assert!(rnb.multi_get(&request).unwrap().iter().all(Option::is_some));
        assert!(plain
            .multi_get(&request)
            .unwrap()
            .iter()
            .all(Option::is_some));
    }
    assert!(
        rnb.stats().tpr() < 0.8 * plain.stats().tpr(),
        "bundling should cut TPR over real sockets: {} vs {}",
        rnb.stats().tpr(),
        plain.stats().tpr()
    );
}

#[test]
fn invalidate_then_write_policy_over_tcp() {
    let fleet = Fleet::start(6, 1 << 20);
    let config = RnbClientConfig::new(3).with_write_policy(WritePolicy::InvalidateThenWrite);
    let mut client = RnbClient::connect(&fleet.addrs(), config).unwrap();
    client.set(5, b"v1").unwrap();
    // Only the distinguished copy exists after an invalidate-then-write.
    let replicas = client.bundler().placement().replicas(5);
    assert!(fleet
        .store(replicas[0] as usize)
        .get(&item_key(5))
        .is_some());
    for &server in &replicas[1..] {
        assert!(
            fleet.store(server as usize).get(&item_key(5)).is_none(),
            "replica server {server} should hold nothing after invalidation"
        );
    }
    // Reads still work (distinguished fallback) and refill replicas via
    // write-back over time.
    let values = client.multi_get(&[5]).unwrap();
    assert_eq!(values[0].as_deref(), Some(&b"v1"[..]));
}

#[test]
fn atomic_counter_over_tcp_single_client() {
    let fleet = Fleet::start(4, 1 << 20);
    let mut client = RnbClient::connect(&fleet.addrs(), RnbClientConfig::new(3)).unwrap();
    client.set(99, b"0").unwrap();
    for _ in 0..25 {
        client
            .atomic_update(99, |bytes| {
                let n: u64 = std::str::from_utf8(bytes).unwrap().parse().unwrap();
                (n + 2).to_string().into_bytes()
            })
            .unwrap();
    }
    let values = client.multi_get(&[99]).unwrap();
    assert_eq!(values[0].as_deref(), Some(&b"50"[..]));
}

#[test]
fn atomic_counter_over_tcp_concurrent_clients() {
    let fleet = Fleet::start(4, 1 << 20);
    let addrs = fleet.addrs();
    {
        let mut seed_client = RnbClient::connect(&addrs, RnbClientConfig::new(3)).unwrap();
        seed_client.set(123, b"0").unwrap();
    }
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let mut client = RnbClient::connect(&addrs, RnbClientConfig::new(3)).unwrap();
                for _ in 0..100 {
                    client
                        .atomic_update(123, |bytes| {
                            let n: u64 = std::str::from_utf8(bytes).unwrap().parse().unwrap();
                            (n + 1).to_string().into_bytes()
                        })
                        .unwrap();
                }
                client.stats().cas_retries
            })
        })
        .collect();
    let mut retries = 0;
    for t in threads {
        retries += t.join().unwrap();
    }
    let mut reader = RnbClient::connect(&addrs, RnbClientConfig::new(3)).unwrap();
    let values = reader.multi_get(&[123]).unwrap();
    assert_eq!(
        values[0].as_deref(),
        Some(&b"400"[..]),
        "lost increments (observed {retries} CAS retries)"
    );
}

#[test]
fn server_failure_is_survived_via_replicas() {
    // Failure injection: kill one of 6 servers; with 3 replicas every
    // item still has two live homes, so reads keep succeeding.
    let mut fleet = Fleet::start(6, 1 << 22);
    let addrs = fleet.addrs();
    let mut client = RnbClient::connect(&addrs, RnbClientConfig::new(3)).unwrap();
    for item in 0..400u64 {
        client.set(item, format!("v{item}").as_bytes()).unwrap();
    }

    // Crash server 2 (sever its live connections too).
    fleet.servers[2].shutdown();

    let mut served = 0usize;
    for r in 0..30u64 {
        let request: Vec<u64> = (0..20).map(|i| (r * 29 + i * 13) % 400).collect();
        let values = client
            .multi_get(&request)
            .expect("client must not error out");
        for (item, value) in request.iter().zip(&values) {
            assert_eq!(
                value.as_deref(),
                Some(format!("v{item}").as_bytes()),
                "item {item} lost after single-server failure"
            );
            served += 1;
        }
    }
    assert_eq!(served, 600);
    let s = client.stats();
    assert!(
        s.failed_txns > 0,
        "the dead server should have produced failed transactions"
    );
    assert_eq!(
        s.unavailable_items, 0,
        "replication must mask a single failure"
    );
}

#[test]
fn losing_all_replicas_reports_unavailable_not_error() {
    // Kill more servers than the replication level can mask: items whose
    // entire replica set is dead come back as None, the rest survive.
    let mut fleet = Fleet::start(4, 1 << 22);
    let addrs = fleet.addrs();
    let mut client = RnbClient::connect(&addrs, RnbClientConfig::new(2)).unwrap();
    for item in 0..100u64 {
        client.set(item, b"v").unwrap();
    }
    // Kill servers 0 and 1: any item with replicas ⊆ {0,1} is gone.
    fleet.servers[0].shutdown();
    fleet.servers[1].shutdown();

    let request: Vec<u64> = (0..100).collect();
    let values = client.multi_get(&request).expect("no hard error");
    let placement = client.bundler().placement();
    for (item, value) in request.iter().zip(&values) {
        let reps = placement.replicas(*item);
        let fully_dead = reps.iter().all(|&s| s <= 1);
        if fully_dead {
            assert!(
                value.is_none(),
                "item {item} has no live replica but returned data"
            );
        } else {
            assert!(
                value.is_some(),
                "item {item} has a live replica yet was not served"
            );
        }
    }
    assert!(client.stats().failed_txns > 0);
}

#[test]
fn killed_and_restarted_server_is_reconnected_lazily() {
    // Regression for the broken-connection bug: an I/O error used to
    // leave the dead/desynced StoreClient in place, so every later round
    // that planned a transaction on that server failed forever — even
    // after the server came back. Now the error marks the connection
    // broken and the next use redials.
    let mut fleet = Fleet::start(5, 1 << 22);
    let addrs = fleet.addrs();
    let mut client = RnbClient::connect(&addrs, RnbClientConfig::new(3)).unwrap();
    for item in 0..200u64 {
        client.set(item, format!("v{item}").as_bytes()).unwrap();
    }

    // Kill server 2 under the client's live connections: the next
    // multi_get discovers the breakage mid-request via I/O errors.
    let port = addrs[2].port();
    fleet.servers[2].shutdown();

    let request: Vec<u64> = (0..200).collect();
    for _ in 0..3 {
        let values = client
            .multi_get(&request)
            .expect("reads survive the outage");
        for (item, value) in request.iter().zip(&values) {
            assert_eq!(
                value.as_deref(),
                Some(format!("v{item}").as_bytes()),
                "item {item} lost while one server was down"
            );
        }
    }
    let mid = client.stats();
    assert!(mid.failed_txns > 0, "dead server must surface failed txns");
    assert!(
        mid.round3_txns > 0,
        "items whose distinguished copy lived on the dead server must \
         fall through to the survivor sweep: {mid:?}"
    );

    // Restart on the same port with a fresh (empty) store and
    // repopulate. The client must redial — not keep erroring on the
    // connections it marked broken during the outage.
    let mut revived = None;
    for _ in 0..10_000 {
        match StoreServer::start_on(Arc::new(Store::new(1 << 22)), port) {
            Ok(s) => {
                revived = Some(s);
                break;
            }
            Err(_) => std::thread::yield_now(),
        }
    }
    let _revived = revived.expect("rebind on the freed port");
    for item in 0..200u64 {
        client.set(item, format!("v{item}").as_bytes()).unwrap();
    }
    let values = client.multi_get(&request).expect("reads after restart");
    for (item, value) in request.iter().zip(&values) {
        assert_eq!(
            value.as_deref(),
            Some(format!("v{item}").as_bytes()),
            "item {item} wrong after server restart"
        );
    }
    let end = client.stats();
    assert!(
        end.reconnects > 0,
        "the revived server must have been redialed: {end:?}"
    );
    assert_eq!(end.unavailable_items, 0, "nothing may be lost end-to-end");
}

mod pipelined_equivalence {
    use super::*;
    use proptest::prelude::*;
    use std::sync::{Mutex, OnceLock};

    /// One fleet with the client that reads it.
    struct Side {
        fleet: Fleet,
        client: RnbClient,
        /// The fleet's `set`s once populated.
        populated: u64,
    }

    impl Side {
        /// Wait until the fleet has applied every write-back the client
        /// sent. They are not acknowledged, and an eviction that
        /// overtook one would be undone by it.
        fn settle(&self) {
            let sent = self.populated + self.client.stats().writebacks;
            let mut polls = 0u64;
            while self.fleet.sets() < sent {
                polls += 1;
                assert!(polls < 50_000_000, "write-backs never landed");
                std::thread::yield_now();
            }
        }
    }

    /// A pipelined and a sequential client, each on a fleet of its own:
    /// write-back changes what a fleet holds, so the two can only be
    /// compared counter for counter if neither sees the other's.
    struct Pair {
        pipelined: Side,
        sequential: Side,
    }

    const STORED: u64 = 400;

    fn side(pipeline: bool, dead: Option<usize>) -> Side {
        let mut fleet = Fleet::start(6, 1 << 22);
        let config = RnbClientConfig::new(3).with_pipeline(pipeline);
        let mut client = RnbClient::connect(&fleet.addrs(), config).unwrap();
        for item in 0..STORED {
            client.set(item, format!("eq{item}").as_bytes()).unwrap();
        }
        // Killed under the client's live connection: the first request
        // to touch it finds out mid-request.
        if let Some(server) = dead {
            fleet.servers[server].shutdown();
        }
        let populated = fleet.sets();
        Side {
            fleet,
            client,
            populated,
        }
    }

    // Fleets shared across proptest cases (starting servers per case
    // would dominate the run); the Mutex serializes cases. One pair is
    // healthy, the other has lost server 2 for good.
    fn pairs() -> &'static Mutex<[Pair; 2]> {
        static PAIRS: OnceLock<Mutex<[Pair; 2]>> = OnceLock::new();
        PAIRS.get_or_init(|| {
            Mutex::new([None, Some(2)].map(|dead| Pair {
                pipelined: side(true, dead),
                sequential: side(false, dead),
            }))
        })
    }

    type Outcome = (Vec<Option<Vec<u8>>>, ClientStats);

    /// Evict each `(item, replica)` of `evicted` as LRU pressure under
    /// overbooking would, then read `request`: on both sides of `pair`,
    /// which must agree on the values and on every counter. An evicted
    /// distinguished copy (replica 0) is put back after the read, so the
    /// next case starts from a fleet that holds every item.
    fn read_both(pair: &mut Pair, evicted: &[(u64, usize)], request: &[u64]) -> Outcome {
        let [piped, seq] = [&mut pair.pipelined, &mut pair.sequential].map(|side| {
            side.settle();
            for &(item, replica) in evicted {
                let server = side.client.bundler().placement().replicas(item)[replica];
                side.fleet.store(server as usize).delete(&item_key(item));
            }
            let before = side.client.stats();
            let values = side.client.multi_get(request).unwrap();
            let outcome = (values, side.client.stats().since(&before));
            for &(item, _) in evicted.iter().filter(|&&(_, replica)| replica == 0) {
                let server = side.client.bundler().placement().replicas(item)[0];
                let value = format!("eq{item}");
                side.fleet
                    .store(server as usize)
                    .set(&item_key(item), value.as_bytes(), 0, false);
                side.populated += 1;
            }
            outcome
        });
        assert_eq!(piped, seq);
        piped
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Pipelining is a latency optimization, not a semantic change:
        /// the sequential order is the same loop with each receive
        /// directly after its send, so for any request (dupes, absent
        /// items, empty), any set of evicted copies (planned misses,
        /// hitchhikers and their rescues, round 2, misses at the
        /// distinguished copy, write-back bursts) and with or without a
        /// dead server (failed transactions, round 3) the two clients
        /// return the same values and move every counter alike —
        /// `hitchhikers` and `writeback_txns` included.
        #[test]
        fn pipelined_multi_get_equals_sequential(
            request in proptest::collection::vec(0u64..600, 0..40),
            evicted in proptest::collection::vec((0u64..STORED, 0usize..3), 0..30),
            dead in any::<bool>(),
        ) {
            let mut guard = pairs().lock().unwrap();
            let (values, stats) = read_both(&mut guard[usize::from(dead)], &evicted, &request);
            prop_assert_eq!(stats.requests, 1);
            for (item, value) in request.iter().zip(&values) {
                // Only an item whose distinguished copy is gone may be
                // missing from a healthy fleet.
                let gone = evicted.contains(&(*item, 0));
                let found = value.as_deref() == Some(format!("eq{item}").as_bytes());
                if *item >= STORED {
                    prop_assert!(value.is_none());
                } else if !dead {
                    prop_assert!(found || gone && value.is_none(), "item {}: {:?}", item, value);
                }
            }
            if !dead {
                prop_assert_eq!(stats.failed_txns + stats.round3_txns + stats.reconnects, 0);
            }
        }
    }

    /// The proptest above is only worth its name if its cases reach the
    /// paths it lists; this replays a fixed script and checks they fire.
    #[test]
    fn equivalence_cases_reach_every_round() {
        let mut guard = pairs().lock().unwrap();
        let evicted: Vec<(u64, usize)> = (0..STORED).map(|item| (item, 1)).collect();
        let request: Vec<u64> = (0..STORED).step_by(3).collect();
        let before = guard.each_ref().map(|pair| pair.pipelined.client.stats());
        for chunk in request.chunks(20) {
            read_both(&mut guard[0], &evicted, chunk);
            read_both(&mut guard[1], &evicted, chunk);
        }
        let [healthy, wounded] =
            [0, 1].map(|i| guard[i].pipelined.client.stats().since(&before[i]));
        assert!(healthy.planned_misses > 0, "{healthy:?}");
        assert!(healthy.rescued_by_hitchhikers > 0, "{healthy:?}");
        assert!(
            healthy.round2_txns > 0 && healthy.writebacks > 0,
            "{healthy:?}"
        );
        // More ops written back than bursts: some burst carried several
        // to one server.
        assert!(
            healthy.writebacks > healthy.writeback_txns && healthy.hitchhikers > 0,
            "{healthy:?}"
        );
        assert!(
            wounded.failed_txns > 0 && wounded.round3_txns > 0,
            "{wounded:?}"
        );

        // A lone item is planned on its distinguished copy; gone there,
        // it is unavailable without a round 2.
        let (values, d) = read_both(&mut guard[0], &[(7, 0)], &[7]);
        assert_eq!(values, vec![None]);
        assert_eq!(
            (d.planned_misses, d.round2_txns, d.unavailable_items),
            (1, 0, 1),
            "{d:?}"
        );
    }
}

/// A server that answers every request line of every connection with
/// the same bytes.
fn hostile_server(reply: &'static [u8]) -> SocketAddr {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let mut conn = conn.unwrap();
            std::thread::spawn(move || {
                let mut lines = BufReader::new(conn.try_clone().unwrap()).lines();
                while let Some(Ok(_)) = lines.next() {
                    if conn.write_all(reply).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn hostile_value_length_breaks_the_connection_not_the_process() {
    // Regression: a VALUE line naming 2^64-1 bytes used to size a buffer
    // and take the process down with it. Now it is a failed transaction
    // like any other: the connection is dropped and redialed once for
    // round 2, round 3 does not dial a server that already failed in the
    // request, and the item is reported unavailable.
    let addr = hostile_server(b"VALUE item:5 0 18446744073709551615\r\n");
    let mut client = RnbClient::connect(&[addr], RnbClientConfig::new(1)).unwrap();
    assert_eq!(client.multi_get(&[5]).unwrap(), vec![None]);
    let stats = client.stats();
    assert_eq!(
        (stats.round1_txns, stats.round2_txns, stats.round3_txns),
        (1, 1, 0)
    );
    assert_eq!(stats.failed_txns, 2);
    assert_eq!(stats.reconnects, 1);
    assert_eq!(stats.unavailable_items, 1);
}

#[test]
fn delete_removes_all_replicas() {
    let fleet = Fleet::start(5, 1 << 20);
    let mut client = RnbClient::connect(&fleet.addrs(), RnbClientConfig::new(3)).unwrap();
    client.set(11, b"v").unwrap();
    assert!(client.delete(11).unwrap());
    assert!(!client.delete(11).unwrap());
    for s in 0..5 {
        assert!(fleet.store(s).get(&item_key(11)).is_none());
    }
    assert!(client.multi_get(&[11]).unwrap()[0].is_none());
}

#[test]
fn delete_counts_write_transactions() {
    // Regression: `delete` used to skip the write-side counters
    // entirely, so mixed workloads undercounted their transactions.
    let fleet = Fleet::start(5, 1 << 20);
    let mut client = RnbClient::connect(&fleet.addrs(), RnbClientConfig::new(3)).unwrap();
    client.set(11, b"v").unwrap();
    let before = client.stats();
    client.delete(11).unwrap();
    let after = client.stats();
    assert_eq!(
        after.write_txns - before.write_txns,
        3,
        "one write txn per replica delete"
    );
    assert_eq!(after.writes - before.writes, 1, "one logical write op");
    // A delete of an absent item still pays the same transactions.
    client.delete(11).unwrap();
    let end = client.stats();
    assert_eq!(end.write_txns - after.write_txns, 3);
    assert_eq!(end.writes - after.writes, 1);
}

/// A 6-node, 3-way fleet holding every copy of items `0..120`, with
/// node `dead` shut down, and the items with `dead` among their first
/// two replicas, each with its replica list: a per-replica loop stopping
/// at `dead` would leave the copies after it.
fn fleet_with_a_dead_replica(dead: u32) -> (Fleet, RnbClient, Vec<(u64, Vec<u32>)>) {
    let mut fleet = Fleet::start(6, 1 << 22);
    let mut client = RnbClient::connect(&fleet.addrs(), RnbClientConfig::new(3)).unwrap();
    for item in 0..120u64 {
        client.set(item, format!("v{item}").as_bytes()).unwrap();
    }
    fleet.servers[dead as usize].shutdown();
    let placement = client.bundler().placement();
    let items = (0..120).map(|item| (item, placement.replicas(item)));
    let items = items.filter(|(_, replicas)| replicas[..2].contains(&dead));
    let items = items.collect();
    (fleet, client, items)
}

#[test]
fn delete_with_a_dead_replica_clears_every_live_copy() {
    let dead = 2;
    let (fleet, mut client, items) = fleet_with_a_dead_replica(dead);
    let first = items
        .iter()
        .filter(|(_, replicas)| replicas[0] == dead)
        .count();
    assert!(
        first > 0 && first < items.len(),
        "dead both first and second"
    );
    for (item, replicas) in items {
        assert!(
            client.delete(item).is_err(),
            "item {item}: a copy is out of reach"
        );
        for server in replicas.into_iter().filter(|&server| server != dead) {
            let copy = fleet.store(server as usize).get(&item_key(item));
            assert!(
                copy.is_none(),
                "item {item} survives on live server {server}"
            );
        }
    }
}

#[test]
fn atomic_update_with_a_dead_replica_invalidates_every_live_copy() {
    // The distinguished copy is live and only a replica is dead: the
    // invalidation round reaches every live replica, fails, and the CAS
    // loop never runs, so the distinguished value stays as it was.
    let dead = 2;
    let (fleet, mut client, items) = fleet_with_a_dead_replica(dead);
    let items: Vec<_> = items.into_iter().filter(|(_, r)| r[1] == dead).collect();
    assert!(!items.is_empty());
    for (item, replicas) in items {
        let outcome = client.atomic_update(item, |_| b"updated".to_vec());
        assert!(outcome.is_err(), "item {item}: an invalidation failed");
        let held = |server: u32| fleet.store(server as usize).get(&item_key(item));
        let value = held(replicas[0]).map(|v| v.data.to_vec());
        assert_eq!(value, Some(format!("v{item}").into_bytes()), "item {item}");
        assert!(
            held(replicas[2]).is_none(),
            "item {item}: live replica kept"
        );
    }
}

#[test]
fn multi_set_bursts_once_per_touched_server() {
    // The acceptance pin: a 200-item batch under 3-way WriteAll costs
    // 600 per-replica transactions sequentially, but multi_set must
    // issue exactly ONE pipelined burst per touched server.
    let fleet = Fleet::start(8, 1 << 22);
    let mut client = RnbClient::connect(&fleet.addrs(), RnbClientConfig::new(3)).unwrap();
    let entries: Vec<(u64, Vec<u8>)> = (0..200u64)
        .map(|i| (i, format!("mv{i}").into_bytes()))
        .collect();
    let touched: std::collections::HashSet<u32> = entries
        .iter()
        .flat_map(|&(item, _)| client.bundler().placement().replicas(item))
        .collect();
    let before = client.stats();
    client.multi_set(&entries).unwrap();
    let after = client.stats();
    assert_eq!(
        after.write_txns - before.write_txns,
        touched.len() as u64,
        "exactly one burst per touched server"
    );
    assert_eq!(after.writes - before.writes, 200);
    assert_eq!(after.failed_txns, before.failed_txns);
    // Every replica actually holds the bytes, and reads round-trip.
    let copies: usize = (0..8).map(|s| fleet.store(s).len()).sum();
    assert_eq!(copies, 200 * 3);
    let request: Vec<u64> = (0..200).collect();
    let values = client.multi_get(&request).unwrap();
    for (item, value) in request.iter().zip(&values) {
        assert_eq!(value.as_deref(), Some(format!("mv{item}").as_bytes()));
    }
}

#[test]
fn multi_set_invalidate_then_write_over_tcp() {
    let fleet = Fleet::start(6, 1 << 22);
    let config = RnbClientConfig::new(3).with_write_policy(WritePolicy::InvalidateThenWrite);
    let mut client = RnbClient::connect(&fleet.addrs(), config).unwrap();
    let entries: Vec<(u64, Vec<u8>)> = (0..150u64)
        .map(|i| (i, format!("iw{i}").into_bytes()))
        .collect();
    // Expected burst count: one per distinct server in the invalidation
    // phase plus one per distinct distinguished server in the write
    // phase (the §IV ordering means they cannot be merged).
    let mut inval_servers = std::collections::HashSet::new();
    let mut write_servers = std::collections::HashSet::new();
    for &(item, _) in &entries {
        let reps = client.bundler().placement().replicas(item);
        write_servers.insert(reps[0]);
        for &r in &reps[1..] {
            inval_servers.insert(r);
        }
    }
    let before = client.stats();
    client.multi_set(&entries).unwrap();
    let after = client.stats();
    assert_eq!(
        after.write_txns - before.write_txns,
        (inval_servers.len() + write_servers.len()) as u64
    );
    // Policy semantics batch-wide: only distinguished copies remain.
    for &(item, _) in &entries {
        let reps = client.bundler().placement().replicas(item);
        assert!(
            fleet.store(reps[0] as usize).get(&item_key(item)).is_some(),
            "item {item}: distinguished copy missing"
        );
        for &server in &reps[1..] {
            assert!(
                fleet.store(server as usize).get(&item_key(item)).is_none(),
                "item {item}: stale replica on server {server}"
            );
        }
    }
    // Duplicate items resolve in batch order: the later value wins.
    client
        .multi_set(&[(7u64, &b"first"[..]), (7, b"second")])
        .unwrap();
    let values = client.multi_get(&[7]).unwrap();
    assert_eq!(values[0].as_deref(), Some(&b"second"[..]));
}

#[test]
fn a_failed_invalidation_keeps_its_item_unwritten() {
    // §IV over TCP with a node down: an item is written only once every
    // copy it has elsewhere is gone, so a delete that cannot reach its
    // server leaves the item at its old value rather than let the dead
    // node's replica outlive a newer distinguished copy.
    let mut fleet = Fleet::start(4, 1 << 22);
    let config = RnbClientConfig::new(2).with_write_policy(WritePolicy::InvalidateThenWrite);
    let mut client = RnbClient::connect(&fleet.addrs(), config).unwrap();
    let items: Vec<u64> = (0..120).collect();
    let batch = |tag: &str| -> Vec<(u64, Vec<u8>)> {
        let value = |item| format!("{tag}-{item}").into_bytes();
        items.iter().map(|&item| (item, value(item))).collect()
    };
    client.multi_set(&batch("v1")).unwrap();
    let dead = 1;
    fleet.servers[dead].shutdown();
    assert!(client.multi_set(&batch("v2")).is_err());

    let placement = client.bundler().placement();
    let held = |server: u32, item: u64| {
        let value = fleet.store(server as usize).get(&item_key(item));
        value.map(|v| v.data.to_vec())
    };
    let (mut replica_dead, mut home_dead, mut alive) = (0, 0, Vec::new());
    for &item in &items {
        let replicas = placement.replicas(item);
        let (v1, v2) = (format!("v1-{item}"), format!("v2-{item}"));
        if replicas[1] as usize == dead {
            // Its invalidation failed: the distinguished copy keeps v1.
            assert_eq!(
                held(replicas[0], item),
                Some(v1.into_bytes()),
                "item {item}"
            );
            replica_dead += 1;
        } else if replicas[0] as usize == dead {
            // Its replica is gone and its home unreachable: no copy has v2.
            for &server in &replicas {
                assert_ne!(
                    held(server, item),
                    Some(v2.clone().into_bytes()),
                    "item {item}"
                );
            }
            home_dead += 1;
        } else {
            assert_eq!(
                held(replicas[0], item),
                Some(v2.into_bytes()),
                "item {item}"
            );
            alive.push(item);
        }
    }
    assert!(replica_dead > 0 && home_dead > 0 && !alive.is_empty());
    let values = client.multi_get(&alive).unwrap();
    for (item, value) in alive.iter().zip(&values) {
        assert_eq!(value.as_deref(), Some(format!("v2-{item}").as_bytes()));
    }
}

mod bundled_write_equivalence {
    use super::*;
    use proptest::prelude::*;
    use rnb_store::StoreClient;
    use std::sync::{Mutex, OnceLock};

    /// One policy's three same-shaped fleets (placement depends only on
    /// fleet size and config, so item→server maps are identical): the
    /// pipelined `multi_set` and `delete` write the first, a pipeline-off
    /// client's per-entry `set` loop and its `delete` the second, and the
    /// oracle the third — plain store connections applying the policy by
    /// hand, entry by entry, so it shares no code with the write engine.
    struct Env {
        policy: WritePolicy,
        fleets: [Fleet; 3],
        pipelined: RnbClient,
        sequential: RnbClient,
        oracle: Vec<StoreClient>,
    }

    impl Env {
        fn new(policy: WritePolicy) -> Env {
            let fleets = [(); 3].map(|_| Fleet::start(6, 1 << 22));
            // No write-back: a refill landing after a case's counters
            // were read would show as an extra `set`.
            let config = RnbClientConfig::new(3)
                .with_write_policy(policy)
                .with_writeback(false);
            let connect = |fleet: &Fleet, config| RnbClient::connect(&fleet.addrs(), config);
            let pipelined = connect(&fleets[0], config.clone()).unwrap();
            let sequential = connect(&fleets[1], config.with_pipeline(false)).unwrap();
            let oracle = fleets[2].addrs().into_iter().map(StoreClient::connect);
            Env {
                policy,
                oracle: oracle.collect::<std::io::Result<_>>().unwrap(),
                fleets,
                pipelined,
                sequential,
            }
        }

        /// The oracle's write: per entry, the deletes, then the sets.
        fn oracle_set(&mut self, item: u64, value: &[u8]) {
            let replicas = self.pipelined.bundler().placement().replicas(item);
            let key = item_key(item);
            let written = match self.policy {
                WritePolicy::WriteAll => &replicas[..],
                WritePolicy::InvalidateThenWrite => {
                    for &server in &replicas[1..] {
                        self.oracle[server as usize].delete(&key).unwrap();
                    }
                    &replicas[..1]
                }
            };
            for &server in written {
                self.oracle[server as usize].set(&key, value, 0).unwrap();
            }
        }

        /// The oracle's delete: every replica, one by one.
        fn oracle_delete(&mut self, item: u64) {
            for server in self.pipelined.bundler().placement().replicas(item) {
                self.oracle[server as usize]
                    .delete(&item_key(item))
                    .unwrap();
            }
        }
    }

    fn envs() -> &'static Mutex<[Env; 2]> {
        static ENVS: OnceLock<Mutex<[Env; 2]>> = OnceLock::new();
        ENVS.get_or_init(|| {
            let policies = [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite];
            Mutex::new(policies.map(Env::new))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The bundled write path is a transaction-count optimization,
        /// not a semantic change: for any batch (dupes included, small
        /// item range to force them) and either policy, the pipelined
        /// `multi_set` and a pipeline-off per-entry `set` loop each leave
        /// every server's store byte-identical to the oracle's, each
        /// server receives exactly the same number of `set` commands, and
        /// a `multi_get` round-trips the last value written per item. Then
        /// `delete` of a chosen subset of the batch's items (one
        /// invalidation round over every copy) on both clients leaves the
        /// fleets identical again, server by server, each server having
        /// removed as many copies as the oracle's per-replica deletes.
        #[test]
        fn pipelined_multi_set_equals_sequential_loop(
            batch in proptest::collection::vec((0u64..60, 0u32..1000, any::<bool>()), 1..50),
        ) {
            let mut guard = envs().lock().unwrap();
            for env in guard.iter_mut() {
                let policy = env.policy;
                let entries: Vec<(u64, Vec<u8>)> = batch
                    .iter()
                    .map(|&(item, tok, _)| (item, format!("w{item}-{tok}").into_bytes()))
                    .collect();
                let sets = |env: &Env| -> Vec<Vec<u64>> {
                    let fleet_sets = |f: &Fleet| (0..6).map(|s| f.store(s).stats().sets).collect();
                    env.fleets.iter().map(fleet_sets).collect()
                };
                let deletes = |env: &Env| -> Vec<Vec<u64>> {
                    let fleet_dels = |f: &Fleet| (0..6).map(|s| f.store(s).stats().deletes).collect();
                    env.fleets.iter().map(fleet_dels).collect()
                };
                // Every server's copy of every item of the range, per fleet.
                let held = |env: &Env| -> Vec<Vec<Vec<Option<Vec<u8>>>>> {
                    let copies = |f: &Fleet, s: usize| -> Vec<Option<Vec<u8>>> {
                        let get = |item| f.store(s).get(&item_key(item)).map(|v| v.data.to_vec());
                        (0..60).map(get).collect()
                    };
                    env.fleets.iter().map(|f| (0..6).map(|s| copies(f, s)).collect()).collect()
                };
                let before = sets(env);

                env.pipelined.multi_set(&entries).unwrap();
                for (item, value) in &entries {
                    env.sequential.set(*item, value).unwrap();
                    env.oracle_set(*item, value);
                }

                // Per-server op counts match: bundling regroups the same
                // per-replica writes, it never adds or drops one.
                let after = sets(env);
                for s in 0..6 {
                    let n: Vec<u64> = (0..3).map(|f| after[f][s] - before[f][s]).collect();
                    prop_assert_eq!(n[0], n[2], "{:?}: server {} pipelined set-count", policy, s);
                    prop_assert_eq!(n[1], n[2], "{:?}: server {} sequential set-count", policy, s);
                }
                // Final state matches server by server, and the last write
                // per item wins: at every replica under WriteAll, at the
                // distinguished copy alone under InvalidateThenWrite.
                let mut last: std::collections::HashMap<u64, &[u8]> =
                    std::collections::HashMap::new();
                for (item, value) in &entries {
                    last.insert(*item, value);
                }
                for (&item, &value) in &last {
                    let key = item_key(item);
                    let replicas = env.pipelined.bundler().placement().replicas(item);
                    for (at, &server) in replicas.iter().enumerate() {
                        let held: Vec<Option<Vec<u8>>> = env
                            .fleets
                            .iter()
                            .map(|f| f.store(server as usize).get(&key).map(|v| v.data.to_vec()))
                            .collect();
                        prop_assert_eq!(&held[0], &held[2], "{:?}: server {} item {}", policy, server, item);
                        prop_assert_eq!(&held[1], &held[2], "{:?}: server {} item {}", policy, server, item);
                        let holds_last = at == 0 || policy == WritePolicy::WriteAll;
                        let want = holds_last.then(|| value.to_vec());
                        prop_assert_eq!(&held[2], &want, "{:?}: item {} on server {}", policy, item, server);
                    }
                }
                // And the client's own read path sees the batch.
                let items: Vec<u64> = last.keys().copied().collect();
                let values = env.pipelined.multi_get(&items).unwrap();
                for (item, got) in items.iter().zip(&values) {
                    prop_assert_eq!(got.as_deref(), Some(last[item]), "round-trip of item {}", item);
                }

                // Delete the chosen items: both clients' deletes leave the
                // fleets byte-identical to the oracle's per-replica ones.
                let doomed: Vec<u64> = batch.iter().filter(|d| d.2).map(|d| d.0).collect();
                let before = deletes(env);
                for &item in &doomed {
                    let existed = env.pipelined.delete(item).unwrap();
                    prop_assert_eq!(env.sequential.delete(item).unwrap(), existed, "item {}", item);
                    env.oracle_delete(item);
                }
                let after = deletes(env);
                for s in 0..6 {
                    let n: Vec<u64> = (0..3).map(|f| after[f][s] - before[f][s]).collect();
                    prop_assert_eq!(n[0], n[2], "{:?}: server {} pipelined deletes", policy, s);
                    prop_assert_eq!(n[1], n[2], "{:?}: server {} sequential deletes", policy, s);
                }
                let fleets = held(env);
                prop_assert!(fleets[0] == fleets[2], "{:?}: pipelined fleet differs", policy);
                prop_assert!(fleets[1] == fleets[2], "{:?}: sequential fleet differs", policy);
                for &item in &doomed {
                    for (s, copies) in fleets[2].iter().enumerate() {
                        prop_assert_eq!(&copies[item as usize], &None, "item {} on {}", item, s);
                    }
                }
            }
        }
    }
}
