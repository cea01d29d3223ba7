//! What a steady-state client request allocates, counted: `multi_get`
//! the vector it returns plus one buffer per value found — whether it
//! reads resident items or misses, falls back and writes back — and
//! `multi_set`, `set` and `delete` nothing, however many entries the
//! batch has.
//! Everything
//! between the caller and the sockets — plan, hitchhikers, request
//! lines, reply parsing, per-item slots, storage bursts — lives in
//! buffers the client keeps.
//!
//! The counter of `vendor/alloc-counter` is thread-local, so the fleet's
//! own threads, in this process, do not show in it. Kept to a single
//! `#[test]` so no sibling test muddies the warm-up ordering.

use alloc_counter::{count_alloc, AllocCounterSystem};
use rnb_client::{item_key, RnbClient, RnbClientConfig};
use rnb_core::{Placement, WritePolicy};
use rnb_store::{Store, StoreServer};
use std::sync::Arc;

#[global_allocator]
static ALLOC: AllocCounterSystem = AllocCounterSystem;

#[test]
fn steady_state_requests_allocate_only_what_they_return() {
    let fleet: Vec<StoreServer> = (0..4)
        .map(|_| StoreServer::start(Arc::new(Store::new(1 << 24))).unwrap())
        .collect();
    let addrs: Vec<_> = fleet.iter().map(StoreServer::addr).collect();
    let value = [7u8; 96];

    for policy in [WritePolicy::WriteAll, WritePolicy::InvalidateThenWrite] {
        let config = RnbClientConfig::new(3).with_write_policy(policy);
        let mut client = RnbClient::connect(&addrs, config).unwrap();

        // multi_set: the largest batch first, to grow every pool.
        let entries: Vec<(u64, &[u8])> = (0..256).map(|item| (item, &value[..])).collect();
        client.multi_set(&entries).unwrap();
        for batch in [&entries[..], &entries[..64], &entries[..16], &entries[..1]] {
            let ((allocs, reallocs, _), outcome) = count_alloc(|| client.multi_set(batch));
            outcome.unwrap();
            assert_eq!(
                (allocs, reallocs),
                (0, 0),
                "{policy:?}: a multi_set of {} entries builds its ops as they go out",
                batch.len()
            );
        }
        // set: a one-entry multi_set, so no key or plan of its own.
        client.set(3, &value).unwrap();
        let ((allocs, reallocs, _), outcome) = count_alloc(|| client.set(4, &value));
        outcome.unwrap();
        assert_eq!((allocs, reallocs), (0, 0), "{policy:?}: a set allocated");

        // delete: one invalidation round over every copy, its keys and
        // layout in the same pools as the write rounds'.
        client
            .multi_set(&[(300, &value[..]), (301, &value[..])])
            .unwrap();
        client.delete(300).unwrap();
        let ((allocs, reallocs, _), outcome) = count_alloc(|| client.delete(301));
        assert!(outcome.unwrap(), "{policy:?}: item 301 had a copy");
        assert_eq!((allocs, reallocs), (0, 0), "{policy:?}: a delete allocated");

        // multi_get of resident items: n values and the vector of them.
        // Under InvalidateThenWrite only the distinguished copies exist,
        // so the first pass also misses, falls back and writes back.
        let requests: Vec<Vec<u64>> = vec![
            (0..256).collect(),
            (0..40).map(|i| i * 5 + 1).collect(),
            (0..13).map(|i| i * 17 + 3).collect(),
            vec![200, 3, 77],
            vec![9],
            vec![],
        ];
        for request in &requests {
            client.multi_get(request).unwrap();
        }
        for request in &requests {
            let ((allocs, reallocs, _), values) = count_alloc(|| client.multi_get(request));
            let values = values.unwrap();
            assert!(values.iter().all(Option::is_some));
            assert_eq!(
                (allocs, reallocs),
                (request.len() as u64 + u64::from(!request.is_empty()), 0),
                "{policy:?}: a multi_get of {} resident items allocates them and their vector",
                request.len()
            );
        }

        // A request whose replicas were evicted: round-1 misses, round 2
        // from the distinguished copies, write-back bursts. Still one
        // buffer per value and the vector; the first pass grows the pools.
        let request: Vec<u64> = (0..40).map(|i| i * 5 + 1).collect();
        for warm in [false, true] {
            // Write-backs are not acknowledged, so one still in flight
            // could land after the evictions below. This read sends to
            // every server the last pass wrote back to, on the same
            // connections, and so returns only once they are applied.
            client.multi_get(&request).unwrap();
            for &item in &request {
                let replicas = client.bundler().placement().replicas(item);
                for &server in &replicas[1..] {
                    fleet[server as usize].store().delete(&item_key(item));
                }
            }
            let before = client.stats();
            let ((allocs, reallocs, _), values) = count_alloc(|| client.multi_get(&request));
            assert!(values.unwrap().iter().all(Option::is_some));
            let d = client.stats().since(&before);
            assert!(d.round2_txns > 0 && d.writeback_txns > 0, "{d:?}");
            assert_eq!(d.writebacks, d.planned_misses, "{d:?}");
            if warm {
                assert_eq!(
                    (allocs, reallocs),
                    (request.len() as u64 + 1, 0),
                    "{policy:?}: a multi_get that misses and writes back allocates what it returns"
                );
            }
        }

        // An item gone from every copy and planned on its distinguished
        // one: it misses there and is unavailable without a round 2. One
        // buffer per value found and the vector, nothing for the flag.
        let request: Vec<u64> = (0..13).map(|i| i * 17 + 3).collect();
        let placement = client.bundler().placement();
        let (gone, _) = client
            .bundler()
            .plan(&request)
            .assignment()
            .find(|&(item, server)| placement.replicas(item)[0] == server)
            .expect("some item is planned on its distinguished copy");
        for server in placement.replicas(gone) {
            fleet[server as usize].store().delete(&item_key(gone));
        }
        client.multi_get(&request).unwrap();
        let before = client.stats();
        let ((allocs, reallocs, _), values) = count_alloc(|| client.multi_get(&request));
        let found = values.unwrap().iter().flatten().count() as u64;
        let d = client.stats().since(&before);
        assert_eq!((found, d.unavailable_items), (request.len() as u64 - 1, 1));
        assert_eq!(
            (allocs, reallocs),
            (found + 1, 0),
            "{policy:?}: a multi_get whose distinguished copy misses allocates what it returns"
        );

        // An absent item is no buffer. A request that names an item
        // twice gets copies: one buffer per value handed out, on top of
        // one per distinct value found.
        client.multi_get(&[5, 900, 6]).unwrap();
        let ((allocs, reallocs, _), values) = count_alloc(|| client.multi_get(&[5, 900, 6]));
        assert_eq!(values.unwrap().iter().flatten().count(), 2);
        assert_eq!((allocs, reallocs), (2 + 1, 0));
        let ((allocs, reallocs, _), values) = count_alloc(|| client.multi_get(&[5, 900, 5, 6]));
        assert_eq!(values.unwrap().iter().flatten().count(), 3);
        assert_eq!((allocs, reallocs), (2 + 3 + 1, 0));
    }
}
