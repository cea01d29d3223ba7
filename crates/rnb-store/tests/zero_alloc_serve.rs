//! Proof of the serving path's zero-steady-state-allocation guarantee.
//!
//! A counting global allocator (vendored `alloc-counter` stand-in) wraps
//! the system allocator with thread-local counters. The first pass over
//! a get/set traffic script warms one [`rnb_store::ConnScratch`] — key
//! ranges, multi-get and storage-run scratch, response buffer —
//! and the shard-side value storage (same-length `set` overwrites reuse
//! the existing allocation via `Arc::get_mut`). Every later pass of
//! [`rnb_store::drain_input`] — the command loop the server's workers
//! run on each connection's buffered bytes — must perform **zero**
//! allocator calls, as long as values fit the pooled buffers.
//!
//! Kept to a single `#[test]` so no sibling test thread muddies the
//! warm-up ordering.

use alloc_counter::{count_alloc, AllocCounterSystem};
use rnb_store::{drain_input, ConnScratch, Store};

#[global_allocator]
static ALLOC: AllocCounterSystem = AllocCounterSystem;

const VALUE_LEN: usize = 16;

/// A pipelined traffic script: multi-gets of several shapes interleaved
/// with same-length `set` overwrites of existing keys — the steady-state
/// workload of the paper's load generator.
fn traffic_script(keys: &[String]) -> Vec<u8> {
    let mut script = Vec::new();
    // One big multi-get over every key.
    script.extend_from_slice(b"get");
    for k in keys {
        script.push(b' ');
        script.extend_from_slice(k.as_bytes());
    }
    script.extend_from_slice(b"\r\n");
    // Small gets (hit + miss mixed), then overwriting sets.
    for (i, k) in keys.iter().enumerate() {
        script.extend_from_slice(format!("get {k} missing-{i}\r\n").as_bytes());
        script.extend_from_slice(format!("set {k} 0 0 {VALUE_LEN}\r\n").as_bytes());
        script.extend_from_slice(&[b'v'; VALUE_LEN]);
        script.extend_from_slice(b"\r\n");
        script.extend_from_slice(format!("set {k} 0 0 {VALUE_LEN} noreply\r\n").as_bytes());
        script.extend_from_slice(&[b'w'; VALUE_LEN]);
        script.extend_from_slice(b"\r\n");
    }
    script
}

#[test]
fn steady_state_serving_does_not_allocate() {
    assert_steady_state_allocation_free(8, 2);
    // One pass is 100 store accesses, so 700 passes put more than 2^16
    // on the single shard before anything is counted.
    assert_steady_state_allocation_free(1, 700);
}

/// Serve the traffic script `warm_passes` times against a fresh
/// `shards`-shard store, then require five more passes to make no
/// allocator call at all.
fn assert_steady_state_allocation_free(shards: usize, warm_passes: usize) {
    let store = Store::with_shards(1 << 22, shards);
    let keys: Vec<String> = (0..20).map(|i| format!("key-{i}")).collect();
    for k in &keys {
        store.set(k.as_bytes(), &[b'0'; VALUE_LEN], 0, false);
    }
    let script = traffic_script(&keys);
    let mut scratch = ConnScratch::new();

    // Warm-up: grows every pooled buffer to the script's steady-state
    // shape (and leaves each value's Arc at refcount 1).
    for _ in 0..warm_passes {
        let served = drain_input(&store, &script, &mut scratch).expect("in-memory replies");
        assert_eq!(served, (script.len(), false), "whole script, no close");
    }
    let warm_reply = scratch.response().to_vec();
    assert!(
        warm_reply.ends_with(b"STORED\r\n"),
        "last reply of the script"
    );
    let warm_stats = store.stats();
    assert!(warm_stats.hits > 0 && warm_stats.misses > 0 && warm_stats.sets > 0);

    // Steady state: replaying the same traffic must not touch the
    // allocator at all — no allocs, no reallocs, no deallocs.
    for round in 0..5 {
        let ((allocs, reallocs, deallocs), result) =
            count_alloc(|| drain_input(&store, &script, &mut scratch));
        result.expect("in-memory replies");
        assert_eq!(scratch.response(), warm_reply, "same traffic, same replies");
        assert_eq!(
            (allocs, reallocs, deallocs),
            (0, 0, 0),
            "{shards} shards, round {round}: the command loop touched the allocator"
        );
    }

    // The traffic really exercised the store both rounds.
    let s = store.stats();
    assert!(s.get_txns > warm_stats.get_txns);
    assert!(s.sets > warm_stats.sets);
    assert_eq!(s.curr_items, 20);
}
