//! Proof of the serving path's zero-steady-state-allocation guarantee,
//! and of the store's one allocation per new entry.
//!
//! A counting global allocator (vendored `alloc-counter` stand-in) wraps
//! the system allocator with thread-local counters. The first pass over
//! a get/gets/set traffic script warms one [`rnb_store::ConnScratch`] —
//! storage-run scratch and response buffer; a `get` needs none, because
//! it writes each hit into the reply straight from its shard — and the
//! shard-side entry storage (a same-length `set` overwrite rewrites the
//! value inside the entry's one allocation: nothing else holds those
//! bytes, since every read copies them out). Every later pass of
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

/// A stored key the script reads but never writes.
const STABLE: &str = "stable";

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
    // Small gets and gets (hit + miss mixed), then overwriting sets.
    for (i, k) in keys.iter().enumerate() {
        script.extend_from_slice(format!("get {k} missing-{i}\r\n").as_bytes());
        // `gets` of a key the script never writes, so its CAS token and
        // the reply stay the same from pass to pass.
        script.extend_from_slice(format!("gets missing-{i} {STABLE} {STABLE}\r\n").as_bytes());
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
    // One pass is 160 store accesses, so 700 passes put more than 2^16
    // on the single shard before anything is counted.
    assert_steady_state_allocation_free(1, 700);
    assert_deletes_allocation_free();
    assert_evicting_sets_allocate_once_per_entry();
}

/// A `set` of a new key into a full store allocates the entry (its key
/// and value together) and nothing else but the index's occasional
/// rehash: 1,000 sets that each evict one entry from a warmed one-shard
/// store at its byte budget stay below 1.25 allocations per set.
fn assert_evicting_sets_allocate_once_per_entry() {
    const RESIDENT: usize = 500;
    const SETS: usize = 1_000;
    let key = |i: usize| format!("new-{i:06}").into_bytes();
    // Every key is as long as every other, so each entry costs the same
    // and one eviction always makes room for the next.
    let cost = key(0).len() + VALUE_LEN + rnb_store::shard::ENTRY_OVERHEAD;
    let store = Store::with_shards(RESIDENT * cost, 1);
    let value = [b'v'; VALUE_LEN];
    let warm = 2 * RESIDENT;
    for i in 0..warm {
        store.set(&key(i), &value, 0, false);
    }
    assert_eq!(store.len(), RESIDENT, "the warm-up filled the budget");
    let counted: Vec<Vec<u8>> = (warm..warm + SETS).map(key).collect();
    let evictions_before = store.stats().evictions;

    let ((allocs, reallocs, _), ()) = count_alloc(|| {
        for k in &counted {
            store.set(k, &value, 0, false);
        }
    });
    assert_eq!(store.stats().evictions - evictions_before, SETS as u64);
    assert_eq!(store.len(), RESIDENT);
    assert!(
        (allocs + reallocs) * 4 < SETS as u64 * 5,
        "{SETS} evicting sets made {allocs} allocations and {reallocs} reallocations"
    );
}

/// A pipelined run of `delete`s of `keys`.
fn delete_script(keys: &[String]) -> Vec<u8> {
    keys.iter()
        .flat_map(|k| format!("delete {k}\r\n").into_bytes())
        .collect()
}

/// Removing an entry frees its key and value and allocates nothing: after
/// one warm pass of deletes, a pass deleting other present keys makes no
/// allocation and no reallocation. One shard, so the warm pass grows the
/// shard's free-slot list and the batch scratch exactly as far as the
/// counted pass needs.
fn assert_deletes_allocation_free() {
    const KEYS: usize = 32;
    let store = Store::with_shards(1 << 22, 1);
    let warm: Vec<String> = (0..KEYS).map(|i| format!("warm-{i}")).collect();
    let counted: Vec<String> = (0..KEYS).map(|i| format!("counted-{i}")).collect();
    for k in warm.iter().chain(&counted) {
        store.set(k.as_bytes(), &[b'0'; VALUE_LEN], 0, false);
    }
    let mut scratch = ConnScratch::new();
    let script = delete_script(&warm);
    drain_input(&store, &script, &mut scratch).expect("in-memory replies");
    assert_eq!(scratch.response(), b"DELETED\r\n".repeat(KEYS));
    // Refill the warm keys so the counted pass reuses the freed slots'
    // capacity instead of growing the free list.
    for k in &warm {
        store.set(k.as_bytes(), &[b'0'; VALUE_LEN], 0, false);
    }

    let script = delete_script(&counted);
    let ((allocs, reallocs, deallocs), result) =
        count_alloc(|| drain_input(&store, &script, &mut scratch));
    result.expect("in-memory replies");
    assert_eq!(scratch.response(), b"DELETED\r\n".repeat(KEYS));
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "a pass of {KEYS} deletes touched the allocator ({deallocs} frees)"
    );
    assert_eq!(store.stats().curr_items, KEYS as u64);
}

/// Serve the traffic script `warm_passes` times against a fresh
/// `shards`-shard store, then require five more passes to make no
/// allocator call at all.
fn assert_steady_state_allocation_free(shards: usize, warm_passes: usize) {
    let store = Store::with_shards(1 << 22, shards);
    let keys: Vec<String> = (0..20).map(|i| format!("key-{i}")).collect();
    for k in keys.iter().map(String::as_str).chain([STABLE]) {
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
    assert_eq!(s.curr_items, 21);
}
