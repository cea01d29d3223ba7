//! The sharded concurrent store: a power-of-two `Vec` of
//! `Mutex<Shard>`, each shard one byte-budgeted LRU that every read and
//! write refreshes.
//!
//! The read path is one pass: [`Store::get_each`] walks a transaction's
//! keys in request order, hashes each once, locks a shard only when a
//! key's shard differs from the previous key's, reads the clock at most
//! once, and lends each hit to a visitor while the guard is held — the
//! server writes the reply straight from the shard, and
//! [`Store::get_multi`] collects owned values. The seed per-key loop
//! survives as
//! [`Store::get_multi_reference`], the oracle the proptests and the
//! `BENCH_store.json` benchmark compare against.

use crate::clock::{Clock, LazyTick};
use crate::shard::{self, ArithOutcome, CasOutcome, SetOutcome, Shard, Value, ValueRef};
use crate::stats::{StatsSnapshot, StoreStats};
use parking_lot::Mutex;
use std::ops::ControlFlow;
#[cfg(test)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Default shard count (power of two; one mutex each keeps contention low
/// at the connection counts the micro-benchmarks use).
pub const DEFAULT_SHARDS: usize = 16;

/// The scratch parameter of [`Store::set_multi`] and
/// [`Store::get_multi_into`]. Neither reads it: a read is one pass over
/// its keys, and a batch write is a loop of single sets.
#[derive(Debug, Default)]
pub struct GetScratch;

impl GetScratch {
    /// The scratch (it holds nothing).
    pub const fn new() -> Self {
        GetScratch
    }
}

/// One entry of a batched write ([`Store::set_multi`]): the same
/// parameters as [`Store::set_with_ttl`], borrowed so building a batch
/// copies no key or value.
#[derive(Debug, Clone, Copy)]
pub struct SetEntry<'a> {
    /// Entry key.
    pub key: &'a [u8],
    /// Value bytes.
    pub value: &'a [u8],
    /// Opaque client flags, returned verbatim on reads.
    pub flags: u32,
    /// Pinned entries (distinguished copies) are never evicted.
    pub pinned: bool,
    /// Optional expiry; `None` lives until evicted.
    pub ttl: Option<Duration>,
}

/// A concurrent, memory-bounded key-value store.
///
/// ```
/// use rnb_store::Store;
/// let store = Store::new(1 << 20); // 1 MiB budget
/// store.set(b"user:42", b"hello", 0, false);
/// let hit = store.get(b"user:42").unwrap();
/// assert_eq!(&hit.data[..], b"hello");
/// // Multi-get counts as ONE transaction (the paper's cost unit):
/// store.get_multi(&[b"user:42", b"user:43"]);
/// assert_eq!(store.stats().get_txns, 2);
/// ```
pub struct Store {
    shards: Vec<Mutex<Shard>>,
    mask: u64,
    /// The timeline every shard reads; a read transaction takes its one
    /// tick here, when an entry with a deadline first needs it.
    clock: Clock,
    stats: StoreStats,
    /// Shard-mutex acquisitions made by the multi-key read; the
    /// regression tests pin how many it takes.
    #[cfg(test)]
    multi_lock_acquisitions: AtomicU64,
}

impl Store {
    /// A store with `mem_limit` bytes total across [`DEFAULT_SHARDS`]
    /// shards.
    pub fn new(mem_limit: usize) -> Self {
        Self::with_shards(mem_limit, DEFAULT_SHARDS)
    }

    /// A store with an explicit shard count (must be a power of two).
    pub fn with_shards(mem_limit: usize, shards: usize) -> Self {
        Self::with_clock(mem_limit, shards, Clock::real())
    }

    /// A store whose TTL expiry reads `clock` — the virtual-time
    /// constructor. Hand every shard a clone of a
    /// [`TestClock`](crate::TestClock)-backed clock and `advance()` the
    /// handle you kept to drive expiry deterministically, even across the
    /// server's connection threads.
    pub fn with_clock(mem_limit: usize, shards: usize, clock: Clock) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two"
        );
        let per_shard = mem_limit / shards;
        Store {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::with_clock(per_shard, clock.clone())))
                .collect(),
            mask: (shards - 1) as u64,
            clock,
            stats: StoreStats::default(),
            #[cfg(test)]
            multi_lock_acquisitions: AtomicU64::new(0),
        }
    }

    /// The store-wide counters (the server increments wire-level byte
    /// counts through this).
    pub(crate) fn raw_stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Which shard index `key` routes to.
    fn shard_index_of(&self, key: &[u8]) -> usize {
        (shard::key_hash(key) & self.mask) as usize
    }

    /// The shard `key` routes to.
    fn shard_of(&self, key: &[u8]) -> &Mutex<Shard> {
        &self.shards[self.shard_index_of(key)]
    }

    /// Fetch one key.
    pub fn get(&self, key: &[u8]) -> Option<Value> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        self.stats.get_txns.fetch_add(1, Ordering::Relaxed);
        let got = self.shard_of(key).lock().get(key);
        match got {
            Some(v) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Fetch many keys in one transaction: [`Store::get_each`]
    /// collecting an owned [`Value`] per key (one allocation and copy of
    /// each hit's bytes), in key order. Serving loops that only copy the
    /// hits out should call [`Store::get_each`] and allocate nothing.
    pub fn get_multi(&self, keys: &[&[u8]]) -> Vec<Option<Value>> {
        let mut out = Vec::with_capacity(keys.len());
        self.get_multi_into(&mut GetScratch::new(), keys, &mut out);
        out
    }

    /// [`Store::get_multi`] into a caller-owned vector: `out` is cleared
    /// and refilled in key order, so reusing it makes the call
    /// allocation-free once warm. `_scratch` is not read: a read walks
    /// its keys in one pass and needs no scratch.
    pub fn get_multi_into(
        &self,
        _scratch: &mut GetScratch,
        keys: &[&[u8]],
        out: &mut Vec<Option<Value>>,
    ) {
        out.clear();
        self.get_each(keys.iter().copied(), |_, hit| {
            out.push(hit.map(ValueRef::to_value));
        });
    }

    /// The read primitive: one get transaction over `keys`, walked in
    /// request order. Each key is hashed once. A shard's mutex is taken
    /// only when a key's shard differs from the previous key's, so one
    /// guard is held at a time and a run of same-shard keys shares one
    /// acquisition. The clock is read at most once for the whole
    /// transaction: the first time an entry with a TTL is judged.
    /// While the guard is held, `visit` gets each key with its hit lent
    /// out of the shard (`None` for a miss or an expired entry). Returns
    /// the hit count; stats count exactly what
    /// [`Store::get_multi_reference`] counts.
    ///
    /// `visit` runs under a shard mutex: it must be bounded memory work,
    /// such as copying the hit into a reply buffer — never a lock or a
    /// socket call (lint R10 checks every call site's closure).
    pub fn get_each<'k, I, F>(&self, keys: I, mut visit: F) -> usize
    where
        I: IntoIterator<Item = &'k [u8]>,
        F: FnMut(&'k [u8], Option<ValueRef<'_>>),
    {
        let (count, hits) = self.get_until(keys, |key, hit| {
            visit(key, hit);
            ControlFlow::Continue(())
        });
        self.count_get_txn(count, hits);
        hits
    }

    /// [`Store::get_each`] over part of a transaction, uncounted: `keys`
    /// in request order until `visit` breaks. The key it breaks on does
    /// not count as visited, and a later call looks it up afresh; the
    /// clock is read at most once per call. Returns `(keys visited, hits
    /// among them)`, and the caller counts the whole transaction once,
    /// with [`Store::count_get_txn`]. `visit` runs under a shard mutex, as
    /// `get_each`'s does.
    pub(crate) fn get_until<'k, I, F>(&self, keys: I, mut visit: F) -> (usize, usize)
    where
        I: IntoIterator<Item = &'k [u8]>,
        F: FnMut(&'k [u8], Option<ValueRef<'_>>) -> ControlFlow<()>,
    {
        let mut now = LazyTick::new(&self.clock);
        let mask = self.mask;
        let mut keys = keys
            .into_iter()
            .map(|key| (key, shard::key_hash(key)))
            .peekable();
        let (mut count, mut hits) = (0usize, 0usize);
        while let Some(&(_, first)) = keys.peek() {
            let sh = first & mask;
            #[cfg(test)]
            self.multi_lock_acquisitions.fetch_add(1, Ordering::Relaxed);
            let mut shard = self.shards[sh as usize].lock();
            while let Some((key, h)) = keys.next_if(|&(_, h)| h & mask == sh) {
                let hit = shard.lookup(h, key, &mut now);
                let found = hit.is_some();
                if visit(key, hit).is_break() {
                    return (count, hits);
                }
                count += 1;
                hits += usize::from(found);
            }
        }
        (count, hits)
    }

    /// Stats of one get transaction of `keys` keys, `hits` of them found.
    pub(crate) fn count_get_txn(&self, keys: usize, hits: usize) {
        self.stats.get_txns.fetch_add(1, Ordering::Relaxed);
        self.stats.gets.fetch_add(keys as u64, Ordering::Relaxed);
        self.stats.count_get_batch(keys);
        self.stats.hits.fetch_add(hits as u64, Ordering::Relaxed);
        self.stats
            .misses
            .fetch_add((keys - hits) as u64, Ordering::Relaxed);
    }

    /// The seed per-key multi-get: one shard-lock acquisition (and one
    /// clock read) **per key**. Kept as the correctness oracle for the
    /// one-pass read and as the baseline the store benchmark's speedup
    /// ratios are measured against. Stats accounting matches
    /// [`Store::get_each`] exactly.
    pub fn get_multi_reference(&self, keys: &[&[u8]]) -> Vec<Option<Value>> {
        let out: Vec<Option<Value>> = keys
            .iter()
            .map(|key| self.shard_of(key).lock().get(key))
            .collect();
        self.count_get_txn(keys.len(), out.iter().flatten().count());
        out
    }

    /// Store a value. `pinned` entries are never evicted.
    pub fn set(&self, key: &[u8], value: &[u8], flags: u32, pinned: bool) -> SetOutcome {
        self.set_with_ttl(key, value, flags, pinned, None)
    }

    /// [`Store::set`] with an optional expiry.
    pub fn set_with_ttl(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        pinned: bool,
        ttl: Option<Duration>,
    ) -> SetOutcome {
        let outcome = self
            .shard_of(key)
            .lock()
            .set_full(key, value, flags, pinned, ttl);
        self.count_set(&outcome);
        outcome
    }

    fn count_set(&self, outcome: &SetOutcome) {
        match *outcome {
            SetOutcome::Stored { evicted } => {
                self.stats.sets.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .evictions
                    .fetch_add(evicted as u64, Ordering::Relaxed);
            }
            SetOutcome::OutOfMemory => {
                self.stats.oom_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Store a whole batch: [`Store::set_with_ttl`] for each entry in
    /// order, so a duplicate key's later entry wins. `outcomes` is
    /// cleared and refilled in entry order; `_scratch` is not read.
    pub fn set_multi(
        &self,
        _scratch: &mut GetScratch,
        entries: &[SetEntry<'_>],
        outcomes: &mut Vec<SetOutcome>,
    ) {
        outcomes.clear();
        outcomes.extend(
            entries
                .iter()
                .map(|e| self.set_with_ttl(e.key, e.value, e.flags, e.pinned, e.ttl)),
        );
    }

    /// `add`: store only if absent; `None` if the key already exists.
    pub fn add(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        ttl: Option<Duration>,
    ) -> Option<SetOutcome> {
        let outcome = self.shard_of(key).lock().add(key, value, flags, ttl);
        if let Some(o) = &outcome {
            self.count_set(o);
        }
        outcome
    }

    /// `replace`: store only if present; `None` if the key is absent.
    pub fn replace(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        ttl: Option<Duration>,
    ) -> Option<SetOutcome> {
        let outcome = self.shard_of(key).lock().replace(key, value, flags, ttl);
        if let Some(o) = &outcome {
            self.count_set(o);
        }
        outcome
    }

    /// Compare-and-swap with the token from a previous `get`.
    pub fn cas(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        token: u64,
        ttl: Option<Duration>,
    ) -> CasOutcome {
        let outcome = self.shard_of(key).lock().cas(key, value, flags, token, ttl);
        match outcome {
            CasOutcome::Stored => {
                self.stats.cas_ok.fetch_add(1, Ordering::Relaxed);
                self.stats.sets.fetch_add(1, Ordering::Relaxed);
            }
            CasOutcome::Exists => {
                self.stats.cas_conflicts.fetch_add(1, Ordering::Relaxed);
            }
            CasOutcome::NotFound => {}
            CasOutcome::OutOfMemory => {
                self.stats.oom_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// `incr` (`negative = false`) / `decr` (`negative = true`).
    pub fn arith(&self, key: &[u8], delta: u64, negative: bool) -> ArithOutcome {
        let outcome = self.shard_of(key).lock().arith(key, delta, negative);
        match outcome {
            ArithOutcome::Value(_) => {
                let hits = if negative {
                    &self.stats.decr_hits
                } else {
                    &self.stats.incr_hits
                };
                hits.fetch_add(1, Ordering::Relaxed);
                // incr/decr rewrites the value: a mutation, like set/cas.
                self.stats.sets.fetch_add(1, Ordering::Relaxed);
            }
            ArithOutcome::NotFound => {
                let misses = if negative {
                    &self.stats.decr_misses
                } else {
                    &self.stats.incr_misses
                };
                misses.fetch_add(1, Ordering::Relaxed);
            }
            ArithOutcome::NonNumeric => {
                self.stats.arith_non_numeric.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Eagerly reclaim expired entries in every shard (pinned ones
    /// included); returns how many were removed. `len()`/`mem_used()`
    /// reflect the sweep immediately.
    pub fn sweep_expired(&self) -> usize {
        self.shards.iter().map(|s| s.lock().sweep_expired()).sum()
    }

    /// Delete a key; true if it existed.
    pub fn delete(&self, key: &[u8]) -> bool {
        let deleted = self.shard_of(key).lock().delete(key);
        if deleted {
            self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        }
        deleted
    }

    /// Entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes accounted across all shards.
    pub fn mem_used(&self) -> usize {
        self.shards.iter().map(|s| s.lock().mem_used()).sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats
            .snapshot(self.len() as u64, self.mem_used() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn basic_roundtrip_and_stats() {
        let store = Store::new(1 << 20);
        assert!(matches!(
            store.set(b"a", b"1", 5, false),
            SetOutcome::Stored { .. }
        ));
        let v = store.get(b"a").unwrap();
        assert_eq!(&v.data[..], b"1");
        assert_eq!(v.flags, 5);
        assert!(store.get(b"b").is_none());
        let s = store.stats();
        assert_eq!(s.sets, 1);
        assert_eq!(s.gets, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.curr_items, 1);
        assert!(s.bytes > 0);
    }

    #[test]
    fn get_multi_counts_one_transaction() {
        let store = Store::new(1 << 20);
        store.set(b"x", b"1", 0, false);
        store.set(b"y", b"2", 0, false);
        let res = store.get_multi(&[b"x", b"y", b"z"]);
        assert_eq!(res.len(), 3);
        assert!(res[0].is_some() && res[1].is_some() && res[2].is_none());
        let s = store.stats();
        assert_eq!(s.get_txns, 1);
        assert_eq!(s.gets, 3);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn get_multi_reference_counts_like_get_multi() {
        let store = Store::new(1 << 20);
        store.set(b"x", b"1", 0, false);
        let batched = Store::new(1 << 20);
        batched.set(b"x", b"1", 0, false);
        store.get_multi_reference(&[b"x", b"z"]);
        batched.get_multi(&[b"x", b"z"]);
        let a = store.stats();
        let b = batched.stats();
        assert_eq!((a.get_txns, a.gets, a.hits, a.misses), (1, 2, 1, 1));
        assert_eq!(a.get_batch_hist, b.get_batch_hist);
    }

    /// Lock acquisitions one `get_multi` of `keys` takes.
    fn locks_of_get(store: &Store, keys: &[&[u8]]) -> usize {
        store.multi_lock_acquisitions.store(0, Ordering::Relaxed);
        let out = store.get_multi(keys);
        assert!(out.iter().all(Option::is_some));
        store.multi_lock_acquisitions.load(Ordering::Relaxed) as usize
    }

    #[test]
    fn get_multi_locks_once_per_run_of_same_shard_keys() {
        // The one-pass invariant: a read locks a shard each time a key's
        // shard differs from the previous key's, so its acquisitions
        // equal the runs of consecutive same-shard keys.
        let keys: Vec<Vec<u8>> = (0..100u32).map(|i| format!("k{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let store = Store::with_shards(1 << 20, 8);
        for k in &keys {
            store.set(k, b"v", 0, false);
        }
        let shard_seq: Vec<usize> = refs.iter().map(|k| store.shard_index_of(k)).collect();
        let runs = 1 + shard_seq.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(runs > 8, "keys should alternate between shards");
        assert_eq!(locks_of_get(&store, &refs), runs);

        // The same keys sorted by shard form one run per touched shard.
        let mut grouped = refs.clone();
        grouped.sort_by_key(|k| store.shard_index_of(k));
        let touched: std::collections::HashSet<usize> = shard_seq.into_iter().collect();
        assert_eq!(locks_of_get(&store, &grouped), touched.len());

        // A one-shard store takes exactly one lock per transaction.
        let single = Store::with_shards(1 << 20, 1);
        for k in &keys {
            single.set(k, b"v", 0, false);
        }
        assert_eq!(locks_of_get(&single, &refs), 1);
        assert_eq!(locks_of_get(&single, &refs[..1]), 1);
    }

    #[test]
    fn set_multi_duplicate_keys_last_wins() {
        // Entries apply in batch order within a shard: a duplicate key
        // resolves exactly like a sequential set loop.
        let store = Store::with_shards(1 << 20, 4);
        let mut scratch = GetScratch::new();
        let mut outcomes = Vec::new();
        let entries = [
            SetEntry {
                key: b"dup",
                value: b"first",
                flags: 1,
                pinned: false,
                ttl: None,
            },
            SetEntry {
                key: b"other",
                value: b"x",
                flags: 0,
                pinned: false,
                ttl: None,
            },
            SetEntry {
                key: b"dup",
                value: b"second",
                flags: 2,
                pinned: false,
                ttl: None,
            },
        ];
        store.set_multi(&mut scratch, &entries, &mut outcomes);
        assert_eq!(outcomes.len(), 3);
        let v = store.get(b"dup").unwrap();
        assert_eq!(&v.data[..], b"second");
        assert_eq!(v.flags, 2);
        assert_eq!(store.stats().sets, 3, "every occurrence counts as a set");
    }

    #[test]
    fn get_multi_spans_every_shard() {
        // A single multi-get whose key list covers all shards comes back
        // complete and in caller order.
        let store = Store::with_shards(1 << 20, 8);
        let keys: Vec<Vec<u8>> = (0..64u32)
            .map(|i| format!("span-{i}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let covered: std::collections::HashSet<usize> =
            refs.iter().map(|k| store.shard_index_of(k)).collect();
        assert_eq!(covered.len(), 8, "64 keys must cover all 8 shards");
        for (i, k) in keys.iter().enumerate() {
            store.set(k, format!("v{i}").as_bytes(), 0, false);
        }
        let out = store.get_multi(&refs);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(
                &v.as_ref().unwrap().data[..],
                format!("v{i}").as_bytes(),
                "slot {i} out of order"
            );
        }
    }

    #[test]
    fn get_multi_into_reuses_buffers() {
        let store = Store::new(1 << 20);
        store.set(b"a", b"1", 0, false);
        let mut scratch = GetScratch::new();
        let mut out = Vec::new();
        store.get_multi_into(&mut scratch, &[b"a", b"b"], &mut out);
        assert!(out[0].is_some() && out[1].is_none());
        // Second call with a different shape reuses the same buffers.
        store.get_multi_into(&mut scratch, &[b"b"], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_none());
        // Empty batches are fine too.
        store.get_multi_into(&mut scratch, &[], &mut out);
        assert!(out.is_empty());
    }

    proptest! {
        /// The one-pass multi-get is result-identical to the retained
        /// per-key reference path, for any key mix (hits, misses,
        /// duplicates) on any shard count, after any mix of writes that
        /// change a value's length: overwrites, `cas`, and `incr`/`decr`
        /// across a digit boundary. Every hit's bytes match the last
        /// write, and a `Value` read before a write keeps its old bytes.
        #[test]
        fn get_multi_matches_reference(
            writes in proptest::collection::vec((0u8..4, 0u32..40, 0usize..30), 0..60),
            queried in proptest::collection::vec(0u32..60, 0..50),
            shards_log2 in 0u32..5,
        ) {
            let store = Store::with_shards(1 << 20, 1 << shards_log2);
            let mut model = std::collections::HashMap::<Vec<u8>, (Vec<u8>, u32)>::new();
            for (i, (op, keyn, vlen)) in writes.into_iter().enumerate() {
                let key = format!("k{keyn}").into_bytes();
                let value = vec![b'a' + (i % 26) as u8; vlen];
                let before = store.get(&key);
                let written = match (op, &before) {
                    (1, Some(held)) => {
                        let cas = store.cas(&key, &value, keyn, held.cas, None);
                        prop_assert_eq!(cas, CasOutcome::Stored);
                        let stale = store.cas(&key, b"stale", keyn, held.cas, None);
                        prop_assert_eq!(stale, CasOutcome::Exists);
                        value
                    }
                    (2 | 3, _) => {
                        // 99 + 1 and 100 - 1 change the value's length.
                        let (from, to) = if op == 2 { (99, 100) } else { (100, 99) };
                        store.set(&key, from.to_string().as_bytes(), keyn, false);
                        let got = store.arith(&key, 1, op == 3);
                        prop_assert_eq!(got, ArithOutcome::Value(to));
                        to.to_string().into_bytes()
                    }
                    _ => {
                        store.set(&key, &value, keyn, false);
                        value
                    }
                };
                let old = model.insert(key, (written, keyn));
                prop_assert_eq!(before.map(|v| (v.data.to_vec(), v.flags)), old);
            }
            let keys: Vec<Vec<u8>> =
                queried.iter().map(|n| format!("k{n}").into_bytes()).collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            let mut lent = Vec::new();
            store.get_each(refs.iter().copied(), |key, hit| {
                lent.push((key, hit.map(|v| (v.data.to_vec(), v.flags))));
            });
            for (key, hit) in lent {
                prop_assert_eq!(hit.as_ref(), model.get(key), "key {:?}", key);
            }
            let batched = store.get_multi(&refs);
            let reference = store.get_multi_reference(&refs);
            prop_assert_eq!(batched, reference);
        }
    }

    #[test]
    fn delete_and_len() {
        let store = Store::new(1 << 20);
        store.set(b"a", b"1", 0, false);
        store.set(b"b", b"2", 0, false);
        assert_eq!(store.len(), 2);
        assert!(store.delete(b"a"));
        assert!(!store.delete(b"a"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().deletes, 1);
    }

    #[test]
    fn eviction_under_pressure_keeps_budget() {
        // Small budget; hammer it with many entries.
        let store = Store::with_shards(8 * 1024, 4);
        for i in 0..1000u32 {
            let key = format!("key-{i}");
            store.set(key.as_bytes(), &[0u8; 10], 0, false);
        }
        assert!(store.mem_used() <= 8 * 1024);
        let s = store.stats();
        assert!(s.evictions > 0, "pressure should evict");
        assert!(s.curr_items < 1000);
    }

    /// More accesses than one 2^16-access window, all on one shard.
    const BUSY_SHARD_ACCESSES: u32 = (1 << 16) + 1024;

    #[test]
    fn reads_keep_a_hot_key_resident_on_a_busy_shard() {
        // LRU order sees every read however busy the shard: the key read
        // most outlives the new keys that force evictions after it.
        let store = Store::with_shards(16 * 1024, 1);
        store.set(b"hot", b"v", 0, false);
        for i in 0..BUSY_SHARD_ACCESSES {
            if i % 4 == 0 {
                assert!(store.get(b"hot").is_some());
            } else {
                store.get(format!("cold-{}", i % 64).as_bytes());
            }
        }
        for i in 0..2_000u32 {
            store.set(format!("new-{i}").as_bytes(), &[0u8; 10], 0, false);
            assert!(
                store.get(b"hot").is_some(),
                "hot key evicted after {i} new keys"
            );
        }
        assert!(store.stats().evictions > 0, "new keys must force evictions");
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let store = Arc::new(Store::new(1 << 22));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let key = format!("t{t}-k{i}");
                        assert!(matches!(
                            store.set(key.as_bytes(), key.as_bytes(), t, false),
                            SetOutcome::Stored { .. }
                        ));
                        let v = store.get(key.as_bytes()).unwrap();
                        assert_eq!(&v.data[..], key.as_bytes());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.len(), 8 * 500);
        let s = store.stats();
        assert_eq!(s.sets, 4000);
        assert_eq!(s.hits, 4000);
        assert_eq!(s.misses, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        Store::with_shards(1024, 3);
    }

    #[test]
    fn arith_outcomes_are_counted() {
        // Regression: `Store::arith` used to record no stats at all.
        let store = Store::new(1 << 20);
        store.set(b"n", b"10", 0, false);
        store.set(b"txt", b"hello", 0, false);
        assert!(matches!(
            store.arith(b"n", 5, false),
            ArithOutcome::Value(15)
        ));
        assert!(matches!(
            store.arith(b"n", 1, false),
            ArithOutcome::Value(16)
        ));
        assert!(matches!(
            store.arith(b"n", 6, true),
            ArithOutcome::Value(10)
        ));
        assert!(matches!(
            store.arith(b"missing", 1, false),
            ArithOutcome::NotFound
        ));
        assert!(matches!(
            store.arith(b"missing", 1, true),
            ArithOutcome::NotFound
        ));
        assert!(matches!(
            store.arith(b"txt", 1, false),
            ArithOutcome::NonNumeric
        ));
        let s = store.stats();
        assert_eq!(s.incr_hits, 2);
        assert_eq!(s.decr_hits, 1);
        assert_eq!(s.incr_misses, 1);
        assert_eq!(s.decr_misses, 1);
        assert_eq!(s.arith_non_numeric, 1);
        // incr/decr rewrite the value, so they count as mutations too:
        // 2 plain sets + 3 successful ariths.
        assert_eq!(s.sets, 5);
    }

    #[test]
    fn store_expiry_on_virtual_time() {
        use crate::clock::TestClock;
        use std::time::Duration;

        let clock = TestClock::new();
        let store = Store::with_clock(1 << 20, 4, clock.clone().into());
        store.set_with_ttl(b"a", b"1", 0, false, Some(Duration::from_secs(5)));
        store.set_with_ttl(b"b", b"2", 0, true, Some(Duration::from_secs(5)));
        store.set(b"c", b"3", 0, false);
        assert_eq!(store.len(), 3);
        clock.advance(Duration::from_secs(6));
        // Expired entries linger until touched or swept…
        assert!(store.get(b"a").is_none());
        // …and a sweep reclaims the rest (the pinned one included, which
        // no lookup path would ever remove for us here).
        assert_eq!(store.sweep_expired(), 1);
        assert_eq!(store.len(), 1);
        assert!(store.get(b"c").is_some());
    }

    #[test]
    fn sweep_reclaims_expired_entries_on_a_busy_shard() {
        use crate::clock::TestClock;
        use std::time::Duration;

        let clock = TestClock::new();
        let store = Store::with_clock(1 << 20, 1, clock.clone().into());
        store.set_with_ttl(b"t", b"1", 0, false, Some(Duration::from_secs(5)));
        store.set(b"keep", b"2", 0, false);
        for _ in 0..BUSY_SHARD_ACCESSES {
            store.get(b"keep");
        }
        clock.advance(Duration::from_secs(6));
        assert_eq!(store.sweep_expired(), 1);
        assert_eq!(store.len(), 1);
        assert!(store.get(b"keep").is_some());
    }
}
