//! The sharded concurrent store: a power-of-two `Vec` of
//! `Mutex<Shard>`, each shard one byte-budgeted LRU that every read and
//! write refreshes.
//!
//! The read path is batch-first: [`Store::get_multi`] groups keys by
//! shard in a pooled [`GetScratch`], locks each touched shard exactly
//! once, and hands the whole per-shard batch to
//! [`Shard`]'s `get_many` — one lock round-trip and one clock
//! read per shard instead of one per key. The seed per-key loop survives
//! as [`Store::get_multi_reference`], the oracle the proptests and the
//! `BENCH_store.json` benchmark compare against.

use crate::clock::Clock;
use crate::shard::{self, ArithOutcome, CasOutcome, SetOutcome, Shard, Value};
use crate::stats::{StatsSnapshot, StoreStats};
use parking_lot::Mutex;
use std::cell::RefCell;
#[cfg(test)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Default shard count (power of two; one mutex each keeps contention low
/// at the connection counts the micro-benchmarks use).
pub const DEFAULT_SHARDS: usize = 16;

/// Pooled scratch for [`Store::get_multi_with`]: per-shard batch lists
/// reset by epoch stamping (the same O(1)-reset idiom as `rnb-cover`'s
/// label interner), so a serving loop reuses one allocation set across
/// requests of any shape.
#[derive(Debug, Default)]
pub struct GetScratch {
    /// Current request number; buckets with an older stamp are logically
    /// empty.
    epoch: u64,
    /// Shard indices touched by the current request, in first-touch
    /// order.
    touched: Vec<usize>,
    /// One bucket per shard: `(caller position, key hash)` pairs.
    buckets: Vec<ShardBucket>,
}

#[derive(Debug, Default)]
struct ShardBucket {
    epoch: u64,
    entries: Vec<(usize, u64)>,
}

impl GetScratch {
    /// An empty scratch; buckets are sized on first use.
    pub const fn new() -> Self {
        GetScratch {
            epoch: 0,
            touched: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// Start a new request against a store with `shards` shards.
    fn begin(&mut self, shards: usize) {
        if self.buckets.len() != shards {
            self.buckets.clear();
            self.buckets.resize_with(shards, ShardBucket::default);
        }
        self.epoch = self.epoch.wrapping_add(1);
        self.touched.clear();
    }

    /// Record that `pos`-th key (hash `h`) lands on shard `sh`.
    fn push(&mut self, sh: usize, pos: usize, h: u64) {
        let bucket = &mut self.buckets[sh];
        if bucket.epoch != self.epoch {
            bucket.epoch = self.epoch;
            bucket.entries.clear();
            self.touched.push(sh);
        }
        bucket.entries.push((pos, h));
    }
}

/// One entry of a batched write ([`Store::set_multi`]): the same
/// parameters as [`Store::set_with_ttl`], borrowed so a serving loop can
/// point straight into its network buffer.
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
    stats: StoreStats,
    /// Shard-mutex acquisitions made by the batched get, set and delete
    /// paths; the regression tests assert one per shard touched.
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

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// Fetch many keys in one transaction (one `get_transactions` tick,
    /// one lookup per key), batching shard work: each touched shard is
    /// locked exactly once. Results land in the caller's key order.
    ///
    /// This convenience form allocates the result vector and borrows a
    /// thread-local [`GetScratch`]; serving loops should hold their own
    /// scratch and output buffer and call [`Store::get_multi_into`].
    pub fn get_multi(&self, keys: &[&[u8]]) -> Vec<Option<Value>> {
        thread_local! {
            static SCRATCH: RefCell<GetScratch> = const { RefCell::new(GetScratch::new()) };
        }
        let mut out = Vec::new();
        SCRATCH.with(|scratch| {
            self.get_multi_with(&mut scratch.borrow_mut(), keys.len(), |i| keys[i], &mut out);
        });
        out
    }

    /// [`Store::get_multi`] writing into caller-owned buffers: `out` is
    /// cleared and refilled in key order. Reusing `scratch` and `out`
    /// across calls makes the steady-state read path allocation-free.
    pub fn get_multi_into(
        &self,
        scratch: &mut GetScratch,
        keys: &[&[u8]],
        out: &mut Vec<Option<Value>>,
    ) {
        self.get_multi_with(scratch, keys.len(), |i| keys[i], out);
    }

    /// The core batched multi-get: keys are supplied by position through
    /// `key_at` (called O(1) times per key), so callers can hand out
    /// sub-slices of a network buffer without materialising a `&[&[u8]]`.
    /// Fills `out[i]` with the result for `key_at(i)`, `0 <= i < count`,
    /// locking each touched shard exactly once. Returns the hit count.
    pub fn get_multi_with<'k, F>(
        &self,
        scratch: &mut GetScratch,
        count: usize,
        key_at: F,
        out: &mut Vec<Option<Value>>,
    ) -> usize
    where
        F: Fn(usize) -> &'k [u8],
    {
        self.stats.get_txns.fetch_add(1, Ordering::Relaxed);
        self.stats.gets.fetch_add(count as u64, Ordering::Relaxed);
        self.stats.count_get_batch(count);
        out.clear();
        out.resize(count, None);
        scratch.begin(self.shards.len());
        for i in 0..count {
            let h = shard::key_hash(key_at(i));
            scratch.push((h & self.mask) as usize, i, h);
        }
        let mut hits = 0usize;
        for &sh in &scratch.touched {
            let entries = scratch.buckets[sh]
                .entries
                .iter()
                .map(|&(pos, h)| (h, key_at(pos), pos));
            #[cfg(test)]
            self.multi_lock_acquisitions.fetch_add(1, Ordering::Relaxed);
            hits += self.shards[sh].lock().get_many(entries, out);
        }
        self.stats.hits.fetch_add(hits as u64, Ordering::Relaxed);
        self.stats
            .misses
            .fetch_add((count - hits) as u64, Ordering::Relaxed);
        hits
    }

    /// The seed per-key multi-get: one shard-lock acquisition (and one
    /// clock read) **per key**. Kept verbatim as the correctness oracle
    /// for the batched path and as the baseline the store benchmark's
    /// speedup ratios are measured against. Stats accounting matches
    /// [`Store::get_multi`] exactly.
    pub fn get_multi_reference(&self, keys: &[&[u8]]) -> Vec<Option<Value>> {
        self.stats.get_txns.fetch_add(1, Ordering::Relaxed);
        self.stats
            .gets
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.stats.count_get_batch(keys.len());
        let mut hits = 0u64;
        let out: Vec<Option<Value>> = keys
            .iter()
            .map(|key| {
                let v = self.shard_of(key).lock().get(key);
                if v.is_some() {
                    hits += 1;
                }
                v
            })
            .collect();
        self.stats.hits.fetch_add(hits, Ordering::Relaxed);
        self.stats
            .misses
            .fetch_add(keys.len() as u64 - hits, Ordering::Relaxed);
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

    /// Store a whole batch, locking each touched shard at most once.
    ///
    /// The write-side analogue of [`Store::get_multi_with`]: keys are
    /// grouped by shard through the pooled `scratch`, then each touched
    /// shard's sub-batch is applied under a single lock acquisition and
    /// a single clock read. `outcomes` is cleared and refilled in entry
    /// order. Entries are applied in batch order within each
    /// shard, so duplicate keys resolve exactly as a sequential
    /// [`Store::set_with_ttl`] loop would (later entry wins); stats
    /// accounting matches the sequential loop per op.
    pub fn set_multi(
        &self,
        scratch: &mut GetScratch,
        entries: &[SetEntry<'_>],
        outcomes: &mut Vec<SetOutcome>,
    ) {
        self.set_multi_with(scratch, entries.len(), |i| entries[i], outcomes);
    }

    /// [`Store::set_multi`] with entries supplied by position through
    /// `entry_at` (called O(1) times per entry), so callers — the
    /// server's burst drain in particular — can hand out sub-slices of a
    /// network buffer without materialising a `&[SetEntry]`.
    pub fn set_multi_with<'k, F>(
        &self,
        scratch: &mut GetScratch,
        count: usize,
        entry_at: F,
        outcomes: &mut Vec<SetOutcome>,
    ) where
        F: Fn(usize) -> SetEntry<'k>,
    {
        outcomes.clear();
        outcomes.resize(count, SetOutcome::Stored { evicted: 0 });
        scratch.begin(self.shards.len());
        for i in 0..count {
            let h = shard::key_hash(entry_at(i).key);
            scratch.push((h & self.mask) as usize, i, h);
        }
        for &sh in &scratch.touched {
            #[cfg(test)]
            self.multi_lock_acquisitions.fetch_add(1, Ordering::Relaxed);
            let mut guard = self.shards[sh].lock();
            let now = guard.now();
            for &(pos, h) in &scratch.buckets[sh].entries {
                let e = entry_at(pos);
                outcomes[pos] =
                    guard.set_full_hashed(h, e.key, e.value, e.flags, e.pinned, e.ttl, now);
            }
        }
        // Stats are folded over the batch first — one atomic add per
        // counter instead of one per entry.
        let (mut stored, mut evicted, mut oom) = (0u64, 0u64, 0u64);
        for outcome in outcomes.iter() {
            match *outcome {
                SetOutcome::Stored { evicted: e } => {
                    stored += 1;
                    evicted += e as u64;
                }
                SetOutcome::OutOfMemory => oom += 1,
            }
        }
        self.stats.sets.fetch_add(stored, Ordering::Relaxed);
        self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        self.stats.oom_errors.fetch_add(oom, Ordering::Relaxed);
    }

    /// Delete a whole batch, locking each touched shard at most once;
    /// `deleted` is cleared and refilled in key order (`true` where the
    /// key existed). Stats match a sequential [`Store::delete`] loop.
    pub fn delete_multi(&self, scratch: &mut GetScratch, keys: &[&[u8]], deleted: &mut Vec<bool>) {
        self.delete_multi_with(scratch, keys.len(), |i| keys[i], deleted);
    }

    /// [`Store::delete_multi`] with keys supplied by position through
    /// `key_at`, the accessor form used by the server's burst drain.
    pub fn delete_multi_with<'k, F>(
        &self,
        scratch: &mut GetScratch,
        count: usize,
        key_at: F,
        deleted: &mut Vec<bool>,
    ) where
        F: Fn(usize) -> &'k [u8],
    {
        deleted.clear();
        deleted.resize(count, false);
        scratch.begin(self.shards.len());
        for i in 0..count {
            let h = shard::key_hash(key_at(i));
            scratch.push((h & self.mask) as usize, i, h);
        }
        for &sh in &scratch.touched {
            #[cfg(test)]
            self.multi_lock_acquisitions.fetch_add(1, Ordering::Relaxed);
            let mut guard = self.shards[sh].lock();
            for &(pos, h) in &scratch.buckets[sh].entries {
                deleted[pos] = guard.delete_hashed(h, key_at(pos));
            }
        }
        let removed = deleted.iter().filter(|&&d| d).count() as u64;
        self.stats.deletes.fetch_add(removed, Ordering::Relaxed);
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

    #[test]
    fn get_multi_locks_at_most_shards_touched() {
        // The tentpole invariant: lock acquisitions <= min(M, shards
        // touched), never one per key.
        let store = Store::with_shards(1 << 20, 8);
        let keys: Vec<Vec<u8>> = (0..100u32).map(|i| format!("k{i}").into_bytes()).collect();
        for k in &keys {
            store.set(k, b"v", 0, false);
        }
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let distinct: std::collections::HashSet<usize> =
            refs.iter().map(|k| store.shard_index_of(k)).collect();
        assert!(distinct.len() > 1, "keys should span several shards");

        store.multi_lock_acquisitions.store(0, Ordering::Relaxed);
        let out = store.get_multi(&refs);
        let locks = store.multi_lock_acquisitions.load(Ordering::Relaxed);
        assert!(out.iter().all(Option::is_some));
        assert_eq!(locks as usize, distinct.len(), "one lock per touched shard");
        assert!(locks as usize <= 8);
        assert!(locks as usize <= refs.len());
    }

    #[test]
    fn set_multi_locks_at_most_shards_touched() {
        // The write-side tentpole invariant: a batched store takes one
        // lock per touched shard, never one per key.
        let store = Store::with_shards(1 << 20, 8);
        let keys: Vec<Vec<u8>> = (0..100u32).map(|i| format!("w{i}").into_bytes()).collect();
        let values: Vec<Vec<u8>> = (0..100u32).map(|i| format!("v{i}").into_bytes()).collect();
        let entries: Vec<SetEntry> = keys
            .iter()
            .zip(&values)
            .enumerate()
            .map(|(i, (k, v))| SetEntry {
                key: k,
                value: v,
                flags: i as u32,
                pinned: false,
                ttl: None,
            })
            .collect();
        let distinct: std::collections::HashSet<usize> =
            keys.iter().map(|k| store.shard_index_of(k)).collect();
        assert!(distinct.len() > 1, "keys should span several shards");

        let mut scratch = GetScratch::new();
        let mut outcomes = Vec::new();
        store.multi_lock_acquisitions.store(0, Ordering::Relaxed);
        store.set_multi(&mut scratch, &entries, &mut outcomes);
        let locks = store.multi_lock_acquisitions.load(Ordering::Relaxed);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, SetOutcome::Stored { .. })));
        assert_eq!(locks as usize, distinct.len(), "one lock per touched shard");

        // Everything landed, in entry order, with per-op stats parity.
        for (i, k) in keys.iter().enumerate() {
            let v = store.get(k).expect("batched set lost a key");
            assert_eq!(v.data[..], values[i][..]);
            assert_eq!(v.flags, i as u32);
        }
        assert_eq!(store.stats().sets, 100);

        // delete_multi honours the same invariant.
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut deleted = Vec::new();
        store.multi_lock_acquisitions.store(0, Ordering::Relaxed);
        store.delete_multi(&mut scratch, &refs, &mut deleted);
        let locks = store.multi_lock_acquisitions.load(Ordering::Relaxed);
        assert_eq!(locks as usize, distinct.len(), "one lock per touched shard");
        assert!(deleted.iter().all(|&d| d));
        assert_eq!(store.stats().deletes, 100);
        assert_eq!(store.len(), 0);
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

    proptest! {
        /// `set_multi` + `delete_multi` leave exactly the store state a
        /// sequential per-key loop leaves, for any key/value mix
        /// (duplicates included) on any shard count.
        #[test]
        fn set_multi_matches_sequential_loop(
            writes in proptest::collection::vec((0u32..30, 0usize..40, any::<bool>()), 0..50),
            shards_log2 in 0u32..5,
        ) {
            let batched = Store::with_shards(1 << 20, 1 << shards_log2);
            let sequential = Store::with_shards(1 << 20, 1 << shards_log2);
            let keys: Vec<Vec<u8>> =
                writes.iter().map(|(n, _, _)| format!("k{n}").into_bytes()).collect();
            let values: Vec<Vec<u8>> =
                writes.iter().map(|(_, vlen, _)| vec![b'x'; *vlen]).collect();
            let entries: Vec<SetEntry> = writes
                .iter()
                .zip(keys.iter().zip(&values))
                .map(|((n, _, pinned), (k, v))| SetEntry {
                    key: k, value: v, flags: *n, pinned: *pinned, ttl: None,
                })
                .collect();
            let mut scratch = GetScratch::new();
            let mut outcomes = Vec::new();
            batched.set_multi(&mut scratch, &entries, &mut outcomes);
            let seq_outcomes: Vec<SetOutcome> = entries
                .iter()
                .map(|e| sequential.set_with_ttl(e.key, e.value, e.flags, e.pinned, e.ttl))
                .collect();
            prop_assert_eq!(&outcomes, &seq_outcomes);

            // Identical state under identical reads.
            let check: Vec<Vec<u8>> = (0..30u32).map(|n| format!("k{n}").into_bytes()).collect();
            let check_refs: Vec<&[u8]> = check.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(
                batched.get_multi(&check_refs),
                sequential.get_multi(&check_refs)
            );

            // Delete half the universe through both paths.
            let victims: Vec<&[u8]> =
                check.iter().step_by(2).map(Vec::as_slice).collect();
            let mut deleted = Vec::new();
            batched.delete_multi(&mut scratch, &victims, &mut deleted);
            let seq_deleted: Vec<bool> =
                victims.iter().map(|k| sequential.delete(k)).collect();
            prop_assert_eq!(&deleted, &seq_deleted);
            prop_assert_eq!(
                batched.get_multi(&check_refs),
                sequential.get_multi(&check_refs)
            );
            let (a, b) = (batched.stats(), sequential.stats());
            prop_assert_eq!(a.sets, b.sets);
            prop_assert_eq!(a.deletes, b.deletes);
            prop_assert_eq!(a.oom_errors, b.oom_errors);
        }
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
        /// The batched multi-get is result-identical to the retained
        /// per-key reference path, for any key mix (hits, misses,
        /// duplicates) on any shard count.
        #[test]
        fn get_multi_matches_reference(
            stored in proptest::collection::vec((0u32..40, 0usize..30), 0..40),
            queried in proptest::collection::vec(0u32..60, 0..50),
            shards_log2 in 0u32..5,
        ) {
            let store = Store::with_shards(1 << 20, 1 << shards_log2);
            for (keyn, vlen) in &stored {
                let key = format!("k{keyn}").into_bytes();
                store.set(&key, &vec![b'x'; *vlen], *keyn, false);
            }
            let keys: Vec<Vec<u8>> =
                queried.iter().map(|n| format!("k{n}").into_bytes()).collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
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
