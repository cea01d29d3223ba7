//! One store shard: a byte-budgeted LRU hash table with pinning, CAS,
//! arithmetic operations and TTL expiry — the memcached feature surface
//! the paper's §IV atomic-operation schemes build on.
//!
//! All time comes from an injected [`Clock`]: expiry is a pure function
//! of the clock's ticks (see INVARIANTS.md "Clock invariant"), so TTL
//! behaviour is fully deterministic under a
//! [`TestClock`](crate::clock::TestClock) and the xtask R2 lint keeps
//! this file wall-clock-free.
//!
//! Lookups go through `KeyIndex`, an open-addressed slot index keyed by
//! a precomputed xxh64 of the key. The same hash the parent
//! [`Store`](crate::Store) computes to route a key to a shard is reused
//! for the in-shard probe, so the one-pass read
//! ([`Store::get_each`](crate::Store::get_each)) hashes every key
//! exactly once end to end.

use crate::clock::{duration_to_ticks, Clock, LazyTick, Tick};
use rnb_hash::xxhash::xxh64;
use std::sync::Arc;
use std::time::Duration;

const NIL: usize = usize::MAX;

/// Seed for key hashing. Chosen once; must differ from placement seeds so
/// shard choice does not correlate with RnB server choice in tests.
pub(crate) const KEY_HASH_SEED: u64 = 0x5348_4152_4421;

/// The one hash every key pays: the store's shard selection *and* the
/// in-shard index probe both consume this value.
pub(crate) fn key_hash(key: &[u8]) -> u64 {
    xxh64(key, KEY_HASH_SEED)
}

/// Fixed bookkeeping cost charged per entry on top of key/value bytes
/// (hash-table slot, list links, refcount — memcached charges ~50–60
/// bytes similarly).
pub const ENTRY_OVERHEAD: usize = 64;

/// Result of a `set`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOutcome {
    /// Stored; `evicted` entries were dropped to make room.
    Stored {
        /// Number of live LRU entries evicted by this set (expired
        /// entries reclaimed on the way are not counted — they were
        /// already dead).
        evicted: usize,
    },
    /// The entry cannot fit even after evicting every unpinned entry.
    OutOfMemory,
}

/// Result of a `cas` (compare-and-swap) — memcached semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// The token matched; the value was replaced.
    Stored,
    /// The entry changed since the token was issued.
    Exists,
    /// No such entry.
    NotFound,
    /// The replacement does not fit in memory.
    OutOfMemory,
}

/// Result of `incr`/`decr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOutcome {
    /// New value after the operation.
    Value(u64),
    /// No such entry (memcached does not auto-create on incr).
    NotFound,
    /// The stored value is not an unsigned decimal integer.
    NonNumeric,
}

/// A value as returned by `get`: cheaply clonable bytes plus the
/// client-opaque flags word memcached round-trips and the CAS token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    /// The stored bytes.
    pub data: Arc<[u8]>,
    /// Opaque flags stored with the value.
    pub flags: u32,
    /// Compare-and-swap token: changes on every successful mutation.
    pub cas: u64,
}

/// A hit lent out of its shard while the shard's guard is held (see
/// [`Store::get_each`](crate::Store::get_each)): the same fields as a
/// [`Value`], borrowed, so reading a hit clones nothing.
#[derive(Debug, Clone, Copy)]
pub struct ValueRef<'a> {
    /// The stored bytes (derefs to `[u8]`).
    pub data: &'a Arc<[u8]>,
    /// Opaque flags stored with the value.
    pub flags: u32,
    /// Compare-and-swap token.
    pub cas: u64,
}

impl ValueRef<'_> {
    /// An owned [`Value`] sharing the bytes (one refcount increment).
    pub fn to_value(self) -> Value {
        Value {
            data: Arc::clone(self.data),
            flags: self.flags,
            cas: self.cas,
        }
    }
}

#[derive(Debug)]
struct Node {
    key: Box<[u8]>,
    value: Arc<[u8]>,
    /// [`key_hash`] of `key`, stored so probes compare 8 bytes before
    /// touching key bytes and rehashes never recompute.
    hash: u64,
    flags: u32,
    cas: u64,
    expires_at: Option<Tick>,
    pinned: bool,
    prev: usize,
    next: usize,
}

impl Node {
    fn expired(&self, now: Tick) -> bool {
        self.expires_at.is_some_and(|t| t <= now)
    }
}

/// Bucket value: no entry here, probe chains may stop.
const EMPTY: usize = 0;
/// Bucket value: an entry was removed here, probe chains continue.
const TOMB: usize = 1;
/// Multiplier spreading the stored hash across bucket space (Fibonacci
/// hashing). Needed because all keys in one shard share their low hash
/// bits (the parent store routed them here by `hash & shard_mask`), so
/// raw low bits would cluster pathologically.
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

fn probe_start(hash: u64, mask: usize) -> usize {
    // The multiply-shift keeps only well-mixed upper product bits, which
    // shards do not share.
    ((hash.wrapping_mul(SPREAD) >> 32) as usize) & mask
}

/// Open-addressed (linear-probe, tombstone) index from key hash to node
/// slot: the map half of the classic "hash table + intrusive LRU list"
/// pair. The hash is computed by the caller exactly once and stored in
/// the node, which is what lets a read skip per-key rehashing entirely.
#[derive(Debug, Default)]
struct KeyIndex {
    /// `EMPTY`, `TOMB`, or `slot + 2`. Length is a power of two (or zero
    /// before the first insert); at least one bucket is always `EMPTY`,
    /// so probe loops terminate.
    buckets: Vec<usize>,
    /// Live entries.
    live: usize,
    /// Tombstones left by removals (cleared on rehash).
    tombs: usize,
}

impl KeyIndex {
    fn len(&self) -> usize {
        self.live
    }

    /// Find the node slot holding `key` (whose [`key_hash`] is `hash`).
    fn find(&self, hash: u64, key: &[u8], nodes: &[Node]) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = probe_start(hash, mask);
        loop {
            match self.buckets[i] {
                EMPTY => return None,
                TOMB => {}
                v => {
                    let slot = v - 2;
                    if nodes[slot].hash == hash && *nodes[slot].key == *key {
                        return Some(slot);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert `slot` under `hash`. The key must be absent — callers
    /// always [`find`](KeyIndex::find) first; a duplicate insert would
    /// shadow the existing entry.
    fn insert(&mut self, hash: u64, slot: usize, nodes: &[Node]) {
        self.maybe_grow(nodes);
        let mask = self.buckets.len() - 1;
        let mut i = probe_start(hash, mask);
        loop {
            match self.buckets[i] {
                EMPTY => {
                    self.buckets[i] = slot + 2;
                    self.live += 1;
                    return;
                }
                TOMB => {
                    self.buckets[i] = slot + 2;
                    self.tombs -= 1;
                    self.live += 1;
                    return;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Remove the bucket pointing at `slot` (`hash` is the node's stored
    /// hash, so the probe starts on the right chain).
    fn remove_slot(&mut self, hash: u64, slot: usize) {
        if self.buckets.is_empty() {
            return;
        }
        let mask = self.buckets.len() - 1;
        let mut i = probe_start(hash, mask);
        loop {
            match self.buckets[i] {
                EMPTY => {
                    debug_assert!(false, "KeyIndex: removed slot not on its probe chain");
                    return;
                }
                v if v == slot + 2 => {
                    self.buckets[i] = TOMB;
                    self.live -= 1;
                    self.tombs += 1;
                    return;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Iterate the node slots of every live entry (arbitrary order).
    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.buckets.iter().filter_map(|&v| v.checked_sub(2))
    }

    /// Grow/rehash so at least one bucket stays `EMPTY` and probe chains
    /// stay short: rebuild once occupancy (live + tombstones) reaches
    /// 7/8, sizing so live load lands at ≤ 3/4.
    fn maybe_grow(&mut self, nodes: &[Node]) {
        let cap = self.buckets.len();
        if cap == 0 {
            self.buckets = vec![EMPTY; 8];
            return;
        }
        if (self.live + self.tombs + 1) * 8 <= cap * 7 {
            return;
        }
        let mut new_cap = cap;
        while (self.live + 1) * 4 > new_cap * 3 {
            new_cap *= 2;
        }
        let mask = new_cap - 1;
        let mut fresh = vec![EMPTY; new_cap];
        for &v in &self.buckets {
            let Some(slot) = v.checked_sub(2) else {
                continue;
            };
            let mut i = probe_start(nodes[slot].hash, mask);
            while fresh[i] != EMPTY {
                i = (i + 1) & mask;
            }
            fresh[i] = v;
        }
        self.buckets = fresh;
        self.tombs = 0;
    }
}

/// A single-threaded LRU hash table with a byte budget. Pinned entries
/// never appear on the LRU list and are never evicted (they back RnB's
/// distinguished copies).
#[derive(Debug)]
pub struct Shard {
    index: KeyIndex,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    mem_used: usize,
    /// Bytes held by unpinned (evictable) entries — kept in sync so fit
    /// checks are O(1).
    unpinned_bytes: usize,
    mem_limit: usize,
    /// Monotonic CAS-token source.
    cas_counter: u64,
    /// Injected time source; every expiry decision reads this.
    clock: Clock,
}

fn entry_cost(key: &[u8], value: &[u8]) -> usize {
    key.len() + value.len() + ENTRY_OVERHEAD
}

impl Shard {
    /// A shard with a byte budget, expiring against real time.
    pub fn new(mem_limit: usize) -> Self {
        Self::with_clock(mem_limit, Clock::real())
    }

    /// A shard whose TTL expiry reads `clock` — pass a
    /// [`TestClock`](crate::clock::TestClock)-backed clock to drive
    /// expiry deterministically.
    pub fn with_clock(mem_limit: usize, clock: Clock) -> Self {
        Shard {
            index: KeyIndex::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            mem_used: 0,
            unpinned_bytes: 0,
            mem_limit,
            cas_counter: 0,
            clock,
        }
    }

    /// Entries resident (expired entries linger until a lookup, a
    /// [`sweep_expired`](Shard::sweep_expired) or memory pressure
    /// reclaims them).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Bytes accounted as used.
    pub fn mem_used(&self) -> usize {
        self.mem_used
    }

    /// The byte budget.
    pub fn mem_limit(&self) -> usize {
        self.mem_limit
    }

    /// The lookup step every read takes: resolve, lazily expire, promote
    /// unpinned hits, lend the value. `hash` must be [`key_hash`] of
    /// `key` (the store computed it to pick this shard) and `now` the
    /// tick the caller's whole transaction reads at, which only an entry
    /// with a deadline makes it read.
    pub(crate) fn lookup(
        &mut self,
        hash: u64,
        key: &[u8],
        now: &mut LazyTick<'_>,
    ) -> Option<ValueRef<'_>> {
        let idx = self.index.find(hash, key, &self.nodes)?;
        if self.nodes[idx].expires_at.is_some_and(|t| t <= now.get()) {
            self.remove_slot(idx);
            return None;
        }
        if !self.nodes[idx].pinned {
            self.unlink(idx);
            self.push_front(idx);
        }
        let node = &self.nodes[idx];
        Some(ValueRef {
            data: &node.value,
            flags: node.flags,
            cas: node.cas,
        })
    }

    /// Look up `key`, promoting unpinned hits to most-recently-used.
    /// Expired entries are removed lazily and report as misses.
    pub fn get(&mut self, key: &[u8]) -> Option<Value> {
        let now = self.clock.now();
        self.lookup(key_hash(key), key, &mut LazyTick::at(now))
            .map(ValueRef::to_value)
    }

    /// Presence probe without LRU promotion (expired entries report
    /// absent but are left for lazy removal).
    pub fn contains(&self, key: &[u8]) -> bool {
        let now = self.clock.now();
        self.contains_at(key, now)
    }

    /// [`contains`](Shard::contains) against an explicit tick.
    fn contains_at(&self, key: &[u8], now: Tick) -> bool {
        self.index
            .find(key_hash(key), key, &self.nodes)
            .is_some_and(|idx| !self.nodes[idx].expired(now))
    }

    /// The current tick of the injected clock: the batched write path
    /// reads it once per touched shard (every entry of the sub-batch
    /// shares the tick).
    pub(crate) fn now(&self) -> Tick {
        self.clock.now()
    }

    /// Store `key` → `value`, evicting LRU entries as needed.
    pub fn set(&mut self, key: &[u8], value: &[u8], flags: u32, pinned: bool) -> SetOutcome {
        self.set_full(key, value, flags, pinned, None)
    }

    /// [`Shard::set`] with an optional TTL (memcached `exptime`). A zero
    /// TTL stores an already-expired entry (memcached's negative-exptime
    /// semantics: stored, then immediately invisible).
    pub fn set_full(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        pinned: bool,
        ttl: Option<Duration>,
    ) -> SetOutcome {
        let now = self.clock.now();
        self.set_full_at(key, value, flags, pinned, ttl, now)
    }

    /// [`set_full`](Shard::set_full) against an explicit tick, so a
    /// conditional write decides and stores at the same instant.
    fn set_full_at(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        pinned: bool,
        ttl: Option<Duration>,
        now: Tick,
    ) -> SetOutcome {
        self.set_full_hashed(key_hash(key), key, value, flags, pinned, ttl, now)
    }

    /// [`set_full_at`](Shard::set_full_at) with the key's hash supplied
    /// by the caller. The batched write path hashes every key once while
    /// grouping it by shard, so re-hashing here would double the per-key
    /// hashing cost of a burst.
    #[allow(clippy::too_many_arguments)] // set_full_at's surface plus the precomputed hash
    pub(crate) fn set_full_hashed(
        &mut self,
        hash: u64,
        key: &[u8],
        value: &[u8],
        flags: u32,
        pinned: bool,
        ttl: Option<Duration>,
        now: Tick,
    ) -> SetOutcome {
        debug_assert_eq!(hash, key_hash(key), "caller-supplied hash mismatch");
        let new_cost = entry_cost(key, value);
        let expires_at = ttl.map(|d| now.saturating_add(duration_to_ticks(d)));

        // An expired entry under this key is reclaimed up front, so the
        // overwrite path below only ever sees live entries and the store
        // behaves exactly as if the entry had already been swept.
        let mut existing = self.index.find(hash, key, &self.nodes);
        if let Some(idx) = existing {
            if self.nodes[idx].expired(now) {
                self.remove_slot(idx);
                existing = None;
            }
        }

        if let Some(idx) = existing {
            // Overwrite. Fit check: everything except this entry and other
            // pinned entries is evictable; expired entries are reclaimed
            // before concluding the write cannot fit.
            if self.overwrite_would_oom(idx, new_cost) {
                self.sweep_expired_except(now, idx);
                if self.overwrite_would_oom(idx, new_cost) {
                    return SetOutcome::OutOfMemory;
                }
            }
            let old_cost = entry_cost(&self.nodes[idx].key, &self.nodes[idx].value);
            self.mem_used = self.mem_used - old_cost + new_cost;
            if !self.nodes[idx].pinned {
                self.unpinned_bytes -= old_cost;
                self.unlink(idx);
            }
            self.cas_counter += 1;
            let node = &mut self.nodes[idx];
            // Same-length overwrite with no outstanding Value clones can
            // reuse the allocation in place — this keeps a steady-state
            // `set` loop allocation-free. Outstanding clones force a
            // fresh Arc (they must keep observing the old bytes).
            match Arc::get_mut(&mut node.value) {
                Some(buf) if buf.len() == value.len() => buf.copy_from_slice(value),
                _ => node.value = Arc::from(value),
            }
            node.flags = flags;
            node.pinned = pinned;
            node.cas = self.cas_counter;
            node.expires_at = expires_at;
            if !pinned {
                self.unpinned_bytes += new_cost;
                self.push_front(idx);
            }
            let evicted = self.evict_to_fit(idx, now);
            return SetOutcome::Stored { evicted };
        }

        // New entry. Irreducible bytes = pinned bytes (+ the new entry).
        // Expired pinned entries are never evictable, so they are swept
        // before an insert is refused for memory.
        if self.mem_used - self.unpinned_bytes + new_cost > self.mem_limit {
            self.sweep_expired_except(now, NIL);
            if self.mem_used - self.unpinned_bytes + new_cost > self.mem_limit {
                return SetOutcome::OutOfMemory;
            }
        }
        self.cas_counter += 1;
        let idx = self.alloc(Node {
            key: Box::from(key),
            value: Arc::from(value),
            hash,
            flags,
            cas: self.cas_counter,
            expires_at,
            pinned,
            prev: NIL,
            next: NIL,
        });
        self.index.insert(hash, idx, &self.nodes);
        self.mem_used += new_cost;
        if !pinned {
            self.unpinned_bytes += new_cost;
            self.push_front(idx);
        }
        let evicted = self.evict_to_fit(idx, now);
        SetOutcome::Stored { evicted }
    }

    /// Would overwriting `idx` with a `new_cost`-byte entry exceed the
    /// budget even after evicting every other unpinned entry?
    fn overwrite_would_oom(&self, idx: usize, new_cost: usize) -> bool {
        let node = &self.nodes[idx];
        let old_cost = entry_cost(&node.key, &node.value);
        let other_unpinned = self.unpinned_bytes - if node.pinned { 0 } else { old_cost };
        let other_pinned = self.mem_used - old_cost - other_unpinned;
        other_pinned + new_cost > self.mem_limit
    }

    /// `add`: store only if `key` is absent (memcached semantics).
    /// Returns `None` if the key already exists.
    pub fn add(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        ttl: Option<Duration>,
    ) -> Option<SetOutcome> {
        let now = self.clock.now();
        if self.contains_at(key, now) {
            return None;
        }
        Some(self.set_full_at(key, value, flags, false, ttl, now))
    }

    /// `replace`: store only if `key` is present. Returns `None` if the
    /// key does not exist.
    pub fn replace(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        ttl: Option<Duration>,
    ) -> Option<SetOutcome> {
        let now = self.clock.now();
        if !self.contains_at(key, now) {
            return None;
        }
        // Preserve the pinned status on replace.
        let pinned = self
            .index
            .find(key_hash(key), key, &self.nodes)
            .map(|idx| self.nodes[idx].pinned)
            .unwrap_or(false);
        Some(self.set_full_at(key, value, flags, pinned, ttl, now))
    }

    /// `cas`: replace only if the entry's token still equals `token`.
    pub fn cas(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        token: u64,
        ttl: Option<Duration>,
    ) -> CasOutcome {
        let now = self.clock.now();
        match self.index.find(key_hash(key), key, &self.nodes) {
            None => CasOutcome::NotFound,
            Some(idx) if self.nodes[idx].expired(now) => {
                self.remove_slot(idx);
                CasOutcome::NotFound
            }
            Some(idx) => {
                if self.nodes[idx].cas != token {
                    return CasOutcome::Exists;
                }
                let pinned = self.nodes[idx].pinned;
                match self.set_full_at(key, value, flags, pinned, ttl, now) {
                    SetOutcome::Stored { .. } => CasOutcome::Stored,
                    SetOutcome::OutOfMemory => CasOutcome::OutOfMemory,
                }
            }
        }
    }

    /// `incr`/`decr`: treat the value as an ASCII unsigned decimal and
    /// add `delta` (saturating at 0 for decrements, wrapping at `u64` for
    /// increments — memcached semantics). The remaining TTL is preserved
    /// exactly in clock ticks: the lookup, the TTL-remaining computation
    /// and the rewrite all read one `now`.
    pub fn arith(&mut self, key: &[u8], delta: u64, negative: bool) -> ArithOutcome {
        let now = self.clock.now();
        let Some(current) = self
            .lookup(key_hash(key), key, &mut LazyTick::at(now))
            .map(ValueRef::to_value)
        else {
            return ArithOutcome::NotFound;
        };
        let Ok(text) = std::str::from_utf8(&current.data) else {
            return ArithOutcome::NonNumeric;
        };
        let Ok(n) = text.trim().parse::<u64>() else {
            return ArithOutcome::NonNumeric;
        };
        let next = if negative {
            n.saturating_sub(delta)
        } else {
            n.wrapping_add(delta)
        };
        let rendered = next.to_string();
        let (pinned, ttl_left) = match self.index.find(key_hash(key), key, &self.nodes) {
            Some(idx) => (
                self.nodes[idx].pinned,
                self.nodes[idx]
                    .expires_at
                    .map(|t| Duration::from_nanos(t.saturating_sub(now))),
            ),
            None => (false, None),
        };
        match self.set_full_at(
            key,
            rendered.as_bytes(),
            current.flags,
            pinned,
            ttl_left,
            now,
        ) {
            SetOutcome::Stored { .. } => ArithOutcome::Value(next),
            // A numeric value is never larger than what it replaces by
            // more than a few bytes; OOM here means the shard is pathological.
            SetOutcome::OutOfMemory => ArithOutcome::NonNumeric,
        }
    }

    /// Delete `key`; true if it was present.
    pub fn delete(&mut self, key: &[u8]) -> bool {
        self.delete_hashed(key_hash(key), key)
    }

    /// [`delete`](Shard::delete) with the key's hash supplied by the
    /// caller (the batched delete path hashes each key once while
    /// grouping by shard).
    pub(crate) fn delete_hashed(&mut self, hash: u64, key: &[u8]) -> bool {
        debug_assert_eq!(hash, key_hash(key), "caller-supplied hash mismatch");
        match self.index.find(hash, key, &self.nodes) {
            Some(idx) => {
                self.remove_slot(idx);
                true
            }
            None => false,
        }
    }

    /// Drop slot `idx` entirely: index entry, byte accounting, LRU
    /// membership, node storage.
    fn remove_slot(&mut self, idx: usize) {
        self.index.remove_slot(self.nodes[idx].hash, idx);
        let cost = entry_cost(&self.nodes[idx].key, &self.nodes[idx].value);
        self.mem_used -= cost;
        if !self.nodes[idx].pinned {
            self.unpinned_bytes -= cost;
            self.unlink(idx);
        }
        self.release(idx);
    }

    /// Eagerly reclaim every expired entry — pinned ones included, which
    /// lazy lookup-path removal never reaches on its own. Returns how
    /// many entries were reclaimed; `len()` and `mem_used()` reflect the
    /// sweep immediately.
    pub fn sweep_expired(&mut self) -> usize {
        let now = self.clock.now();
        self.sweep_expired_except(now, NIL)
    }

    /// [`sweep_expired`](Shard::sweep_expired) skipping slot `protect`
    /// (`NIL` protects nothing): the entry a `set` just wrote may itself
    /// carry a zero TTL, and eviction must never drop the entry being
    /// stored.
    fn sweep_expired_except(&mut self, now: Tick, protect: usize) -> usize {
        let expired: Vec<usize> = self
            .index
            .slots()
            .filter(|&idx| idx != protect && self.nodes[idx].expired(now))
            .collect();
        for &idx in &expired {
            self.remove_slot(idx);
        }
        expired.len()
    }

    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    fn release(&mut self, idx: usize) {
        self.nodes[idx].key = Box::from(&b""[..]);
        self.nodes[idx].value = Arc::from(&b""[..]);
        self.free.push(idx);
    }

    /// Evict entries (never `protect`) until within budget: expired
    /// entries anywhere in the shard are reclaimed first, then live LRU
    /// entries from the tail. Returns how many **live** entries were
    /// evicted.
    fn evict_to_fit(&mut self, protect: usize, now: Tick) -> usize {
        if self.mem_used <= self.mem_limit {
            return 0;
        }
        // Dead entries must never force live data out: reclaim them
        // before touching the LRU tail (§V overbooking relies on LRUs
        // dropping *cold* replicas, not fresh ones). `now` is the tick
        // the enclosing write runs at, so log replays evict identically.
        self.sweep_expired_except(now, protect);
        let mut evicted = 0;
        while self.mem_used > self.mem_limit && self.tail != NIL {
            let victim = if self.tail == protect {
                self.nodes[self.tail].prev
            } else {
                self.tail
            };
            if victim == NIL {
                break;
            }
            self.remove_slot(victim);
            evicted += 1;
        }
        evicted
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use proptest::prelude::*;

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key{i}").into_bytes(),
            format!("value{i}").into_bytes(),
        )
    }

    /// A shard on a virtual timeline plus the handle that advances it.
    fn shard_with_clock(mem_limit: usize) -> (Shard, TestClock) {
        let clock = TestClock::new();
        (Shard::with_clock(mem_limit, clock.clone().into()), clock)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = Shard::new(10_000);
        let (k, v) = kv(1);
        assert_eq!(s.set(&k, &v, 42, false), SetOutcome::Stored { evicted: 0 });
        let got = s.get(&k).unwrap();
        assert_eq!(&got.data[..], &v[..]);
        assert_eq!(got.flags, 42);
        assert!(s.get(b"missing").is_none());
    }

    #[test]
    fn overwrite_updates_value_and_memory() {
        let mut s = Shard::new(10_000);
        s.set(b"k", b"short", 0, false);
        let used_short = s.mem_used();
        s.set(b"k", b"a-much-longer-value", 7, false);
        assert!(s.mem_used() > used_short);
        assert_eq!(s.len(), 1);
        assert_eq!(&s.get(b"k").unwrap().data[..], b"a-much-longer-value");
        assert_eq!(s.get(b"k").unwrap().flags, 7);
        s.set(b"k", b"x", 0, false);
        assert!(s.mem_used() < used_short);
    }

    #[test]
    fn same_length_overwrite_keeps_old_clones_intact() {
        // The in-place Arc reuse must never mutate bytes a Value clone
        // still observes.
        let mut s = Shard::new(10_000);
        s.set(b"k", b"aaaa", 0, false);
        let held = s.get(b"k").unwrap();
        s.set(b"k", b"bbbb", 0, false);
        assert_eq!(&held.data[..], b"aaaa", "old clone mutated in place");
        assert_eq!(&s.get(b"k").unwrap().data[..], b"bbbb");
        // With no clone outstanding the same-length overwrite reuses the
        // allocation (observable only via the alloc-counter test, but the
        // semantics must hold either way).
        drop(held);
        s.set(b"k", b"cccc", 7, false);
        let got = s.get(b"k").unwrap();
        assert_eq!(&got.data[..], b"cccc");
        assert_eq!(got.flags, 7);
    }

    #[test]
    fn index_survives_insert_delete_churn() {
        // Tombstone reuse and rehash under repeated fill/drain cycles.
        let mut s = Shard::new(1 << 20);
        for round in 0..4u32 {
            for i in 0..300u32 {
                let k = format!("r{round}-k{i}").into_bytes();
                assert!(matches!(
                    s.set(&k, b"v", 0, false),
                    SetOutcome::Stored { .. }
                ));
            }
            for i in 0..300u32 {
                let k = format!("r{round}-k{i}").into_bytes();
                assert!(s.contains(&k), "{round}/{i} lost after churn");
                assert!(s.delete(&k));
            }
            assert_eq!(s.len(), 0);
            assert_eq!(s.mem_used(), 0);
        }
    }

    #[test]
    fn eviction_is_lru_order() {
        // Budget for ~3 small entries.
        let cost = entry_cost(b"key0", b"value0");
        let mut s = Shard::new(3 * cost);
        for i in 0..3 {
            let (k, v) = kv(i);
            s.set(&k, &v, 0, false);
        }
        assert_eq!(s.len(), 3);
        // Touch key0 so key1 is LRU.
        s.get(b"key0");
        let (k, v) = kv(3);
        match s.set(&k, &v, 0, false) {
            SetOutcome::Stored { evicted } => assert_eq!(evicted, 1),
            o => panic!("{o:?}"),
        }
        assert!(s.contains(b"key0"));
        assert!(!s.contains(b"key1"), "key1 should be evicted");
        assert!(s.contains(b"key2") && s.contains(b"key3"));
        assert!(s.mem_used() <= s.mem_limit());
    }

    #[test]
    fn pinned_entries_survive_pressure() {
        let cost = entry_cost(b"key0", b"value0");
        let mut s = Shard::new(2 * cost);
        s.set(b"key0", b"value0", 0, true); // pinned
        for i in 1..10 {
            let (k, v) = kv(i);
            s.set(&k, &v, 0, false);
        }
        assert!(s.contains(b"key0"), "pinned entry evicted");
        assert!(s.mem_used() <= s.mem_limit());
        assert_eq!(&s.get(b"key0").unwrap().data[..], b"value0");
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut s = Shard::new(100);
        let big = vec![0u8; 200];
        assert_eq!(s.set(b"big", &big, 0, false), SetOutcome::OutOfMemory);
        assert_eq!(s.len(), 0);
        assert_eq!(s.mem_used(), 0);
    }

    #[test]
    fn pinned_set_rejected_when_pinned_bytes_exhaust_budget() {
        let cost = entry_cost(b"key0", b"value0");
        let mut s = Shard::new(cost + 10);
        s.set(b"key0", b"value0", 0, true);
        let (k, v) = kv(1);
        assert_eq!(s.set(&k, &v, 0, true), SetOutcome::OutOfMemory);
        assert!(s.contains(b"key0"));
        // An unpinned entry also cannot fit (only 10 spare bytes).
        assert_eq!(s.set(&k, &v, 0, false), SetOutcome::OutOfMemory);
    }

    #[test]
    fn unpinned_set_can_displace_unpinned_but_not_pinned() {
        let cost = entry_cost(b"key0", b"value0");
        let mut s = Shard::new(2 * cost);
        s.set(b"key0", b"value0", 0, true);
        s.set(b"key1", b"value1", 0, false);
        // key2 fits by evicting key1.
        match s.set(b"key2", b"value2", 0, false) {
            SetOutcome::Stored { evicted } => assert_eq!(evicted, 1),
            o => panic!("{o:?}"),
        }
        assert!(s.contains(b"key0") && s.contains(b"key2") && !s.contains(b"key1"));
    }

    #[test]
    fn delete_frees_memory() {
        let mut s = Shard::new(10_000);
        s.set(b"a", b"1", 0, false);
        s.set(b"b", b"2", 0, true);
        let used = s.mem_used();
        assert!(s.delete(b"a"));
        assert!(s.mem_used() < used);
        assert!(!s.delete(b"a"));
        assert!(s.delete(b"b"), "pinned entries are deletable");
        assert_eq!(s.len(), 0);
        assert_eq!(s.mem_used(), 0);
    }

    #[test]
    fn slot_reuse_after_delete() {
        let mut s = Shard::new(10_000);
        s.set(b"a", b"1", 0, false);
        s.delete(b"a");
        s.set(b"b", b"2", 0, false);
        s.set(b"c", b"3", 0, false);
        assert_eq!(s.len(), 2);
        assert_eq!(&s.get(b"b").unwrap().data[..], b"2");
        assert_eq!(&s.get(b"c").unwrap().data[..], b"3");
    }

    #[test]
    fn unpin_via_overwrite() {
        let cost = entry_cost(b"key0", b"value0");
        let mut s = Shard::new(2 * cost);
        s.set(b"key0", b"value0", 0, true);
        s.set(b"key0", b"value0", 0, false); // unpin
        for i in 1..6 {
            let (k, v) = kv(i);
            s.set(&k, &v, 0, false);
        }
        assert!(
            !s.contains(b"key0"),
            "unpinned entry should become evictable"
        );
    }

    #[test]
    fn cas_tokens_change_per_mutation() {
        let mut s = Shard::new(10_000);
        s.set(b"k", b"v1", 0, false);
        let c1 = s.get(b"k").unwrap().cas;
        s.set(b"k", b"v2", 0, false);
        let c2 = s.get(b"k").unwrap().cas;
        assert_ne!(c1, c2);
        // Stale token rejected, fresh token accepted.
        assert_eq!(s.cas(b"k", b"v3", 0, c1, None), CasOutcome::Exists);
        assert_eq!(s.cas(b"k", b"v3", 0, c2, None), CasOutcome::Stored);
        assert_eq!(&s.get(b"k").unwrap().data[..], b"v3");
        assert_eq!(s.cas(b"missing", b"x", 0, 1, None), CasOutcome::NotFound);
    }

    #[test]
    fn add_and_replace_semantics() {
        let mut s = Shard::new(10_000);
        assert!(
            s.replace(b"k", b"v", 0, None).is_none(),
            "replace needs existing"
        );
        assert!(s.add(b"k", b"v1", 0, None).is_some());
        assert!(
            s.add(b"k", b"v2", 0, None).is_none(),
            "add refuses existing"
        );
        assert_eq!(&s.get(b"k").unwrap().data[..], b"v1");
        assert!(s.replace(b"k", b"v3", 0, None).is_some());
        assert_eq!(&s.get(b"k").unwrap().data[..], b"v3");
    }

    #[test]
    fn replace_preserves_pinning() {
        let cost = entry_cost(b"key0", b"value0");
        let mut s = Shard::new(2 * cost);
        s.set(b"key0", b"value0", 0, true);
        s.replace(b"key0", b"value1", 0, None).unwrap();
        for i in 1..6 {
            let (k, v) = kv(i);
            s.set(&k, &v, 0, false);
        }
        assert!(s.contains(b"key0"), "pinning lost through replace");
    }

    #[test]
    fn incr_decr_semantics() {
        let mut s = Shard::new(10_000);
        assert_eq!(s.arith(b"n", 5, false), ArithOutcome::NotFound);
        s.set(b"n", b"10", 0, false);
        assert_eq!(s.arith(b"n", 5, false), ArithOutcome::Value(15));
        assert_eq!(
            s.arith(b"n", 20, true),
            ArithOutcome::Value(0),
            "decr saturates at 0"
        );
        assert_eq!(&s.get(b"n").unwrap().data[..], b"0");
        s.set(b"txt", b"hello", 0, false);
        assert_eq!(s.arith(b"txt", 1, false), ArithOutcome::NonNumeric);
    }

    // ---- TTL behaviour, all on virtual time: no sleeps, no flakiness ----

    #[test]
    fn ttl_expiry_is_lazy_but_effective() {
        let (mut s, clock) = shard_with_clock(10_000);
        s.set_full(b"fleeting", b"v", 0, false, Some(Duration::from_secs(15)));
        s.set(b"lasting", b"v", 0, false);
        assert!(s.contains(b"fleeting"));
        clock.advance(Duration::from_secs(14));
        assert!(s.contains(b"fleeting"), "one second of TTL still left");
        clock.advance(Duration::from_secs(1));
        assert!(!s.contains(b"fleeting"), "expired entry still visible");
        assert!(s.get(b"fleeting").is_none());
        assert!(s.contains(b"lasting"));
        // The lazy removal freed the memory.
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ttl_boundary_is_exact_on_virtual_time() {
        let (mut s, clock) = shard_with_clock(10_000);
        s.set_full(b"k", b"v", 0, false, Some(Duration::from_nanos(100)));
        clock.advance(Duration::from_nanos(99));
        assert!(s.contains(b"k"), "one tick before the deadline");
        clock.advance(Duration::from_nanos(1));
        assert!(!s.contains(b"k"), "expiry is inclusive at the deadline");
    }

    #[test]
    fn zero_ttl_stores_an_already_expired_entry() {
        let (mut s, _clock) = shard_with_clock(10_000);
        assert!(matches!(
            s.set_full(b"k", b"v", 0, false, Some(Duration::ZERO)),
            SetOutcome::Stored { .. }
        ));
        assert!(s.get(b"k").is_none(), "zero TTL is immediately invisible");
    }

    #[test]
    fn cas_on_expired_entry_is_not_found() {
        let (mut s, clock) = shard_with_clock(10_000);
        s.set_full(b"k", b"v", 0, false, Some(Duration::from_secs(10)));
        let token = s.get(b"k").unwrap().cas;
        clock.advance(Duration::from_secs(25));
        assert_eq!(s.cas(b"k", b"w", 0, token, None), CasOutcome::NotFound);
    }

    #[test]
    fn incr_preserves_remaining_ttl() {
        let (mut s, clock) = shard_with_clock(10_000);
        s.set_full(b"n", b"1", 0, false, Some(Duration::from_secs(40)));
        assert_eq!(s.arith(b"n", 1, false), ArithOutcome::Value(2));
        clock.advance(Duration::from_secs(60));
        assert!(s.get(b"n").is_none(), "incr must not clear the expiry");
    }

    #[test]
    fn incr_preserves_remaining_ttl_exactly() {
        // Virtual time makes the TTL arithmetic exact: an incr 40 s into
        // a 100 s TTL must leave the original 100 s deadline in place.
        let (mut s, clock) = shard_with_clock(10_000);
        s.set_full(b"n", b"1", 0, false, Some(Duration::from_secs(100)));
        clock.advance(Duration::from_secs(40));
        assert_eq!(s.arith(b"n", 1, false), ArithOutcome::Value(2));
        clock.advance(Duration::from_secs(59));
        assert!(s.contains(b"n"), "99 s in: one second of TTL remains");
        clock.advance(Duration::from_secs(1));
        assert!(!s.contains(b"n"), "100 s in: the original deadline holds");
    }

    #[test]
    fn expired_entries_are_reclaimed_before_live_evictions() {
        // key1 expires mid-list; the subsequent over-budget set must
        // reclaim it instead of evicting the live LRU tail (key0).
        let cost = entry_cost(b"key0", b"value0");
        let (mut s, clock) = shard_with_clock(3 * cost);
        s.set(b"key0", b"value0", 0, false);
        s.set_full(b"key1", b"value1", 0, false, Some(Duration::from_secs(1)));
        s.set(b"key2", b"value2", 0, false);
        clock.advance(Duration::from_secs(2));
        match s.set(b"key3", b"value3", 0, false) {
            SetOutcome::Stored { evicted } => {
                assert_eq!(evicted, 0, "the expired entry made room, not an eviction");
            }
            o => panic!("{o:?}"),
        }
        assert!(s.contains(b"key0"), "live LRU tail wrongly evicted");
        assert!(!s.contains(b"key1"));
        assert!(s.contains(b"key2") && s.contains(b"key3"));
        assert!(s.mem_used() <= s.mem_limit());
    }

    #[test]
    fn expired_pinned_entry_cannot_force_oom() {
        // A pinned entry is never on the LRU list, so before the sweep an
        // expired pinned entry held its budget forever and forced OOM.
        let cost = entry_cost(b"key0", b"value0");
        let (mut s, clock) = shard_with_clock(cost + 10);
        s.set_full(b"key0", b"value0", 0, true, Some(Duration::from_secs(1)));
        clock.advance(Duration::from_secs(2));
        assert!(matches!(
            s.set(b"key1", b"value1", 0, true),
            SetOutcome::Stored { .. }
        ));
        assert!(s.contains(b"key1"));
        assert!(!s.contains(b"key0"));
        assert!(s.mem_used() <= s.mem_limit());
    }

    #[test]
    fn expired_pinned_entry_reclaimed_on_overwrite_fit_check() {
        // Same as above through the overwrite path: a live entry grows
        // and only fits once the dead pinned entry is reclaimed.
        let small = entry_cost(b"grow", b"x");
        let big_val = vec![b'y'; 64];
        let big = entry_cost(b"grow", &big_val);
        let pinned_cost = entry_cost(b"dead", b"value0");
        let (mut s, clock) = shard_with_clock(pinned_cost + big - 1);
        s.set_full(b"dead", b"value0", 0, true, Some(Duration::from_secs(1)));
        s.set(b"grow", b"x", 0, false);
        assert_eq!(s.mem_used(), pinned_cost + small);
        clock.advance(Duration::from_secs(2));
        assert!(matches!(
            s.set(b"grow", &big_val, 0, false),
            SetOutcome::Stored { .. }
        ));
        assert!(!s.contains(b"dead"));
        assert_eq!(&s.get(b"grow").unwrap().data[..], &big_val[..]);
    }

    #[test]
    fn sweep_expired_reclaims_pinned_and_unpinned() {
        let (mut s, clock) = shard_with_clock(10_000);
        s.set_full(b"a", b"1", 0, false, Some(Duration::from_secs(1)));
        s.set_full(b"b", b"2", 0, true, Some(Duration::from_secs(1)));
        s.set(b"c", b"3", 0, false);
        assert_eq!(s.len(), 3);
        assert_eq!(s.sweep_expired(), 0, "nothing expired yet");
        clock.advance(Duration::from_secs(2));
        let used_before = s.mem_used();
        assert_eq!(s.sweep_expired(), 2);
        assert_eq!(s.len(), 1, "len() reflects the sweep");
        assert!(s.mem_used() < used_before, "mem_used() reflects the sweep");
        assert!(s.contains(b"c"));
    }

    #[test]
    fn pin_via_overwrite() {
        let cost = entry_cost(b"key0", b"value0");
        let mut s = Shard::new(2 * cost);
        s.set(b"key0", b"value0", 0, false);
        s.set(b"key0", b"value0", 0, true); // pin it
        for i in 1..6 {
            let (k, v) = kv(i);
            s.set(&k, &v, 0, false);
        }
        assert!(s.contains(b"key0"), "pinned entry evicted");
    }

    // Memory accounting invariant under random operation sequences:
    // mem_used equals the sum of entry costs, pinned entries survive,
    // and the budget is never exceeded after a successful set.
    proptest! {
        #[test]
        fn accounting_invariants(
            ops in proptest::collection::vec(
                (0u8..3, 0u32..12, 0usize..40, any::<bool>()), 1..120),
            limit in 300usize..1200,
        ) {
            let mut s = Shard::new(limit);
            let mut reference: std::collections::HashMap<Vec<u8>, (usize, bool)> =
                Default::default();
            for (op, keyn, vlen, pinned) in ops {
                let key = format!("k{keyn}").into_bytes();
                match op {
                    0 => {
                        let value = vec![b'x'; vlen];
                        match s.set(&key, &value, 0, pinned) {
                            SetOutcome::Stored { .. } => {
                                reference.insert(key.clone(), (entry_cost(&key, &value), pinned));
                                prop_assert!(s.mem_used() <= limit);
                            }
                            SetOutcome::OutOfMemory => {}
                        }
                    }
                    1 => {
                        let present = s.contains(&key);
                        prop_assert_eq!(s.get(&key).is_some(), present);
                    }
                    _ => {
                        s.delete(&key);
                        reference.remove(&key);
                    }
                }
                // Evictions may have removed unpinned reference entries;
                // prune reference to what the shard still holds and check
                // pinned entries are all still present.
                for (k, (_, pinned)) in reference.iter() {
                    if *pinned {
                        prop_assert!(s.contains(k), "pinned entry lost");
                    }
                }
                reference.retain(|k, _| s.contains(k));
                let expect_used: usize = reference.values().map(|(c, _)| *c).sum();
                prop_assert_eq!(s.mem_used(), expect_used);
                prop_assert_eq!(s.len(), reference.len());
            }
        }
    }

    // TTL accounting under random operations on virtual time: after any
    // advance, expiry is exactly "deadline tick <= now" — a pure function
    // of injected time, never of wall time.
    proptest! {
        #[test]
        fn expiry_is_a_pure_function_of_injected_time(
            ops in proptest::collection::vec(
                (0u32..8, any::<bool>(), 0u64..50, 0u64..30), 1..80),
        ) {
            let (mut s, clock) = shard_with_clock(1 << 20);
            let mut deadlines: std::collections::HashMap<Vec<u8>, Option<u64>> =
                Default::default();
            let mut now = 0u64;
            for (keyn, has_ttl, ttl_raw, advance_ns) in ops {
                let key = format!("k{keyn}").into_bytes();
                let ttl_ns = has_ttl.then_some(ttl_raw);
                let ttl = ttl_ns.map(Duration::from_nanos);
                s.set_full(&key, b"v", 0, false, ttl);
                deadlines.insert(key, ttl_ns.map(|t| now + t));
                clock.advance(Duration::from_nanos(advance_ns));
                now += advance_ns;
                for (k, deadline) in &deadlines {
                    let alive_by_model = match deadline {
                        None => true,
                        Some(d) => *d > now,
                    };
                    prop_assert_eq!(
                        s.contains(k),
                        alive_by_model,
                        "key {:?} at tick {}: model and shard disagree",
                        k, now
                    );
                }
            }
        }
    }
}
