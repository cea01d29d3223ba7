//! The sharded concurrent store.
//!
//! The read path is batch-first: [`Store::get_multi`] groups keys by
//! shard in a pooled [`GetScratch`], locks each touched shard exactly
//! once, and hands the whole per-shard batch to
//! [`Shard`]'s `get_many` — one lock round-trip and one clock
//! read per shard instead of one per key. The seed per-key loop survives
//! as [`Store::get_multi_reference`], the oracle the proptests and the
//! `BENCH_store.json` benchmark compare against.

use crate::clock::Clock;
use crate::replicated::{HotShard, WriteOp, WriteOutcome};
use crate::shard::{self, ArithOutcome, CasOutcome, SetOutcome, Shard, Value};
use crate::stats::{StatsSnapshot, StoreStats};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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

/// Promotion/demotion policy for flat-combining hot-shard replication
/// (see `replicated.rs` and DESIGN.md "Flat combining & hot-shard
/// replication").
///
/// Promotion is driven by cheap per-shard access counters: every
/// `window` store-wide accesses, each shard's share of the window is
/// inspected — a cold shard that absorbed at least `promote_accesses`
/// of them is promoted (its reads move to per-thread replicas, its
/// writes to the flat combiner), and a hot shard that fell below
/// `demote_accesses` is demoted back to the plain mutex path.
#[derive(Debug, Clone)]
pub struct HotConfig {
    /// Store-wide accesses per inspection window; `0` disables
    /// replication entirely (every shard stays on the mutex path).
    pub window: u64,
    /// Per-shard accesses within one window that trigger promotion.
    pub promote_accesses: u64,
    /// Hot shards seeing fewer accesses than this in a window cool down.
    pub demote_accesses: u64,
    /// Read replicas per hot shard (one per reader thread is ideal;
    /// threads round-robin across them).
    pub replicas: usize,
}

impl Default for HotConfig {
    /// Promote a shard that absorbs ≥ 1/4 of a 64Ki-access window
    /// (a uniform workload on 16 shards gives each ~1/16, so only a
    /// genuinely skewed hot spot qualifies); demote below 1/16.
    fn default() -> Self {
        let replicas = std::thread::available_parallelism()
            .map_or(4, usize::from)
            .min(8);
        HotConfig {
            window: 1 << 16,
            promote_accesses: 1 << 14,
            demote_accesses: 1 << 12,
            replicas,
        }
    }
}

impl HotConfig {
    /// No shard is ever promoted: the store behaves exactly like the
    /// pre-replication single-mutex-per-shard design. This is the
    /// baseline arm of the contended benchmark.
    pub fn disabled() -> Self {
        HotConfig {
            window: 0,
            promote_accesses: u64::MAX,
            demote_accesses: 0,
            replicas: 1,
        }
    }
}

/// Per-shard access counters, updated with relaxed atomics so they are
/// readable (and writable) without touching the shard's data mutex —
/// the promotion heuristic samples them on the hot path.
#[derive(Debug, Default)]
struct ShardCounters {
    /// Key lookups routed to this shard.
    gets: AtomicU64,
    /// Lookups that hit.
    hits: AtomicU64,
    /// Write operations routed to this shard.
    writes: AtomicU64,
    /// Accesses within the current promotion window (reset on roll).
    window: AtomicU64,
}

/// A plain-data reading of one shard's access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounterSnapshot {
    /// Key lookups routed to this shard.
    pub gets: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Write operations routed to this shard.
    pub writes: u64,
}

/// One shard slot: the data mutex, the lock-free access counters, and
/// the replication harness when the shard is hot. Lock order within a
/// slot is always `hot` (read/write) before `data` — promotion copies
/// replicas under both, which is what makes routing race-free.
///
/// `hinted_hot` is a relaxed mirror of `hot.is_some()` so the (common)
/// cold path never touches the `hot` RwLock at all. The hint is flipped
/// to `true` *while promotion still holds the data mutex*, so a direct
/// operation that re-checks the hint after acquiring the data mutex and
/// sees `false` is guaranteed to run before the replicas are copied —
/// its effect is captured by the copy, never lost.
struct ShardSlot {
    data: Mutex<Shard>,
    hot: RwLock<Option<Arc<HotShard>>>,
    hinted_hot: AtomicBool,
    counters: ShardCounters,
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
    slots: Vec<ShardSlot>,
    mask: u64,
    stats: Arc<StoreStats>,
    hot_cfg: HotConfig,
    /// Store-wide access counter driving the promotion windows.
    access_window: AtomicU64,
    /// Shard-mutex acquisitions made by the batched multi-get path; the
    /// regression tests assert it never exceeds the shards touched.
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
        Self::with_config(mem_limit, shards, clock, HotConfig::default())
    }

    /// The fully-explicit constructor: shard count, clock, and the
    /// hot-shard promotion policy ([`HotConfig::disabled`] pins every
    /// shard to the plain mutex path).
    pub fn with_config(mem_limit: usize, shards: usize, clock: Clock, hot_cfg: HotConfig) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two"
        );
        let per_shard = mem_limit / shards;
        Store {
            slots: (0..shards)
                .map(|_| ShardSlot {
                    data: Mutex::new(Shard::with_clock(per_shard, clock.clone())),
                    hot: RwLock::new(None),
                    hinted_hot: AtomicBool::new(false),
                    counters: ShardCounters::default(),
                })
                .collect(),
            mask: (shards - 1) as u64,
            stats: Arc::new(StoreStats::default()),
            hot_cfg,
            access_window: AtomicU64::new(0),
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
        self.slots.len()
    }

    /// One shard's access counters, read with relaxed atomics — no data
    /// lock is taken, so this is safe to sample from monitoring threads
    /// at any rate.
    pub fn shard_counters(&self, idx: usize) -> ShardCounterSnapshot {
        let c = &self.slots[idx & self.mask as usize].counters;
        ShardCounterSnapshot {
            gets: c.gets.load(Ordering::Relaxed),
            hits: c.hits.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
        }
    }

    /// Is shard `idx` currently promoted to replicated hot mode?
    pub fn shard_is_hot(&self, idx: usize) -> bool {
        self.slots[idx & self.mask as usize].hot.read().is_some()
    }

    /// Which shard index `key` routes to.
    fn shard_index_of(&self, key: &[u8]) -> usize {
        (shard::key_hash(key) & self.mask) as usize
    }

    /// Which shard index `key` routes to (test-only introspection for
    /// coverage assertions).
    #[cfg(test)]
    fn shard_index(&self, key: &[u8]) -> usize {
        self.shard_index_of(key)
    }

    /// Record `n` accesses against shard `sh` and roll the promotion
    /// window when the store-wide counter crosses a window boundary.
    /// Called before the shard's guards are taken, so promotion (which
    /// needs the write side of the `hot` lock) can never self-deadlock.
    fn note_accesses(&self, sh: usize, n: u64) {
        let window = self.hot_cfg.window;
        if window == 0 {
            // Promotion disabled: the window counters are never read
            // (`roll_window` never runs), so skip the RMWs entirely and
            // keep the disabled store's serving path tax-free.
            return;
        }
        self.slots[sh]
            .counters
            .window
            .fetch_add(n, Ordering::Relaxed);
        let prev = self.access_window.fetch_add(n, Ordering::Relaxed);
        if prev / window != (prev + n) / window {
            self.roll_window();
        }
    }

    /// Inspect every shard's share of the finished window: promote the
    /// skew winners, cool down hot shards whose traffic faded. Runs on
    /// the (single) thread that crossed the window boundary; concurrent
    /// rolls are harmless (promotion/demotion re-check under the write
    /// lock).
    fn roll_window(&self) {
        for slot in &self.slots {
            let seen = slot.counters.window.swap(0, Ordering::Relaxed);
            let is_hot = slot.hot.read().is_some();
            if !is_hot && seen >= self.hot_cfg.promote_accesses {
                self.promote(slot);
            } else if is_hot && seen < self.hot_cfg.demote_accesses {
                self.demote(slot);
            }
        }
    }

    /// Promote one shard: build its replication harness (replicas are
    /// copied under the data lock, so they start exactly in sync with
    /// the primary) and install it. Holding the `hot` write lock for the
    /// whole build excludes every reader/writer of the slot — from their
    /// next operation on, they route through the harness.
    fn promote(&self, slot: &ShardSlot) {
        let mut hot = slot.hot.write();
        if hot.is_some() {
            return;
        }
        let built = {
            let data = slot.data.lock();
            let built = Arc::new(HotShard::new(
                &data,
                self.hot_cfg.replicas,
                Arc::clone(&self.stats),
            ));
            // Publish the hint while still holding the data mutex: any
            // direct operation that acquires the mutex after this point
            // re-checks the hint and re-routes, so the replica copy
            // above can never miss a concurrent direct mutation.
            slot.hinted_hot.store(true, Ordering::Relaxed);
            built
        };
        *hot = Some(built);
        self.stats.hot_promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Demote one shard back to the plain mutex path. The primary (in
    /// `slot.data`) has every combined write applied, so dropping the
    /// harness loses nothing; the replicas and log are freed with the
    /// last in-flight `Arc`.
    fn demote(&self, slot: &ShardSlot) {
        let mut hot = slot.hot.write();
        if hot.take().is_some() {
            slot.hinted_hot.store(false, Ordering::Relaxed);
            self.stats.hot_demotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Route one write: through the flat combiner while the shard is
    /// hot, directly under the data mutex otherwise. The `hot` read
    /// guard is held across the whole operation — that is what makes
    /// promotion/demotion atomic with respect to in-flight writes (a
    /// promotion cannot copy replicas halfway through a direct write,
    /// and a combiner write cannot race a demotion's final state).
    fn apply_write<F>(
        &self,
        key: &[u8],
        hot_op: F,
        direct: impl FnOnce(&mut Shard) -> WriteOutcome,
    ) -> WriteOutcome
    where
        F: FnOnce() -> WriteOp,
    {
        let sh = self.shard_index_of(key);
        self.note_accesses(sh, 1);
        let slot = &self.slots[sh];
        slot.counters.writes.fetch_add(1, Ordering::Relaxed);
        if !slot.hinted_hot.load(Ordering::Relaxed) {
            // Cold fast path: no RwLock traffic. The hint is re-checked
            // under the data mutex (see ShardSlot) — a concurrent
            // promotion either waits for this write (and copies it) or
            // flips the hint first, in which case we fall through.
            let mut shard = slot.data.lock();
            if !slot.hinted_hot.load(Ordering::Relaxed) {
                return direct(&mut shard);
            }
        }
        let hot = slot.hot.read();
        if let Some(h) = hot.as_ref() {
            h.write(hot_op(), &slot.data)
        } else {
            let mut shard = slot.data.lock();
            direct(&mut shard)
        }
    }

    /// Fetch one key.
    pub fn get(&self, key: &[u8]) -> Option<Value> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        self.stats.get_txns.fetch_add(1, Ordering::Relaxed);
        let h = shard::key_hash(key);
        let sh = (h & self.mask) as usize;
        self.note_accesses(sh, 1);
        let slot = &self.slots[sh];
        let got = 'got: {
            if !slot.hinted_hot.load(Ordering::Relaxed) {
                // Cold fast path; hint re-checked under the data mutex
                // because `get` mutates (LRU order, expired removal) and
                // a promotion copying replicas mid-mutation would fork
                // primary and replica LRU state.
                let mut guard = slot.data.lock();
                if !slot.hinted_hot.load(Ordering::Relaxed) {
                    break 'got guard.get(key);
                }
            }
            let hot = slot.hot.read();
            if let Some(hs) = hot.as_ref() {
                self.stats.replica_reads.fetch_add(1, Ordering::Relaxed);
                let mut out = [None];
                hs.read_many(std::iter::once((h, key, 0usize)), &mut out);
                out[0].take()
            } else {
                slot.data.lock().get(key)
            }
        };
        slot.counters.gets.fetch_add(1, Ordering::Relaxed);
        match got {
            Some(v) => {
                slot.counters.hits.fetch_add(1, Ordering::Relaxed);
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
        scratch.begin(self.slots.len());
        for i in 0..count {
            let h = shard::key_hash(key_at(i));
            scratch.push((h & self.mask) as usize, i, h);
        }
        let mut hits = 0usize;
        for &sh in &scratch.touched {
            let slot = &self.slots[sh];
            let batch = scratch.buckets[sh].entries.len() as u64;
            self.note_accesses(sh, batch);
            let entries = scratch.buckets[sh]
                .entries
                .iter()
                .map(|&(pos, h)| (h, key_at(pos), pos));
            let shard_hits = 'serve: {
                if !slot.hinted_hot.load(Ordering::Relaxed) {
                    // Cold fast path (hint re-checked under the mutex,
                    // see ShardSlot): one lock per touched shard, as in
                    // the pre-replication design.
                    #[cfg(test)]
                    self.multi_lock_acquisitions.fetch_add(1, Ordering::Relaxed);
                    let mut guard = slot.data.lock();
                    if !slot.hinted_hot.load(Ordering::Relaxed) {
                        break 'serve guard.get_many(entries, out);
                    }
                }
                let hot = slot.hot.read();
                if let Some(hs) = hot.as_ref() {
                    // Hot shard: serve the whole sub-batch from this
                    // thread's replica — no shared mutex on the read path.
                    self.stats.replica_reads.fetch_add(batch, Ordering::Relaxed);
                    hs.read_many(entries, out)
                } else {
                    #[cfg(test)]
                    self.multi_lock_acquisitions.fetch_add(1, Ordering::Relaxed);
                    let mut guard = slot.data.lock();
                    guard.get_many(entries, out)
                }
            };
            slot.counters.gets.fetch_add(batch, Ordering::Relaxed);
            slot.counters
                .hits
                .fetch_add(shard_hits as u64, Ordering::Relaxed);
            hits += shard_hits;
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
                let v = self.slots[self.shard_index_of(key)].data.lock().get(key);
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
            .apply_write(
                key,
                || WriteOp::Set {
                    key: Arc::from(key),
                    value: Arc::from(value),
                    flags,
                    pinned,
                    ttl,
                },
                |shard| WriteOutcome::Set(shard.set_full(key, value, flags, pinned, ttl)),
            )
            .into_set();
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
    /// shard's sub-batch is applied under a single data-lock acquisition
    /// and a single clock read (cold shards), or enqueued into the flat
    /// combiner as one batch — one drained batch, one primary lock —
    /// while the shard is hot. `outcomes` is cleared and refilled in
    /// entry order. Entries are applied in batch order within each
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
        scratch.begin(self.slots.len());
        for i in 0..count {
            let h = shard::key_hash(entry_at(i).key);
            scratch.push((h & self.mask) as usize, i, h);
        }
        for &sh in &scratch.touched {
            let slot = &self.slots[sh];
            let bucket = &scratch.buckets[sh].entries;
            let batch = bucket.len() as u64;
            self.note_accesses(sh, batch);
            slot.counters.writes.fetch_add(batch, Ordering::Relaxed);
            'apply: {
                if !slot.hinted_hot.load(Ordering::Relaxed) {
                    // Cold fast path (hint re-checked under the mutex,
                    // see ShardSlot): one lock and one clock read for
                    // the whole sub-batch.
                    #[cfg(test)]
                    self.multi_lock_acquisitions.fetch_add(1, Ordering::Relaxed);
                    let mut guard = slot.data.lock();
                    if !slot.hinted_hot.load(Ordering::Relaxed) {
                        let now = guard.now();
                        for &(pos, h) in bucket {
                            let e = entry_at(pos);
                            outcomes[pos] = guard
                                .set_full_hashed(h, e.key, e.value, e.flags, e.pinned, e.ttl, now);
                        }
                        break 'apply;
                    }
                }
                let hot = slot.hot.read();
                if let Some(hs) = hot.as_ref() {
                    // Hot shard: the whole sub-batch enters the combiner
                    // queue before combining starts, so it drains as one
                    // batch — one log tick, one primary acquisition.
                    let mut hot_out = Vec::with_capacity(bucket.len());
                    hs.write_many(
                        bucket.iter().map(|&(pos, _)| {
                            let e = entry_at(pos);
                            WriteOp::Set {
                                key: Arc::from(e.key),
                                value: Arc::from(e.value),
                                flags: e.flags,
                                pinned: e.pinned,
                                ttl: e.ttl,
                            }
                        }),
                        &slot.data,
                        &mut hot_out,
                    );
                    for (&(pos, _), outcome) in bucket.iter().zip(hot_out) {
                        outcomes[pos] = outcome.into_set();
                    }
                } else {
                    #[cfg(test)]
                    self.multi_lock_acquisitions.fetch_add(1, Ordering::Relaxed);
                    let mut guard = slot.data.lock();
                    let now = guard.now();
                    for &(pos, h) in bucket {
                        let e = entry_at(pos);
                        outcomes[pos] =
                            guard.set_full_hashed(h, e.key, e.value, e.flags, e.pinned, e.ttl, now);
                    }
                }
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
        scratch.begin(self.slots.len());
        for i in 0..count {
            let h = shard::key_hash(key_at(i));
            scratch.push((h & self.mask) as usize, i, h);
        }
        for &sh in &scratch.touched {
            let slot = &self.slots[sh];
            let bucket = &scratch.buckets[sh].entries;
            let batch = bucket.len() as u64;
            self.note_accesses(sh, batch);
            slot.counters.writes.fetch_add(batch, Ordering::Relaxed);
            'apply: {
                if !slot.hinted_hot.load(Ordering::Relaxed) {
                    #[cfg(test)]
                    self.multi_lock_acquisitions.fetch_add(1, Ordering::Relaxed);
                    let mut guard = slot.data.lock();
                    if !slot.hinted_hot.load(Ordering::Relaxed) {
                        for &(pos, h) in bucket {
                            deleted[pos] = guard.delete_hashed(h, key_at(pos));
                        }
                        break 'apply;
                    }
                }
                let hot = slot.hot.read();
                if let Some(hs) = hot.as_ref() {
                    let mut hot_out = Vec::with_capacity(bucket.len());
                    hs.write_many(
                        bucket.iter().map(|&(pos, _)| WriteOp::Delete {
                            key: Arc::from(key_at(pos)),
                        }),
                        &slot.data,
                        &mut hot_out,
                    );
                    for (&(pos, _), outcome) in bucket.iter().zip(hot_out) {
                        deleted[pos] = outcome.into_deleted();
                    }
                } else {
                    #[cfg(test)]
                    self.multi_lock_acquisitions.fetch_add(1, Ordering::Relaxed);
                    let mut guard = slot.data.lock();
                    for &(pos, h) in bucket {
                        deleted[pos] = guard.delete_hashed(h, key_at(pos));
                    }
                }
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
        let outcome = self
            .apply_write(
                key,
                || WriteOp::Add {
                    key: Arc::from(key),
                    value: Arc::from(value),
                    flags,
                    ttl,
                },
                |shard| WriteOutcome::Conditional(shard.add(key, value, flags, ttl)),
            )
            .into_conditional();
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
        let outcome = self
            .apply_write(
                key,
                || WriteOp::Replace {
                    key: Arc::from(key),
                    value: Arc::from(value),
                    flags,
                    ttl,
                },
                |shard| WriteOutcome::Conditional(shard.replace(key, value, flags, ttl)),
            )
            .into_conditional();
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
        let outcome = self
            .apply_write(
                key,
                || WriteOp::Cas {
                    key: Arc::from(key),
                    value: Arc::from(value),
                    flags,
                    token,
                    ttl,
                },
                |shard| WriteOutcome::Cas(shard.cas(key, value, flags, token, ttl)),
            )
            .into_cas();
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
        let outcome = self
            .apply_write(
                key,
                || WriteOp::Arith {
                    key: Arc::from(key),
                    delta,
                    negative,
                },
                |shard| WriteOutcome::Arith(shard.arith(key, delta, negative)),
            )
            .into_arith();
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
        // Hot shards are skipped: sweeping the primary behind the
        // combiner's back would diverge it from the replicas (the removal
        // never enters the op log). Hot shards still expire entries lazily
        // on read/write, and a later sweep after demotion reclaims them.
        self.slots
            .iter()
            .map(|slot| {
                let hot = slot.hot.read();
                if hot.is_some() {
                    0
                } else {
                    slot.data.lock().sweep_expired()
                }
            })
            .sum()
    }

    /// Delete a key; true if it existed.
    pub fn delete(&self, key: &[u8]) -> bool {
        let deleted = self
            .apply_write(
                key,
                || WriteOp::Delete {
                    key: Arc::from(key),
                },
                |shard| WriteOutcome::Deleted(shard.delete(key)),
            )
            .into_deleted();
        if deleted {
            self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        }
        deleted
    }

    /// Entries across all shards.
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.data.lock().len()).sum()
    }

    /// True if the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes accounted across all shards.
    pub fn mem_used(&self) -> usize {
        self.slots.iter().map(|s| s.data.lock().mem_used()).sum()
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
            refs.iter().map(|k| store.shard_index(k)).collect();
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
            keys.iter().map(|k| store.shard_index(k)).collect();
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
            refs.iter().map(|k| store.shard_index(k)).collect();
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
    fn shard_counters_readable_without_data_lock() {
        let store = Store::with_shards(1 << 20, 1);
        store.set(b"k", b"v", 0, false);
        store.get(b"k");
        store.get(b"missing");
        store.get_multi(&[b"k", b"missing"]);
        let c = store.shard_counters(0);
        assert_eq!(c.writes, 1);
        assert_eq!(c.gets, 4);
        assert_eq!(c.hits, 2);
    }

    /// Drives a shard through the full lifecycle: cold → promoted (hot,
    /// replica reads + combined writes) → demoted back to the mutex path,
    /// with the data surviving each transition.
    #[test]
    fn hot_promotion_and_demotion_cycle() {
        let cfg = HotConfig {
            window: 64,
            promote_accesses: 32,
            demote_accesses: 16,
            replicas: 2,
        };
        let store = Store::with_config(1 << 20, 2, Clock::real(), cfg);

        // Find one key per shard so we can steer the access skew.
        let mut k0 = None;
        let mut k1 = None;
        for i in 0u32..64 {
            let key = format!("key-{i}").into_bytes();
            match store.shard_index(&key) {
                0 if k0.is_none() => k0 = Some(key),
                1 if k1.is_none() => k1 = Some(key),
                _ => {}
            }
        }
        let (k0, k1) = (k0.unwrap(), k1.unwrap());

        store.set(&k0, b"v0", 0, false);
        assert!(!store.shard_is_hot(0));

        // Skewed load: shard 0 dominates the window → promoted.
        for _ in 0..200 {
            store.get(&k0);
        }
        assert!(store.shard_is_hot(0));
        assert!(store.stats().hot_promotions >= 1);

        // Pre-promotion data is visible through the replicas, and writes
        // funnel through the combiner while staying readable.
        assert_eq!(&store.get(&k0).unwrap().data[..], b"v0");
        store.set(&k0, b"v1", 0, false);
        assert_eq!(&store.get(&k0).unwrap().data[..], b"v1");
        let s = store.stats();
        assert!(s.combiner_batches >= 1);
        assert!(s.log_appends >= 1);
        assert!(s.replica_reads >= 1);

        // Shift the skew to shard 1: shard 0 falls under the demotion
        // floor at the next window roll and reverts to the mutex path.
        store.set(&k1, b"w", 0, false);
        for _ in 0..300 {
            store.get(&k1);
        }
        assert!(!store.shard_is_hot(0));
        assert!(store.stats().hot_demotions >= 1);

        // The primary absorbed every combined write before demotion.
        assert_eq!(&store.get(&k0).unwrap().data[..], b"v1");
    }

    /// `HotConfig::disabled` must never promote, no matter the skew.
    #[test]
    fn disabled_hot_config_never_promotes() {
        let store = Store::with_config(1 << 20, 1, Clock::real(), HotConfig::disabled());
        store.set(b"k", b"v", 0, false);
        for _ in 0..500 {
            store.get(b"k");
        }
        assert!(!store.shard_is_hot(0));
        assert_eq!(store.stats().hot_promotions, 0);
    }

    /// Expired entries in a hot shard are skipped by `sweep_expired`
    /// (sweeping behind the combiner would fork primary and replicas) but
    /// still expire from the reader's point of view.
    #[test]
    fn sweep_skips_hot_shards_but_reads_still_expire() {
        use crate::clock::TestClock;
        use std::time::Duration;

        let clock = TestClock::new();
        let cfg = HotConfig {
            window: 8,
            promote_accesses: 4,
            demote_accesses: 1,
            replicas: 1,
        };
        let store = Store::with_config(1 << 20, 1, clock.clone().into(), cfg);
        store.set_with_ttl(b"t", b"1", 0, false, Some(Duration::from_secs(5)));
        for _ in 0..32 {
            store.get(b"t");
        }
        assert!(store.shard_is_hot(0));
        clock.advance(Duration::from_secs(6));
        assert_eq!(store.sweep_expired(), 0);
        assert!(store.get(b"t").is_none());
    }
}
