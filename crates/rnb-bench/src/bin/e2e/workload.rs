//! The five workloads and their seeded inputs.
//!
//! Everything random here derives from `--seed`; the fleet and the client
//! only ever see the generated items, values and timings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnb_core::{ItemId, WritePolicy};
use rnb_graph::datasets::SLASHDOT;
use rnb_graph::DiGraph;
use rnb_workload::{EgoRequests, RequestStream};

/// Items per `multi_set` burst of the write workload.
pub const WRITE_BURST: usize = 16;

/// One workload: fleet shape, client configuration and traffic mix. The
/// `why` texts are the ones `BENCHMARK.json` carries.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Logical replicas per item.
    pub k: usize,
    pub value_len: usize,
    /// `--mem` per node in MB; `None` keeps the daemon default, under which
    /// everything stays resident.
    pub mem_mb: Option<usize>,
    /// Share of ops that are `multi_set` bursts.
    pub write_share: f64,
    pub write_policy: WritePolicy,
    /// Cache-aside driver: items returned `None` are re-stored inside the
    /// same timed op. Only then is a `None` a legal answer.
    pub refill: bool,
    /// Open loop at this many requests per second, dealt round-robin to the
    /// [`CALLERS`] threads; `None` is a closed loop of them.
    pub open_rate: Option<f64>,
    /// Ops run before the clock starts, a count so that every run warms
    /// the same state.
    pub warmup_ops: usize,
}

/// Caller threads, each with its own `RnbClient`. Two, and not more: they
/// keep every connection inside the servers' 2 ms worker linger, and adding
/// callers to smooth a run would change the traffic every (metric,
/// workload) claim is judged on. The open loop is dealt to
/// both: a single blocking sender starts an op late whenever the one before
/// it outlasts the gap (p99 latency here is 25 ms, the shortest gap 10 ms),
/// and ran up to 14 ms behind its schedule.
pub const CALLERS: usize = 2;

const RESIDENT_K2: Spec = Spec {
    name: "ego_k2",
    why: "read-only ego multi-gets, k=2, all resident: planner, cover and client glue work hardest, fewest transactions",
    k: 2,
    value_len: 64,
    mem_mb: None,
    write_share: 0.0,
    write_policy: WritePolicy::WriteAll,
    refill: false,
    open_rate: None,
    warmup_ops: 20_000,
};

pub const SPECS: [Spec; 5] = [
    RESIDENT_K2,
    Spec {
        name: "ego_k1",
        why: "same requests with k=1 consistent hashing: trivial plans, many small transactions, so per-transaction wire and server cost dominates",
        k: 1,
        ..RESIDENT_K2
    },
    Spec {
        name: "overbook_k3",
        why: "k=3 with 1 KiB values in 5 MB nodes: LRU eviction, planned misses, hitchhiker rescue, round-2 fallback, write-back and cache-aside refill",
        k: 3,
        value_len: 1024,
        mem_mb: Some(5),
        refill: true,
        ..RESIDENT_K2
    },
    Spec {
        name: "mixed_write_k2",
        why: "ego_k2 reads with 30% multi_set bursts of 16 items, invalidate-then-write: a read gain bought with write cost shows here",
        write_share: 0.30,
        write_policy: WritePolicy::InvalidateThenWrite,
        ..RESIDENT_K2
    },
    Spec {
        name: "trickle_k2",
        why: "open loop at 50 req/s, every request meets an idle fleet: latency is the poller wake-up path and little else",
        open_rate: Some(50.0),
        warmup_ops: 200,
        ..RESIDENT_K2
    },
];

/// The social graph every workload draws ego requests from: a 1/8-scale
/// Slashdot stand-in, 10,271 users whose ids double as item ids. Like the
/// paper's data set it is the same in every run — `--seed` picks the users
/// who ask, the items written and the arrival jitter — because a fresh
/// graph per seed moves `tpr` by ±2 % and everything downstream with it.
pub fn universe() -> DiGraph {
    SLASHDOT.scaled_down(8).generate(2013)
}

/// Whether `bytes` is the value of `item` at length `len`. Values are a
/// pure function of the item id, so a read is checkable byte for byte no
/// matter how reads, write-backs and rewrites interleave.
pub fn is_value_of(item: ItemId, len: usize, bytes: &[u8]) -> bool {
    bytes.len() == len
        && bytes
            .chunks(8)
            .zip(value_words(item))
            .all(|(chunk, word)| chunk == &word.to_le_bytes()[..chunk.len()])
}

/// Append the value of `item` at length `len` to `out`.
pub fn push_value(item: ItemId, len: usize, out: &mut Vec<u8>) {
    let end = out.len() + len;
    for word in value_words(item).take(len.div_ceil(8)) {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.truncate(end);
}

fn value_words(item: ItemId) -> impl Iterator<Item = u64> {
    let mut word = item.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0052_6e42;
    std::iter::repeat_with(move || {
        word = word.rotate_left(23).wrapping_add(item | 1);
        word
    })
}

/// A pre-generated stream of ops in flat storage: op `i` touches
/// `items[offsets[i]..offsets[i + 1]]` and is a write burst iff
/// `is_write[i]`.
pub struct OpStream {
    is_write: Vec<bool>,
    offsets: Vec<u32>,
    items: Vec<ItemId>,
}

impl OpStream {
    /// `count` ops for one caller: ego reads from `graph`, interleaved
    /// Bresenham-style with `write_share` bursts of [`WRITE_BURST`] uniform
    /// items so the share is exact over any prefix.
    pub fn generate(graph: &DiGraph, write_share: f64, count: usize, seed: u64) -> OpStream {
        let mut reads = EgoRequests::new(graph, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5752_4954_4553); // "WRITES"
        let users = graph.num_nodes() as ItemId;
        let mut stream = OpStream {
            is_write: Vec::with_capacity(count),
            offsets: vec![0],
            items: Vec::new(),
        };
        for i in 0..count {
            let write = ((i + 1) as f64 * write_share).floor() > (i as f64 * write_share).floor();
            if write {
                stream
                    .items
                    .extend((0..WRITE_BURST).map(|_| rng.random_range(0..users)));
            } else {
                stream.items.extend(reads.next_request());
            }
            stream.is_write.push(write);
            stream.offsets.push(stream.items.len() as u32);
        }
        stream
    }

    pub fn len(&self) -> usize {
        self.is_write.len()
    }

    /// Op `i`, wrapping around the pool: `(is a write burst, its items)`.
    pub fn op(&self, i: usize) -> (bool, &[ItemId]) {
        let i = i % self.len();
        let span = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        (self.is_write[i], &self.items[span])
    }
}

/// Due times (ns from the start of the phase) of an open loop at `rate`
/// per second over `seconds`: gaps are U(0.5, 1.5)/rate — a strictly
/// periodic schedule aliases with the poller's 25 ms park ceiling, a
/// Poisson one adds queueing noise — rescaled so exactly
/// `round(rate × seconds)` ops span the phase.
pub fn jittered_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0053_4348_4544); // "SCHED"
    let count = (rate * seconds).round().max(1.0) as usize;
    let gaps: Vec<f64> = (0..count).map(|_| rng.random_range(0.5..1.5)).collect();
    let scale = seconds * 1e9 / gaps.iter().sum::<f64>();
    let mut due = 0.0;
    gaps.iter()
        .map(|gap| {
            let at = due;
            due += gap * scale;
            at as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_checkable_and_distinct() {
        let mut v = Vec::new();
        push_value(7, 64, &mut v);
        assert!(is_value_of(7, 64, &v));
        assert!(!is_value_of(8, 64, &v));
        assert!(!is_value_of(7, 64, &v[..63]));
        let mut odd = vec![0xAA];
        push_value(7, 13, &mut odd);
        assert!(odd.len() == 14 && is_value_of(7, 13, &odd[1..]));
        v[40] ^= 1;
        assert!(!is_value_of(7, 64, &v));
        assert_ne!(v[..8], v[8..16], "not one word repeated");
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_spans_the_phase() {
        let a = jittered_schedule(50.0, 10.0, 1);
        assert_eq!(a, jittered_schedule(50.0, 10.0, 1));
        assert_ne!(a, jittered_schedule(50.0, 10.0, 2));
        assert_eq!(a.len(), 500);
        assert_eq!(a[0], 0);
        assert!(a.windows(2).all(|w| {
            let gap = (w[1] - w[0]) as f64;
            // U(0.5, 1.5) × 20 ms, rescaled by at most a few percent.
            (9e6..32e6).contains(&gap)
        }));
        assert!(*a.last().unwrap() < 10_000_000_000);
    }

    #[test]
    fn write_share_is_exact_over_prefixes() {
        let graph = rnb_workload::tiny_test_graph();
        let stream = OpStream::generate(&graph, 0.30, 1000, 3);
        let writes = (0..1000).filter(|&i| stream.op(i).0).count();
        assert_eq!(writes, 300);
        let (write, items) = stream.op((0..1000).find(|&i| stream.op(i).0).unwrap());
        assert!(write && items.len() == WRITE_BURST);
        assert_eq!(stream.op(1000).1, stream.op(0).1, "wraps");
    }
}
