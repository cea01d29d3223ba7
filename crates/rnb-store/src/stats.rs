//! Store-wide counters, memcached-`stats`-style.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of multi-get batch-size histogram buckets: bucket 0 holds
/// single-key gets, bucket `k` (1–7) holds sizes in `(2^(k-1), 2^k]`,
/// and the last bucket holds everything above 128 keys.
pub const BATCH_HIST_BUCKETS: usize = 9;

/// Upper bound (inclusive) of each histogram bucket except the last,
/// which is open-ended.
const BATCH_HIST_BOUNDS: [u64; BATCH_HIST_BUCKETS - 1] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Which histogram bucket a batch of `m` keys falls into.
fn batch_bucket(m: usize) -> usize {
    match m {
        0 | 1 => 0,
        m if m > 128 => BATCH_HIST_BUCKETS - 1,
        // ceil(log2(m)) for 2..=128 → buckets 1..=7.
        m => (usize::BITS - (m - 1).leading_zeros()) as usize,
    }
}

/// Lock-free counters shared by all shards and connections.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// `get` item lookups.
    pub gets: AtomicU64,
    /// Lookups that hit.
    pub hits: AtomicU64,
    /// Lookups that missed.
    pub misses: AtomicU64,
    /// `set` operations accepted.
    pub sets: AtomicU64,
    /// Entries evicted by memory pressure.
    pub evictions: AtomicU64,
    /// `set` operations refused for memory.
    pub oom_errors: AtomicU64,
    /// `delete` operations that removed an entry.
    pub deletes: AtomicU64,
    /// get transactions (multi-gets count once).
    pub get_txns: AtomicU64,
    /// Successful compare-and-swaps.
    pub cas_ok: AtomicU64,
    /// CAS attempts rejected for a stale token.
    pub cas_conflicts: AtomicU64,
    /// `incr` operations that found their key.
    pub incr_hits: AtomicU64,
    /// `incr` operations on a missing key.
    pub incr_misses: AtomicU64,
    /// `decr` operations that found their key.
    pub decr_hits: AtomicU64,
    /// `decr` operations on a missing key.
    pub decr_misses: AtomicU64,
    /// incr/decr refused because the value is not a number.
    pub arith_non_numeric: AtomicU64,
    /// Multi-get batch sizes, power-of-two buckets (see
    /// [`BATCH_HIST_BUCKETS`]).
    pub get_batch_hist: [AtomicU64; BATCH_HIST_BUCKETS],
    /// Bytes read off client connections (request lines + data blocks).
    pub bytes_read: AtomicU64,
    /// Bytes written back to client connections.
    pub bytes_written: AtomicU64,
    /// Times a worker's `epoll_wait` returned (events, shutdown wake-ups
    /// and interrupted waits alike).
    pub poll_wakeups: AtomicU64,
    /// Ready listeners and connections a worker's set reported.
    /// Proportional to what became ready, never to what is idle.
    pub poll_events: AtomicU64,
    /// `read` system calls on client connections.
    pub conn_reads: AtomicU64,
    /// `write` system calls on client connections.
    pub conn_writes: AtomicU64,
    /// `accept` failures other than an empty backlog (fd exhaustion);
    /// each one takes the listener out of that worker's set until one of
    /// its connections closes.
    pub accept_errors: AtomicU64,
}

/// A plain-data snapshot of [`StoreStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `get` item lookups.
    pub gets: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// `set` operations accepted.
    pub sets: u64,
    /// Entries evicted by memory pressure.
    pub evictions: u64,
    /// `set` operations refused for memory.
    pub oom_errors: u64,
    /// `delete` operations that removed an entry.
    pub deletes: u64,
    /// get transactions.
    pub get_txns: u64,
    /// Successful compare-and-swaps.
    pub cas_ok: u64,
    /// CAS attempts rejected for a stale token.
    pub cas_conflicts: u64,
    /// `incr` operations that found their key.
    pub incr_hits: u64,
    /// `incr` operations on a missing key.
    pub incr_misses: u64,
    /// `decr` operations that found their key.
    pub decr_hits: u64,
    /// `decr` operations on a missing key.
    pub decr_misses: u64,
    /// incr/decr refused because the value is not a number.
    pub arith_non_numeric: u64,
    /// Multi-get batch-size histogram (power-of-two buckets).
    pub get_batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// Bytes read off client connections.
    pub bytes_read: u64,
    /// Bytes written back to client connections.
    pub bytes_written: u64,
    /// Times a worker's `epoll_wait` returned.
    pub poll_wakeups: u64,
    /// Ready listeners and connections reported to a worker.
    pub poll_events: u64,
    /// `read` system calls on client connections.
    pub conn_reads: u64,
    /// `write` system calls on client connections.
    pub conn_writes: u64,
    /// `accept` failures other than an empty backlog.
    pub accept_errors: u64,
    /// Entries currently stored (filled in by the store).
    pub curr_items: u64,
    /// Bytes currently accounted (filled in by the store).
    pub bytes: u64,
}

impl StoreStats {
    /// Record one get transaction of `m` keys in the batch-size
    /// histogram.
    pub fn count_get_batch(&self, m: usize) {
        self.get_batch_hist[batch_bucket(m)].fetch_add(1, Ordering::Relaxed);
    }

    /// Take a snapshot (items/bytes are supplied by the store, which
    /// knows the shards).
    pub fn snapshot(&self, curr_items: u64, bytes: u64) -> StatsSnapshot {
        let mut get_batch_hist = [0u64; BATCH_HIST_BUCKETS];
        for (out, src) in get_batch_hist.iter_mut().zip(&self.get_batch_hist) {
            *out = src.load(Ordering::Relaxed);
        }
        StatsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            sets: self.sets.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            oom_errors: self.oom_errors.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            get_txns: self.get_txns.load(Ordering::Relaxed),
            cas_ok: self.cas_ok.load(Ordering::Relaxed),
            cas_conflicts: self.cas_conflicts.load(Ordering::Relaxed),
            incr_hits: self.incr_hits.load(Ordering::Relaxed),
            incr_misses: self.incr_misses.load(Ordering::Relaxed),
            decr_hits: self.decr_hits.load(Ordering::Relaxed),
            decr_misses: self.decr_misses.load(Ordering::Relaxed),
            arith_non_numeric: self.arith_non_numeric.load(Ordering::Relaxed),
            get_batch_hist,
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            poll_wakeups: self.poll_wakeups.load(Ordering::Relaxed),
            poll_events: self.poll_events.load(Ordering::Relaxed),
            conn_reads: self.conn_reads.load(Ordering::Relaxed),
            conn_writes: self.conn_writes.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            curr_items,
            bytes,
        }
    }
}

impl StatsSnapshot {
    /// Hit rate among lookups (0 if none).
    pub fn hit_rate(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.hits as f64 / self.gets as f64
        }
    }

    /// Render as memcached-style `STAT` lines (without the trailing
    /// `END`).
    pub fn stat_lines(&self) -> Vec<(String, String)> {
        let mut lines = vec![
            ("cmd_get".into(), self.gets.to_string()),
            ("get_hits".into(), self.hits.to_string()),
            ("get_misses".into(), self.misses.to_string()),
            ("cmd_set".into(), self.sets.to_string()),
            ("evictions".into(), self.evictions.to_string()),
            ("oom_errors".into(), self.oom_errors.to_string()),
            ("cmd_delete".into(), self.deletes.to_string()),
            ("get_transactions".into(), self.get_txns.to_string()),
            ("cas_hits".into(), self.cas_ok.to_string()),
            ("cas_badval".into(), self.cas_conflicts.to_string()),
            ("incr_hits".into(), self.incr_hits.to_string()),
            ("incr_misses".into(), self.incr_misses.to_string()),
            ("decr_hits".into(), self.decr_hits.to_string()),
            ("decr_misses".into(), self.decr_misses.to_string()),
            (
                "arith_non_numeric".into(),
                self.arith_non_numeric.to_string(),
            ),
            ("bytes_read".into(), self.bytes_read.to_string()),
            ("bytes_written".into(), self.bytes_written.to_string()),
            ("poll_wakeups".into(), self.poll_wakeups.to_string()),
            ("poll_events".into(), self.poll_events.to_string()),
            ("conn_reads".into(), self.conn_reads.to_string()),
            ("conn_writes".into(), self.conn_writes.to_string()),
            ("accept_errors".into(), self.accept_errors.to_string()),
            ("curr_items".into(), self.curr_items.to_string()),
            ("bytes".into(), self.bytes.to_string()),
        ];
        for (k, count) in self.get_batch_hist.iter().enumerate() {
            let name = match BATCH_HIST_BOUNDS.get(k) {
                Some(bound) => format!("get_batch_le_{bound}"),
                None => "get_batch_gt_128".into(),
            };
            lines.push((name, count.to_string()));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat_line(lines: &[(String, String)], name: &str) -> String {
        lines
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing stat line {name}"))
    }

    #[test]
    fn snapshot_copies_counters() {
        let s = StoreStats::default();
        s.gets.fetch_add(10, Ordering::Relaxed);
        s.hits.fetch_add(7, Ordering::Relaxed);
        s.misses.fetch_add(3, Ordering::Relaxed);
        let snap = s.snapshot(5, 1234);
        assert_eq!(snap.gets, 10);
        assert_eq!(snap.hits, 7);
        assert_eq!(snap.curr_items, 5);
        assert_eq!(snap.bytes, 1234);
        assert!((snap.hit_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn zero_gets_hit_rate() {
        assert_eq!(StatsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn batch_buckets_cover_the_size_axis() {
        assert_eq!(batch_bucket(0), 0);
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(3), 2);
        assert_eq!(batch_bucket(4), 2);
        assert_eq!(batch_bucket(5), 3);
        assert_eq!(batch_bucket(8), 3);
        assert_eq!(batch_bucket(9), 4);
        assert_eq!(batch_bucket(100), 7);
        assert_eq!(batch_bucket(128), 7);
        assert_eq!(batch_bucket(129), 8);
        assert_eq!(batch_bucket(10_000), 8);
        // Every recorded size lands inside the array.
        for m in 0..1000 {
            assert!(batch_bucket(m) < BATCH_HIST_BUCKETS);
        }
    }

    #[test]
    fn histogram_and_bytes_round_trip_through_stat_lines() {
        let s = StoreStats::default();
        s.count_get_batch(1);
        s.count_get_batch(100);
        s.count_get_batch(100);
        s.count_get_batch(500);
        s.bytes_read.fetch_add(77, Ordering::Relaxed);
        s.bytes_written.fetch_add(99, Ordering::Relaxed);
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.get_batch_hist[0], 1);
        assert_eq!(snap.get_batch_hist[7], 2);
        assert_eq!(snap.get_batch_hist[8], 1);
        assert_eq!(snap.bytes_read, 77);
        assert_eq!(snap.bytes_written, 99);

        let lines = snap.stat_lines();
        let lookup = |name: &str| stat_line(&lines, name);
        assert_eq!(lookup("get_batch_le_1"), "1");
        assert_eq!(lookup("get_batch_le_128"), "2");
        assert_eq!(lookup("get_batch_gt_128"), "1");
        assert_eq!(lookup("bytes_read"), "77");
        assert_eq!(lookup("bytes_written"), "99");
    }

    #[test]
    fn readiness_counters_round_trip_through_stat_lines() {
        let s = StoreStats::default();
        s.poll_wakeups.fetch_add(9, Ordering::Relaxed);
        s.poll_events.fetch_add(7, Ordering::Relaxed);
        s.conn_reads.fetch_add(6, Ordering::Relaxed);
        s.conn_writes.fetch_add(5, Ordering::Relaxed);
        s.accept_errors.fetch_add(2, Ordering::Relaxed);
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.poll_wakeups, 9);
        assert_eq!(snap.poll_events, 7);
        assert_eq!(snap.conn_reads, 6);
        assert_eq!(snap.conn_writes, 5);
        assert_eq!(snap.accept_errors, 2);

        let lines = snap.stat_lines();
        let lookup = |name: &str| stat_line(&lines, name);
        assert_eq!(lookup("poll_wakeups"), "9");
        assert_eq!(lookup("poll_events"), "7");
        assert_eq!(lookup("conn_reads"), "6");
        assert_eq!(lookup("conn_writes"), "5");
        assert_eq!(lookup("accept_errors"), "2");
    }

    #[test]
    fn stat_lines_complete() {
        let lines = StatsSnapshot::default().stat_lines();
        let names: Vec<&str> = lines.iter().map(|(n, _)| n.as_str()).collect();
        for expect in [
            "cmd_get",
            "get_hits",
            "cmd_set",
            "evictions",
            "curr_items",
            "bytes",
            "incr_hits",
            "incr_misses",
            "decr_hits",
            "decr_misses",
            "arith_non_numeric",
            "bytes_read",
            "bytes_written",
            "poll_wakeups",
            "poll_events",
            "conn_reads",
            "conn_writes",
            "accept_errors",
            "get_batch_le_1",
            "get_batch_gt_128",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }
}
