//! What a resident entry really costs on the heap, beside what the
//! store's byte budget charges for it.
//!
//! Stores `ENTRIES` new 9-byte keys with `VALUE_LEN`-byte values into a
//! 16-shard [`Store`] large enough to evict nothing, and prints the growth
//! of this process's resident set per entry next to
//! [`Store::mem_used`] per entry. Run one size per process, so no freed
//! memory of an earlier run is reused:
//!
//! ```text
//! cargo run --release -p rnb-store --example entry_bytes -- 64 5136
//! ```
//!
//! Linux only: it reads `VmRSS` from `/proc/self/status`.

use rnb_store::Store;
use std::fmt::Write as _;

/// This process's resident set, in bytes.
fn rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    let kib: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .expect("VmRSS in kB");
    kib * 1024
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("usage: entry_bytes <value_len> <entries>"))
        .collect();
    let [value_len, entries] = args[..] else {
        panic!("usage: entry_bytes <value_len> <entries>");
    };
    assert!(entries < 100_000, "keys are key:00000 through key:99999");
    let store = Store::with_shards(1 << 30, 16);
    let value = vec![b'v'; value_len];
    let mut key = String::with_capacity(16);
    let before = rss_bytes();
    for i in 0..entries {
        key.clear();
        write!(key, "key:{i:05}").expect("write to a String");
        store.set(key.as_bytes(), &value, 0, false);
    }
    let after = rss_bytes();
    assert_eq!(store.len(), entries, "the store evicted");
    println!(
        "value_len={value_len} entries={entries} rss_bytes_per_entry={:.0} \
         accounted_bytes_per_entry={:.0}",
        (after - before) as f64 / entries as f64,
        store.mem_used() as f64 / entries as f64,
    );
}
