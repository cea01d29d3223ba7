//! §IV "Consistency and support for atomic operations": the paper's
//! scheme — *remove all but the distinguished copies of an item before
//! modifying it, then let RnB-memcached create the new copies on demand*
//! — implemented over the real store substrate with CAS, and hammered
//! concurrently.

use rnb_core::{Bundler, Placement, RnbConfig};
use rnb_store::shard::CasOutcome;
use rnb_store::Store;
use std::sync::Arc;

fn key_of(item: u64) -> Vec<u8> {
    format!("item:{item}").into_bytes()
}

/// An RnB deployment over real stores with the §IV atomic-update path.
struct AtomicRnb {
    stores: Vec<Arc<Store>>,
    bundler: Bundler,
}

impl AtomicRnb {
    fn new(servers: usize, replication: usize) -> Self {
        let config = RnbConfig::new(servers, replication);
        AtomicRnb {
            stores: (0..servers)
                .map(|_| Arc::new(Store::new(1 << 20)))
                .collect(),
            bundler: Bundler::from_config(&config),
        }
    }

    fn write_plain(&self, item: u64, value: &[u8]) {
        for (i, server) in self
            .bundler
            .placement()
            .replicas(item)
            .into_iter()
            .enumerate()
        {
            self.stores[server as usize].set(&key_of(item), value, 0, i == 0);
        }
    }

    /// §IV atomic read-modify-write: invalidate replicas, then CAS-loop
    /// on the distinguished copy.
    fn atomic_update(&self, item: u64, f: impl Fn(&[u8]) -> Vec<u8>) {
        let replicas = self.bundler.placement().replicas(item);
        let key = key_of(item);
        // Step 1: remove all but the distinguished copy.
        for &server in &replicas[1..] {
            self.stores[server as usize].delete(&key);
        }
        // Step 2: CAS on the distinguished copy until it sticks.
        let d = replicas[0] as usize;
        loop {
            let Some(current) = self.stores[d].get(&key) else {
                panic!("distinguished copy of {item} lost (it is pinned)");
            };
            let next = f(&current.data);
            match self.stores[d].cas(&key, &next, current.flags, current.cas, None) {
                CasOutcome::Stored => return,
                CasOutcome::Exists => continue, // raced another writer; retry
                other => panic!("cas failed: {other:?}"),
            }
        }
    }

    /// Read via the bundled plan, falling back to the distinguished copy
    /// (replicas may have been invalidated).
    fn read(&self, item: u64) -> Option<Vec<u8>> {
        let plan = self.bundler.plan(&[item]);
        for txn in &plan.transactions {
            if let Some(v) = self.stores[txn.server as usize].get(&key_of(item)) {
                return Some(v.data.to_vec());
            }
        }
        let d = self.bundler.placement().distinguished(item) as usize;
        self.stores[d].get(&key_of(item)).map(|v| v.data.to_vec())
    }
}

#[test]
fn invalidate_then_write_leaves_no_stale_replica() {
    let dep = AtomicRnb::new(8, 3);
    dep.write_plain(7, b"old");
    dep.atomic_update(7, |_| b"new".to_vec());
    // Every *resident* copy anywhere must now be the new value.
    for store in &dep.stores {
        if let Some(v) = store.get(&key_of(7)) {
            assert_eq!(&v.data[..], b"new", "stale replica survived the §IV scheme");
        }
    }
    assert_eq!(dep.read(7).as_deref(), Some(&b"new"[..]));
}

#[test]
fn concurrent_atomic_counter_loses_no_increments() {
    let dep = Arc::new(AtomicRnb::new(8, 3));
    dep.write_plain(42, b"0");
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let dep = Arc::clone(&dep);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    dep.atomic_update(42, |bytes| {
                        let n: u64 = std::str::from_utf8(bytes).unwrap().parse().unwrap();
                        (n + 1).to_string().into_bytes()
                    });
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let value = dep.read(42).unwrap();
    assert_eq!(
        std::str::from_utf8(&value).unwrap(),
        "1600",
        "increments lost despite CAS — atomicity broken"
    );
}

#[test]
fn atomic_update_then_reads_recreate_replicas_on_demand() {
    // After the §IV update, the miss/write-back path (here: explicit
    // refill on fallback) restores replica copies over time.
    let dep = AtomicRnb::new(8, 3);
    dep.write_plain(9, b"v0");
    dep.atomic_update(9, |_| b"v1".to_vec());
    // Replicas are gone; a client that misses re-creates the replica it
    // planned to use (§III-C2's write-back, done by hand here).
    let plan = dep.bundler.plan(&[9]);
    let planned = plan.transactions[0].server as usize;
    if dep.stores[planned].get(&key_of(9)).is_none() {
        let fresh = dep.read(9).unwrap();
        dep.stores[planned].set(&key_of(9), &fresh, 0, false);
    }
    assert_eq!(
        dep.stores[planned]
            .get(&key_of(9))
            .map(|v| v.data.to_vec())
            .as_deref(),
        Some(&b"v1"[..])
    );
}

#[test]
fn incr_on_distinguished_copy_is_atomic_per_server() {
    // The store's native incr is itself atomic (shard mutex), so the
    // distinguished copy can host counters directly — the simplest §IV
    // pattern.
    let store = Arc::new(Store::new(1 << 20));
    store.set(b"n", b"0", 0, true);
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..500 {
                    store.arith(b"n", 1, false);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let v = store.get(b"n").unwrap();
    assert_eq!(std::str::from_utf8(&v.data).unwrap(), "4000");
}
