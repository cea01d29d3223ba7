//! The memaslap analog: a multi-threaded load generator measuring items
//! fetched per second versus items per transaction (Appendix, Figs 13–14).
//!
//! Paper configuration reproduced: "extremely small items, 10 bytes each",
//! "one set transaction of a single item for every 1000 items fetched by
//! get transactions", TCP with per-connection clients.

use crate::client::StoreClient;
use crate::clock::{duration_to_ticks, Clock};
use std::net::SocketAddr;
use std::time::Duration;

/// Load-run parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Concurrent client connections (the paper's Fig 13 uses one client
    /// machine; Fig 14 uses two).
    pub clients: usize,
    /// Items per get transaction.
    pub txn_size: usize,
    /// Keys pre-populated and drawn from.
    pub keyspace: usize,
    /// Value size in bytes (paper: 10).
    pub value_len: usize,
    /// Issue one single-item `set` per this many `get` items (paper:
    /// 1000). 0 disables sets.
    pub set_every_items: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
}

impl LoadSpec {
    /// The paper's memaslap settings at a given transaction size.
    pub fn paper_style(clients: usize, txn_size: usize, duration: Duration) -> Self {
        LoadSpec {
            clients,
            txn_size,
            keyspace: 10_000,
            value_len: 10,
            set_every_items: 1000,
            duration,
        }
    }
}

/// Aggregated measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Get transactions completed (all clients).
    pub get_txns: u64,
    /// Items fetched.
    pub items: u64,
    /// Set transactions issued.
    pub sets: u64,
    /// Measured wall-clock seconds.
    pub elapsed_secs: f64,
}

impl LoadReport {
    /// Items fetched per second — the Fig 13/14 y-axis.
    pub fn items_per_sec(&self) -> f64 {
        self.items as f64 / self.elapsed_secs
    }

    /// Get transactions per second.
    pub fn txns_per_sec(&self) -> f64 {
        self.get_txns as f64 / self.elapsed_secs
    }
}

/// Key for index `i` (shared by population and load phases).
pub fn key_of(i: usize) -> Vec<u8> {
    format!("memaslap-{i:08}").into_bytes()
}

/// Pre-populate `keyspace` keys with `value_len`-byte values.
pub fn populate(addr: SocketAddr, keyspace: usize, value_len: usize) -> std::io::Result<()> {
    let mut client = StoreClient::connect(addr)?;
    let value = vec![b'v'; value_len];
    for i in 0..keyspace {
        client.set(&key_of(i), &value, 0)?;
    }
    Ok(())
}

/// Run the load against `addr` per `spec`; the store must already be
/// populated (see [`populate`]). Returns the aggregated report.
pub fn run_load(addr: SocketAddr, spec: &LoadSpec) -> std::io::Result<LoadReport> {
    run_load_with_clock(addr, spec, Clock::real())
}

/// [`run_load`] against an injected clock: `spec.duration` elapses on the
/// clock's timeline, so a test can drive a whole measurement run from a
/// [`TestClock`](crate::TestClock) without waiting in real time.
pub fn run_load_with_clock(
    addr: SocketAddr,
    spec: &LoadSpec,
    clock: Clock,
) -> std::io::Result<LoadReport> {
    assert!(spec.clients >= 1, "need at least one client");
    assert!(spec.txn_size >= 1, "transactions carry at least one item");
    assert!(
        spec.keyspace >= spec.txn_size,
        "keyspace smaller than one transaction"
    );

    let start = clock.now();
    let deadline = start.saturating_add(duration_to_ticks(spec.duration));
    let mut handles = Vec::with_capacity(spec.clients);
    for c in 0..spec.clients {
        let spec = *spec;
        let clock = clock.clone();
        handles.push(std::thread::spawn(
            move || -> std::io::Result<(u64, u64, u64)> {
                let mut client = StoreClient::connect(addr)?;
                let value = vec![b'v'; spec.value_len];
                // Cheap deterministic per-client LCG; measurement noise is
                // dominated by syscalls, not key choice.
                let mut state = 0x9e3779b97f4a7c15u64.wrapping_mul(c as u64 + 1) | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let (mut txns, mut items, mut sets) = (0u64, 0u64, 0u64);
                let mut items_since_set = 0usize;
                let mut keys: Vec<Vec<u8>> = Vec::with_capacity(spec.txn_size);
                while clock.now() < deadline {
                    keys.clear();
                    let base = next() as usize % spec.keyspace;
                    for j in 0..spec.txn_size {
                        keys.push(key_of((base + j) % spec.keyspace));
                    }
                    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                    let got = client.get_multi(&refs)?;
                    txns += 1;
                    items += got.iter().filter(|v| v.is_some()).count() as u64;
                    items_since_set += spec.txn_size;
                    if spec.set_every_items > 0 && items_since_set >= spec.set_every_items {
                        items_since_set = 0;
                        client.set(&key_of(next() as usize % spec.keyspace), &value, 0)?;
                        sets += 1;
                    }
                }
                Ok((txns, items, sets))
            },
        ));
    }

    let mut report = LoadReport {
        get_txns: 0,
        items: 0,
        sets: 0,
        elapsed_secs: 0.0,
    };
    for h in handles {
        let (txns, items, sets) = h
            .join()
            .map_err(|_| std::io::Error::other("load thread panicked"))??;
        report.get_txns += txns;
        report.items += items;
        report.sets += sets;
    }
    report.elapsed_secs = (clock.now().saturating_sub(start)) as f64 / 1e9;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::StoreServer;
    use crate::store::Store;
    use std::sync::Arc;

    #[test]
    fn load_run_fetches_everything_it_asks_for() {
        let server = StoreServer::start(Arc::new(Store::new(1 << 24))).unwrap();
        populate(server.addr(), 500, 10).unwrap();
        let spec = LoadSpec {
            clients: 2,
            txn_size: 10,
            keyspace: 500,
            value_len: 10,
            set_every_items: 100,
            duration: Duration::from_millis(200),
        };
        let report = run_load(server.addr(), &spec).unwrap();
        assert!(report.get_txns > 0, "no transactions completed");
        // Fully populated keyspace → 100% hits → items = txns × size.
        assert_eq!(report.items, report.get_txns * 10);
        assert!(report.sets > 0);
        assert!(report.items_per_sec() > 0.0);
        assert!(report.txns_per_sec() > 0.0);
    }

    #[test]
    fn bigger_transactions_fetch_more_items_per_sec() {
        // The core Fig 13 observation, at miniature scale: 8-item
        // transactions fetch well over twice the items/s of 1-item ones.
        // These are real-time runs beside the suite's other tests on a
        // small box, where one arm's rate alone swings severalfold with
        // who else holds the cores, so a single comparison of two long
        // runs inverts now and then. The arms are therefore interleaved
        // in short slices — a neighbour then slows both arms of a round
        // alike — and the claim is judged on the best of five rounds: it
        // fails only if load shifted against the 8-item arm between the
        // two 60 ms halves of every round.
        let server = StoreServer::start(Arc::new(Store::new(1 << 24))).unwrap();
        populate(server.addr(), 2000, 10).unwrap();
        let run = |txn_size| {
            let spec = LoadSpec {
                clients: 1,
                txn_size,
                keyspace: 2000,
                value_len: 10,
                set_every_items: 0,
                duration: Duration::from_millis(60),
            };
            run_load(server.addr(), &spec).unwrap().items_per_sec()
        };
        let rounds: Vec<(f64, f64)> = (0..5).map(|_| (run(1), run(8))).collect();
        assert!(
            rounds.iter().any(|(small, big)| *big > 2.0 * small),
            "8-item transactions should fetch far more items/s: (1-item, 8-item) = {rounds:?}"
        );
    }

    #[test]
    fn load_run_on_virtual_time_terminates_without_waiting() {
        use crate::clock::TestClock;
        use std::sync::atomic::{AtomicBool, Ordering};

        // A "one hour" measurement window completes in a blink: the
        // driver thread spin-advances the shared virtual clock while the
        // load runs, so no thread ever really sleeps or waits an hour.
        let server = StoreServer::start(Arc::new(Store::new(1 << 24))).unwrap();
        populate(server.addr(), 100, 10).unwrap();
        let clock = TestClock::new();
        let done = Arc::new(AtomicBool::new(false));
        let driver = {
            let clock = clock.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    clock.advance(Duration::from_secs(1));
                }
            })
        };
        let spec = LoadSpec {
            clients: 2,
            txn_size: 5,
            keyspace: 100,
            value_len: 10,
            set_every_items: 0,
            duration: Duration::from_secs(3600),
        };
        let report = run_load_with_clock(server.addr(), &spec, clock.clone().into()).unwrap();
        done.store(true, Ordering::SeqCst);
        driver.join().unwrap();
        assert!(report.elapsed_secs >= 3600.0, "{}", report.elapsed_secs);
        // The clients connected and did real work before the window closed.
        assert_eq!(report.items, report.get_txns * 5);
    }

    #[test]
    fn paper_style_spec() {
        let spec = LoadSpec::paper_style(2, 64, Duration::from_secs(1));
        assert_eq!(spec.clients, 2);
        assert_eq!(spec.txn_size, 64);
        assert_eq!(spec.value_len, 10);
        assert_eq!(spec.set_every_items, 1000);
    }

    #[test]
    #[should_panic(expected = "keyspace smaller")]
    fn undersized_keyspace_rejected() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let spec = LoadSpec {
            clients: 1,
            txn_size: 10,
            keyspace: 5,
            value_len: 10,
            set_every_items: 0,
            duration: Duration::from_millis(1),
        };
        let _ = run_load(addr, &spec);
    }
}
