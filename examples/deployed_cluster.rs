//! The full §IV proof-of-concept as a runnable demo: a fleet of real
//! store servers on loopback TCP, driven by the deployable RnB client —
//! replicated writes, bundled multi-gets, an atomic counter, a delete,
//! and the transaction savings printed along the way.
//!
//! ```text
//! cargo run --release --example deployed_cluster
//! ```

use rnb_client::{RnbClient, RnbClientConfig};
use rnb_store::{Store, StoreServer};
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    // 1. Boot an 8-server fleet (each would be `rnb-stored` in production).
    let servers: Vec<StoreServer> = (0..8)
        .map(|_| StoreServer::start(Arc::new(Store::new(16 << 20))))
        .collect::<std::io::Result<_>>()?;
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    println!("fleet: {} store servers on loopback", servers.len());

    // 2. Connect two independent clients — RnB (4 replicas) and a plain
    //    memcached-style client (1 copy) — to the same fleet.
    let mut rnb = RnbClient::connect(&addrs, RnbClientConfig::new(4))?;
    let mut plain = RnbClient::connect(&addrs, RnbClientConfig::new(1))?;

    // 3. Load a dataset through both (RnB writes 4 copies).
    for item in 0..2000u64 {
        let value = format!("status-of-user-{item}");
        rnb.set(item, value.as_bytes())?;
        plain.set(item, value.as_bytes())?;
    }
    println!("loaded 2000 items (RnB stores 4 replicas each)");

    // 4. Serve 100 social-feed style requests of 30 items through each.
    for r in 0..100u64 {
        let request: Vec<u64> = (0..30).map(|i| (r * 61 + i * 37) % 2000).collect();
        let a = rnb.multi_get(&request)?;
        let b = plain.multi_get(&request)?;
        assert!(a.iter().all(Option::is_some));
        assert_eq!(a, b, "both deployments must return identical data");
    }
    println!(
        "served 100 x 30-item requests:\n  RnB   : {:.2} transactions/request\n  plain : {:.2} transactions/request",
        rnb.stats().tpr(),
        plain.stats().tpr()
    );

    // 5. Atomic operations (§IV): a counter updated through the
    //    invalidate + CAS scheme.
    rnb.set(9999, b"0")?;
    for _ in 0..10 {
        rnb.atomic_update(9999, |bytes| {
            let n: u64 = std::str::from_utf8(bytes).unwrap().parse().unwrap();
            (n + 1).to_string().into_bytes()
        })?;
    }
    let counter = rnb.multi_get(&[9999])?[0].clone().unwrap();
    println!(
        "atomic counter after 10 updates: {}",
        String::from_utf8_lossy(&counter)
    );
    assert_eq!(counter, b"10");

    // 6. Delete: one pipelined invalidation round over all 4 copies.
    assert!(rnb.delete(9999)?, "the counter had copies to delete");
    assert_eq!(rnb.multi_get(&[9999])?[0], None);
    println!("deleted the counter: every copy is gone");

    Ok(())
}
