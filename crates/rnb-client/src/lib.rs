//! The deployable RnB client — the paper's §IV proof-of-concept, end to
//! end over real sockets.

// Serving-path crate: a panic in the client aborts the caller's request
// mid-flight, so unwrap/expect are denied outside tests (see the matching
// attribute in rnb-store and xtask lint rule R1).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//!
//! [`RnbClient`] connects to a fleet of `rnb-store` servers (or any
//! memcached-text-protocol servers) and implements the full RnB read and
//! write paths on top of `rnb-core`'s planner:
//!
//! * **Bundled multi-gets** (§III-A): one transaction per server chosen
//!   by the greedy cover.
//! * **Hitchhiking** (§III-C2): requested items with a replica on an
//!   already-planned server are appended to that transaction — for
//!   items planned on a server that has missed within its last
//!   [`HITCHHIKE_WINDOW`] round-1 transactions.
//! * **Miss fallback** (§III-D): items missing from round 1 are fetched
//!   from their distinguished copies in a bundled second round.
//! * **Write-back** (§III-C2): recovered round-1 misses are re-installed
//!   on the planned replica server, one pipelined burst per server.
//! * **Writes** (§III-G / §IV): update-all-replicas, or the atomic
//!   invalidate-then-write scheme; [`RnbClient::atomic_update`] runs a
//!   CAS loop on the distinguished copy.
//!
//! ```no_run
//! use rnb_client::{RnbClient, RnbClientConfig};
//!
//! let addrs: Vec<std::net::SocketAddr> =
//!     vec!["127.0.0.1:11311".parse().unwrap(), "127.0.0.1:11312".parse().unwrap()];
//! let mut client = RnbClient::connect(&addrs, RnbClientConfig::new(2)).unwrap();
//! client.set(7, b"hello").unwrap();
//! let values = client.multi_get(&[7, 8, 9]).unwrap();
//! assert_eq!(values[0].as_deref(), Some(&b"hello"[..]));
//! ```

mod client;
mod keys;
mod stats;

pub use client::{RnbClient, RnbClientConfig, HITCHHIKE_WINDOW};
pub use keys::{item_key, parse_item_key};
pub use stats::ClientStats;
