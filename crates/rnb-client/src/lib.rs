//! The deployable RnB client — the paper's §IV proof-of-concept, end to
//! end over real sockets.

// Serving-path crate: a panic in the client aborts the caller's request
// mid-flight, so unwrap/expect are denied outside tests (see the matching
// attribute in rnb-store and xtask lint rule R1).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//!
//! [`RnbClient`] connects to a fleet of `rnb-store` servers (or any
//! memcached-text-protocol servers). Its reads are `rnb-core`'s
//! [`ReadEngine`](rnb_core::ReadEngine) over pipelined TCP: bundled
//! multi-gets (§III-A), hitchhikers for servers that missed within
//! their last [`HITCHHIKE_WINDOW`] round-1 transactions (§III-C2), the
//! distinguished-copy fallback (§III-D) and write-back bursts, the
//! hitchhikers and the write-back always on. Its writes are rounds of
//! `rnb-core`'s [`WriteEngine`](rnb_core::WriteEngine): `set`/`multi_set`
//! (§III-G / §IV) update every replica or run the atomic
//! invalidate-then-write scheme, [`RnbClient::delete`] is one
//! invalidation round over every copy, and [`RnbClient::atomic_update`]
//! is one over every copy but the distinguished one, then a CAS loop
//! there. Every round — a read round, a store round, a write-back — goes
//! out through one pipelined exchange: one transaction per server, a
//! multi-get or a storage burst, each sent before any reply is read.
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

pub use client::{RnbClient, RnbClientConfig};
pub use keys::{item_key, parse_item_key};
pub use rnb_core::HITCHHIKE_WINDOW;
pub use stats::ClientStats;
