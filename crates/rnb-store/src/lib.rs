//! A memcached-analog RAM key-value store — the substrate the paper's
//! micro-benchmarks run against (Appendix).

// Serving-path crate: panics take down a connection (or the whole server
// thread), so unwrap/expect are denied outside tests. The workspace-wide
// policy keeps these `allow` (simulation code indexes within checked
// bounds); the deny is scoped here. xtask lint rule R1 enforces the same
// contract textually as defense in depth.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//!
//! The paper calibrates its simulator with memaslap against a real
//! memcached over 1 GbE. We reproduce the substrate from scratch:
//!
//! * [`clock`] — the injected time source: TTL expiry is a pure function
//!   of [`Clock`] ticks, so expiry behaviour runs deterministically under
//!   a manually-advanced [`TestClock`] (the only sanctioned wall-clock
//!   read in this crate lives in `clock.rs`; xtask lint R2 enforces it).
//! * [`shard::Shard`] — a byte-budgeted LRU hash table with **pinning**
//!   (the mechanism behind RnB distinguished copies) — memcached's
//!   `-m`-bounded slab+LRU behaviour at item granularity.
//! * [`store::Store`] — a sharded concurrent store (parking_lot mutex per
//!   shard, xxHash shard selection) with memcached-style counters.
//! * [`protocol`] — the memcached **text protocol** subset the experiments
//!   need: `get` (multi-key), `set`, `delete`, `stats`, `version`, `quit`.
//! * [`server`] / [`client`] — a TCP server (a fixed pool of workers
//!   sleeping on one `epoll` set, Linux-only) and a blocking client, so
//!   the micro-benchmark runs over a real socket like the original
//!   (loopback stands in for the paper's dedicated LAN cable — see
//!   DESIGN.md "Substitutions"). TCP is the only transport, as in the
//!   paper's Appendix: every byte a node serves is parsed by
//!   [`drain_input`] and run by one command path.
//! * [`loadgen`] — the memaslap analog: concurrent clients issuing
//!   multi-gets of a fixed transaction size (10-byte values, one `set`
//!   per 1000 `get` items, like the paper's configuration), reporting
//!   items/sec per transaction size — the Fig 13/14 measurement.

pub mod client;
pub mod clock;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod stats;
pub mod store;

pub use client::{StorageOp, StoreClient};
pub use clock::{Clock, RealClock, TestClock, Tick};
pub use loadgen::{run_load, run_load_with_clock, LoadReport, LoadSpec};
pub use server::{drain_input, ConnScratch, ReplyCursor, ServerConfig, StoreServer};
pub use store::{GetScratch, SetEntry, Store};
