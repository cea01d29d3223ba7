//! The memcached-system simulator of the paper (§II-B, §III-B).
//!
//! > "The simulator was written from scratch and was targeted specifically
//! > at the performance of distributed key-value storage systems. […]
//! > Since our emphasis is on the multi-get hole, we focused on the total
//! > amount of server work per request, expressed as the number of
//! > transactions per request. Therefore, queuing is not relevant and
//! > requests were simulated individually."
//!
//! Accordingly this simulator executes one request at a time against a
//! cluster of simulated servers and counts transactions. Items are
//! unit-size ("we assumed that all data items are of the same size").
//! What *is* modelled in full:
//!
//! * per-server LRU replica caches with item-count budgets
//!   ([`server::SimServer`]) — the substrate of **overbooking** (§III-C1);
//! * pinned **distinguished copies** that never miss (§III-D);
//! * the read path — round-1 misses, **hitchhiking** (§III-C2), the
//!   **second round** at the distinguished copies and write-back — as
//!   `rnb-core`'s read engine over those servers ([`cluster::SimCluster`]);
//! * request **merging** (§III-E) and **LIMIT** requests (§III-F) via the
//!   runner ([`runner`]);
//! * TPR / TPRPS / transaction-size-histogram metrics ([`metrics`]).

pub mod cluster;
pub mod config;
pub mod lru;
pub mod metrics;
pub mod runner;
pub mod server;

pub use cluster::{RequestOutcome, SimCluster};
pub use config::{MemoryModel, SimConfig};
pub use metrics::Metrics;
pub use runner::{run_experiment, ExperimentConfig};
