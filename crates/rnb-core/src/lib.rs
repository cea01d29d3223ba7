//! **Replicate and Bundle (RnB)** — the client-side library reproducing
//! Raindel & Birk, IPDPS 2013.
//!
//! RnB reduces the number of *transactions* (server round-trips) needed to
//! satisfy a multi-item request against a memcached-style RAM storage tier:
//!
//! 1. **Replicate**: every item is stored on `k` pseudo-randomly chosen,
//!    distinct servers (replica 0 is the *distinguished copy*).
//! 2. **Bundle**: at read time, pick one replica per requested item such
//!    that the total number of servers contacted is minimal — a greedy
//!    minimum set cover.
//!
//! The entry point is [`Bundler`], which turns a request (a slice of item
//! ids) into a [`FetchPlan`] of per-server transactions:
//!
//! ```
//! use rnb_core::{Bundler, PlacementStrategy, RnbConfig};
//!
//! let config = RnbConfig::new(16, 4); // 16 servers, 4 logical replicas
//! let bundler = Bundler::from_config(&config);
//! let request: Vec<u64> = (0..40).collect();
//! let plan = bundler.plan(&request);
//! assert!(plan.tpr() <= 16);                 // never more than one txn per server
//! assert_eq!(plan.planned_items(), 40);      // every item fetched
//! // With 4 replicas to choose from, bundling beats 1-replica placement:
//! let baseline = Bundler::new(PlacementStrategy::no_replication(16, config.seed));
//! assert!(plan.tpr() <= baseline.plan(&request).tpr());
//! ```
//!
//! Modules:
//! * [`config`] — [`RnbConfig`]: cluster size, replication, policies.
//! * [`placement`] — [`PlacementStrategy`]: Ranged Consistent Hashing
//!   (paper §IV), with replication 1 as the no-replication baseline.
//! * [`bundler`] — the planner (full and LIMIT targets, §III-A/§III-F).
//! * [`plan`] — [`FetchPlan`] / [`Transaction`] plus TPR accounting.
//! * [`read`] — [`ReadEngine`], the one read path (hitchhikers, the
//!   distinguished-copy fallback, write-back) over any [`Transport`].
//! * [`baseline`] — full-system replication (§II-C, the industry baseline).
//! * [`merge`] — cross-request merging (§III-E).
//! * [`mod@write`] — [`WriteEngine`], the one write path (the §IV
//!   invalidate-then-write rounds, and the invalidation round of a
//!   delete) over the same [`Transport`].

pub mod baseline;
pub mod bundler;
pub mod config;
pub mod merge;
pub mod placement;
pub mod plan;
pub mod read;
pub mod write;

pub use baseline::FullSystemReplication;
pub use bundler::{Bundler, PlanScratch, PlanTarget};
pub use config::RnbConfig;
pub use placement::PlacementStrategy;
pub use plan::{FetchPlan, Transaction};
pub use read::{ReadCounts, ReadEngine, Round, Transport, Txn, WriteStep, HITCHHIKE_WINDOW};
pub use write::{
    BatchWritePlan, WriteBatchPlanner, WriteCounts, WriteEngine, WritePlanner, WritePolicy,
};

pub use rnb_hash::{ItemId, Placement, ServerId};
