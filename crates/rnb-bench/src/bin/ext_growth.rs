//! Extension experiment: smooth cluster growth.
//!
//! §I-C: "RnB permits flexible growth and relatively easy deployment";
//! §II-C: full-system replication "only permits system enlargement in
//! relatively large strides" (a whole extra copy of the cluster).
//!
//! We grow an RCH-placed RnB cluster one server at a time from 16 to 32
//! and measure, per step: the fraction of replica sets disturbed (data
//! that must move) and the Monte-Carlo TPR. Full-system replication gets
//! only two feasible points in the same range: 16 servers (1 copy) and
//! 32 servers (2 copies of 16) — everything in between is unreachable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnb_analysis::table::{f3, pct};
use rnb_analysis::{urn, Table};
use rnb_bench::{emit, scaled, FIG_SEED};
use rnb_core::Bundler;
use rnb_hash::rch::RangedConsistentHash;
use rnb_hash::Placement;

fn main() {
    let items: u64 = 20_000;
    let request_size = 50usize;
    let trials = scaled(300, 60);
    let replication = 3usize;

    let mut rch = RangedConsistentHash::new(16, replication, FIG_SEED);
    let mut prev: Vec<Vec<u32>> = (0..items).map(|i| rch.replicas(i)).collect();

    // Throughput unit: the plain (no-replication) 16-server system = 1.0.
    // Throughput of an N-server system with mean TPR t is ∝ N / t.
    let base_throughput = 16.0 / urn::tpr(16, request_size);

    let mut table = Table::new(
        "Ext: growing 16 -> 32 servers one at a time (RCH, k=3)",
        &[
            "servers",
            "replica_sets_moved",
            "mc_tpr",
            "rnb_rel_throughput",
            "fsr_rel_throughput",
        ],
    );
    let mut row = |n: usize, moved: Option<usize>, tpr: f64| {
        // Full-system replication can only exist at whole multiples of
        // the 16-server copy; its throughput is copies × base.
        let fsr = if n.is_multiple_of(16) {
            f3(n as f64 / 16.0)
        } else {
            "-".into()
        };
        table.row(&[
            n.to_string(),
            moved.map_or("-".into(), |m| pct(m as f64 / items as f64)),
            f3(tpr),
            f3((n as f64 / tpr) / base_throughput),
            fsr,
        ]);
    };

    row(
        16,
        None,
        mc_tpr(&rch, items, request_size, trials, FIG_SEED),
    );
    for step in 1..=16usize {
        rch.add_server();
        let now: Vec<Vec<u32>> = (0..items).map(|i| rch.replicas(i)).collect();
        let moved = prev.iter().zip(&now).filter(|(a, b)| a != b).count();
        prev = now;
        let tpr = mc_tpr(&rch, items, request_size, trials, FIG_SEED ^ step as u64);
        row(16 + step, Some(moved), tpr);
    }
    emit(&table, "ext_growth");

    println!();
    println!(
        "reading guide: each added server disturbs only ~{:.0}% of replica sets\n\
         (≈ k/N — consistent hashing's minimal disruption, carried to replica\n\
         groups by RCH) and adds a smooth slice of capacity. Full-system\n\
         replication is only defined at 16 and 32 servers (whole copies); note\n\
         the RnB cluster already outperforms the *doubled* FSR deployment's 2.0\n\
         before adding a single machine.",
        100.0 * replication as f64 / 16.0
    );
}

/// Monte-Carlo mean TPR of bundled fetches over the current placement.
fn mc_tpr(
    rch: &RangedConsistentHash,
    items: u64,
    request_size: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    let bundler = Bundler::new(rch);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0usize;
    for _ in 0..trials {
        let mut request = Vec::with_capacity(request_size);
        while request.len() < request_size {
            let item = rng.random_range(0..items);
            if !request.contains(&item) {
                request.push(item);
            }
        }
        total += bundler.plan(&request).tpr();
    }
    total as f64 / trials as f64
}
