//! Quickstart: plan a multi-get with RnB and see the transaction savings.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rnb_core::{Bundler, FetchPlan, PlacementStrategy, PlanScratch, PlanTarget, RnbConfig};

fn main() {
    // A 16-server deployment declaring 4 replicas per item.
    let config = RnbConfig::new(16, 4);
    let rnb = Bundler::from_config(&config);

    // The memcached status quo: one copy per item, consistent hashing.
    let baseline = Bundler::new(PlacementStrategy::no_replication(16, config.seed));

    // A user request: 40 items (e.g. the statuses of 40 friends).
    let request: Vec<u64> = (0..40).map(|i| i * 7919).collect();

    let base_plan = baseline.plan(&request);
    let rnb_plan = rnb.plan(&request);

    println!("request: {} items over 16 servers", request.len());
    println!("memcached (1 copy):  {} transactions", base_plan.tpr());
    println!("RnB (4 replicas):    {} transactions", rnb_plan.tpr());
    println!();
    println!("RnB transactions:");
    for t in &rnb_plan.transactions {
        println!("  server {:>2} <- {} items", t.server, t.items.len());
    }

    // A LIMIT request: any 30 of the 40 items suffice (§III-F).
    let mut limit_plan = FetchPlan::default();
    let target = PlanTarget::AtLeast(30);
    rnb.plan_into(&mut PlanScratch::new(), &request, target, &mut limit_plan);
    println!();
    println!(
        "LIMIT 30/40:         {} transactions for {} items",
        limit_plan.tpr(),
        limit_plan.planned_items()
    );

    assert!(rnb_plan.tpr() <= base_plan.tpr());
    assert!(limit_plan.tpr() <= rnb_plan.tpr());
}
