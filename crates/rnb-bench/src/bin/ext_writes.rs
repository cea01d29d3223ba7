//! Extension experiment (§III-G, §IV): where does RnB stop paying off as
//! the workload stops being read-mostly?
//!
//! The paper lists "the activity is not read mostly" first among the
//! cases where RnB is ineffective: every write must touch all `k`
//! replicas. This sweep measures total server transactions per operation
//! for no-replication vs RnB(k=4) under both write policies, across
//! write fractions, and reports the crossover.

use rnb_analysis::table::f3;
use rnb_analysis::Table;
use rnb_bench::{emit, scaled, FIG_SEED};
use rnb_core::WritePolicy;
use rnb_sim::{SimCluster, SimConfig};
use rnb_workload::{EgoRequests, Op, ReadWriteMix};

fn main() {
    let spec = if rnb_bench::quick() {
        rnb_graph::SLASHDOT.scaled_down(40)
    } else {
        rnb_graph::SLASHDOT.scaled_down(8)
    };
    let graph = spec.generate(FIG_SEED);
    let ops = scaled(20_000, 2_000);

    let run = |replication: usize, policy: WritePolicy, write_fraction: f64, burst: usize| -> f64 {
        let sim = SimConfig::enhanced(16, replication, 1.0 + replication as f64)
            .with_seed(FIG_SEED)
            .with_hitchhiking(false);
        let mut cluster = SimCluster::new(sim, graph.num_nodes());
        let reads = EgoRequests::new(&graph, FIG_SEED ^ 0xEE);
        let mut mixed = ReadWriteMix::new(
            reads,
            graph.num_nodes() as u64,
            write_fraction,
            FIG_SEED ^ 0xFF,
        )
        .with_write_burst(burst);
        // Warm up, then measure.
        for _ in 0..ops / 4 {
            step(&mut cluster, mixed.next_op(), policy);
        }
        cluster.reset_metrics();
        for _ in 0..ops {
            step(&mut cluster, mixed.next_op(), policy);
        }
        cluster.metrics().txns_per_op()
    };

    let mut table = Table::new(
        "Ext: server transactions per operation vs write fraction (16 servers)",
        &[
            "write_frac",
            "k=1",
            "k=4 write-all",
            "k=4 invalidate",
            "k=4 bundled x16",
        ],
    );
    for &frac in &[0.0f64, 0.001, 0.01, 0.05, 0.1, 0.2, 0.4] {
        table.row(&[
            format!("{frac:.3}"),
            f3(run(1, WritePolicy::WriteAll, frac, 1)),
            f3(run(4, WritePolicy::WriteAll, frac, 1)),
            f3(run(4, WritePolicy::InvalidateThenWrite, frac, 1)),
            f3(run(4, WritePolicy::WriteAll, frac, 16)),
        ]);
    }
    emit(&table, "ext_writes");

    println!();
    println!(
        "reading guide: at low write fractions RnB(k=4) needs far fewer transactions\n\
         per operation; each write costs k transactions, so the advantage erodes and\n\
         eventually inverts — the paper's \"not read mostly\" boundary (§III-G).\n\
         InvalidateThenWrite pays the same write cost but keeps reads atomic-safe\n\
         at slightly higher read TPR (replicas must be refetched after writes, §IV).\n\
         The bundled column groups 16-item write bursts by server (the multi_set\n\
         planner's shape): each touched server costs one transaction per burst,\n\
         which pushes the crossover to much higher write fractions."
    );
}

fn step(cluster: &mut SimCluster, op: Op, policy: WritePolicy) {
    match op {
        Op::Read(request) => {
            cluster.execute(&request);
        }
        Op::Write(item) => {
            cluster.execute_write_batch(&[item], policy);
        }
        Op::WriteBurst(items) => {
            cluster.execute_write_batch(&items, policy);
        }
    }
}
