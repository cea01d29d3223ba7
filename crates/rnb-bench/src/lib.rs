//! Benchmark harness for the RnB reproduction.
//!
//! One binary per paper figure (`fig02` … `fig14`) regenerates that
//! figure's series as an aligned table on stdout and a CSV under
//! `target/figures/`. Criterion benches (`benches/`) cover the ablations:
//! cover-solver quality/speed, placement schemes, planner cost, simulator
//! throughput, and the in-process store.
//!
//! Run a figure with, e.g.:
//! ```text
//! cargo run --release -p rnb-bench --bin fig06
//! ```
//! Every binary accepts `--quick` (or env `RNB_QUICK=1`) to shrink trial
//! counts for smoke runs; EXPERIMENTS.md records full-scale outputs.

use std::path::PathBuf;

/// True when the binary should run a reduced-scale smoke version.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("RNB_QUICK").is_some()
}

/// Pick between a full-scale and quick-scale parameter.
pub fn scaled(full: usize, quick_v: usize) -> usize {
    if quick() {
        quick_v
    } else {
        full
    }
}

/// Directory figure CSVs are written to.
pub fn figures_dir() -> PathBuf {
    PathBuf::from("target").join("figures")
}

/// Write `table` as `<name>.csv` under [`figures_dir`] and report where.
pub fn emit(table: &rnb_analysis::Table, name: &str) {
    table.print();
    let path = figures_dir().join(format!("{name}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("\n[csv written to {}]", path.display()),
        Err(e) => eprintln!("\n[csv write failed: {e}]"),
    }
}

/// The fixed seed every figure uses (reproducible output).
pub const FIG_SEED: u64 = 20130520; // IPDPS 2013 conference date

/// Run a whole (memory factor × replication) sweep grid in parallel —
/// the points are independent simulations, so the Figs 8–10 binaries
/// fan them out across scoped threads (one per point, bounded by the
/// grid size; each point is single-threaded and allocation-light).
/// Returns results indexed `[factor][k-1]`.
#[allow(clippy::too_many_arguments)]
pub fn memory_sweep_grid(
    graph: &rnb_graph::DiGraph,
    servers: usize,
    replications: &[usize],
    factors: &[f64],
    merge_window: usize,
    warmup: usize,
    measure: usize,
    seed: u64,
) -> Vec<Vec<rnb_sim::Metrics>> {
    let mut results: Vec<Vec<Option<rnb_sim::Metrics>>> =
        vec![vec![None; replications.len()]; factors.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (fi, &factor) in factors.iter().enumerate() {
            for (ki, &k) in replications.iter().enumerate() {
                handles.push((
                    fi,
                    ki,
                    scope.spawn(move || {
                        memory_sweep_point(
                            graph,
                            servers,
                            k,
                            factor,
                            merge_window,
                            warmup,
                            measure,
                            seed,
                        )
                    }),
                ));
            }
        }
        for (fi, ki, handle) in handles {
            results[fi][ki] = Some(handle.join().expect("sweep point panicked"));
        }
    });
    results
        .into_iter()
        .map(|row| row.into_iter().map(|m| m.expect("filled")).collect())
        .collect()
}

/// Run one point of the paper's memory-headroom sweep: an enhanced-RnB
/// simulation at the given replication and memory factor, returning its
/// steady-state metrics.
#[allow(clippy::too_many_arguments)] // flat sweep parameters, called from 3 figure binaries
pub fn memory_sweep_point(
    graph: &rnb_graph::DiGraph,
    servers: usize,
    logical_replication: usize,
    memory_factor: f64,
    merge_window: usize,
    warmup: usize,
    measure: usize,
    seed: u64,
) -> rnb_sim::Metrics {
    use rnb_sim::{run_experiment, ExperimentConfig, SimConfig};
    let sim = SimConfig::enhanced(servers, logical_replication, memory_factor).with_seed(seed);
    let cfg = ExperimentConfig::new(sim, warmup, measure).with_merge_window(merge_window);
    let mut stream = rnb_workload::EgoRequests::new(graph, seed ^ 0x5745_4550); // "SWEP"
    run_experiment(&cfg, graph.num_nodes(), &mut stream)
}

/// Shared driver for the micro-benchmark figures (Figs 13–14): start a
/// store server, populate it memaslap-style, sweep transaction sizes, and
/// fit the calibration cost model.
pub fn store_micro_figure(clients: usize, name: &str, title: &str) {
    use rnb_analysis::table::f3;
    use rnb_analysis::{CostModel, Table};
    use rnb_store::{loadgen, LoadSpec, Store, StoreServer};
    use std::sync::Arc;
    use std::time::Duration;

    let secs = if quick() { 0.2 } else { 1.0 };
    let server = StoreServer::start(Arc::new(Store::new(64 << 20))).expect("start server");
    loadgen::populate(server.addr(), 10_000, 10).expect("populate");

    let sizes = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let mut table = Table::new(title, &["txn_items", "items_per_sec", "txns_per_sec"]);
    let mut samples: Vec<(usize, f64)> = Vec::new();
    for &txn_size in &sizes {
        let spec = LoadSpec {
            duration: Duration::from_secs_f64(secs),
            ..LoadSpec::paper_style(clients, txn_size, Duration::from_secs(1))
        };
        let report = loadgen::run_load(server.addr(), &spec).expect("load run");
        samples.push((txn_size, report.items_per_sec()));
        table.row(&[
            txn_size.to_string(),
            format!("{:.0}", report.items_per_sec()),
            format!("{:.0}", report.txns_per_sec()),
        ]);
    }
    emit(&table, name);

    let fitted = CostModel::fit(&samples);
    println!();
    println!(
        "fitted cost model: txn_overhead = {} us, per_item = {} us\n\
         (paper-era defaults used by fig03: {} us / {} us)",
        f3(fitted.txn_overhead_us),
        f3(fitted.per_item_us),
        f3(CostModel::PAPER_ERA.txn_overhead_us),
        f3(CostModel::PAPER_ERA.per_item_us),
    );
    println!(
        "paper checkpoint: items/sec grows ~linearly with transaction size until\n\
         the per-item cost dominates — per-transaction work is the bottleneck."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grid_matches_sequential_points() {
        let graph = rnb_graph::generate::powerlaw_graph(600, 2.0, 1, 60, 4000, 5);
        let factors = [1.5f64, 2.5];
        let ks = [1usize, 3];
        let grid = memory_sweep_grid(&graph, 8, &ks, &factors, 1, 100, 200, 7);
        assert_eq!(grid.len(), factors.len());
        for (fi, &factor) in factors.iter().enumerate() {
            for (ki, &k) in ks.iter().enumerate() {
                let solo = memory_sweep_point(&graph, 8, k, factor, 1, 100, 200, 7);
                assert_eq!(
                    &grid[fi][ki], &solo,
                    "grid point (f={factor}, k={k}) diverged"
                );
            }
        }
    }

    #[test]
    fn scaled_picks_by_mode() {
        // In the test harness no --quick arg is present unless RNB_QUICK
        // is exported; accept either, but the two branches must differ.
        let v = scaled(100, 10);
        assert!(v == 100 || v == 10);
    }

    #[test]
    fn figures_dir_is_relative_target() {
        assert!(figures_dir().starts_with("target"));
    }
}
