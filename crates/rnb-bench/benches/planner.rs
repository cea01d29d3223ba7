//! Client-side bundling cost: the paper notes "RnB does create some extra
//! work for the front-end servers". This bench quantifies it — full plan
//! and LIMIT plan cost per request across request sizes and replication
//! levels, against the no-replication group-by-server baseline — and pits
//! the pooled [`Planner`] against the seed per-request path
//! (`CoverInstance::from_item_candidates` + `greedy_cover_reference`).
//!
//! Beyond the Criterion groups, a grid sweep (M ∈ {50, 200, 500},
//! k ∈ {1..4}, N ∈ {10, 100}) writes `BENCH_planner.json` at the repo
//! root (schema in EXPERIMENTS.md). Flags after `--`:
//!
//! * `--quick`   — reduced iteration budget (CI smoke).
//! * `--enforce` — exit non-zero if the checkpoint cell (M=200, k=2,
//!   N=100) speeds up by less than 2×, or if the planner's geometric-mean
//!   *speedup over the seed path* regresses more than 10% against the
//!   committed `BENCH_planner.json`. Speedup is a same-machine,
//!   same-budget ratio, so the gate is portable across CI hardware where
//!   absolute ns/request are not.
//!
//! Under `cargo test` (`--test` in argv) only the Criterion smoke pass
//! runs; the grid is skipped and the committed JSON is left untouched.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnb_core::{Bundler, FetchPlan, PlacementStrategy, PlanScratch, PlanTarget, RnbConfig};
use rnb_cover::{greedy_cover_reference, CoverInstance, CoverTarget, Planner};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

fn requests(m: usize, count: usize) -> Vec<Vec<u64>> {
    // Deterministic pseudo-random requests; identity doesn't matter for
    // planner cost.
    (0..count as u64)
        .map(|r| {
            (0..m as u64)
                .map(|i| {
                    r.wrapping_mul(6364136223846793005)
                        .wrapping_add(i * 2654435761)
                })
                .collect()
        })
        .collect()
}

fn bench_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner/plan");
    for &m in &[10usize, 50, 200] {
        let reqs = requests(m, 64);
        for &k in &[1usize, 2, 4] {
            let bundler = Bundler::from_config(&RnbConfig::new(16, k));
            group.throughput(Throughput::Elements(m as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("k{k}"), format!("m{m}")),
                &bundler,
                |b, bundler| {
                    let mut scratch = PlanScratch::new();
                    let mut i = 0;
                    b.iter(|| {
                        let plan =
                            bundler.plan_with(&mut scratch, black_box(&reqs[i % reqs.len()]));
                        i += 1;
                        black_box(plan.tpr())
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_plan_limit(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner/limit");
    let reqs = requests(100, 64);
    let bundler = Bundler::from_config(&RnbConfig::new(16, 3));
    for &limit in &[100usize, 90, 50] {
        group.bench_with_input(BenchmarkId::new("min_items", limit), &limit, |b, &limit| {
            let (mut scratch, mut plan) = (PlanScratch::new(), FetchPlan::default());
            let mut i = 0;
            b.iter(|| {
                let request = black_box(&reqs[i % reqs.len()]);
                bundler.plan_into(&mut scratch, request, PlanTarget::AtLeast(limit), &mut plan);
                i += 1;
                black_box(plan.tpr())
            })
        });
    }
    group.finish();
}

/// Pooled scratch vs per-call allocation on the same bundler, same
/// requests: the cost of *not* reusing the planner's buffers.
fn bench_scratch_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner/scratch");
    let reqs = requests(200, 64);
    let bundler = Bundler::from_config(&RnbConfig::new(100, 2));
    group.throughput(Throughput::Elements(200));
    group.bench_function("oneshot_m200_k2", |b| {
        let mut i = 0;
        b.iter(|| {
            let plan = bundler.plan(black_box(&reqs[i % reqs.len()]));
            i += 1;
            black_box(plan.tpr())
        })
    });
    group.bench_function("reused_m200_k2", |b| {
        let mut scratch = PlanScratch::new();
        let mut i = 0;
        b.iter(|| {
            let plan = bundler.plan_with(&mut scratch, black_box(&reqs[i % reqs.len()]));
            i += 1;
            black_box(plan.tpr())
        })
    });
    group.finish();
}

fn bench_baseline_group_by_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner/baseline");
    let reqs = requests(50, 64);
    let bundler = Bundler::new(PlacementStrategy::no_replication(16, 7));
    group.throughput(Throughput::Elements(50));
    group.bench_function("no_replication_m50", |b| {
        let mut i = 0;
        b.iter(|| {
            let plan = bundler.plan(black_box(&reqs[i % reqs.len()]));
            i += 1;
            black_box(plan.tpr())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_plan,
    bench_plan_limit,
    bench_scratch_reuse,
    bench_baseline_group_by_server
);

// ---------------------------------------------------------------------
// Grid sweep: seed path vs pooled planner, emitted as BENCH_planner.json.
// ---------------------------------------------------------------------

const GRID_M: &[usize] = &[50, 200, 500];
const GRID_K: &[usize] = &[1, 2, 3, 4];
const GRID_N: &[usize] = &[10, 100];

/// The acceptance checkpoint cell: the planner must beat the seed path
/// by at least this factor at M=200, k=2, N=100.
const CHECKPOINT: (usize, usize, usize) = (200, 2, 100);
const MIN_CHECKPOINT_SPEEDUP: f64 = 2.0;
/// `--enforce`: maximum tolerated geometric-mean speedup regression
/// against the committed baseline JSON.
const MAX_REGRESSION: f64 = 1.10;

/// Where the committed baseline lives (repo root).
const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_planner.json");

struct Cell {
    m: usize,
    k: usize,
    n: usize,
    seed_ns: f64,
    planner_ns: f64,
}

impl Cell {
    fn key(&self) -> String {
        format!("m{}_k{}_n{}", self.m, self.k, self.n)
    }

    fn speedup(&self) -> f64 {
        self.seed_ns / self.planner_ns
    }
}

/// RnB-shaped candidate lists: `m` items, each placed on `k` distinct
/// uniform servers among `n`.
fn candidate_batch(m: usize, k: usize, n: usize, batch: usize) -> Vec<Vec<Vec<u32>>> {
    let seed = (m as u64) << 32 | (k as u64) << 16 | n as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batch)
        .map(|_| {
            (0..m)
                .map(|_| {
                    let mut servers = Vec::with_capacity(k);
                    while servers.len() < k.min(n) {
                        let s = rng.random_range(0..n as u32);
                        if !servers.contains(&s) {
                            servers.push(s);
                        }
                    }
                    servers
                })
                .collect()
        })
        .collect()
}

/// Mean ns per call of `f` over `rounds` calls, after `warmup` untimed
/// calls (pool growth, caches, branch predictors).
fn time_ns_per_call(warmup: usize, rounds: usize, mut f: impl FnMut(usize) -> usize) -> f64 {
    for i in 0..warmup {
        black_box(f(i));
    }
    let start = Instant::now();
    for i in 0..rounds {
        black_box(f(i));
    }
    start.elapsed().as_nanos() as f64 / rounds as f64
}

fn run_cell(m: usize, k: usize, n: usize, quick: bool) -> Cell {
    let batch = candidate_batch(m, k, n, 8);
    let full = (200_000 / m).max(200);
    let rounds = if quick { (full / 4).max(100) } else { full };
    let warmup = (rounds / 10).max(50);
    // Seed path: build a CoverInstance (allocating bitsets + label map)
    // and run the retained reference greedy, per request.
    let seed_ns = time_ns_per_call(warmup, rounds, |i| {
        let cands = &batch[i % batch.len()];
        let inst = CoverInstance::from_item_candidates(cands);
        greedy_cover_reference(&inst, CoverTarget::Full).picks.len()
    });
    // Planner path: one pooled Planner reused across every request.
    let mut planner = Planner::new();
    let planner_ns = time_ns_per_call(warmup, rounds, |i| {
        let cands = &batch[i % batch.len()];
        planner
            .solve_item_candidates(cands, CoverTarget::Full)
            .num_picks()
    });
    Cell {
        m,
        k,
        n,
        seed_ns,
        planner_ns,
    }
}

fn render_json(cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"planner\",\n  \"unit\": \"ns_per_request\",\n");
    let cp = cells
        .iter()
        .find(|c| (c.m, c.k, c.n) == CHECKPOINT)
        .expect("checkpoint cell is in the grid");
    out.push_str(&format!(
        "  \"checkpoint\": {{ \"cell\": \"{}\", \"speedup\": {:.2} }},\n",
        cp.key(),
        cp.speedup()
    ));
    out.push_str("  \"grid\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"cell\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"seed_ns\": {:.1}, \"planner_ns\": {:.1}, \"speedup\": {:.2} }}{sep}\n",
            c.key(),
            c.m,
            c.k,
            c.n,
            c.seed_ns,
            c.planner_ns,
            c.speedup()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pull the grid `speedup` per cell out of a previously emitted JSON
/// file. Each grid entry is written on one line, so a line-oriented scan
/// is a faithful parser for files this bench produced. (The checkpoint
/// line has a `cell` but no `seed_ns`, so it is skipped.)
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(cell_at) = line.find("\"cell\": \"") else {
            continue;
        };
        let rest = &line[cell_at + 9..];
        let Some(cell_end) = rest.find('"') else {
            continue;
        };
        let cell = rest[..cell_end].to_string();
        if !line.contains("\"seed_ns\": ") {
            continue;
        }
        let Some(at) = line.find("\"speedup\": ") else {
            continue;
        };
        let num = &line[at + 11..];
        let end = num.find([',', ' ', '}']).unwrap_or(num.len());
        if let Ok(speedup) = num[..end].parse::<f64>() {
            out.push((cell, speedup));
        }
    }
    out
}

/// Returns `true` when every enforced gate passed.
fn run_grid(quick: bool, enforce: bool) -> bool {
    let baseline = std::fs::read_to_string(JSON_PATH)
        .ok()
        .map(|t| parse_baseline(&t));

    let mut cells = Vec::new();
    println!("\n[planner grid] seed path (build instance + reference greedy) vs pooled Planner");
    println!(
        "{:<16} {:>12} {:>12} {:>9}",
        "cell", "seed ns", "planner ns", "speedup"
    );
    for &m in GRID_M {
        for &k in GRID_K {
            for &n in GRID_N {
                let cell = run_cell(m, k, n, quick);
                println!(
                    "{:<16} {:>12.1} {:>12.1} {:>8.2}x",
                    cell.key(),
                    cell.seed_ns,
                    cell.planner_ns,
                    cell.speedup()
                );
                cells.push(cell);
            }
        }
    }

    let json = render_json(&cells);
    match std::fs::write(JSON_PATH, &json) {
        Ok(()) => println!("[planner grid] wrote {JSON_PATH}"),
        Err(e) => eprintln!("[planner grid] could not write {JSON_PATH}: {e}"),
    }

    let mut failed = false;
    let cp = cells
        .iter()
        .find(|c| (c.m, c.k, c.n) == CHECKPOINT)
        .expect("checkpoint cell is in the grid");
    println!(
        "[planner grid] checkpoint {}: {:.2}x (floor {MIN_CHECKPOINT_SPEEDUP}x)",
        cp.key(),
        cp.speedup()
    );
    if enforce && cp.speedup() < MIN_CHECKPOINT_SPEEDUP {
        eprintln!(
            "[planner grid] FAIL: checkpoint speedup {:.2}x below the {MIN_CHECKPOINT_SPEEDUP}x floor",
            cp.speedup()
        );
        failed = true;
    }

    if let Some(base) = baseline {
        // Geometric-mean ratio of baseline speedup to current speedup
        // over cells present in both runs: > 1 means the planner's edge
        // over the seed path shrank. Speedups are same-machine ratios,
        // so this survives hardware differences between the committing
        // machine and CI; the geo-mean is robust to single-cell noise.
        let mut log_sum = 0.0f64;
        let mut count = 0usize;
        for cell in &cells {
            if let Some((_, base_speedup)) = base.iter().find(|(key, _)| *key == cell.key()) {
                log_sum += (base_speedup / cell.speedup()).ln();
                count += 1;
            }
        }
        if count > 0 {
            let ratio = (log_sum / count as f64).exp();
            println!(
                "[planner grid] baseline/current speedup (geo-mean over {count} cells): {:.3}x",
                ratio
            );
            if enforce && ratio > MAX_REGRESSION {
                eprintln!(
                    "[planner grid] FAIL: planner speedup regressed {:.1}% vs committed baseline (limit {:.0}%)",
                    (ratio - 1.0) * 100.0,
                    (MAX_REGRESSION - 1.0) * 100.0
                );
                failed = true;
            }
        }
    } else {
        println!("[planner grid] no committed baseline at {JSON_PATH}; skipping regression gate");
    }

    !failed
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    benches();
    if args.iter().any(|a| a == "--test") {
        // `cargo test` smoke pass: Criterion already ran each body once;
        // skip the timed grid so test runs stay fast and the committed
        // BENCH_planner.json is never clobbered by an unrepresentative run.
        return ExitCode::SUCCESS;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let enforce = args.iter().any(|a| a == "--enforce");
    if run_grid(quick, enforce) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
