//! Replica lookup cost of Ranged Consistent Hashing (the paper's §IV
//! contribution) as the cluster grows: O(log N + k) per lookup, a binary
//! search on the continuum and then a walk until k distinct servers are
//! gathered. EXPERIMENTS.md keeps the last numbers of the retired
//! multi-hash, rendezvous and jump schemes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rnb_core::{PlacementStrategy, RnbConfig};
use rnb_hash::Placement;
use std::hint::black_box;

fn bench_replica_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement/replicas");
    for &servers in &[16usize, 256, 4096] {
        let p = PlacementStrategy::from_config(&RnbConfig::new(servers, 4).with_seed(7));
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("rch", servers), &p, |b, p| {
            let mut out = Vec::with_capacity(4);
            let mut item = 0u64;
            b.iter(|| {
                p.replicas_into(black_box(item), &mut out);
                item = item.wrapping_add(1);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replica_lookup);
criterion_main!(benches);
