//! Placement ablation: Ranged Consistent Hashing (the paper's §IV
//! contribution) vs multi-hash vs rendezvous — replica lookup cost as the
//! cluster grows. RCH's selling point is O(log N + k) lookups versus
//! rendezvous's O(N); multi-hash is O(k) but lacks RCH's smooth-growth
//! properties.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rnb_core::{PlacementKind, PlacementStrategy};
use rnb_hash::Placement;
use std::hint::black_box;

fn bench_replica_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement/replicas");
    for &servers in &[16usize, 256, 4096] {
        for kind in [
            PlacementKind::Rch,
            PlacementKind::MultiHash,
            PlacementKind::Rendezvous,
            PlacementKind::Jump,
        ] {
            let p = PlacementStrategy::build(kind, servers, 4, 7);
            group.throughput(Throughput::Elements(1));
            group.bench_with_input(BenchmarkId::new(p.name(), servers), &p, |b, p| {
                let mut out = Vec::with_capacity(4);
                let mut item = 0u64;
                b.iter(|| {
                    p.replicas_into(black_box(item), &mut out);
                    item = item.wrapping_add(1);
                    black_box(out.len())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_replica_lookup);
criterion_main!(benches);
