//! Table I extended to million scale: construction time and peak RSS of
//! the arena/SoA path (`build_store`) at n ∈ {100k, 1M, 5M}, degree 6 and
//! degree 2, at 1 and 2 worker threads (on a 2-core host a 4-thread row
//! would only measure oversubscription).
//!
//! The store path exists precisely for these sizes: points live in
//! structure-of-arrays columns, the cell partition is one counting sort
//! whose order the polar columns are gathered into (so every cell is a
//! contiguous window), and the tree is grown in a preallocated arena — no
//! per-cell or per-node allocation. Every emitted bench row
//! records `peak_rss_bytes` (VmHWM) alongside the timings.
//!
//! The full run takes minutes at n = 5M; `--quick` keeps it CI-sized.

use omt_bench::harness::{BenchmarkId, Criterion, Throughput};
use omt_bench::{criterion_group, criterion_main};
use omt_core::PolarGridBuilder;
use omt_geom::{Disk, Point2, PointStore2};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;

/// Deterministic unit-disk workload, sampled straight into the SoA store
/// (chunked: no second full-size copy is ever materialized).
fn disk_store(n: usize, seed: u64) -> PointStore2 {
    let mut rng = SmallRng::seed_from_u64(seed);
    PointStore2::sample_region(Point2::ORIGIN, &Disk::unit(), &mut rng, n)
}

fn bench_table1_5m(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_5m");
    group.sample_size(3);
    for n in [100_000usize, 1_000_000, 5_000_000] {
        let store = disk_store(n, 2004);
        group.throughput(Throughput::Elements(n as u64));
        for threads in [1usize, 2] {
            for (deg, name) in [(6u32, "deg6"), (2, "deg2")] {
                let id = BenchmarkId::new(format!("{name}-t{threads}"), n);
                group.bench_with_input(id, &store, |b, s| {
                    let builder = PolarGridBuilder::new().max_out_degree(deg).threads(threads);
                    b.iter(|| builder.build_store(s).unwrap());
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_table1_5m);
criterion_main!(benches);
