//! Disabled-path observability guard: times the pinned `polar_grid`
//! build at n = 100k with the `obs` feature **off**.
//!
//! The acceptance bar for the observability layer is that the no-op
//! macros add no measurable cost to the hot construction path. The
//! checked-in artifacts come from two builds of one source tree run in
//! alternating pairs on the same machine: the tree as shipped
//! (`results/BENCH_obs_overhead.json`) and the same tree with the
//! `omt-obs` macros (`obs_span!`, `obs_count!`, `obs_observe!`) expanded
//! to nothing by `scripts/obs_baseline.patch`
//! (`results/BENCH_obs_overhead_baseline.json`). Their medians
//! over the pairs must agree within 2%; the first file records them
//! under `overhead`, with the host. CI re-runs the bench in `--quick`
//! mode as a smoke check that the disabled path still builds and runs.

use omt_bench::disk_points;
use omt_bench::harness::{BenchmarkId, Criterion, Throughput};
use omt_bench::{criterion_group, criterion_main};
use omt_core::PolarGridBuilder;
use omt_geom::Point2;

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);
    let n = 100_000usize;
    let points = disk_points(n, n as u64);
    group.throughput(Throughput::Elements(n as u64));
    for (deg, name) in [(6u32, "deg6"), (2, "deg2")] {
        group.bench_with_input(BenchmarkId::new(name, n), &points, |b, pts| {
            let builder = PolarGridBuilder::new().max_out_degree(deg).threads(1);
            b.iter(|| builder.build(Point2::ORIGIN, pts).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
