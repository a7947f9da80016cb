//! Figure 8 (timing dimension): 3-D unit-sphere construction at out-degree
//! 10 and out-degree 2, plus the general-dimension grid on the unit 4-ball
//! (`nd4`, out-degree 2) at the sizes where its points/s and peak RSS
//! matter.

use omt_bench::ball_points;
use omt_bench::harness::{BenchmarkId, Criterion, Throughput};
use omt_bench::{criterion_group, criterion_main};
use omt_core::{NdGridBuilder, SphereGridBuilder};
use omt_geom::{Ball, Point, Point3, Region};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;

fn bench_sphere(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);
    for n in [1_000usize, 10_000, 100_000] {
        let points = ball_points(n, n as u64);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("deg10", n), &points, |b, pts| {
            let builder = SphereGridBuilder::new();
            b.iter(|| builder.build(Point3::ORIGIN, pts).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("deg2", n), &points, |b, pts| {
            let builder = SphereGridBuilder::new().max_out_degree(2);
            b.iter(|| builder.build(Point3::ORIGIN, pts).unwrap());
        });
    }
    for n in [100_000usize, 1_000_000] {
        let points = Ball::<4>::unit().sample_n(&mut SmallRng::seed_from_u64(2004), n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("nd4", n), &points, |b, pts| {
            let builder = NdGridBuilder::new();
            b.iter(|| builder.build(Point::ORIGIN, pts).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sphere);
criterion_main!(benches);
