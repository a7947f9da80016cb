//! Dynamic membership benchmarks: join throughput, churn maintenance, and
//! the dissemination simulator's cost.
//!
//! The `dynamic_churn` group records the event throughput of the
//! incremental `DynamicOverlay` maintenance (cached delays, open-host
//! index, source out-degree counter) on a seeded event trace (joins :
//! leaves ≈ 2 : 1) at target sizes n ∈ {2k, 20k}.
//!
//! The same group also records *sustained* throughput at million scale:
//! a mixed 2 : 1 stream plus flash-crowd and mass-disconnect bursts over
//! an overlay prefilled to n = 1M live hosts (`--quick` shrinks the
//! prefill to 20k). Record it into the tracked results with:
//!
//! ```sh
//! OMT_BENCH_DIR=results cargo bench -p omt-bench --bench dynamic_churn -- dynamic_churn
//! ```

use omt_bench::disk_points;
use omt_bench::harness::{BenchmarkId, Criterion, Throughput};
use omt_bench::{criterion_group, criterion_main};
use omt_core::{DynamicOverlay, HostId, PolarGridBuilder};
use omt_geom::Point2;
use omt_rng::rngs::SmallRng;
use omt_rng::{RngExt, SeedableRng};
use omt_sim::{simulate, SimConfig};

fn bench_dynamic(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic");
    group.sample_size(10);
    for n in [500usize, 2_000] {
        let points = disk_points(n, 3);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("join_all", n), &points, |b, pts| {
            b.iter(|| {
                let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
                for &p in pts {
                    overlay.join(p);
                }
                overlay.len()
            });
        });
    }
    // Simulation throughput over a 100k-node tree.
    let points = disk_points(100_000, 4);
    let tree = PolarGridBuilder::new()
        .build(Point2::ORIGIN, &points)
        .unwrap();
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("simulate_100k", |b| {
        let cfg = SimConfig {
            serialization_delay: 0.001,
            ..SimConfig::default()
        };
        b.iter(|| simulate(&tree, &cfg).makespan);
    });
    group.finish();
}

/// One membership event of a pre-generated churn trace. Leave victims are
/// picked by reducing a random word modulo the current live count when
/// the trace replays.
#[derive(Clone, Copy)]
enum Event {
    Join(Point2),
    Leave(u64),
}

/// A seeded trace with joins : leaves ≈ 2 : 1.
fn event_plan(events: usize, seed: u64) -> Vec<Event> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..events)
        .map(|_| {
            if rng.random::<f64>() < 2.0 / 3.0 {
                let r = rng.random::<f64>().sqrt();
                let t: f64 = rng.random_range(0.0..core::f64::consts::TAU);
                Event::Join(Point2::new([r * t.cos(), r * t.sin()]))
            } else {
                Event::Leave(rng.random::<u64>())
            }
        })
        .collect()
}

fn run_events(base: &DynamicOverlay, live: &[HostId], plan: &[Event]) -> usize {
    let mut overlay = base.clone();
    let mut live = live.to_vec();
    for ev in plan {
        match *ev {
            Event::Join(p) => live.push(overlay.join(p)),
            Event::Leave(r) => {
                let i = (r as usize) % live.len();
                overlay.leave(live.swap_remove(i)).unwrap();
            }
        }
    }
    overlay.len()
}

/// One event of a fully-resolved stream: leaves name a real host.
#[derive(Clone, Copy)]
enum Resolved {
    Join(Point2),
    Leave(HostId),
}

/// A concrete, fully-resolved event stream for the sustained benches.
/// Leave victims are picked against a simulated replay of the prefilled
/// overlay, so the resulting list (with real `HostId`s) replays verbatim:
/// host ids are deterministic (monotone in join order).
fn mixed_plan(base: &DynamicOverlay, live: &[HostId], events: usize, seed: u64) -> Vec<Resolved> {
    let mut sim = base.clone();
    let mut live = live.to_vec();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..events)
        .map(|_| {
            if rng.random::<f64>() < 2.0 / 3.0 {
                let r = rng.random::<f64>().sqrt();
                let t: f64 = rng.random_range(0.0..core::f64::consts::TAU);
                let p = Point2::new([r * t.cos(), r * t.sin()]);
                live.push(sim.join(p));
                Resolved::Join(p)
            } else {
                let i = rng.random_range(0..live.len());
                let id = live.swap_remove(i);
                sim.leave(id).expect("victim is live");
                Resolved::Leave(id)
            }
        })
        .collect()
}

/// Flash crowd: a pure join burst.
fn flash_plan(events: usize, seed: u64) -> Vec<Resolved> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..events)
        .map(|_| {
            let r = rng.random::<f64>().sqrt();
            let t: f64 = rng.random_range(0.0..core::f64::consts::TAU);
            Resolved::Join(Point2::new([r * t.cos(), r * t.sin()]))
        })
        .collect()
}

/// Mass disconnect: distinct prefill hosts leaving back-to-back.
fn mass_plan(live: &[HostId], events: usize, seed: u64) -> Vec<Resolved> {
    let mut pool = live.to_vec();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..events.min(pool.len()))
        .map(|_| {
            let i = rng.random_range(0..pool.len());
            Resolved::Leave(pool.swap_remove(i))
        })
        .collect()
}

/// Per-event replay of a resolved plan.
fn run_resolved(base: &DynamicOverlay, plan: &[Resolved]) -> usize {
    let mut overlay = base.clone();
    for ev in plan {
        match *ev {
            Resolved::Join(p) => {
                overlay.join(p);
            }
            Resolved::Leave(id) => overlay.leave(id).expect("victim is live"),
        }
    }
    overlay.len()
}

fn bench_churn(c: &mut Criterion) {
    // Both bench sections must share this one group instance: two groups
    // with the same name would each write (and so overwrite) the same
    // BENCH_dynamic_churn.json on finish().
    let quick = c.is_quick();
    let mut group = c.benchmark_group("dynamic_churn");
    group.sample_size(10);
    for n in [2_000usize, 20_000] {
        let events = n / 2;
        let prefill = disk_points(n, 7);
        let plan = event_plan(events, 11 + n as u64);
        // Prefill once; every sample replays the same trace on a clone of
        // the prefilled overlay.
        let mut base = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
        let live: Vec<HostId> = prefill.iter().map(|&p| base.join(p)).collect();
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(BenchmarkId::new("events", n), &plan, |b, plan| {
            b.iter(|| run_events(&base, &live, plan));
        });
    }

    // Sustained throughput at million scale: events/s over a live overlay
    // of n = 1M hosts (`--quick`: 20k), mixed 2 : 1 join : leave, plus the
    // two stress scenarios (flash crowd, mass disconnect). Every
    // iteration clones the prefilled base; peak RSS is recorded per row by
    // the harness.
    let (n, events) = if quick {
        (20_000usize, 4_000usize)
    } else {
        (1_000_000, 100_000)
    };
    let mut base = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
    let live: Vec<HostId> = disk_points(n, 13).iter().map(|&p| base.join(p)).collect();
    group.sample_size(5);
    group.throughput(Throughput::Elements(events as u64));

    let sustained = mixed_plan(&base, &live, events, 17 + n as u64);
    group.bench_with_input(BenchmarkId::new("sustained", n), &sustained, |b, plan| {
        b.iter(|| run_resolved(&base, plan));
    });

    let flash = flash_plan(events, 19 + n as u64);
    group.bench_with_input(BenchmarkId::new("flash_crowd", n), &flash, |b, plan| {
        b.iter(|| run_resolved(&base, plan));
    });

    let mass = mass_plan(&live, events, 23 + n as u64);
    group.bench_with_input(BenchmarkId::new("mass_disconnect", n), &mass, |b, plan| {
        b.iter(|| run_resolved(&base, plan));
    });
    group.finish();
}

criterion_group!(benches, bench_dynamic, bench_churn);
criterion_main!(benches);
