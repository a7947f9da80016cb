//! Pool-level determinism, without the tree algorithms. The constructions'
//! thread-count independence is pinned in
//! `omt-core/tests/construction_golden.rs`.

use omt_par::par_map_indexed;
use omt_rng::rngs::SmallRng;
use omt_rng::{Rng, RngExt, SeedableRng, SplitMix64};

/// The stream-derivation rule the workspace standardizes on: fold the
/// experiment seed and the item index through the SplitMix64 finalizer
/// (the same shape as `omt_experiments::workload::trial_rng`).
fn stream_rng(seed: u64, index: usize) -> SmallRng {
    let z = SplitMix64::mix(
        SplitMix64::mix(seed.wrapping_add(SplitMix64::GAMMA)).wrapping_add(index as u64 + 1),
    );
    SmallRng::seed_from_u64(z)
}

/// A stand-in for a randomized per-item workload: a short random walk whose
/// endpoint depends on every draw of the item's stream.
fn walk(seed: u64, index: usize) -> (u64, f64) {
    let mut rng = stream_rng(seed, index);
    let mut acc = 0u64;
    let mut pos = 0.0f64;
    for _ in 0..64 {
        acc = acc.wrapping_add(rng.next_u64());
        pos += rng.random::<f64>() - 0.5;
    }
    (acc, pos)
}

#[test]
fn rng_streams_are_thread_count_invariant() {
    let items: Vec<usize> = (0..100).collect();
    let baseline = par_map_indexed(&items, 1, |i, _| walk(0xC0FFEE, i));
    for threads in [2, 3, 4, 8] {
        let got = par_map_indexed(&items, threads, |i, _| walk(0xC0FFEE, i));
        assert_eq!(
            baseline, got,
            "thread count {threads} changed a seed-indexed stream result"
        );
        // Bit-exact on the float component too.
        for (b, g) in baseline.iter().zip(&got) {
            assert_eq!(b.1.to_bits(), g.1.to_bits());
        }
    }
}

#[test]
fn streams_differ_across_indices_and_seeds() {
    let a = walk(1, 0);
    assert_ne!(a, walk(1, 1), "adjacent indices must get distinct streams");
    assert_ne!(a, walk(2, 0), "distinct seeds must get distinct streams");
}

#[test]
fn nested_pools_do_not_deadlock_or_reorder() {
    // An outer fan-out whose items themselves fan out (the experiments'
    // trial loop over parallel constructions has this shape).
    let outer: Vec<usize> = (0..6).collect();
    let expect: Vec<Vec<u64>> = outer
        .iter()
        .map(|&o| (0..8).map(|i| walk(o as u64, i).0).collect())
        .collect();
    let got = par_map_indexed(&outer, 3, |_, &o| {
        let inner: Vec<usize> = (0..8).collect();
        par_map_indexed(&inner, 2, |i, _| walk(o as u64, i).0)
    });
    assert_eq!(expect, got);
}

#[test]
fn results_with_heap_payloads_land_in_order() {
    let items: Vec<usize> = (0..50).collect();
    let out = par_map_indexed(&items, 4, |i, _| {
        let mut rng = stream_rng(9, i);
        let len = 1 + (rng.next_u64() % 17) as usize;
        (0..len).map(|_| rng.next_u64()).collect::<Vec<u64>>()
    });
    let seq: Vec<Vec<u64>> = items
        .iter()
        .map(|&i| {
            let mut rng = stream_rng(9, i);
            let len = 1 + (rng.next_u64() % 17) as usize;
            (0..len).map(|_| rng.next_u64()).collect()
        })
        .collect();
    assert_eq!(out, seq);
}
