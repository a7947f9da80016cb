//! Generator-level tests: convergence of the Vivaldi embedding.

use omt_net::{median_relative_error, vivaldi_embed, DelayMatrix, VivaldiConfig, WaxmanConfig};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;

/// Vivaldi's embedding error is monotone in expectation: averaging the
/// median relative error over seeds, more adjustment samples never make
/// the embedding worse (up to a small stochastic slack), and the final
/// checkpoint is substantially better than the first.
#[test]
fn vivaldi_error_is_monotone_in_expectation() {
    let mut rng = SmallRng::seed_from_u64(42);
    let g = WaxmanConfig {
        routers: 60,
        ..WaxmanConfig::default()
    }
    .sample(&mut rng);
    let hosts: Vec<usize> = (0..30).collect();
    let truth = DelayMatrix::from_graph(&g, &hosts);

    let checkpoints = [250usize, 1_000, 4_000, 16_000];
    let seeds = 8u64;
    let mut avg = [0.0f64; 4];
    for seed in 0..seeds {
        for (c, &samples) in checkpoints.iter().enumerate() {
            // Same seed at every checkpoint: the longer runs replay the
            // shorter runs' sample streams and then keep refining.
            let mut rng = SmallRng::seed_from_u64(seed);
            let coords = vivaldi_embed::<2>(
                &truth,
                &VivaldiConfig {
                    samples,
                    ..VivaldiConfig::default()
                },
                &mut rng,
            );
            let est = DelayMatrix::from_fn(hosts.len(), |i, j| (coords[i] - coords[j]).norm());
            avg[c] += median_relative_error(&truth, &est) / seeds as f64;
        }
    }
    println!("vivaldi avg errors: {avg:?}");
    for c in 1..checkpoints.len() {
        assert!(
            avg[c] <= avg[c - 1] * 1.05,
            "error rose between checkpoints {} and {}: {} -> {}",
            checkpoints[c - 1],
            checkpoints[c],
            avg[c - 1],
            avg[c]
        );
    }
    assert!(
        avg[3] < 0.8 * avg[0],
        "no substantial convergence: {} -> {}",
        avg[0],
        avg[3]
    );
}
