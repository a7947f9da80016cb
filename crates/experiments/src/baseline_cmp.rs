//! Head-to-head comparison of the paper's algorithm against the prior-art
//! baselines it cites — the experiment the paper argues by construction
//! ("for all the proposed heuristics, the scalability issue remains open").

use std::time::Instant;

use omt_baselines::{
    optimal_radius_lower_bound, random_tree, BandwidthLatency, GreedyBuilder, GreedyObjective,
};
use omt_core::{Bisection, PolarGridBuilder};
use omt_geom::Point2;

use crate::stats::Accumulator;
use crate::workload::{disk_trial, trial_rng};

/// Aggregated result of one algorithm at one size.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineRow {
    /// Algorithm label.
    pub algorithm: String,
    /// Problem size.
    pub n: usize,
    /// Average longest delay.
    pub delay: f64,
    /// Standard deviation of the longest delay.
    pub dev: f64,
    /// Average delay divided by the universal lower bound.
    pub ratio: f64,
    /// Average construction seconds.
    pub cpu_sec: f64,
}

/// The algorithms compared (all at the same out-degree budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's polar-grid algorithm.
    PolarGrid,
    /// The paper's standalone bisection (Section II).
    Bisection,
    /// The compact-tree heuristic (Shi & Turner).
    CompactTree,
    /// Degree-constrained Prim.
    GreedyPrim,
    /// The bandwidth-latency heuristic (Chu et al.).
    BandwidthLatency,
    /// A uniformly random feasible tree.
    Random,
}

impl Algorithm {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::PolarGrid => "polar-grid (paper)",
            Self::Bisection => "bisection (paper §II)",
            Self::CompactTree => "compact-tree (CPT)",
            Self::GreedyPrim => "greedy Prim",
            Self::BandwidthLatency => "bandwidth-latency",
            Self::Random => "random",
        }
    }

    /// All comparison algorithms.
    pub const ALL: [Algorithm; 6] = [
        Self::PolarGrid,
        Self::Bisection,
        Self::CompactTree,
        Self::GreedyPrim,
        Self::BandwidthLatency,
        Self::Random,
    ];

    /// Whether the algorithm is quadratic (skipped at huge sizes).
    pub fn is_quadratic(&self) -> bool {
        matches!(
            self,
            Self::CompactTree | Self::GreedyPrim | Self::BandwidthLatency
        )
    }
}

/// Runs one (algorithm, size) cell of the comparison.
pub fn run_baseline_cell(
    algorithm: Algorithm,
    seed: u64,
    n: usize,
    trials: usize,
    degree: u32,
) -> BaselineRow {
    assert!(trials > 0, "need at least one trial");
    let mut delay = Accumulator::new();
    let mut ratio = Accumulator::new();
    let mut cpu = Accumulator::new();
    for trial in 0..trials {
        let pts = disk_trial(seed, n, trial);
        let lb = optimal_radius_lower_bound(Point2::ORIGIN, &pts);
        let t0 = Instant::now();
        let radius = match algorithm {
            Algorithm::PolarGrid => PolarGridBuilder::new()
                .max_out_degree(degree)
                .build(Point2::ORIGIN, &pts)
                .expect("valid workload")
                .radius(),
            Algorithm::Bisection => Bisection::new(degree)
                .expect("degree >= 2")
                .build(Point2::ORIGIN, &pts)
                .expect("valid workload")
                .radius(),
            Algorithm::CompactTree => GreedyBuilder::new(GreedyObjective::MinDelay)
                .max_out_degree(degree)
                .build(Point2::ORIGIN, &pts)
                .expect("valid workload")
                .radius(),
            Algorithm::GreedyPrim => GreedyBuilder::new(GreedyObjective::MinEdge)
                .max_out_degree(degree)
                .build(Point2::ORIGIN, &pts)
                .expect("valid workload")
                .radius(),
            Algorithm::BandwidthLatency => BandwidthLatency::uniform(degree)
                .build(Point2::ORIGIN, &pts)
                .expect("valid workload")
                .radius(),
            Algorithm::Random => {
                let mut rng = trial_rng(seed ^ 0xBAD5EED, n, trial);
                random_tree(Point2::ORIGIN, &pts, degree, &mut rng)
                    .expect("valid workload")
                    .radius()
            }
        };
        cpu.push(t0.elapsed().as_secs_f64());
        delay.push(radius);
        if lb > 0.0 {
            ratio.push(radius / lb);
        }
    }
    BaselineRow {
        algorithm: algorithm.name().to_string(),
        n,
        delay: delay.mean(),
        dev: delay.stddev(),
        ratio: ratio.mean(),
        cpu_sec: cpu.mean(),
    }
}

/// Formats comparison rows as a markdown table.
pub fn baseline_markdown(rows: &[BaselineRow]) -> String {
    let mut out = String::from(
        "| Algorithm | n | Delay | Dev | Delay/LB | CPU s |\n|---|---:|---:|---:|---:|---:|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:.3} | {:.3} | {:.5} |\n",
            r.algorithm, r.n, r.delay, r.dev, r.ratio, r.cpu_sec
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_produce_sound_rows() {
        for alg in Algorithm::ALL {
            let row = run_baseline_cell(alg, 1, 300, 3, 6);
            assert!(
                row.delay >= 1.0 * 0.9,
                "{}: delay {}",
                row.algorithm,
                row.delay
            );
            assert!(
                row.ratio >= 1.0 - 1e-9,
                "{}: ratio {}",
                row.algorithm,
                row.ratio
            );
            assert!(row.cpu_sec >= 0.0);
        }
    }

    #[test]
    fn random_is_the_worst() {
        let degree = 2;
        let rows: Vec<BaselineRow> = Algorithm::ALL
            .iter()
            .map(|&a| run_baseline_cell(a, 2, 400, 3, degree))
            .collect();
        let random = rows.last().expect("random is last").delay;
        for r in &rows[..rows.len() - 1] {
            assert!(
                r.delay < random,
                "{} ({}) not better than random ({})",
                r.algorithm,
                r.delay,
                random
            );
        }
    }

    // Two 20,000-point CPT trials take about 100 s in a debug build;
    // scripts/verify.sh runs this test in release.
    #[test]
    #[ignore = "slow in debug builds; scripts/verify.sh runs it in release"]
    fn cpt_wins_small_polar_grid_wins_big() {
        // At small n the quadratic CPT heuristic is very strong; the
        // asymptotically optimal grid must at least close the gap by 20k.
        let small_grid = run_baseline_cell(Algorithm::PolarGrid, 3, 200, 3, 6);
        let small_cpt = run_baseline_cell(Algorithm::CompactTree, 3, 200, 3, 6);
        assert!(small_cpt.delay < small_grid.delay);
        let big_grid = run_baseline_cell(Algorithm::PolarGrid, 3, 20_000, 2, 6);
        let big_cpt = run_baseline_cell(Algorithm::CompactTree, 3, 20_000, 2, 6);
        let small_gap = small_grid.delay / small_cpt.delay;
        let big_gap = big_grid.delay / big_cpt.delay;
        assert!(
            big_gap < small_gap,
            "gap did not close: {small_gap} -> {big_gap}"
        );
        // And the grid is drastically faster at this size.
        assert!(big_grid.cpu_sec < big_cpt.cpu_sec / 5.0);
    }

    #[test]
    fn markdown_format() {
        let row = run_baseline_cell(Algorithm::PolarGrid, 1, 100, 2, 6);
        let md = baseline_markdown(&[row]);
        assert!(md.contains("polar-grid (paper)"));
    }
}
