//! The measurement core shared by Table I and Figures 4–7 (2-D) and
//! Figure 8 (3-D).

use std::time::Instant;

use omt_core::{PolarGridBuilder, SphereGridBuilder};
use omt_geom::Point3;

use crate::stats::Accumulator;
use crate::workload::{ball_trial, disk_trial_store, par_trials};

/// Aggregates for one out-degree setting of Table I.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Average longest representative-to-representative portion ("Core").
    pub core: f64,
    /// Average longest delay ("Delay").
    pub delay: f64,
    /// Standard deviation of the longest delay ("Dev").
    pub dev: f64,
    /// Average analytic bound of equation (7) at `j = 0` ("Bound").
    pub bound: f64,
    /// Average construction time in seconds ("CPU Sec").
    pub cpu_sec: f64,
}

/// One row of Table I: a problem size with both degree settings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table1Row {
    /// The number of nodes `n`.
    pub n: usize,
    /// Average number of grid rings ("Rings").
    pub rings: f64,
    /// Average trivial lower bound (max direct distance) — not printed by
    /// the paper but useful context (approaches 1).
    pub lower_bound: f64,
    /// The out-degree-6 statistics.
    pub deg6: DegreeStats,
    /// The out-degree-2 statistics.
    pub deg2: DegreeStats,
}

/// Runs one Table-I row: `trials` independent unit-disk instances of size
/// `n`, each built with both the degree-6 and degree-2 algorithms.
///
/// Each trial is sampled straight into a point store, so "CPU Sec" times
/// the construction alone, not the polar conversion of the input.
pub fn run_table1_row(seed: u64, n: usize, trials: usize) -> Table1Row {
    assert!(trials > 0, "need at least one trial");
    let _row_span = omt_obs::obs_span!("experiments/table1_row");
    omt_obs::obs_observe!("experiments/trials", trials as u64);
    let mut rings = Accumulator::new();
    let mut lower = Accumulator::new();
    let mut acc6 = DegreeAcc::default();
    let mut acc2 = DegreeAcc::default();
    // Trials fan out across the `omt-par` pool (builders pinned to one
    // thread each); folding in trial order keeps every aggregate
    // bit-identical at any thread count.
    let b6 = PolarGridBuilder::new().max_out_degree(6).threads(1);
    let b2 = PolarGridBuilder::new().max_out_degree(2).threads(1);
    let results = par_trials(trials, |trial| {
        let store = disk_trial_store(seed, n, trial);
        let t0 = Instant::now();
        let (_, r6) = b6.build_store_with_report(&store).expect("valid workload");
        let cpu6 = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (_, r2) = b2.build_store_with_report(&store).expect("valid workload");
        let cpu2 = t0.elapsed().as_secs_f64();
        (r6, cpu6, r2, cpu2)
    });
    for (r6, cpu6, r2, cpu2) in results {
        // Both runs share the grid parameters (same points, same rule).
        debug_assert_eq!(r6.rings, r2.rings);
        rings.push(f64::from(r6.rings));
        lower.push(r6.lower_bound);
        acc6.push(r6.core_delay, r6.delay, r6.bound, cpu6);
        acc2.push(r2.core_delay, r2.delay, r2.bound, cpu2);
    }
    Table1Row {
        n,
        rings: rings.mean(),
        lower_bound: lower.mean(),
        deg6: acc6.finish(),
        deg2: acc2.finish(),
    }
}

/// One row of the Figure-8 experiment (3-D unit ball).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig8Row {
    /// The number of nodes `n`.
    pub n: usize,
    /// Average number of grid rings.
    pub rings: f64,
    /// Out-degree-10 average longest delay and deviation.
    pub delay10: f64,
    /// Deviation for the degree-10 delay.
    pub dev10: f64,
    /// Out-degree-2 average longest delay and deviation.
    pub delay2: f64,
    /// Deviation for the degree-2 delay.
    pub dev2: f64,
    /// Average construction seconds (degree 10).
    pub cpu_sec10: f64,
    /// Average construction seconds (degree 2).
    pub cpu_sec2: f64,
}

/// Runs one Figure-8 row: `trials` unit-ball instances of size `n` with
/// the degree-10 and degree-2 spherical algorithms.
pub fn run_fig8_row(seed: u64, n: usize, trials: usize) -> Fig8Row {
    assert!(trials > 0, "need at least one trial");
    let _row_span = omt_obs::obs_span!("experiments/fig8_row");
    omt_obs::obs_observe!("experiments/trials", trials as u64);
    let mut rings = Accumulator::new();
    let mut d10 = Accumulator::new();
    let mut d2 = Accumulator::new();
    let mut c10 = Accumulator::new();
    let mut c2 = Accumulator::new();
    let b10 = SphereGridBuilder::new().max_out_degree(10).threads(1);
    let b2 = SphereGridBuilder::new().max_out_degree(2).threads(1);
    let results = par_trials(trials, |trial| {
        let points = ball_trial(seed, n, trial);
        let t0 = Instant::now();
        let (_, r10) = b10
            .build_with_report(Point3::ORIGIN, &points)
            .expect("valid workload");
        let cpu10 = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (_, r2) = b2
            .build_with_report(Point3::ORIGIN, &points)
            .expect("valid workload");
        let cpu2 = t0.elapsed().as_secs_f64();
        (r10, cpu10, r2, cpu2)
    });
    for (r10, cpu10, r2, cpu2) in results {
        c10.push(cpu10);
        c2.push(cpu2);
        rings.push(f64::from(r10.rings));
        d10.push(r10.delay);
        d2.push(r2.delay);
    }
    Fig8Row {
        n,
        rings: rings.mean(),
        delay10: d10.mean(),
        dev10: d10.stddev(),
        delay2: d2.mean(),
        dev2: d2.stddev(),
        cpu_sec10: c10.mean(),
        cpu_sec2: c2.mean(),
    }
}

#[derive(Default)]
struct DegreeAcc {
    core: Accumulator,
    delay: Accumulator,
    bound: Accumulator,
    cpu: Accumulator,
}

impl DegreeAcc {
    fn push(&mut self, core: f64, delay: f64, bound: f64, cpu: f64) {
        self.core.push(core);
        self.delay.push(delay);
        self.bound.push(bound);
        self.cpu.push(cpu);
    }

    fn finish(&self) -> DegreeStats {
        DegreeStats {
            core: self.core.mean(),
            delay: self.delay.mean(),
            dev: self.delay.stddev(),
            bound: self.bound.mean(),
            cpu_sec: self.cpu.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_matches_paper_shape_at_n_100() {
        // Paper row (n = 100): Rings 3.61, deg-6 Delay 1.852, Bound 7.18;
        // deg-2 Delay 2.634, Bound 10.74. We assert the same neighborhood
        // with modest trial counts (exact numbers vary with the RNG).
        let row = run_table1_row(42, 100, 60);
        assert!((row.rings - 3.6).abs() < 0.5, "rings {}", row.rings);
        assert!(
            (row.deg6.delay - 1.85).abs() < 0.25,
            "delay6 {}",
            row.deg6.delay
        );
        assert!(
            (row.deg2.delay - 2.63).abs() < 0.45,
            "delay2 {}",
            row.deg2.delay
        );
        assert!(
            (row.deg6.bound - 7.18).abs() < 0.8,
            "bound6 {}",
            row.deg6.bound
        );
        assert!(
            (row.deg2.bound - 10.74).abs() < 1.2,
            "bound2 {}",
            row.deg2.bound
        );
        // Structural relations of the table.
        assert!(row.deg2.delay > row.deg6.delay);
        assert!(row.deg2.bound > row.deg6.bound);
        assert!(row.deg6.core < row.deg6.delay);
        assert!(row.deg6.delay < row.deg6.bound);
        assert!(row.lower_bound <= 1.0);
    }

    #[test]
    fn delay_and_dev_shrink_with_n() {
        let small = run_table1_row(7, 100, 30);
        let large = run_table1_row(7, 5_000, 10);
        assert!(large.deg6.delay < small.deg6.delay);
        assert!(large.deg6.dev < small.deg6.dev);
        assert!(large.rings > small.rings);
        assert!(large.deg6.bound < small.deg6.bound);
    }

    #[test]
    fn fig8_row_structure() {
        let row = run_fig8_row(3, 1000, 10);
        assert!(row.delay2 > row.delay10);
        assert!(row.delay10 > 1.0);
        assert!(row.rings >= 1.0);
        assert!(row.dev10 >= 0.0 && row.dev2 >= 0.0);
    }
}
