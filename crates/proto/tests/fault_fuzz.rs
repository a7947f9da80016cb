//! Fault-injection fuzz campaigns: seeded schedules of loss, duplication,
//! jitter, partitions, crashes, graceful leaves, and stale coordinates.
//!
//! Every campaign asserts the protocol's two load-bearing promises:
//!
//! 1. **Eventual convergence** — once the fault window closes and the
//!    crash/leave schedule is exhausted, every surviving host ends up
//!    attached with a rooted parent chain (`orphans == 0`), the parent
//!    structure is a valid degree-capped forest, and both endpoints of
//!    every edge agree on it.
//! 2. **Determinism** — re-running the identical campaign with the same
//!    seed reproduces the report bit for bit (forest, message counts,
//!    network accounting, convergence time). This is what makes any
//!    fuzz failure replayable: `OMT_PROP_SEED` re-derives the exact
//!    campaign.
//!
//! Campaign sizes stay small (hundreds of hosts) so the whole suite runs
//! in seconds; the schedule space, not the host count, is what's being
//! explored here. Scale lives in the differential suite and the `proto`
//! experiment binary.

use omt_geom::{Disk, Region};
use omt_net::CoordDrift;
use omt_proto::{ProtoConfig, ProtoReport, ProtoSim};
use omt_rng::rngs::SmallRng;
use omt_rng::{prop_assert, prop_assert_eq, props, SeedableRng};
use omt_sim::{FaultPlan, Partition};

/// One fully-specified campaign, derived from fuzzed scalars.
#[derive(Clone, Debug)]
struct Campaign {
    n: usize,
    degree: u32,
    seed: u64,
    faults: FaultPlan,
    drift: CoordDrift,
    crashes: u32,
    leaves: u32,
}

impl Campaign {
    fn config(&self) -> ProtoConfig {
        let mut cfg = ProtoConfig::for_n(self.n, self.degree);
        cfg.faults = self.faults.clone();
        // Failure detection needs keepalive sweeps running well past the
        // last fault: leave two liveness windows of margin, then let the
        // queue drain with joins/repairs still retrying.
        cfg.quiet_after = self.faults.fault_until + 80.0;
        cfg.deadline = cfg.quiet_after + 340.0;
        // Departure schedules interleave with the fault window. Ids are
        // spread with co-prime strides so crash and leave sets are
        // disjoint from each other.
        cfg.crashes = (0..self.crashes)
            .map(|i| (12.0 + i as f64 * 0.7, 1 + (i * 13) % self.n as u32))
            .collect();
        cfg.leaves = (0..self.leaves)
            .map(|i| (14.0 + i as f64 * 0.9, 2 + (i * 17) % (self.n as u32 - 1)))
            .collect();
        let crashed: Vec<u32> = cfg.crashes.iter().map(|&(_, id)| id).collect();
        cfg.leaves.retain(|&(_, id)| !crashed.contains(&id));
        cfg
    }

    fn run(&self) -> (ProtoReport, Result<(), String>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let truth = Disk::unit().sample_n(&mut rng, self.n);
        let advertised = self.drift.apply(&truth, self.seed);
        let mut sim = ProtoSim::new(self.config(), &truth, &advertised, self.seed);
        let rep = sim.run();
        (rep, sim.check_agreement())
    }
}

/// Asserts the post-heal convergence contract on a finished campaign.
fn assert_converged(c: &Campaign, rep: &ProtoReport, agreement: &Result<(), String>) {
    assert_eq!(
        rep.alive + rep.departed,
        c.n,
        "{c:?}: host accounting is off"
    );
    assert_eq!(
        rep.departed,
        (c.config().crashes.len() + c.config().leaves.len()),
        "{c:?}: departure schedule not fully applied"
    );
    assert_eq!(rep.orphans, 0, "{c:?}: orphans after heal");
    let forest = rep.forest.as_ref().expect("orphan-free run has a forest");
    omt_tree::validate_parent_forest(forest, Some(c.degree))
        .unwrap_or_else(|e| panic!("{c:?}: {e:?}"));
    assert!(rep.max_out_degree <= c.degree, "{c:?}: degree cap broken");
    if let Err(e) = agreement {
        panic!("{c:?}: edge disagreement at quiescence: {e}");
    }
}

props! {
    // Loss + duplication + jitter (no partitions): the bread-and-butter
    // lossy-network campaign, with a slice of crashes and leaves.
    #[cases(24)]
    fn lossy_campaigns_converge(
        seed in 0u64..1_000_000,
        n in 150usize..320,
        dpick in 0u8..3,
        drop_p in 0.0f64..0.2,
        dup_p in 0.0f64..0.1,
        jitter in 0.0f64..0.6,
        crashes in 0u32..12,
        leaves in 0u32..12
    ) {
        let c = Campaign {
            n,
            degree: [2, 4, 6][dpick as usize],
            seed,
            faults: FaultPlan {
                drop_p,
                dup_p,
                jitter,
                fault_until: 30.0,
                ..FaultPlan::none()
            },
            drift: CoordDrift::none(),
            crashes,
            leaves,
        };
        let (rep, agreement) = c.run();
        assert_converged(&c, &rep, &agreement);
        prop_assert!(rep.orphans == 0);
    }

    // A partition splits the overlay in half mid-join (the rendezvous
    // always lands on side 0); the cut side must re-attach after heal.
    #[cases(16)]
    fn partition_campaigns_heal(
        seed in 0u64..1_000_000,
        n in 150usize..300,
        dpick in 0u8..3,
        bit in 0u32..5,
        start in 5.0f64..15.0,
        width in 10.0f64..25.0,
        drop_p in 0.0f64..0.1
    ) {
        let c = Campaign {
            n,
            degree: [2, 4, 6][dpick as usize],
            seed,
            faults: FaultPlan {
                drop_p,
                jitter: 0.2,
                fault_until: start + width,
                partitions: vec![Partition { start, end: start + width, bit }],
                ..FaultPlan::none()
            },
            drift: CoordDrift::none(),
            crashes: 0,
            leaves: 0,
        };
        let (rep, agreement) = c.run();
        assert_converged(&c, &rep, &agreement);
        prop_assert_eq!(rep.alive, n);
    }

    // Stale coordinates: a fraction of hosts advertise drifted positions,
    // so cells are assigned on lies while delay is charged on truth. The
    // tree must still form; only its quality degrades.
    #[cases(16)]
    fn stale_coordinate_campaigns_converge(
        seed in 0u64..1_000_000,
        n in 150usize..300,
        dpick in 0u8..3,
        drift in 0.0f64..0.3,
        stale_fraction in 0.0f64..1.0,
        drop_p in 0.0f64..0.1
    ) {
        let c = Campaign {
            n,
            degree: [2, 4, 6][dpick as usize],
            seed,
            faults: FaultPlan {
                drop_p,
                jitter: 0.3,
                fault_until: 25.0,
                ..FaultPlan::none()
            },
            drift: CoordDrift { drift, stale_fraction },
            crashes: 4,
            leaves: 4,
        };
        let (rep, agreement) = c.run();
        assert_converged(&c, &rep, &agreement);
        prop_assert!(rep.stretch >= 1.0 - 1e-9);
    }

    // Determinism under the kitchen sink: every fault class at once,
    // run twice — the two reports must match bit for bit.
    #[cases(12)]
    fn campaigns_replay_bit_identically(
        seed in 0u64..1_000_000,
        n in 150usize..260,
        dpick in 0u8..3,
        drop_p in 0.0f64..0.15,
        dup_p in 0.0f64..0.08,
        jitter in 0.0f64..0.5,
        bit in 0u32..4
    ) {
        let c = Campaign {
            n,
            degree: [2, 4, 6][dpick as usize],
            seed,
            faults: FaultPlan {
                drop_p,
                dup_p,
                jitter,
                fault_until: 35.0,
                partitions: vec![Partition { start: 8.0, end: 20.0, bit }],
            },
            drift: CoordDrift { drift: 0.1, stale_fraction: 0.25 },
            crashes: 6,
            leaves: 6,
        };
        let (a, agreement) = c.run();
        let (b, _) = c.run();
        assert_converged(&c, &a, &agreement);
        prop_assert_eq!(&a.forest, &b.forest);
        prop_assert_eq!(&a.alive_ids, &b.alive_ids);
        prop_assert_eq!(&a.msg_counts, &b.msg_counts);
        prop_assert_eq!(a.net, b.net);
        prop_assert!(a.convergence_time == b.convergence_time);
        prop_assert!(a.radius == b.radius);
    }
}
