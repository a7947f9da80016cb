//! Decentralized join/leave/repair protocol for polar-grid multicast
//! trees.
//!
//! The paper's `Polar_Grid` builder is centralized: it sees every host
//! and wires the whole tree at once. Its conclusion asks for the
//! decentralized version — this crate is that protocol. Each host knows
//! only the advertised deployment parameters `(k, ρ)`, its own virtual
//! coordinates, the polar cell they land in
//! ([`omt_core::PolarGrid2::cell_of`]), its local
//! [`CellView`](omt_core::CellView), and its direct tree neighbors. All
//! coordination happens through [`Msg`] traffic over the deterministic,
//! fault-injected message engine of `omt-sim`; no host ever reads global
//! state.
//!
//! The resulting tree approximates the centralized construction: joins
//! route from the rendezvous down the aligned-cell core, the first host
//! of each cell becomes its representative, and later arrivals in the
//! same cell chain below it within the degree cap — the message-driven
//! analogue of the paper's core + in-cell wiring. The differential test
//! suite pins the radius gap against `Polar_Grid` on identical point
//! sets; the fault-fuzz suite pins eventual convergence under loss,
//! duplication, reordering, partitions, and stale coordinates.
//!
//! # Example
//!
//! ```
//! use omt_geom::{Disk, Region};
//! use omt_proto::{ProtoConfig, ProtoSim};
//! use omt_rng::rngs::SmallRng;
//! use omt_rng::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(5);
//! let hosts = Disk::unit().sample_n(&mut rng, 300);
//! let cfg = ProtoConfig::for_n(hosts.len(), 4);
//! let report = ProtoSim::new(cfg, &hosts, &hosts, 5).run();
//! assert_eq!(report.orphans, 0);
//! assert!(report.max_out_degree <= 4);
//! omt_tree::validate_parent_forest(report.forest.as_ref().unwrap(), Some(4)).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod host;
pub mod messages;
pub mod sim;

pub use host::{ChildLink, HostState, Parent};
pub use messages::Msg;
pub use sim::{ProtoConfig, ProtoReport, ProtoSim, SOURCE};

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Disk, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;
    use omt_sim::FaultPlan;

    fn points(n: usize, seed: u64) -> Vec<omt_geom::Point2> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Disk::unit().sample_n(&mut rng, n)
    }

    #[test]
    fn faultless_run_attaches_everyone() {
        let pts = points(500, 1);
        let cfg = ProtoConfig::for_n(pts.len(), 6);
        let rep = ProtoSim::new(cfg, &pts, &pts, 1).run();
        assert_eq!(rep.alive, 500);
        assert_eq!(rep.orphans, 0);
        assert!(rep.max_out_degree <= 6);
        assert!(rep.radius >= rep.star_bound);
        assert!(rep.convergence_time < rep.end_time + 1e-9);
        omt_tree::validate_parent_forest(rep.forest.as_ref().unwrap(), Some(6)).unwrap();
    }

    #[test]
    fn runs_are_bit_identical_per_seed() {
        let pts = points(200, 2);
        let run = |seed: u64| {
            let mut cfg = ProtoConfig::for_n(pts.len(), 4);
            cfg.faults = FaultPlan {
                drop_p: 0.1,
                dup_p: 0.05,
                jitter: 0.4,
                fault_until: 30.0,
                ..FaultPlan::none()
            };
            ProtoSim::new(cfg, &pts, &pts, seed).run()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.forest, b.forest);
        assert_eq!(a.msg_counts, b.msg_counts);
        assert_eq!(a.convergence_time, b.convergence_time);
        assert_eq!(a.net, b.net);
        let c = run(8);
        assert_ne!(a.net, c.net, "different seed, different fates");
    }

    #[test]
    fn graceful_leaves_keep_the_forest_valid() {
        let pts = points(300, 3);
        let mut cfg = ProtoConfig::for_n(pts.len(), 4);
        cfg.leaves = (1..=30u32)
            .map(|i| (20.0 + i as f64 * 0.3, i * 7))
            .collect();
        let rep = ProtoSim::new(cfg, &pts, &pts, 3).run();
        assert_eq!(rep.departed, 30);
        assert_eq!(rep.alive, 270);
        assert_eq!(rep.orphans, 0, "leavers must not strand anyone");
        omt_tree::validate_parent_forest(rep.forest.as_ref().unwrap(), Some(4)).unwrap();
    }

    #[test]
    fn crashes_heal_through_timeouts() {
        let pts = points(300, 4);
        let mut cfg = ProtoConfig::for_n(pts.len(), 4);
        cfg.crashes = (1..=20u32)
            .map(|i| (15.0 + i as f64 * 0.2, i * 11))
            .collect();
        cfg.quiet_after = 120.0;
        cfg.deadline = 500.0;
        let rep = ProtoSim::new(cfg, &pts, &pts, 4).run();
        assert_eq!(rep.departed, 20);
        assert_eq!(rep.orphans, 0, "crash repair must re-attach all subtrees");
        omt_tree::validate_parent_forest(rep.forest.as_ref().unwrap(), Some(4)).unwrap();
    }
}
