//! Discrete-event dissemination simulation over multicast trees.
//!
//! The paper's degree constraint is a *proxy* for bandwidth: a host that
//! forwards to `k` children must serialize `k` copies of every packet onto
//! its uplink. This crate makes that cost explicit with an event-driven
//! model, so the trade-off the paper optimizes (path length vs. fan-out)
//! can be observed directly:
//!
//! * [`simulate`] — delivery timeline of one packet: each node starts
//!   forwarding after it has fully received the packet, sends to its
//!   children one after another ([`SimConfig::serialization_delay`] apart),
//!   and each copy then takes the link's propagation delay (the Euclidean
//!   edge length) plus optional random jitter;
//! * [`ChildOrder`] — the forwarding schedule (critical-subtree-first,
//!   nearest-first, or input order) — a scheduling ablation on top of the
//!   tree structure;
//! * [`simulate_with_failures`] — which receivers a packet still reaches
//!   when a set of hosts has crashed, and how much of the tree is lost.
//!
//! With `serialization_delay = 0` and no jitter, the makespan of the
//! simulation equals the tree radius exactly — tested — so the simulator
//! is a strict generalization of the paper's delay model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fault;

pub use engine::{Delivery, EventQueue};
pub use fault::{FaultPlan, NetStats, Network, Partition};

use omt_rng::{Rng, RngExt, SeedableRng};

use omt_tree::MulticastTree;

/// How a node orders its children when serializing transmissions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChildOrder {
    /// Deepest-subtree-first (critical path first) — the classic
    /// makespan-reducing schedule.
    #[default]
    CriticalFirst,
    /// Closest child first — greedy but ignores subtrees.
    NearestFirst,
    /// The order children were attached in.
    InputOrder,
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Time to push one packet copy onto the uplink; the `i`-th child's
    /// transmission starts `i · serialization_delay` after forwarding
    /// begins. This is the bandwidth cost the degree constraint models.
    pub serialization_delay: f64,
    /// Fixed per-hop processing time before a node starts forwarding.
    pub processing_delay: f64,
    /// Forwarding schedule.
    pub child_order: ChildOrder,
    /// Uniform per-link extra delay in `[0, jitter]` (0 = deterministic).
    pub jitter: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            serialization_delay: 0.0,
            processing_delay: 0.0,
            child_order: ChildOrder::CriticalFirst,
            jitter: 0.0,
        }
    }
}

impl SimConfig {
    /// The pure propagation model of the paper: no serialization, no
    /// processing, no jitter — makespan equals the tree radius.
    pub fn propagation_only() -> Self {
        Self::default()
    }

    fn validate(&self) {
        assert!(
            self.serialization_delay >= 0.0 && self.serialization_delay.is_finite(),
            "bad serialization delay"
        );
        assert!(
            self.processing_delay >= 0.0 && self.processing_delay.is_finite(),
            "bad processing delay"
        );
        assert!(self.jitter >= 0.0 && self.jitter.is_finite(), "bad jitter");
    }
}

/// The delivery timeline of one packet.
#[derive(Clone, Debug, PartialEq)]
pub struct DeliveryReport {
    /// Arrival time at each receiver.
    pub arrival: Vec<f64>,
    /// Time of the last delivery (0 for an empty tree).
    pub makespan: f64,
    /// Mean arrival time (0 for an empty tree).
    pub mean_arrival: f64,
}

/// Simulates the dissemination of one packet from the source at time 0.
///
/// Deterministic when `config.jitter == 0`; otherwise pass an RNG via
/// [`simulate_with_rng`]. This convenience wrapper panics on nonzero
/// jitter to prevent silently unseeded randomness.
///
/// # Panics
///
/// Panics if `config.jitter != 0` (use [`simulate_with_rng`]) or any
/// config field is negative/non-finite.
pub fn simulate<const D: usize>(tree: &MulticastTree<D>, config: &SimConfig) -> DeliveryReport {
    assert!(
        config.jitter == 0.0,
        "jitter needs an RNG; use simulate_with_rng"
    );
    // The RNG is never sampled when jitter is zero; any seed works.
    let mut unused = omt_rng::rngs::SmallRng::seed_from_u64(0);
    simulate_with_rng(tree, config, &mut unused)
}

/// [`simulate`] with an explicit RNG for jitter.
///
/// # Panics
///
/// Panics if any config field is negative or non-finite.
pub fn simulate_with_rng<const D: usize>(
    tree: &MulticastTree<D>,
    config: &SimConfig,
    rng: &mut dyn Rng,
) -> DeliveryReport {
    config.validate();
    let n = tree.len();
    if n == 0 {
        return DeliveryReport {
            arrival: vec![],
            makespan: 0.0,
            mean_arrival: 0.0,
        };
    }
    // Subtree depths for the critical-first schedule (delay-weighted).
    let subtree_depth = subtree_depths(tree);
    let order_children = |node: Option<usize>, children: &[u32]| -> Vec<u32> {
        let mut c: Vec<u32> = children.to_vec();
        let pos = |i: u32| {
            match node {
                None => tree.source(),
                Some(p) => tree.point(p),
            }
            .distance(&tree.point(i as usize))
        };
        match config.child_order {
            ChildOrder::InputOrder => {}
            ChildOrder::NearestFirst => {
                c.sort_by(|&a, &b| pos(a).total_cmp(&pos(b)));
            }
            ChildOrder::CriticalFirst => {
                c.sort_by(|&a, &b| {
                    let da = pos(a) + subtree_depth[a as usize];
                    let db = pos(b) + subtree_depth[b as usize];
                    db.total_cmp(&da)
                });
            }
        }
        c
    };
    let mut arrival = vec![f64::NAN; n];
    // Process nodes top-down: the source first, then BFS order (parents
    // before children is all the schedule needs).
    let forward = |ready_at: f64,
                   node: Option<usize>,
                   children: &[u32],
                   arrival: &mut Vec<f64>,
                   rng: &mut dyn Rng| {
        let start = ready_at + config.processing_delay;
        for (slot, &c) in order_children(node, children).iter().enumerate() {
            let from = match node {
                None => tree.source(),
                Some(p) => tree.point(p),
            };
            let propagation = from.distance(&tree.point(c as usize));
            let jitter = if config.jitter > 0.0 {
                rng.random_range(0.0..config.jitter)
            } else {
                0.0
            };
            arrival[c as usize] =
                start + slot as f64 * config.serialization_delay + propagation + jitter;
        }
    };
    forward(0.0, None, tree.source_children(), &mut arrival, rng);
    for u in tree.iter_bfs() {
        let at = arrival[u];
        debug_assert!(!at.is_nan(), "BFS order guarantees arrival is known");
        forward(at, Some(u), tree.children(u), &mut arrival, rng);
    }
    let makespan = arrival.iter().copied().fold(0.0, f64::max);
    let mean_arrival = arrival.iter().sum::<f64>() / n as f64;
    DeliveryReport {
        arrival,
        makespan,
        mean_arrival,
    }
}

/// Delay-weighted depth of each node's subtree (longest downstream path).
fn subtree_depths<const D: usize>(tree: &MulticastTree<D>) -> Vec<f64> {
    let n = tree.len();
    let mut depth = vec![0.0f64; n];
    // Children are processed before parents when BFS order is reversed.
    let order: Vec<usize> = tree.iter_bfs().collect();
    for &u in order.iter().rev() {
        let mut best = 0.0f64;
        for &c in tree.children(u) {
            let d = tree.point(u).distance(&tree.point(c as usize)) + depth[c as usize];
            best = best.max(d);
        }
        depth[u] = best;
    }
    depth
}

/// Outcome of a dissemination with crashed hosts.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureReport {
    /// Whether each receiver got the packet (crashed hosts count as not
    /// delivered).
    pub delivered: Vec<bool>,
    /// Number of surviving receivers that got the packet.
    pub reached: usize,
    /// Number of *surviving* receivers cut off by upstream crashes.
    pub stranded: usize,
    /// Number of crashed receivers.
    pub crashed: usize,
}

impl FailureReport {
    /// Fraction of *surviving* receivers cut off by upstream crashes
    /// (0.0 when every receiver crashed or the tree is empty).
    pub fn stranded_fraction(&self) -> f64 {
        let survivors = self.delivered.len() - self.crashed;
        if survivors == 0 {
            0.0
        } else {
            self.stranded as f64 / survivors as f64
        }
    }
}

/// Which receivers a packet still reaches when the hosts in `failed` have
/// crashed (they neither receive nor forward).
///
/// # Panics
///
/// Panics if a failed index is out of range.
pub fn simulate_with_failures<const D: usize>(
    tree: &MulticastTree<D>,
    failed: &[usize],
) -> FailureReport {
    let n = tree.len();
    let mut crashed_flag = vec![false; n];
    for &f in failed {
        assert!(f < n, "failed index {f} out of range");
        crashed_flag[f] = true;
    }
    let mut delivered = vec![false; n];
    for u in tree.iter_bfs() {
        if crashed_flag[u] {
            continue;
        }
        let parent_ok = match tree.parent(u) {
            omt_tree::ParentRef::Source => true,
            omt_tree::ParentRef::Node(p) => delivered[p],
        };
        delivered[u] = parent_ok;
    }
    let crashed = crashed_flag.iter().filter(|&&c| c).count();
    let reached = delivered.iter().filter(|&&d| d).count();
    let stranded = n - crashed - reached;
    FailureReport {
        delivered,
        reached,
        stranded,
        crashed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::Point2;
    use omt_tree::TreeBuilder;

    /// source -> 0 (1,0) -> 1 (2,0); source -> 2 (0,1)
    fn tree() -> MulticastTree<2> {
        let pts = vec![
            Point2::new([1.0, 0.0]),
            Point2::new([2.0, 0.0]),
            Point2::new([0.0, 1.0]),
        ];
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts);
        b.attach_to_source(0).unwrap();
        b.attach(1, 0).unwrap();
        b.attach_to_source(2).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn propagation_only_equals_radius() {
        let t = tree();
        let rep = simulate(&t, &SimConfig::propagation_only());
        assert_eq!(rep.arrival, vec![1.0, 2.0, 1.0]);
        assert_eq!(rep.makespan, t.radius());
        assert!((rep.mean_arrival - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn serialization_penalizes_fanout() {
        let t = tree();
        let cfg = SimConfig {
            serialization_delay: 0.5,
            ..SimConfig::default()
        };
        let rep = simulate(&t, &cfg);
        // Critical-first: the source serves child 0 (subtree depth 1+1=2)
        // before child 2 (depth 1). Child 1 unaffected (only child).
        assert_eq!(rep.arrival[0], 1.0);
        assert_eq!(rep.arrival[1], 2.0);
        assert_eq!(rep.arrival[2], 1.5);
        assert_eq!(rep.makespan, 2.0);
    }

    #[test]
    fn child_order_matters() {
        let t = tree();
        let nearest = SimConfig {
            serialization_delay: 0.5,
            child_order: ChildOrder::NearestFirst,
            ..SimConfig::default()
        };
        let rep = simulate(&t, &nearest);
        // Nearest-first serves child 2 (dist 1.0 ties with child 0; stable
        // sort keeps input order on ties, so child 0 first — construct a
        // clearer case below).
        assert!(rep.makespan >= 2.0);

        // A case where critical-first strictly beats nearest-first:
        // a very close leaf and a farther child with a deep subtree.
        let pts = vec![
            Point2::new([0.1, 0.0]), // close leaf
            Point2::new([1.0, 0.0]), // subtree root
            Point2::new([2.0, 0.0]), // deep child
        ];
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts);
        b.attach_to_source(0).unwrap();
        b.attach_to_source(1).unwrap();
        b.attach(2, 1).unwrap();
        let t = b.finish().unwrap();
        let mk = |order| {
            simulate(
                &t,
                &SimConfig {
                    serialization_delay: 1.0,
                    child_order: order,
                    ..SimConfig::default()
                },
            )
            .makespan
        };
        assert!(
            mk(ChildOrder::CriticalFirst) < mk(ChildOrder::NearestFirst),
            "{} vs {}",
            mk(ChildOrder::CriticalFirst),
            mk(ChildOrder::NearestFirst)
        );
    }

    #[test]
    fn processing_delay_accumulates_per_hop() {
        let t = tree();
        let cfg = SimConfig {
            processing_delay: 0.25,
            ..SimConfig::default()
        };
        let rep = simulate(&t, &cfg);
        assert_eq!(rep.arrival[0], 1.25);
        assert_eq!(rep.arrival[1], 2.5); // two hops, two processing delays
    }

    #[test]
    fn jitter_requires_rng_and_is_bounded() {
        use omt_rng::rngs::SmallRng;
        use omt_rng::SeedableRng;
        let t = tree();
        let cfg = SimConfig {
            jitter: 0.1,
            ..SimConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let rep = simulate_with_rng(&t, &cfg, &mut rng);
        let base = simulate(&t, &SimConfig::propagation_only());
        for (j, b) in rep.arrival.iter().zip(&base.arrival) {
            assert!(*j >= *b && *j <= *b + 0.2 + 1e-12, "{j} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "use simulate_with_rng")]
    fn simulate_rejects_jitter_without_rng() {
        let t = tree();
        let _ = simulate(
            &t,
            &SimConfig {
                jitter: 0.5,
                ..SimConfig::default()
            },
        );
    }

    #[test]
    fn empty_tree() {
        let t = TreeBuilder::<2>::new(Point2::ORIGIN, vec![])
            .finish()
            .unwrap();
        let rep = simulate(&t, &SimConfig::propagation_only());
        assert_eq!(rep.makespan, 0.0);
        let f = simulate_with_failures(&t, &[]);
        assert_eq!(f.reached, 0);
    }

    #[test]
    fn failures_cut_subtrees() {
        let t = tree();
        // Crash node 0: node 1 is stranded, node 2 unaffected.
        let f = simulate_with_failures(&t, &[0]);
        assert_eq!(f.delivered, vec![false, false, true]);
        assert_eq!(f.crashed, 1);
        assert_eq!(f.stranded, 1);
        assert_eq!(f.reached, 1);
        // No failures: everyone delivered.
        let f = simulate_with_failures(&t, &[]);
        assert_eq!(f.reached, 3);
        assert_eq!(f.stranded, 0);
    }

    #[test]
    fn stranded_fraction_normalizes_over_survivors() {
        let t = tree();
        // Crash node 0: of the 2 survivors, node 1 is stranded.
        let f = simulate_with_failures(&t, &[0]);
        assert_eq!(f.stranded_fraction(), 0.5);
        let f = simulate_with_failures(&t, &[]);
        assert_eq!(f.stranded_fraction(), 0.0);
        // All receivers crashed: no survivors, fraction defined as 0.
        let f = simulate_with_failures(&t, &[0, 1, 2]);
        assert_eq!(f.stranded_fraction(), 0.0);
        // Empty tree.
        let empty = TreeBuilder::<2>::new(Point2::ORIGIN, vec![])
            .finish()
            .unwrap();
        assert_eq!(simulate_with_failures(&empty, &[]).stranded_fraction(), 0.0);
    }

    #[test]
    fn star_loses_to_tree_under_serialization() {
        // The experiment that motivates degree bounds: with serialization
        // cost, a huge-fanout star is slower than a degree-6 tree.
        use omt_baselines::star_tree;
        use omt_core::PolarGridBuilder;
        use omt_geom::{Disk, Region};
        use omt_rng::rngs::SmallRng;
        use omt_rng::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(2);
        let pts = Disk::unit().sample_n(&mut rng, 2000);
        let cfg = SimConfig {
            serialization_delay: 0.01,
            ..SimConfig::default()
        };
        let star = star_tree(Point2::ORIGIN, &pts).unwrap();
        let grid = PolarGridBuilder::new().build(Point2::ORIGIN, &pts).unwrap();
        let star_makespan = simulate(&star, &cfg).makespan;
        let grid_makespan = simulate(&grid, &cfg).makespan;
        // Star: ~2000 serialized sends = ~20 time units; grid: bounded
        // fanout pipelines the work.
        assert!(
            grid_makespan < star_makespan / 3.0,
            "grid {grid_makespan} vs star {star_makespan}"
        );
    }

    #[test]
    fn failure_of_shallow_nodes_strands_more() {
        use omt_core::PolarGridBuilder;
        use omt_geom::{Disk, Region};
        use omt_rng::rngs::SmallRng;
        use omt_rng::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let pts = Disk::unit().sample_n(&mut rng, 1000);
        let t = PolarGridBuilder::new().build(Point2::ORIGIN, &pts).unwrap();
        // Crash the source's direct children vs. the same number of leaves.
        let shallow: Vec<usize> = t.source_children().iter().map(|&c| c as usize).collect();
        let leaves: Vec<usize> = (0..t.len())
            .filter(|&i| t.children(i).is_empty())
            .take(shallow.len())
            .collect();
        let f_shallow = simulate_with_failures(&t, &shallow);
        let f_leaves = simulate_with_failures(&t, &leaves);
        assert!(f_shallow.stranded > f_leaves.stranded);
        assert_eq!(f_leaves.stranded, 0);
    }
}

/// Steady-state analysis of streaming (many back-to-back packets) through
/// a tree.
///
/// A node with out-degree `d` spends `d · serialization_delay` of uplink
/// time per packet, so the sustainable packet interval is set by the
/// busiest node. Total completion time for `packets` packets is the
/// single-packet makespan plus `(packets - 1)` steady-state intervals —
/// the standard pipeline bound, exact when every node forwards
/// back-to-back.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// Time until the last receiver has the last packet.
    pub completion: f64,
    /// Steady-state interval between consecutive packet deliveries
    /// (`max_d out_degree(d) · serialization_delay`).
    pub interval: f64,
    /// The out-degree of the bottleneck node (including the source).
    pub bottleneck_degree: u32,
}

/// Computes the streaming pipeline bound for `packets` back-to-back
/// packets under `config`.
///
/// # Panics
///
/// Panics if `packets == 0`, `config.jitter != 0` (streaming analysis is
/// deterministic), or any config field is invalid.
pub fn stream_completion<const D: usize>(
    tree: &MulticastTree<D>,
    config: &SimConfig,
    packets: u64,
) -> StreamReport {
    assert!(packets > 0, "need at least one packet");
    assert!(config.jitter == 0.0, "streaming analysis is deterministic");
    let first = simulate(tree, config);
    let bottleneck_degree = tree.max_out_degree();
    let interval = f64::from(bottleneck_degree) * config.serialization_delay;
    StreamReport {
        completion: first.makespan + (packets - 1) as f64 * interval,
        interval,
        bottleneck_degree,
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use omt_geom::Point2;
    use omt_tree::TreeBuilder;

    fn fanout_tree(n: usize, deg: u32) -> MulticastTree<2> {
        let pts: Vec<Point2> = (0..n)
            .map(|i| Point2::new([(i as f64 * 0.37).cos(), (i as f64 * 0.37).sin()]))
            .collect();
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts).max_out_degree(deg);
        let mut parents = vec![];
        let mut head = 0usize;
        let mut used = 0u32;
        for i in 0..n {
            if used >= deg {
                head += 1;
                used = 0;
            }
            if parents.is_empty() || head == 0 && parents.len() < deg as usize {
                if b.remaining_source_degree() == Some(0) {
                    b.attach(i, parents[0]).unwrap();
                } else {
                    b.attach_to_source(i).unwrap();
                }
            } else {
                b.attach(i, parents[head - 1]).unwrap();
            }
            parents.push(i);
            used += 1;
        }
        b.finish().unwrap()
    }

    #[test]
    fn single_packet_equals_simulate() {
        let t = fanout_tree(30, 3);
        let cfg = SimConfig {
            serialization_delay: 0.05,
            ..SimConfig::default()
        };
        let stream = stream_completion(&t, &cfg, 1);
        let single = simulate(&t, &cfg);
        assert!((stream.completion - single.makespan).abs() < 1e-12);
        assert_eq!(stream.bottleneck_degree, 3);
    }

    #[test]
    fn throughput_scales_with_degree() {
        // Lower fan-out sustains a higher packet rate (smaller interval):
        // the throughput side of the latency/fan-out trade-off.
        let cfg = SimConfig {
            serialization_delay: 0.01,
            ..SimConfig::default()
        };
        let narrow = stream_completion(&fanout_tree(100, 2), &cfg, 1000);
        let wide = stream_completion(&fanout_tree(100, 8), &cfg, 1000);
        assert!(narrow.interval < wide.interval);
        // For long streams the interval dominates completion.
        assert!(narrow.completion < wide.completion);
    }

    #[test]
    fn completion_is_affine_in_packets() {
        let t = fanout_tree(50, 4);
        let cfg = SimConfig {
            serialization_delay: 0.02,
            ..SimConfig::default()
        };
        let one = stream_completion(&t, &cfg, 1).completion;
        let ten = stream_completion(&t, &cfg, 10).completion;
        let hundred = stream_completion(&t, &cfg, 100).completion;
        let slope1 = (ten - one) / 9.0;
        let slope2 = (hundred - ten) / 90.0;
        assert!((slope1 - slope2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn zero_packets_rejected() {
        let t = fanout_tree(5, 2);
        let _ = stream_completion(&t, &SimConfig::propagation_only(), 0);
    }
}
