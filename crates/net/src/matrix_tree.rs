//! Degree-constrained minimum-delay trees built **directly on a delay
//! matrix** — no coordinates, no embedding.
//!
//! This is the strongest coordinate-free reference for the embedding
//! experiments: the compact-tree greedy run on *true* measured delays. Any
//! embedding pipeline pays two costs against it — embedding error and the
//! tree algorithm's sensitivity to that error. It is quadratic, so it also
//! represents what the paper's scalable algorithm is buying its linearity
//! against.

use crate::delay::DelayMatrix;

/// A spanning tree over matrix-indexed hosts (no geometry).
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixTree {
    /// Matrix index of the source host.
    source: usize,
    /// Receivers in matrix indices.
    receivers: Vec<usize>,
    /// `parent[i]`: index into `receivers` (or `None` = the source) for
    /// receiver `i`.
    parent: Vec<Option<usize>>,
    /// Source-to-receiver delay along the tree, per receiver.
    delay: Vec<f64>,
}

impl MatrixTree {
    /// Number of receivers.
    pub fn len(&self) -> usize {
        self.receivers.len()
    }

    /// True if there are no receivers.
    pub fn is_empty(&self) -> bool {
        self.receivers.is_empty()
    }

    /// The source's matrix index.
    pub fn source(&self) -> usize {
        self.source
    }

    /// Receiver `i`'s matrix index.
    pub fn receiver(&self, i: usize) -> usize {
        self.receivers[i]
    }

    /// Parent of receiver `i` (`None` = the source).
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// Tree delay from the source to receiver `i`.
    pub fn delay(&self, i: usize) -> f64 {
        self.delay[i]
    }

    /// The tree radius: the largest source-to-receiver delay.
    pub fn radius(&self) -> f64 {
        self.delay.iter().copied().fold(0.0, f64::max)
    }
}

/// Builds a compact tree (greedy minimum-delay attachment) over the hosts
/// of a delay matrix, with `source` as the root and every other host a
/// receiver, under a uniform out-degree bound. `O(n²)`.
///
/// # Panics
///
/// Panics if `source` is out of range or `max_out_degree == 0` with more
/// than zero receivers.
///
/// # Examples
///
/// ```
/// use omt_net::{matrix_compact_tree, DelayMatrix};
///
/// // Hosts 0,1,2 on a line: 0-1 = 1, 1-2 = 1, 0-2 = 2.
/// let m = DelayMatrix::from_fn(3, |i, j| (i.abs_diff(j)) as f64);
/// let tree = matrix_compact_tree(&m, 0, 1);
/// // Degree 1 forces the chain 0 -> 1 -> 2.
/// assert_eq!(tree.radius(), 2.0);
/// ```
pub fn matrix_compact_tree(delays: &DelayMatrix, source: usize, max_out_degree: u32) -> MatrixTree {
    let n_hosts = delays.len();
    assert!(source < n_hosts, "source {source} out of range");
    let receivers: Vec<usize> = (0..n_hosts).filter(|&h| h != source).collect();
    let n = receivers.len();
    assert!(
        max_out_degree > 0 || n == 0,
        "a positive degree budget is required"
    );
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut delay = vec![f64::INFINITY; n];
    let mut attached = vec![false; n];
    let mut degree_used = vec![0u32; n + 1]; // last slot = source
                                             // best[i] = (delay via best parent, parent slot) for unattached i.
    let mut best: Vec<(f64, Option<usize>)> = receivers
        .iter()
        .map(|&h| (delays.get(source, h), None))
        .collect();
    for _ in 0..n {
        // Pick the unattached receiver with the smallest feasible delay.
        let mut pick: Option<(f64, usize)> = None;
        for i in 0..n {
            if attached[i] {
                continue;
            }
            // Refresh if the cached parent saturated.
            let slot = best[i].1.map_or(n, |p| p);
            if degree_used[slot] >= max_out_degree {
                best[i] = recompute_best(
                    delays,
                    source,
                    &receivers,
                    &attached,
                    &delay,
                    &degree_used,
                    max_out_degree,
                    i,
                );
            }
            if pick.is_none() || best[i].0 < pick.expect("checked").0 {
                pick = Some((best[i].0, i));
            }
        }
        let (d, i) = pick.expect("n attaches for n receivers");
        attached[i] = true;
        delay[i] = d;
        parent[i] = best[i].1;
        degree_used[best[i].1.map_or(n, |p| p)] += 1;
        // Offer the new relay to the rest.
        for j in 0..n {
            if !attached[j] {
                let via = d + delays.get(receivers[i], receivers[j]);
                if via < best[j].0 {
                    best[j] = (via, Some(i));
                }
            }
        }
    }
    MatrixTree {
        source,
        receivers,
        parent,
        delay,
    }
}

#[allow(clippy::too_many_arguments)]
fn recompute_best(
    delays: &DelayMatrix,
    source: usize,
    receivers: &[usize],
    attached: &[bool],
    delay: &[f64],
    degree_used: &[u32],
    max_out_degree: u32,
    i: usize,
) -> (f64, Option<usize>) {
    let n = receivers.len();
    let mut best = (f64::INFINITY, None);
    if degree_used[n] < max_out_degree {
        best = (delays.get(source, receivers[i]), None);
    }
    for (p, &ap) in attached.iter().enumerate() {
        if ap && degree_used[p] < max_out_degree {
            let via = delay[p] + delays.get(receivers[p], receivers[i]);
            if via < best.0 {
                best = (via, Some(p));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WaxmanConfig;
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    #[test]
    fn unbounded_degree_is_shortest_path_star() {
        // With a metric matrix and a huge budget, attaching through a relay
        // never beats the direct edge.
        let mut rng = SmallRng::seed_from_u64(1);
        let g = WaxmanConfig {
            routers: 50,
            ..WaxmanConfig::default()
        }
        .sample(&mut rng);
        let hosts: Vec<usize> = (0..20).collect();
        let m = DelayMatrix::from_graph(&g, &hosts);
        let t = matrix_compact_tree(&m, 0, 100);
        for i in 0..t.len() {
            // A relay exactly on the shortest path can tie the direct edge
            // (and win by a floating-point ulp), so assert the delay, not
            // the parent.
            assert!(
                (t.delay(i) - m.get(0, t.receiver(i))).abs() < 1e-9,
                "receiver {i}: {} vs direct {}",
                t.delay(i),
                m.get(0, t.receiver(i))
            );
        }
    }

    /// Out-degree of each receiver of `t` plus, in the last slot, the
    /// source.
    fn out_degrees(t: &MatrixTree) -> Vec<u32> {
        let mut deg = vec![0u32; t.len() + 1];
        for i in 0..t.len() {
            deg[t.parent(i).unwrap_or(t.len())] += 1;
        }
        deg
    }

    #[test]
    fn degree_bound_respected_and_radius_lower_bounded() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = WaxmanConfig {
            routers: 80,
            ..WaxmanConfig::default()
        }
        .sample(&mut rng);
        let hosts: Vec<usize> = (0..40).collect();
        let m = DelayMatrix::from_graph(&g, &hosts);
        for deg in [1u32, 2, 4] {
            let t = matrix_compact_tree(&m, 3, deg);
            assert_eq!(t.len(), 39);
            let degs = out_degrees(&t);
            assert!(degs.iter().all(|&d| d <= deg), "degree {deg}: {degs:?}");
            // Radius at least the farthest direct delay.
            let lb = (0..40)
                .filter(|&h| h != 3)
                .map(|h| m.get(3, h))
                .fold(0.0, f64::max);
            assert!(t.radius() >= lb - 1e-12);
        }
    }

    #[test]
    fn delays_are_consistent_with_parents() {
        let m = DelayMatrix::from_fn(5, |i, j| (i.abs_diff(j)) as f64 * 1.5);
        let t = matrix_compact_tree(&m, 2, 2);
        for i in 0..t.len() {
            let expected = match t.parent(i) {
                None => m.get(t.source(), t.receiver(i)),
                Some(p) => t.delay(p) + m.get(t.receiver(p), t.receiver(i)),
            };
            assert!((t.delay(i) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn chain_under_degree_one() {
        let m = DelayMatrix::from_fn(4, |i, j| (i.abs_diff(j)) as f64);
        let t = matrix_compact_tree(&m, 0, 1);
        let degs = out_degrees(&t);
        assert!(degs.iter().all(|&d| d <= 1));
        assert_eq!(t.radius(), 3.0); // 0 -> 1 -> 2 -> 3
    }

    #[test]
    fn degenerate_inputs() {
        let m = DelayMatrix::from_fn(1, |_, _| 0.0);
        let t = matrix_compact_tree(&m, 0, 1);
        assert!(t.is_empty());
        assert_eq!(t.radius(), 0.0);
    }

    #[test]
    fn radius_is_sane_on_euclidean_matrices() {
        // When the matrix IS Euclidean, the matrix CPT's radius must sit
        // between the star lower bound and a loose multiple of it (the
        // greedy is near-optimal on benign uniform instances).
        use omt_geom::{Disk, Point2, Region};
        let mut rng = SmallRng::seed_from_u64(3);
        let pts = Disk::unit().sample_n(&mut rng, 30);
        let mut all = vec![Point2::ORIGIN];
        all.extend(pts.iter().copied());
        let m = DelayMatrix::from_fn(31, |i, j| all[i].distance(&all[j]));
        let t = matrix_compact_tree(&m, 0, 3);
        let lb = pts.iter().map(|p| p.norm()).fold(0.0, f64::max);
        assert!(t.radius() >= lb - 1e-12);
        assert!(t.radius() <= 1.5 * lb, "radius {} vs lb {lb}", t.radius());
    }
}
