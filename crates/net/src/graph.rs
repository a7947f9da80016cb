//! Weighted undirected graphs and synthetic Internet-like topologies.
//!
//! The paper assumes hosts have already been mapped into Euclidean space
//! from measured delays (GNP, reference [12]). To exercise that pipeline we
//! need an underlay to measure: the classic Waxman random graph — routers
//! scattered in a plane, link probability decaying with distance — with
//! propagation delays proportional to link length.

use omt_rng::{Rng, RngExt};

use omt_geom::Point2;

/// A weighted undirected graph with router positions.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    positions: Vec<Point2>,
    /// Adjacency: for each node, `(neighbor, delay)` pairs.
    adjacency: Vec<Vec<(u32, f64)>>,
    edges: usize,
}

impl Graph {
    /// Creates an empty graph with `n` nodes at the given positions.
    pub fn new(positions: Vec<Point2>) -> Self {
        let n = positions.len();
        Self {
            positions,
            adjacency: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Position of node `i`.
    pub fn position(&self, i: usize) -> Point2 {
        self.positions[i]
    }

    /// Neighbors of node `i` with link delays.
    pub fn neighbors(&self, i: usize) -> &[(u32, f64)] {
        &self.adjacency[i]
    }

    /// Adds an undirected edge. Parallel edges are permitted but useless;
    /// callers avoid them.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `u == v`, or the delay is not
    /// positive and finite.
    pub fn add_edge(&mut self, u: usize, v: usize, delay: f64) {
        assert!(
            u < self.len() && v < self.len(),
            "edge endpoint out of range"
        );
        assert!(u != v, "self loops are not allowed");
        assert!(delay > 0.0 && delay.is_finite(), "bad delay {delay}");
        self.adjacency[u].push((v as u32, delay));
        self.adjacency[v].push((u as u32, delay));
        self.edges += 1;
    }

    /// Single-source shortest path delays (Dijkstra). Unreachable nodes get
    /// `f64::INFINITY`.
    pub fn dijkstra(&self, source: usize) -> Vec<f64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        #[derive(PartialEq)]
        struct Key(f64);
        impl Eq for Key {}
        impl PartialOrd for Key {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Key {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        let n = self.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = BinaryHeap::new();
        dist[source] = 0.0;
        heap.push(Reverse((Key(0.0), source as u32)));
        while let Some(Reverse((Key(d), u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.adjacency[u as usize] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((Key(nd), v)));
                }
            }
        }
        dist
    }

    /// Whether the graph is connected (trivially true for `n ≤ 1`).
    pub fn is_connected(&self) -> bool {
        if self.len() <= 1 {
            return true;
        }
        let d = self.dijkstra(0);
        d.iter().all(|x| x.is_finite())
    }
}

/// Parameters of the Waxman random-graph model.
///
/// Link probability between routers `u, v` at distance `d` is
/// `alpha · exp(-d / (beta · L))` with `L` the maximum possible distance.
/// After sampling, the graph is stitched connected by linking each isolated
/// component to its nearest neighbor component (a standard repair).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaxmanConfig {
    /// Number of routers.
    pub routers: usize,
    /// Link density parameter (typical 0.1–0.3).
    pub alpha: f64,
    /// Link locality parameter (typical 0.1–0.2; larger = longer links).
    pub beta: f64,
    /// Side length of the square the routers live in (e.g. km).
    pub side: f64,
    /// Delay per unit distance (e.g. ms/km for fiber ≈ 0.005).
    pub delay_per_unit: f64,
    /// Fixed per-link processing delay added to every edge.
    pub base_delay: f64,
}

impl Default for WaxmanConfig {
    fn default() -> Self {
        Self {
            routers: 200,
            alpha: 0.15,
            beta: 0.15,
            side: 1000.0,
            delay_per_unit: 0.005,
            base_delay: 0.1,
        }
    }
}

impl WaxmanConfig {
    /// Samples a connected Waxman graph.
    ///
    /// # Panics
    ///
    /// Panics if `routers == 0` or parameters are non-positive.
    pub fn sample(&self, rng: &mut (impl Rng + ?Sized)) -> Graph {
        assert!(self.routers > 0, "need at least one router");
        assert!(
            self.alpha > 0.0 && self.beta > 0.0 && self.side > 0.0 && self.delay_per_unit > 0.0,
            "Waxman parameters must be positive"
        );
        let n = self.routers;
        let positions: Vec<Point2> = (0..n)
            .map(|_| {
                Point2::new([
                    rng.random_range(0.0..self.side),
                    rng.random_range(0.0..self.side),
                ])
            })
            .collect();
        let l = self.side * 2f64.sqrt();
        let mut g = Graph::new(positions);
        for u in 0..n {
            for v in (u + 1)..n {
                let d = g.positions[u].distance(&g.positions[v]);
                let p = self.alpha * (-d / (self.beta * l)).exp();
                if rng.random::<f64>() < p {
                    g.add_edge(u, v, self.link_delay(d));
                }
            }
        }
        stitch_connected(&mut g, |d| self.link_delay(d));
        g
    }

    fn link_delay(&self, distance: f64) -> f64 {
        self.base_delay + distance * self.delay_per_unit
    }
}

/// Links each non-root component to the main component through the
/// geometrically closest node pair, pricing repair edges with
/// `link_delay` (a standard connectivity repair for geometric random
/// graphs).
fn stitch_connected(g: &mut Graph, link_delay: impl Fn(f64) -> f64) {
    let n = g.len();
    if n == 0 {
        return;
    }
    // Union-find over current edges.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for u in 0..n {
        for &(v, _) in g.neighbors(u).to_vec().iter() {
            let (ru, rv) = (find(&mut parent, u as u32), find(&mut parent, v));
            if ru != rv {
                parent[ru as usize] = rv;
            }
        }
    }
    loop {
        // Gather components; stop when one remains.
        let root0 = find(&mut parent, 0);
        let stray: Vec<u32> = (0..n as u32)
            .filter(|&x| find(&mut parent, x) != root0)
            .collect();
        if stray.is_empty() {
            break;
        }
        // Closest pair between the main component and any stray node.
        let mut best: Option<(f64, usize, usize)> = None;
        for &s in &stray {
            for m in 0..n {
                if find(&mut parent, m as u32) != root0 {
                    continue;
                }
                let d = g.positions[s as usize].distance(&g.positions[m]);
                if best.as_ref().is_none_or(|(bd, _, _)| d < *bd) {
                    best = Some((d, s as usize, m));
                }
            }
        }
        let (d, s, m) = best.expect("main component is nonempty");
        g.add_edge(s, m, link_delay(d).max(f64::MIN_POSITIVE));
        let (rs, rm) = (find(&mut parent, s as u32), find(&mut parent, m as u32));
        parent[rs as usize] = rm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    #[test]
    fn waxman_is_connected() {
        let mut rng = SmallRng::seed_from_u64(1);
        for routers in [1usize, 2, 10, 150] {
            let g = WaxmanConfig {
                routers,
                ..WaxmanConfig::default()
            }
            .sample(&mut rng);
            assert_eq!(g.len(), routers);
            assert!(g.is_connected(), "{routers} routers disconnected");
        }
    }

    #[test]
    fn sparse_waxman_still_connected_via_stitching() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = WaxmanConfig {
            routers: 100,
            alpha: 0.01, // almost no organic links
            beta: 0.05,
            ..WaxmanConfig::default()
        }
        .sample(&mut rng);
        assert!(g.is_connected());
        assert!(g.edge_count() >= 99); // at least a spanning structure
    }

    #[test]
    fn dijkstra_hand_checked() {
        // Triangle with a shortcut.
        let mut g = Graph::new(vec![
            Point2::new([0.0, 0.0]),
            Point2::new([1.0, 0.0]),
            Point2::new([2.0, 0.0]),
        ]);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 5.0);
        let d = g.dijkstra(0);
        assert_eq!(d, vec![0.0, 1.0, 2.0]);
        let d = g.dijkstra(2);
        assert_eq!(d, vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let g = Graph::new(vec![Point2::ORIGIN, Point2::new([1.0, 0.0])]);
        let d = g.dijkstra(0);
        assert_eq!(d[0], 0.0);
        assert!(d[1].is_infinite());
        assert!(!g.is_connected());
    }

    #[test]
    fn delays_grow_with_distance() {
        let cfg = WaxmanConfig::default();
        assert!(cfg.link_delay(100.0) > cfg.link_delay(10.0));
        assert!(cfg.link_delay(0.0) >= cfg.base_delay);
    }

    #[test]
    fn triangle_inequality_violations_exist_in_underlays() {
        // Shortest-path metrics are metrics, but the *positions* don't
        // determine them: two geometrically close routers can be far apart
        // in delay. This asymmetry is exactly why embedding is lossy.
        let mut rng = SmallRng::seed_from_u64(5);
        let g = WaxmanConfig {
            routers: 60,
            alpha: 0.08,
            ..WaxmanConfig::default()
        }
        .sample(&mut rng);
        let mut found = false;
        let d0 = g.dijkstra(0);
        for (v, &delay) in d0.iter().enumerate().skip(1) {
            let geo = g.position(0).distance(&g.position(v));
            let cfg = WaxmanConfig::default();
            if delay > 3.0 * cfg.link_delay(geo) {
                found = true;
                break;
            }
        }
        // Not guaranteed, but overwhelmingly likely at this sparsity.
        assert!(found, "expected at least one delay-inflated pair");
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_rejected() {
        let mut g = Graph::new(vec![Point2::ORIGIN]);
        g.add_edge(0, 0, 1.0);
    }

    #[test]
    fn edge_counts() {
        let mut g = Graph::new(vec![Point2::ORIGIN, Point2::new([1.0, 0.0])]);
        g.add_edge(0, 1, 0.5);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[(1, 0.5)]);
    }
}
