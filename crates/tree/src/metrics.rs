//! Aggregate tree quality metrics.

use crate::tree::MulticastTree;

/// A summary of the quality measures the paper (and the wider overlay
/// multicast literature) reports for a tree.
///
/// Obtain one with [`MulticastTree::metrics`].
#[derive(Clone, Debug, PartialEq)]
pub struct TreeMetrics {
    /// Number of receivers.
    pub len: usize,
    /// Largest source-to-receiver delay ("Delay" in Table I; the paper's
    /// objective).
    pub radius: f64,
    /// Largest delay between any two nodes along tree edges (the
    /// minimum-diameter variant's objective).
    pub diameter: f64,
    /// Sum of all edge lengths (total unicast traffic per packet).
    pub total_edge_weight: f64,
    /// Mean source-to-receiver delay.
    pub mean_depth: f64,
    /// Largest hop count.
    pub max_hops: u32,
    /// Mean hop count.
    pub mean_hops: f64,
    /// Largest out-degree (including the source).
    pub max_out_degree: u32,
    /// Worst multiplicative stretch: `tree delay / direct Euclidean
    /// distance`, over receivers at positive distance from the source.
    pub max_stretch: f64,
    /// Mean multiplicative stretch.
    pub mean_stretch: f64,
}

impl<const D: usize> MulticastTree<D> {
    /// Computes the full [`TreeMetrics`] summary in two O(n) passes.
    ///
    /// ```
    /// use omt_geom::Point2;
    /// use omt_tree::TreeBuilder;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = TreeBuilder::new(Point2::ORIGIN, vec![Point2::new([1.0, 0.0])]);
    /// b.attach_to_source(0)?;
    /// let m = b.finish()?.metrics();
    /// assert_eq!(m.radius, 1.0);
    /// assert_eq!(m.max_stretch, 1.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn metrics(&self) -> TreeMetrics {
        let n = self.len();
        if n == 0 {
            return TreeMetrics {
                len: 0,
                radius: 0.0,
                diameter: 0.0,
                total_edge_weight: 0.0,
                mean_depth: 0.0,
                max_hops: 0,
                mean_hops: 0.0,
                max_out_degree: 0,
                max_stretch: 0.0,
                mean_stretch: 0.0,
            };
        }
        let mut depth_sum = 0.0;
        let mut hop_sum = 0u64;
        let mut weight_sum = 0.0;
        let mut max_stretch = 0.0_f64;
        let mut stretch_sum = 0.0;
        let mut stretch_count = 0usize;
        for i in 0..n {
            depth_sum += self.depth(i);
            hop_sum += u64::from(self.hops(i));
            weight_sum += self.edge_weight(i);
            let direct = self.source().distance(&self.point(i));
            if direct > 0.0 {
                let s = self.depth(i) / direct;
                max_stretch = max_stretch.max(s);
                stretch_sum += s;
                stretch_count += 1;
            }
        }
        TreeMetrics {
            len: n,
            radius: self.radius(),
            diameter: self.diameter(),
            total_edge_weight: weight_sum,
            mean_depth: depth_sum / n as f64,
            max_hops: self.max_hops(),
            mean_hops: hop_sum as f64 / n as f64,
            max_out_degree: self.max_out_degree(),
            max_stretch,
            mean_stretch: if stretch_count == 0 {
                0.0
            } else {
                stretch_sum / stretch_count as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::TreeBuilder;
    use omt_geom::Point2;

    fn chain(n: usize) -> crate::MulticastTree<2> {
        let pts: Vec<Point2> = (1..=n).map(|i| Point2::new([i as f64, 0.0])).collect();
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts);
        if n > 0 {
            b.attach_to_source(0).unwrap();
            for i in 1..n {
                b.attach(i, i - 1).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn chain_metrics() {
        let m = chain(4).metrics();
        assert_eq!(m.len, 4);
        assert_eq!(m.radius, 4.0);
        assert_eq!(m.diameter, 4.0);
        assert_eq!(m.total_edge_weight, 4.0);
        assert_eq!(m.max_hops, 4);
        assert!((m.mean_depth - 2.5).abs() < 1e-12);
        assert!((m.mean_hops - 2.5).abs() < 1e-12);
        assert_eq!(m.max_out_degree, 1);
        // Collinear chain: every delay equals the direct distance.
        assert!((m.max_stretch - 1.0).abs() < 1e-12);
        assert!((m.mean_stretch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stretch_detects_detours() {
        // Node 1 sits next to the source but is attached through node 0.
        let pts = vec![Point2::new([1.0, 0.0]), Point2::new([0.1, 0.0])];
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts);
        b.attach_to_source(0).unwrap();
        b.attach(1, 0).unwrap();
        let m = b.finish().unwrap().metrics();
        // Delay to node 1 = 1.0 + 0.9 = 1.9 over direct 0.1 -> stretch 19.
        assert!((m.max_stretch - 19.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics() {
        let t = TreeBuilder::<2>::new(Point2::ORIGIN, vec![])
            .finish()
            .unwrap();
        let m = t.metrics();
        assert_eq!(m.len, 0);
        assert_eq!(m.radius, 0.0);
    }

    #[test]
    fn node_at_source_position_has_no_stretch_entry() {
        let pts = vec![Point2::ORIGIN, Point2::new([1.0, 0.0])];
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts);
        b.attach_to_source(0).unwrap();
        b.attach_to_source(1).unwrap();
        let m = b.finish().unwrap().metrics();
        assert_eq!(m.max_stretch, 1.0);
        assert_eq!(m.mean_stretch, 1.0);
    }
}
