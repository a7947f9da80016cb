//! Breadth-first fan-out attachment for degenerate inputs (all points at
//! the source): any degree-respecting tree has radius 0, so only
//! feasibility matters.

use omt_tree::{ParentRef, TreeError};

use crate::sink::{attach, AttachSink};

/// Attaches rows `0..n` of any sink in a breadth-first fan-out respecting
/// `max_out_degree`: the bisection builders' `TreeBuilder` and the grid
/// builders' arena.
///
/// # Panics
///
/// Panics if `max_out_degree == 0` with `n > 0`.
pub(crate) fn fanout_sink<S: AttachSink>(
    b: &mut S,
    n: usize,
    max_out_degree: u32,
) -> Result<(), TreeError> {
    assert!(
        max_out_degree >= 1 || n == 0,
        "fan-out needs a positive budget"
    );
    // Parents in the order they become available: the source, then every
    // node as it is attached. Each parent adopts `max_out_degree` children.
    let mut parents: Vec<ParentRef> = vec![ParentRef::Source];
    let mut head = 0usize;
    let mut used = 0u32;
    for i in 0..n {
        if used >= max_out_degree {
            head += 1;
            used = 0;
        }
        attach(b, i, parents[head])?;
        parents.push(ParentRef::Node(i));
        used += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Point2, Point3};
    use omt_tree::TreeBuilder;

    #[test]
    fn attaches_everything_within_budget() {
        for deg in [1u32, 2, 5] {
            let pts = vec![Point2::new([1.0, 1.0]); 23];
            let mut b = TreeBuilder::new(Point2::ORIGIN, pts).max_out_degree(deg);
            fanout_sink(&mut b, 23, deg).unwrap();
            let t = b.finish().unwrap();
            assert_eq!(t.len(), 23);
            t.validate(Some(deg)).unwrap();
        }
    }

    #[test]
    fn works_in_three_dimensions() {
        let pts = vec![Point3::ORIGIN; 9];
        let mut b = TreeBuilder::new(Point3::ORIGIN, pts).max_out_degree(2);
        fanout_sink(&mut b, 9, 2).unwrap();
        b.finish().unwrap().validate(Some(2)).unwrap();
    }
}
