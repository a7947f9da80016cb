//! Euclidean geometry substrate for overlay multicast tree construction.
//!
//! This crate provides the geometric vocabulary shared by the rest of the
//! workspace, which reproduces *Overlay Multicast Trees of Minimal Delay*
//! (Riabov, Liu, Zhang):
//!
//! * [`Point`] — const-generic fixed-dimension points ([`Point2`],
//!   [`Point3`]).
//! * [`PolarPoint`] / [`SphericalPoint`] — the coordinate systems the
//!   paper's grid and bisection algorithms are expressed in.
//! * [`RingSegment`] / [`ShellCell`] — polar-grid cells with the exact
//!   4-way / 8-way splits used by the bisection algorithm.
//! * [`Region`] and implementations ([`Ball`], [`BoxRegion`],
//!   [`ConvexPolygon`], [`Annulus`]) — containment + uniform sampling for
//!   the experiment workloads.
//! * [`sample`] — low-level uniform samplers (disk, ball, sphere, box,
//!   triangle) built only on `omt-rng`'s uniform primitives.
//! * [`hull`] / [`enclosing`] — convex hulls, rotating-calipers diameters,
//!   and smallest enclosing circles (Welzl) for the minimum-diameter tree
//!   variant.
//! * [`deepest_interior`] — the pole of inaccessibility of a
//!   [`ConvexPolygon`], the convex-region source placement the experiments
//!   use.
//!
//! # Examples
//!
//! Sample the paper's canonical workload — `n` points uniform in the unit
//! disk with the source at the center:
//!
//! ```
//! use omt_geom::{Disk, Point2, Region};
//! use omt_rng::rngs::SmallRng;
//! use omt_rng::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let points = Disk::unit().sample_n(&mut rng, 1000);
//! assert_eq!(points.len(), 1000);
//! assert!(points.iter().all(|p| p.norm() <= 1.0));
//! let source = Point2::ORIGIN;
//! # let _ = source;
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod enclosing;
pub mod hull;
pub mod point;
pub mod polar;
pub mod region;
pub mod sample;
pub mod segment;
pub mod soa;

pub use enclosing::{bounding_sphere, smallest_enclosing_circle, Circle, Sphere};
pub use hull::{convex_hull, diameter};
pub use point::{Point, Point2, Point3};
pub use polar::{normalize_angle, Arc, PolarPoint, SphericalPoint};
pub use region::{
    deepest_interior, Annulus, Ball, BoxRegion, ConvexPolygon, Disk, Region, Translated,
};
pub use segment::{RingSegment, ShellCell};
pub use soa::{polar_row, spherical_row, PointStore, PointStore2, PointStore3, SOA_CHUNK};
