//! The airport-domain consistency knowledge base.
//!
//! §2.2: "knowledge of the structure or layout of the task domain ... is
//! used to provide spatial constraints for evaluating consistency among
//! fragment hypotheses. For example, *runways intersect taxiways* and
//! *terminal buildings are adjacent to parking apron* ... It is important
//! to assemble a large collection of such consistency knowledge".
//!
//! Each table entry becomes a family of OPS5 productions (generated in
//! [`crate::rules`]) plus a geometric predicate evaluated by an external
//! function ([`crate::externals`]).

use crate::fragments::FragmentKind::{self, *};

/// A spatial relation testable between two fragments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Relation {
    /// The polygons intersect.
    Intersects,
    /// Boundary gap at most the parameter (metres).
    AdjacentTo,
    /// Centroid distance at most the parameter (metres).
    Near,
    /// Centroid distance at least the parameter (metres).
    FarFrom,
    /// Long axes within 10° and laterally offset at most the parameter.
    ParallelTo,
    /// Collinear continuation: aligned axes, small lateral offset, end gap
    /// at most the parameter.
    AlignedWith,
}

impl Relation {
    /// Stable rule/WM name.
    pub fn name(self) -> &'static str {
        match self {
            Relation::Intersects => "intersects",
            Relation::AdjacentTo => "adjacent-to",
            Relation::Near => "near",
            Relation::FarFrom => "far-from",
            Relation::ParallelTo => "parallel-to",
            Relation::AlignedWith => "aligned-with",
        }
    }

    /// Every relation.
    pub const ALL: [Relation; 6] = [
        Relation::Intersects,
        Relation::AdjacentTo,
        Relation::Near,
        Relation::FarFrom,
        Relation::ParallelTo,
        Relation::AlignedWith,
    ];

    /// Parses from the WM name.
    pub fn from_name(s: &str) -> Option<Relation> {
        Relation::ALL.into_iter().find(|r| r.name() == s)
    }
}

/// One consistency constraint: *subject kind* REL *object kind* (param).
#[derive(Clone, Copy, Debug)]
pub struct Constraint {
    /// Constraint id (dense; the Level-2 task discriminator).
    pub id: u32,
    /// The kind whose hypotheses this constraint evaluates.
    pub subject: FragmentKind,
    /// The partner kind searched for in the neighbourhood.
    pub object: FragmentKind,
    /// Spatial relation to test.
    pub relation: Relation,
    /// Relation parameter (metres; meaning depends on the relation).
    pub param: f64,
    /// Support contributed to *both* fragments when the relation holds.
    pub weight: i64,
}

const fn c(
    id: u32,
    subject: FragmentKind,
    object: FragmentKind,
    relation: Relation,
    param: f64,
    weight: i64,
) -> Constraint {
    Constraint {
        id,
        subject,
        object,
        relation,
        param,
        weight,
    }
}

/// The constraint table (the paper's "large collection of consistency
/// knowledge"). Deliberately redundant in places — several constraints per
/// class — because LCC's cost and the support statistics both depend on
/// the breadth of the knowledge base.
pub const CONSTRAINTS: &[Constraint] = &[
    // --- runway structure
    c(0, Runway, Taxiway, Relation::Intersects, 0.0, 3),
    c(1, Runway, Taxiway, Relation::ParallelTo, 400.0, 2),
    c(2, Runway, GrassyArea, Relation::AdjacentTo, 25.0, 1),
    c(3, Runway, Runway, Relation::AlignedWith, 600.0, 2),
    c(4, Runway, Tarmac, Relation::AdjacentTo, 25.0, 1),
    c(5, Runway, TerminalBuilding, Relation::FarFrom, 230.0, 1),
    // --- taxiway structure
    c(6, Taxiway, Runway, Relation::Intersects, 0.0, 3),
    c(7, Taxiway, ParkingApron, Relation::AdjacentTo, 40.0, 2),
    c(8, Taxiway, Taxiway, Relation::Intersects, 0.0, 1),
    c(9, Taxiway, GrassyArea, Relation::AdjacentTo, 25.0, 1),
    c(10, Taxiway, Hangar, Relation::Near, 300.0, 1),
    // --- terminal area
    c(
        11,
        TerminalBuilding,
        ParkingApron,
        Relation::AdjacentTo,
        60.0,
        3,
    ),
    c(12, TerminalBuilding, AccessRoad, Relation::Near, 250.0, 2),
    c(13, TerminalBuilding, ParkingLot, Relation::Near, 300.0, 1),
    c(
        14,
        TerminalBuilding,
        TerminalBuilding,
        Relation::Near,
        400.0,
        1,
    ),
    // --- aprons and tarmac
    c(15, ParkingApron, Taxiway, Relation::AdjacentTo, 40.0, 2),
    c(
        16,
        ParkingApron,
        TerminalBuilding,
        Relation::AdjacentTo,
        60.0,
        3,
    ),
    c(17, ParkingApron, Hangar, Relation::AdjacentTo, 80.0, 1),
    c(18, Tarmac, Taxiway, Relation::AdjacentTo, 30.0, 1),
    c(19, Tarmac, Runway, Relation::AdjacentTo, 30.0, 1),
    // --- ground transport
    c(20, AccessRoad, TerminalBuilding, Relation::Near, 250.0, 2),
    c(21, AccessRoad, ParkingLot, Relation::AdjacentTo, 40.0, 2),
    c(22, AccessRoad, AccessRoad, Relation::Intersects, 0.0, 1),
    c(23, ParkingLot, AccessRoad, Relation::AdjacentTo, 40.0, 2),
    c(24, ParkingLot, TerminalBuilding, Relation::Near, 300.0, 1),
    // --- support structures
    c(25, Hangar, Taxiway, Relation::Near, 300.0, 2),
    c(26, Hangar, ParkingApron, Relation::AdjacentTo, 80.0, 1),
    c(27, FuelTank, Tarmac, Relation::Near, 250.0, 2),
    c(28, FuelTank, TerminalBuilding, Relation::FarFrom, 230.0, 1),
    c(29, FuelTank, FuelTank, Relation::Near, 150.0, 1),
    // --- open areas
    c(30, GrassyArea, Runway, Relation::AdjacentTo, 25.0, 1),
    c(31, GrassyArea, Taxiway, Relation::AdjacentTo, 25.0, 1),
    // --- second-order layout knowledge
    c(32, Runway, ParkingLot, Relation::FarFrom, 230.0, 1),
    c(33, Taxiway, Taxiway, Relation::ParallelTo, 300.0, 1),
    c(34, AccessRoad, ParkingApron, Relation::Near, 400.0, 1),
    c(35, GrassyArea, GrassyArea, Relation::Near, 250.0, 1),
    c(36, Tarmac, Hangar, Relation::Near, 350.0, 1),
    c(37, ParkingApron, ParkingApron, Relation::Near, 600.0, 1),
    c(38, TerminalBuilding, Runway, Relation::FarFrom, 230.0, 1),
    c(39, Hangar, Hangar, Relation::Near, 300.0, 1),
    // --- suburban domain (the paper's second task area) ---
    c(40, House, Driveway, Relation::AdjacentTo, 8.0, 3),
    c(41, House, Street, Relation::Near, 60.0, 2),
    c(42, House, House, Relation::Near, 90.0, 1),
    c(43, House, Yard, Relation::AdjacentTo, 10.0, 2),
    c(44, Driveway, Street, Relation::AdjacentTo, 6.0, 3),
    c(45, Driveway, House, Relation::AdjacentTo, 8.0, 2),
    c(46, Driveway, Garage, Relation::AdjacentTo, 8.0, 1),
    c(47, Street, Street, Relation::Intersects, 0.0, 2),
    c(48, Street, Driveway, Relation::AdjacentTo, 6.0, 1),
    c(49, Street, Street, Relation::ParallelTo, 150.0, 1),
    c(50, Garage, House, Relation::Near, 35.0, 2),
    c(51, SwimmingPool, House, Relation::Near, 50.0, 2),
    c(52, SwimmingPool, Yard, Relation::AdjacentTo, 12.0, 1),
    c(53, Yard, House, Relation::AdjacentTo, 10.0, 2),
    c(54, Yard, Street, Relation::Near, 70.0, 1),
    c(55, Garage, Driveway, Relation::AdjacentTo, 8.0, 1),
];

/// Constraints whose subject is `kind` (one Level-3 task applies all of
/// these to one object).
pub fn constraints_for(kind: FragmentKind) -> impl Iterator<Item = &'static Constraint> {
    CONSTRAINTS.iter().filter(move |c| c.subject == kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragments::ALL_KINDS;

    #[test]
    fn ids_are_dense_and_ordered() {
        for (i, c) in CONSTRAINTS.iter().enumerate() {
            assert_eq!(c.id as usize, i);
        }
    }

    #[test]
    fn every_kind_has_constraints() {
        for k in ALL_KINDS {
            assert!(
                constraints_for(k).count() >= 2,
                "{k} needs at least two constraints for a meaningful Level-2 decomposition"
            );
        }
    }

    #[test]
    fn relation_names_round_trip() {
        for c in CONSTRAINTS {
            assert_eq!(Relation::from_name(c.relation.name()), Some(c.relation));
        }
    }

    #[test]
    fn parameters_are_sane() {
        for c in CONSTRAINTS {
            assert!(c.param >= 0.0 && c.param < 10_000.0);
            assert!(c.weight >= 1);
        }
    }
}
