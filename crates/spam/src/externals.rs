//! External RHS functions: the task-related computation outside the match.
//!
//! The original SPAM "forks independent processes to perform geometric
//! computations in the RHS" (Lisp) — the ported baseline replaced them with
//! C function calls (§6). These Rust closures play that role: they really
//! compute the geometry (over [`spam_geometry`]) *and* report a
//! deterministic cost in work units calibrated to paper-era hardware, which
//! is what makes SPAM's profile unusual: "while many production systems
//! spend up to 90 % of their time in match, SPAM spends only about 30-50 %
//! of its time there" (§1).

use crate::constraints::{Relation, CONSTRAINTS};
use crate::fragments::{FragmentHypothesis, FragmentKind};
use crate::scene::Scene;
use ops5::{sym, Effects, Engine, Value};
use spam_geometry::{aligned, collinearity, Obb, ADJACENCY_GAP};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Shared context captured by the external functions.
#[derive(Clone)]
pub struct ExternalCtx {
    /// The scene (regions + spatial index).
    pub scene: Arc<Scene>,
    /// Fragment table indexed by fragment id (empty during RTF, which
    /// creates the fragments).
    pub fragments: Arc<Vec<FragmentHypothesis>>,
    /// Base for ids handed out by `new-frag-id` (RTF task processes get
    /// disjoint ranges so ids stay globally unique).
    pub id_base: i64,
}

/// Cost model for the external (task-related) computation, in work units.
/// Calibrated so the LCC phase lands in the paper's 30–50 % match band and
/// RTF near 60 % (§6.5).
pub mod cost {
    /// Base cost of any external invocation (call + marshalling).
    pub const CALL: u64 = 150;
    /// Low-level feature measurement per region vertex.
    pub const MEASURE_PER_VERTEX: u64 = 520;
    /// Pairwise predicate: per edge-pair examined.
    pub const EDGE_PAIR: u64 = 70;
    /// OBB/alignment computation per vertex.
    pub const OBB_PER_VERTEX: u64 = 150;
    /// Centroid-distance test.
    pub const CENTROID: u64 = 1500;
    /// Per-task initialisation of the local-consistency machinery (§9
    /// names the LCC "initialization subphase" as a large cost).
    pub const LCC_INIT: u64 = 2500;
    /// Per-constraint-application set-up (loading the constraint's
    /// geometric context).
    pub const LCC_INIT_CHECK: u64 = 5000;
    /// Functional-area geometry per attach.
    pub const FA_GEOM: u64 = 2600;
    /// Stereo verification per area (expensive imagery operation).
    pub const STEREO: u64 = 80_000;
    /// Model scoring per area.
    pub const SCORE: u64 = 1_500;
}

fn int(v: &Value) -> i64 {
    v.as_int().unwrap_or(-1)
}

/// Registers the full external-function suite on an engine.
pub fn register(engine: &mut Engine, ctx: ExternalCtx) {
    // Engine-registered named counters: their values ride in snapshots, so
    // a restored engine resumes id allocation where the crashed run left
    // off instead of restarting at `id_base`.
    let frag_counter = engine.external_counter("frag-id", ctx.id_base);
    let check_counter = engine.external_counter("check-id", ctx.id_base);
    let area_counter = engine.external_counter("area-id", ctx.id_base);

    // --- id generators -----------------------------------------------------
    {
        let c = Arc::clone(&frag_counter);
        engine.register_external(
            "new-frag-id",
            Arc::new(move |_, eff: &mut Effects| {
                eff.cost = 20;
                Some(Value::Int(c.fetch_add(1, Ordering::Relaxed)))
            }),
        );
    }
    {
        let c = Arc::clone(&check_counter);
        engine.register_external(
            "new-check-id",
            Arc::new(move |_, eff| {
                eff.cost = 20;
                Some(Value::Int(c.fetch_add(1, Ordering::Relaxed)))
            }),
        );
    }
    {
        let c = Arc::clone(&area_counter);
        engine.register_external(
            "new-area-id",
            Arc::new(move |_, eff| {
                eff.cost = 20;
                Some(Value::Int(c.fetch_add(1, Ordering::Relaxed)))
            }),
        );
    }

    // --- RTF ---------------------------------------------------------------
    {
        let scene = Arc::clone(&ctx.scene);
        engine.register_external(
            "measure-region",
            Arc::new(move |args, eff| {
                let r = int(&args[0]);
                if let Some(region) = scene.regions.get(r as usize) {
                    eff.cost = cost::CALL + cost::MEASURE_PER_VERTEX * region.polygon.len() as u64;
                } else {
                    eff.cost = cost::CALL;
                }
                None
            }),
        );
    }
    {
        let scene = Arc::clone(&ctx.scene);
        engine.register_external(
            "rtf-conf",
            Arc::new(move |args, eff| {
                eff.cost = cost::CALL + 900;
                let r = int(&args[0]);
                // A non-negative third argument is a preset confidence
                // (weak prototype envelopes).
                if let Some(preset) = args.get(2).and_then(|v| v.as_f64()) {
                    if preset >= 0.0 {
                        return Some(Value::Float(preset));
                    }
                }
                let kind = args[1]
                    .as_sym()
                    .and_then(|s| FragmentKind::from_name(&s.name()));
                let Some(region) = scene.regions.get(r as usize) else {
                    return Some(Value::Float(0.0));
                };
                // Confidence: a smooth function of how prototypical the
                // descriptors are for the class.
                let d = &region.descriptors;
                let conf = match kind {
                    Some(FragmentKind::Runway) => {
                        sigmoid((d.elongation - 8.0) / 8.0) * sigmoid((d.length - 1500.0) / 500.0)
                    }
                    Some(FragmentKind::Taxiway) => {
                        sigmoid((d.elongation - 8.0) / 6.0) * sigmoid((45.0 - d.width) / 10.0)
                    }
                    Some(FragmentKind::AccessRoad) => sigmoid((d.elongation - 10.0) / 8.0),
                    Some(FragmentKind::TerminalBuilding) => {
                        sigmoid((region.intensity - 165.0) / 20.0)
                            * sigmoid((d.area - 4000.0) / 2000.0)
                    }
                    Some(FragmentKind::FuelTank) => sigmoid((d.compactness - 0.65) / 0.1),
                    _ => 0.6,
                };
                Some(Value::Float((conf * 1000.0).round() / 1000.0))
            }),
        );
    }

    // --- LCC ----------------------------------------------------------------
    {
        let scene = Arc::clone(&ctx.scene);
        let fragments = Arc::clone(&ctx.fragments);
        // Every symbol the predicate returns or writes, interned here so
        // the task's recognize–act cycle never takes the interner lock.
        let (yes, no) = (Value::symbol("yes"), Value::symbol("no"));
        let consistent = sym("consistent");
        let [a, b, rel, weight] = ["a", "b", "rel", "weight"].map(sym);
        let rels: Vec<Value> = CONSTRAINTS
            .iter()
            .map(|c| Value::symbol(c.relation.name()))
            .collect();
        engine.register_external(
            "lcc-check-pair",
            Arc::new(move |args, eff| {
                let cid = int(&args[0]) as usize;
                let f = int(&args[1]);
                let g = int(&args[2]);
                let Some(constraint) = CONSTRAINTS.get(cid) else {
                    eff.cost = cost::CALL;
                    return Some(no);
                };
                let (Some(fa), Some(fb)) = (fragments.get(f as usize), fragments.get(g as usize))
                else {
                    eff.cost = cost::CALL;
                    return Some(no);
                };
                let pa = &scene.regions[fa.region as usize].polygon;
                let pb = &scene.regions[fb.region as usize].polygon;
                // Locality guard: constraints are *local* consistency
                // checks (the phase's name); partners beyond the relation's
                // own reach are rejected before any geometry runs. Because
                // the guard is a pure function of the pair, the result is
                // independent of the task decomposition level.
                if pa.bbox().distance_to(&pb.bbox()) > relation_radius(constraint) {
                    eff.cost = cost::CALL;
                    return Some(no);
                }
                let (holds, geom_cost) =
                    eval_relation(constraint.relation, constraint.param, pa, pb);
                eff.cost = cost::CALL + geom_cost;
                if holds {
                    eff.makes.push((
                        consistent,
                        vec![
                            (a, Value::Int(f)),
                            (b, Value::Int(g)),
                            (rel, rels[cid]),
                            (weight, Value::Int(constraint.weight)),
                        ],
                    ));
                }
                Some(if holds { yes } else { no })
            }),
        );
    }

    engine.register_external(
        "lcc-init",
        Arc::new(move |_, eff| {
            eff.cost = cost::LCC_INIT;
            None
        }),
    );
    engine.register_external(
        "lcc-init-check",
        Arc::new(move |_, eff| {
            eff.cost = cost::LCC_INIT_CHECK;
            None
        }),
    );

    // --- FA / MODEL ----------------------------------------------------------
    engine.register_external(
        "fa-geom",
        Arc::new(move |_, eff| {
            eff.cost = cost::FA_GEOM;
            None
        }),
    );
    engine.register_external(
        "stereo-verify",
        Arc::new(move |_, eff| {
            eff.cost = cost::STEREO;
            Some(Value::symbol("yes"))
        }),
    );
    {
        let fragments = Arc::clone(&ctx.fragments);
        engine.register_external(
            "area-score",
            Arc::new(move |args, eff| {
                eff.cost = cost::SCORE;
                let a = int(&args[0]);
                // Score grows with the seed fragment's accumulated support.
                let s = fragments
                    .get(a as usize)
                    .map(|f| f.support)
                    .unwrap_or(1)
                    .max(1);
                Some(Value::Int(s))
            }),
        );
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// The bounding-box distance beyond which a constraint's relation cannot
/// possibly hold (or, for `far-from`, beyond which it holds trivially and
/// carries no information). Pairs past this reach are rejected without
/// running the geometry.
pub fn relation_radius(c: &crate::constraints::Constraint) -> f64 {
    match c.relation {
        Relation::Intersects => 40.0,
        Relation::AdjacentTo => c.param + 40.0,
        Relation::Near | Relation::FarFrom => c.param + 40.0,
        Relation::ParallelTo => c.param + 250.0,
        Relation::AlignedWith => c.param + 250.0,
    }
}

/// Evaluates a spatial relation between two region polygons, returning the
/// verdict and the (deterministic) geometric cost in work units.
pub fn eval_relation(
    rel: Relation,
    param: f64,
    pa: &spam_geometry::Polygon,
    pb: &spam_geometry::Polygon,
) -> (bool, u64) {
    let edge_pairs = (pa.len() * pb.len()) as u64;
    match rel {
        Relation::Intersects => (pa.intersects(pb), cost::EDGE_PAIR * edge_pairs),
        Relation::AdjacentTo => {
            let gap = if param > 0.0 { param } else { ADJACENCY_GAP };
            (pa.adjacent_to(pb, gap), cost::EDGE_PAIR * edge_pairs * 2)
        }
        Relation::Near => {
            let d = pa.centroid().distance(pb.centroid());
            (d <= param, cost::CENTROID)
        }
        Relation::FarFrom => {
            let d = pa.centroid().distance(pb.centroid());
            (d >= param, cost::CENTROID)
        }
        Relation::ParallelTo => {
            let (oa, ob) = (Obb::of_points(pa.vertices()), Obb::of_points(pb.vertices()));
            let c = cost::OBB_PER_VERTEX * (pa.len() + pb.len()) as u64;
            match (oa, ob) {
                (Some(oa), Some(ob)) => {
                    let r = collinearity(&oa, &ob);
                    (
                        r.angle_diff < 0.18 && r.lateral_offset <= param && r.end_gap < param,
                        c,
                    )
                }
                _ => (false, c),
            }
        }
        Relation::AlignedWith => {
            let (oa, ob) = (Obb::of_points(pa.vertices()), Obb::of_points(pb.vertices()));
            let c = cost::OBB_PER_VERTEX * (pa.len() + pb.len()) as u64;
            match (oa, ob) {
                (Some(oa), Some(ob)) => (aligned(&oa, &ob, 0.1, 60.0, param), c),
                _ => (false, c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spam_geometry::{Point, Polygon};

    #[test]
    fn relations_evaluate_on_real_geometry() {
        let runway = Polygon::oriented_rect(Point::new(0.0, 0.0), 3000.0, 50.0, 0.0);
        let connector = Polygon::oriented_rect(
            Point::new(0.0, 80.0),
            200.0,
            18.0,
            std::f64::consts::FRAC_PI_2,
        );
        let taxi = Polygon::oriented_rect(Point::new(0.0, 180.0), 2500.0, 25.0, 0.0);
        let piece2 = Polygon::oriented_rect(Point::new(1750.0, 0.0), 300.0, 50.0, 0.0);

        assert!(eval_relation(Relation::Intersects, 0.0, &runway, &connector).0);
        assert!(!eval_relation(Relation::Intersects, 0.0, &runway, &taxi).0);
        assert!(eval_relation(Relation::ParallelTo, 400.0, &runway, &taxi).0);
        assert!(eval_relation(Relation::AlignedWith, 600.0, &runway, &piece2).0);
        assert!(eval_relation(Relation::Near, 300.0, &runway, &taxi).0);
        assert!(eval_relation(Relation::FarFrom, 5000.0, &runway, &taxi).1 > 0);
    }

    #[test]
    fn costs_scale_with_vertex_count() {
        let a = Polygon::regular(Point::new(0.0, 0.0), 10.0, 8);
        let b = Polygon::regular(Point::new(100.0, 0.0), 10.0, 16);
        let (_, c1) = eval_relation(Relation::Intersects, 0.0, &a, &a.clone());
        let (_, c2) = eval_relation(Relation::Intersects, 0.0, &a, &b);
        assert!(c2 > c1);
    }
}
