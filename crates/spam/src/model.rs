//! The MODEL phase: scene-model assembly and stereo verification.

use crate::externals::{register, ExternalCtx};
use crate::fa::FunctionalArea;
use crate::fragments::FragmentHypothesis;
use crate::rules::{run_to_quiescence, SpamProgram, MAX_FIRINGS};
use crate::scene::Scene;
use ops5::{sym, CycleStats, Value, WorkCounters};
use spam_geometry::{convex_hull, intersection_area, Point, Polygon};
use std::sync::Arc;

/// Spatial metrics of a scene model: how much of the scene the selected
/// areas explain, and how compatible (non-overlapping) their windows are
/// (§2.2: "consistent and compatible collections").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModelMetrics {
    /// Fraction of the total region area claimed by area members.
    pub coverage: f64,
    /// Pairwise overlap of the areas' convex windows, as a fraction of the
    /// total window area (0 = perfectly compatible).
    pub window_overlap: f64,
}

/// Convex spatial window of a functional area: the hull of its members'
/// region vertices.
pub fn area_window(
    scene: &Scene,
    fragments: &[FragmentHypothesis],
    members: &[(i64, u32)],
    area_id: i64,
) -> Option<Polygon> {
    let mut pts: Vec<Point> = Vec::new();
    for &(a, f) in members {
        if a == area_id {
            if let Some(frag) = fragments.iter().find(|x| x.id == f) {
                pts.extend(scene.region(frag.region).polygon.vertices());
            }
        }
    }
    let hull = convex_hull(&pts);
    if hull.len() < 3 {
        None
    } else {
        Some(Polygon::new(hull))
    }
}

/// Computes the spatial metrics for the areas selected into the model.
pub fn model_metrics(
    scene: &Scene,
    fragments: &[FragmentHypothesis],
    members: &[(i64, u32)],
    selected_areas: &[i64],
) -> ModelMetrics {
    let windows: Vec<Polygon> = selected_areas
        .iter()
        .filter_map(|&a| area_window(scene, fragments, members, a))
        .collect();
    // Coverage: area of member regions over total region area.
    let mut member_regions: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for &(a, f) in members {
        if selected_areas.contains(&a) {
            if let Some(frag) = fragments.iter().find(|x| x.id == f) {
                member_regions.insert(frag.region);
            }
        }
    }
    let explained: f64 = member_regions
        .iter()
        .map(|&r| scene.region(r).polygon.area())
        .sum();
    let total = scene.covered_area().max(1e-9);
    // Window compatibility: pairwise convex intersection over window area.
    let window_area: f64 = windows.iter().map(|w| w.area()).sum();
    let mut overlap = 0.0;
    for i in 0..windows.len() {
        for j in (i + 1)..windows.len() {
            overlap += intersection_area(&windows[i], &windows[j]);
        }
    }
    ModelMetrics {
        coverage: (explained / total).clamp(0.0, 1.0),
        window_overlap: if window_area > 0.0 {
            (overlap / window_area).clamp(0.0, 1.0)
        } else {
            0.0
        },
    }
}

/// Result of the MODEL phase.
#[derive(Clone, Debug)]
pub struct ModelResult {
    /// Number of scene models produced (the paper's runs produce 1).
    pub models: usize,
    /// Functional areas included in the model.
    pub areas_used: i64,
    /// Model score (sum of area scores).
    pub score: i64,
    /// Spatial metrics of the selected areas (coverage, compatibility).
    pub metrics: ModelMetrics,
    /// Area ids selected into the model.
    pub selected: Vec<i64>,
    /// Work performed.
    pub work: WorkCounters,
    /// Productions fired.
    pub firings: u64,
    /// Per-cycle log.
    pub cycle_log: Vec<CycleStats>,
}

/// Runs model generation over the FA output. `members` is the FA phase's
/// membership table (used for the spatial metrics; pass `&[]` to skip).
pub fn run_model(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    areas: &[FunctionalArea],
    members: &[(i64, u32)],
) -> ModelResult {
    let mut e = sp.engine();
    register(
        &mut e,
        ExternalCtx {
            scene: Arc::clone(scene),
            fragments: Arc::clone(fragments),
            id_base: 0,
        },
    );
    e.enable_cycle_log();
    e.make_wme(
        "control",
        &[
            ("phase", Value::symbol("model")),
            ("status", Value::symbol("running")),
        ],
    )
    .expect("control");
    for a in areas {
        e.make_wme(
            "fa-area",
            &[
                ("id", Value::Int(a.id)),
                ("kind", Value::symbol(&a.kind)),
                ("seed", Value::Int(a.seed as i64)),
                ("nmembers", Value::Int(a.members)),
                ("status", Value::symbol("grown")),
            ],
        )
        .expect("fa-area");
    }
    let out = run_to_quiescence(&mut e, MAX_FIRINGS, &"MODEL");

    let program = e.program();
    let model_class = sym("model");
    let slot = |attr: &str| program.slot_of(model_class, sym(attr)).expect("slot") as usize;
    let (s_score, s_areas) = (slot("score"), slot("areas"));
    let mut models = 0;
    let mut areas_used = 0;
    let mut score = 0;
    for (_, w) in e.wm().iter().filter(|(_, w)| w.class == model_class) {
        models += 1;
        areas_used = w.get(s_areas).as_int().unwrap_or(0);
        score = w.get(s_score).as_int().unwrap_or(0);
    }
    // Selected areas: the model-area records.
    let ma_class = sym("model-area");
    let ma_slot = program.slot_of(ma_class, sym("area")).expect("slot") as usize;
    let mut selected: Vec<i64> = e
        .wm()
        .iter()
        .filter(|(_, w)| w.class == ma_class)
        .filter_map(|(_, w)| w.get(ma_slot).as_int())
        .collect();
    selected.sort_unstable();
    let metrics = model_metrics(scene, fragments, members, &selected);
    ModelResult {
        models,
        areas_used,
        score,
        metrics,
        selected,
        work: e.work(),
        firings: out.firings,
        cycle_log: e.take_cycle_log(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_selects_multi_member_areas() {
        let sp = SpamProgram::build();
        let scene = Arc::new(crate::generate::generate_scene(&crate::datasets::dc().spec));
        let frags: Arc<Vec<FragmentHypothesis>> = Arc::new(vec![]);
        let areas = vec![
            FunctionalArea {
                id: 1,
                kind: "runway-area".into(),
                seed: 0,
                members: 4,
            },
            FunctionalArea {
                id: 2,
                kind: "terminal-area".into(),
                seed: 1,
                members: 3,
            },
            FunctionalArea {
                id: 3,
                kind: "hangar-area".into(),
                seed: 2,
                members: 1,
            },
        ];
        let m = run_model(&sp, &scene, &frags, &areas, &[]);
        assert_eq!(m.models, 1, "exactly one scene model");
        assert_eq!(m.areas_used, 2, "single-member areas are not selected");
        assert_eq!(m.selected, vec![1, 2]);
        assert!(m.work.external_units > 0, "stereo verification ran");
    }
}
