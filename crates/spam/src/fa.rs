//! The FA (functional-area) phase: aggregation of consistent fragments.

use crate::externals::{register, ExternalCtx};
use crate::fragments::FragmentHypothesis;
use crate::lcc::ConsistentRec;
use crate::rules::{run_to_quiescence, SpamProgram, MAX_FIRINGS};
use crate::scene::Scene;
use ops5::{sym, CycleStats, Value, WorkCounters};
use std::sync::Arc;

/// One functional area.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionalArea {
    /// Area id.
    pub id: i64,
    /// Area kind (`runway-area`, `terminal-area`, ...).
    pub kind: String,
    /// Seed fragment.
    pub seed: u32,
    /// Member count (including the seed).
    pub members: i64,
}

/// Result of the FA phase.
#[derive(Clone, Debug)]
pub struct FaResult {
    /// The functional areas.
    pub areas: Vec<FunctionalArea>,
    /// Open predictions (context-driven top-down work the paper feeds back
    /// into LCC — see [`crate::topdown`]).
    pub predictions: usize,
    /// The prediction records: `(predicting area, predicted kind)`.
    pub prediction_list: Vec<(i64, crate::fragments::FragmentKind)>,
    /// Membership records `(area id, fragment id)` (seeds included).
    pub members: Vec<(i64, u32)>,
    /// Work performed.
    pub work: WorkCounters,
    /// Productions fired.
    pub firings: u64,
    /// Per-cycle log.
    pub cycle_log: Vec<CycleStats>,
}

/// Loads fragments + consistency records and runs the FA rules.
pub fn run_fa(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    consistents: &[ConsistentRec],
) -> FaResult {
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
            ("phase", Value::symbol("fa")),
            ("status", Value::symbol("running")),
        ],
    )
    .expect("control");
    for f in fragments.iter() {
        e.make_wme(
            "fragment",
            &[
                ("id", Value::Int(f.id as i64)),
                ("region", Value::Int(f.region as i64)),
                ("kind", f.kind.value()),
                ("conf", Value::Float(f.confidence)),
                ("support", Value::Int(f.support)),
                ("status", Value::symbol("hypothesised")),
            ],
        )
        .expect("fragment");
    }
    for c in consistents {
        e.make_wme(
            "consistent",
            &[
                ("a", Value::Int(c.a as i64)),
                ("b", Value::Int(c.b as i64)),
                ("rel", Value::symbol(c.rel.name())),
                ("weight", Value::Int(c.weight)),
                ("counted", Value::symbol("yes")),
            ],
        )
        .expect("consistent");
    }
    let out = run_to_quiescence(&mut e, MAX_FIRINGS, &"FA");

    let program = e.program();
    let area_class = sym("fa-area");
    let slot = |attr: &str| program.slot_of(area_class, sym(attr)).expect("slot") as usize;
    let (s_id, s_kind, s_seed, s_n) = (slot("id"), slot("kind"), slot("seed"), slot("nmembers"));
    let mut areas: Vec<FunctionalArea> = e
        .wm()
        .iter()
        .filter(|(_, w)| w.class == area_class)
        .map(|(_, w)| FunctionalArea {
            id: w.get(s_id).as_int().unwrap_or(-1),
            kind: w.get(s_kind).to_string(),
            seed: w.get(s_seed).as_int().unwrap_or(0) as u32,
            members: w.get(s_n).as_int().unwrap_or(1),
        })
        .collect();
    areas.sort_by_key(|a| a.id);
    let member_class = sym("fa-member");
    let mslot = |attr: &str| program.slot_of(member_class, sym(attr)).expect("slot") as usize;
    let (m_area, m_frag) = (mslot("area"), mslot("frag"));
    let mut members: Vec<(i64, u32)> = e
        .wm()
        .iter()
        .filter(|(_, w)| w.class == member_class)
        .filter_map(|(_, w)| Some((w.get(m_area).as_int()?, w.get(m_frag).as_int()? as u32)))
        .collect();
    // Seeds are members of their own areas.
    for a in &areas {
        members.push((a.id, a.seed));
    }
    members.sort();
    members.dedup();

    let pred_class = sym("prediction");
    let pslot = |attr: &str| program.slot_of(pred_class, sym(attr)).expect("slot") as usize;
    let (p_area, p_kind) = (pslot("area"), pslot("kind"));
    let mut prediction_list: Vec<(i64, crate::fragments::FragmentKind)> = e
        .wm()
        .iter()
        .filter(|(_, w)| w.class == pred_class)
        .filter_map(|(_, w)| {
            let kind = w
                .get(p_kind)
                .as_sym()
                .and_then(|s| crate::fragments::FragmentKind::from_name(&s.name()))?;
            Some((w.get(p_area).as_int()?, kind))
        })
        .collect();
    prediction_list.sort();
    let predictions = prediction_list.len();

    FaResult {
        areas,
        predictions,
        prediction_list,
        members,
        work: e.work(),
        firings: out.firings,
        cycle_log: e.take_cycle_log(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::generate::generate_scene;
    use crate::lcc::{run_lcc, Level};
    use crate::rtf::run_rtf;

    #[test]
    fn fa_builds_areas_from_supported_fragments() {
        let sp = SpamProgram::build();
        let scene = Arc::new(generate_scene(&datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let fa = run_fa(
            &sp,
            &scene,
            &Arc::new(lcc.fragments.clone()),
            &lcc.consistents,
        );
        assert!(fa.firings > 0);
        assert!(
            !fa.areas.is_empty(),
            "a real airport scene must yield functional areas"
        );
        assert!(
            fa.areas.iter().any(|a| a.kind == "runway-area"),
            "kinds: {:?}",
            fa.areas.iter().map(|a| &a.kind).collect::<Vec<_>>()
        );
        // Grown areas must have their seed plus members counted.
        assert!(fa.areas.iter().all(|a| a.members >= 1));
        // Predictions only exist for grown areas.
        let grown = fa.areas.iter().filter(|a| a.members >= 1).count();
        assert!(fa.predictions <= 2 * grown);
    }
}
