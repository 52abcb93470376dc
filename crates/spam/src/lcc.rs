//! The LCC (local-consistency check) phase: constraint satisfaction over
//! fragment hypotheses, decomposed into the paper's task levels (Figure 4).
//!
//! * **Level 4** — one task applies all constraints to one *class* of
//!   objects;
//! * **Level 3** — one task applies all constraints to one object;
//! * **Level 2** — one task applies one constraint to one object;
//! * **Level 1** — one task checks one constraint *component* (one
//!   candidate pair).
//!
//! Every task is an independent OPS5 program: its working memory holds the
//! subject fragment(s), the candidate partners from the spatial
//! neighbourhood, the applicable constraint records, and the task element
//! itself (working-memory distribution, §5.1). Results (consistency records
//! and support increments) never cross task boundaries, which is what makes
//! the decomposition safe to run asynchronously.

use crate::constraints::{constraints_for, Relation};
use crate::externals::{register, ExternalCtx};
use crate::fragments::{FragmentHypothesis, FragmentKind, ALL_KINDS};
use crate::rules::{run_to_quiescence, SpamProgram, MAX_FIRINGS};
use crate::scene::Scene;
use ops5::{CycleStats, Engine, MatchProfile, WorkCounters};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use wm::LccWm;

mod wm;
use tlp_fault::TaskReport;

/// Candidate-search radius (metres): partners beyond this bounding-box
/// distance never enter a task's working memory. (The per-relation guard in
/// the external predicate is tighter still.)
pub const NEIGHBOURHOOD_RADIUS: f64 = 700.0;

/// The candidate radius for partners of kind `object` seen from a subject
/// of kind `subject`: the widest reach among the applicable constraints
/// ([`crate::externals::relation_radius`]), or `None` when no constraint
/// relates the two kinds (such partners never enter the task's working
/// memory).
pub fn kind_radius(subject: FragmentKind, object: FragmentKind) -> Option<f64> {
    constraints_for(subject)
        .filter(|c| c.object == object)
        .map(crate::externals::relation_radius)
        .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
}

/// A decomposition level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Level {
    /// All constraints × one class.
    L4,
    /// All constraints × one object.
    L3,
    /// One constraint × one object.
    L2,
    /// One constraint component (one candidate pair).
    L1,
}

impl Level {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Level::L4 => "Level 4",
            Level::L3 => "Level 3",
            Level::L2 => "Level 2",
            Level::L1 => "Level 1",
        }
    }
}

/// One independent LCC task.
#[derive(Clone, Debug)]
pub enum LccUnit {
    /// Level 4: every fragment of one kind.
    Class(FragmentKind),
    /// Level 3: one fragment.
    Object(u32),
    /// Level 2: one fragment × one constraint.
    ObjectConstraint(u32, u32),
    /// Level 1: one candidate pair under one constraint.
    Pair {
        /// Subject fragment.
        frag: u32,
        /// Constraint id.
        constraint: u32,
        /// Partner fragment.
        other: u32,
    },
}

impl LccUnit {
    /// Short human-readable task label, used in supervision reports.
    pub fn label(&self) -> String {
        match self {
            LccUnit::Class(kind) => format!("class {kind:?}"),
            LccUnit::Object(f) => format!("object {f}"),
            LccUnit::ObjectConstraint(f, c) => format!("object {f} constraint {c}"),
            LccUnit::Pair {
                frag,
                constraint,
                other,
            } => format!("pair {frag}-{other} constraint {constraint}"),
        }
    }
}

/// A successful constraint application.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConsistentRec {
    /// Subject fragment.
    pub a: u32,
    /// Partner fragment.
    pub b: u32,
    /// Relation that held.
    pub rel: Relation,
    /// Support weight.
    pub weight: i64,
}

/// Result of executing one LCC task.
#[derive(Clone, Debug)]
pub struct LccUnitResult {
    /// Consistency records produced.
    pub consistents: Vec<ConsistentRec>,
    /// `(fragment, support)` totals accumulated within the task.
    pub supports: Vec<(u32, i64)>,
    /// Work performed.
    pub work: WorkCounters,
    /// Productions fired.
    pub firings: u64,
    /// RHS actions executed.
    pub rhs_actions: u64,
    /// Per-cycle log.
    pub cycle_log: Vec<CycleStats>,
}

/// Result of a whole LCC phase run at one decomposition level.
#[derive(Clone, Debug)]
pub struct LccPhaseResult {
    /// The decomposition level used.
    pub level: Level,
    /// Fragments with accumulated support.
    pub fragments: Vec<FragmentHypothesis>,
    /// All consistency records.
    pub consistents: Vec<ConsistentRec>,
    /// Per-task results, in queue order.
    pub units: Vec<LccUnitResult>,
    /// Total work.
    pub work: WorkCounters,
    /// Total firings.
    pub firings: u64,
    /// Per-task supervision outcomes. The sequential runner marks every
    /// unit ok; the supervised parallel runner records retries, timeouts,
    /// and dead-lettered tasks here.
    pub report: TaskReport,
}

/// Fragment ids in the spatial neighbourhood of `f` (excluding `f`):
/// partners whose kind is related to `f.kind` by some constraint and whose
/// bounding box lies within that constraint family's reach.
pub fn neighbourhood(
    scene: &Scene,
    fragments: &[FragmentHypothesis],
    f: &FragmentHypothesis,
) -> Vec<u32> {
    let bb = scene.region(f.region).polygon.bbox();
    let near_regions: BTreeSet<u32> = scene
        .neighbours(f.region, NEIGHBOURHOOD_RADIUS)
        .into_iter()
        .collect();
    fragments
        .iter()
        .filter(|g| g.id != f.id && (near_regions.contains(&g.region) || g.region == f.region))
        .filter(|g| {
            kind_radius(f.kind, g.kind).is_some()
                && scene.region(g.region).polygon.bbox().distance_to(&bb) <= NEIGHBOURHOOD_RADIUS
        })
        .map(|g| g.id)
        .collect()
}

/// Decomposes the phase into tasks at `level` (the task queue, in order).
pub fn decompose(scene: &Scene, fragments: &[FragmentHypothesis], level: Level) -> Vec<LccUnit> {
    match level {
        Level::L4 => ALL_KINDS
            .iter()
            .filter(|k| fragments.iter().any(|f| f.kind == **k))
            .map(|&k| LccUnit::Class(k))
            .collect(),
        Level::L3 => fragments.iter().map(|f| LccUnit::Object(f.id)).collect(),
        Level::L2 => fragments
            .iter()
            .flat_map(|f| {
                constraints_for(f.kind).map(move |c| LccUnit::ObjectConstraint(f.id, c.id))
            })
            .collect(),
        Level::L1 => {
            let mut out = Vec::new();
            for f in fragments {
                let nbh = neighbourhood(scene, fragments, f);
                for c in constraints_for(f.kind) {
                    for &g in &nbh {
                        if fragments[g as usize].kind == c.object {
                            out.push(LccUnit::Pair {
                                frag: f.id,
                                constraint: c.id,
                                other: g,
                            });
                        }
                    }
                }
            }
            out
        }
    }
}

/// Loads one task's working memory into an engine (working-memory
/// distribution, §5.1): the subject fragment(s), their spatial
/// neighbourhoods, the applicable constraint records, and the task element
/// itself. The `control` element must already be present. Encodes the
/// phase's working memory for this one call; the task runners encode it
/// once per phase instead.
pub fn load_unit_wm(
    e: &mut Engine,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
) {
    LccWm::new(e.program(), scene, fragments).load(e, unit);
}

/// The one LCC task body every runner shares: attaches the optional live
/// mirror, trace sink and profiler to `e` (a new or freshly reset engine),
/// loads the `control` element and the task's working memory, runs to
/// quiescence, and harvests.
///
/// # Panics
/// When the run stops short of quiescence — the firing cap, a `halt`, or a
/// run error — with the outcome in the message, in release builds too: a
/// truncated engine is never harvested as a result. Under supervision the
/// panic fails the attempt, which is retried or dead-lettered, and the
/// engine is dropped with the unwinding task.
fn run_unit_on(
    e: &mut Engine,
    wm: &LccWm,
    unit: &LccUnit,
    live: Option<&Arc<tlp_obs::Live>>,
    trace: Option<tlp_obs::SpanSink>,
    profile: bool,
) -> (LccUnitResult, Option<MatchProfile>) {
    if let Some(live) = live {
        e.set_live(live.handle());
    }
    if let Some(sink) = trace {
        e.set_trace(sink);
    }
    if profile {
        e.enable_profile();
    }
    e.enable_cycle_log();
    wm.load_control(e);
    wm.load(e, unit);
    let out = run_to_quiescence(e, MAX_FIRINGS, &format_args!("LCC task {}", unit.label()));
    e.publish_live();
    e.publish_trace();
    let profile = profile.then(|| e.take_profile()).flatten();
    (wm.harvest(e, out.firings), profile)
}

/// Executes one LCC task in a fresh, independent engine.
///
/// # Panics
/// When the task does not reach quiescence (see [`LccPool::run`]).
pub fn run_lcc_unit(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
) -> LccUnitResult {
    run_fresh(sp, scene, fragments, unit, None, false).0
}

/// Executes one LCC task like [`run_lcc_unit`], mirroring the engine's
/// counters into the live sliding-window registry while the task runs
/// (every few recognize–act cycles, plus a final flush): match units,
/// firings and RHS actions as counters, conflict-set depth and WM size as
/// gauges. The mirror only reads the deterministic counters — results are
/// bit-identical to [`run_lcc_unit`], and with a disabled registry the
/// mirror costs one branch per cycle.
pub fn run_lcc_unit_live(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
    live: &Arc<tlp_obs::Live>,
) -> LccUnitResult {
    run_fresh(sp, scene, fragments, unit, Some(live), false).0
}

/// Executes one LCC task with match-level profiling enabled, returning the
/// task's [`MatchProfile`] alongside its result. `None` when the ops5
/// `profiler` feature is compiled out. Work counters are bit-identical to
/// [`run_lcc_unit`] — the profiler only reads them.
pub fn run_lcc_unit_profiled(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
) -> (LccUnitResult, Option<MatchProfile>) {
    run_fresh(sp, scene, fragments, unit, None, true)
}

/// [`run_unit_on`] on a new engine, the phase's working memory encoded for
/// this one task.
fn run_fresh(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
    live: Option<&Arc<tlp_obs::Live>>,
    profile: bool,
) -> (LccUnitResult, Option<MatchProfile>) {
    let wm = LccWm::new(&sp.program, scene, fragments);
    let mut e = lcc_engine(sp, scene, fragments);
    run_unit_on(&mut e, &wm, unit, live, None, profile)
}

/// The task engines of one LCC phase and the working memory they are
/// handed: the paper's task processes, each owning one OPS5 instance for
/// the whole phase (§5.1). A task checks an engine out — reset, or built
/// at first use — runs on it, and returns it only after a clean finish, so
/// the pool never holds more engines than there are workers. Engines are
/// bound to this phase's scene through their external functions and die
/// with the pool.
pub struct LccPool<'a> {
    sp: &'a SpamProgram,
    wm: LccWm,
    idle: Mutex<Vec<Engine>>,
}

impl<'a> LccPool<'a> {
    /// An empty pool for the phase over `scene` and `fragments`, with the
    /// phase's working memory encoded.
    pub fn new(
        sp: &'a SpamProgram,
        scene: &Arc<Scene>,
        fragments: &Arc<Vec<FragmentHypothesis>>,
    ) -> LccPool<'a> {
        LccPool {
            sp,
            wm: LccWm::new(&sp.program, scene, fragments),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Executes one LCC task on a pooled engine. The result is
    /// bit-identical to [`run_lcc_unit`]'s: a reset engine replays a task
    /// exactly as a new one does. `live` mirrors the engine's counters as
    /// [`run_lcc_unit_live`] does; `trace` groups its recognize–act cycles
    /// into `engine.cycles` aux spans under the task attempt that owns the
    /// sink (see [`ops5::Engine::set_trace`]).
    ///
    /// # Panics
    /// When the task stops short of quiescence (the firing cap, a `halt`,
    /// or a run error), with the run outcome in the message. The engine is
    /// dropped during the unwind, never returned to the pool.
    pub fn run(
        &self,
        unit: &LccUnit,
        live: Option<&Arc<tlp_obs::Live>>,
        trace: Option<tlp_obs::SpanSink>,
    ) -> LccUnitResult {
        let idle = self.idle.lock().expect("engine pool lock").pop();
        let mut e = match idle {
            Some(mut e) => {
                e.reset()
                    .expect("LCC engines run on the Rete, which resets");
                e
            }
            None => lcc_engine(self.sp, &self.wm.scene, &self.wm.fragments),
        };
        let (result, _) = run_unit_on(&mut e, &self.wm, unit, live, trace, false);
        self.idle.lock().expect("engine pool lock").push(e);
        result
    }
}

/// Creates a fresh engine wired for LCC task execution: the SPAM program
/// with this scene's external geometry functions registered. Working memory
/// is *empty* — callers load the control element and the task's WM
/// distribution (or restore both from a checkpoint).
pub fn lcc_engine(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
) -> Engine {
    let mut e = sp.engine();
    register_lcc(&mut e, scene, fragments);
    e
}

fn register_lcc(e: &mut Engine, scene: &Arc<Scene>, fragments: &Arc<Vec<FragmentHypothesis>>) {
    let ctx = ExternalCtx {
        scene: Arc::clone(scene),
        fragments: Arc::clone(fragments),
        id_base: 1 << 30,
    };
    register(e, ctx);
}

/// Rebuilds an LCC task engine from a checkpoint snapshot. External
/// functions are code, not state — snapshots cannot carry them — so they
/// are re-registered against the live scene after the restore, exactly as
/// [`lcc_engine`] wires a fresh engine.
pub fn restore_lcc_engine(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    snapshot: &[u8],
) -> ops5::Result<Engine> {
    let mut e = Engine::restore(
        Arc::clone(&sp.program),
        Arc::clone(&sp.compiled),
        sp.config,
        snapshot,
    )?;
    register_lcc(&mut e, scene, fragments);
    Ok(e)
}

/// Harvests one finished LCC task's results out of its quiescent engine:
/// consistency records and support totals from working memory, plus the
/// work/firing accounting. `firings` is the task's total production count
/// ([`ops5::RunOutcome::firings`], or [`ops5::Engine::work`]`.firings` for
/// a stepped or restored engine).
pub fn harvest_lcc_unit(e: &mut Engine, firings: u64) -> LccUnitResult {
    wm::Harvest::new(e.program()).harvest(e, firings)
}

/// Runs the whole LCC phase at `level`, sequentially (the Table 8 BASELINE
/// configuration: one task process draining the queue).
pub fn run_lcc(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
) -> LccPhaseResult {
    run_lcc_inner(sp, scene, fragments, level, false).0
}

/// Runs the whole LCC phase at `level` sequentially with match-level
/// profiling, merging every task's profile into one phase-wide
/// [`MatchProfile`] (tasks share the compiled program, so profiles are
/// index-aligned). `None` when the ops5 `profiler` feature is compiled out.
pub fn run_lcc_profiled(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
) -> (LccPhaseResult, Option<MatchProfile>) {
    run_lcc_inner(sp, scene, fragments, level, true)
}

/// The sequential oracle: every task on a new engine, the phase's working
/// memory encoded once.
fn run_lcc_inner(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    profile: bool,
) -> (LccPhaseResult, Option<MatchProfile>) {
    let units = decompose(scene, fragments, level);
    let wm = LccWm::new(&sp.program, scene, fragments);
    let mut merged: Option<MatchProfile> = None;
    let results = units
        .iter()
        .map(|u| {
            let mut e = lcc_engine(sp, scene, fragments);
            let (r, prof) = run_unit_on(&mut e, &wm, u, None, None, profile);
            if let Some(p) = prof {
                match &mut merged {
                    Some(m) => m.merge(&p),
                    None => merged = Some(p),
                }
            }
            r
        })
        .collect();
    let report = TaskReport::all_ok(units.iter().map(|u| u.label()));
    (merge_lcc_units(level, fragments, results, report), merged)
}

/// Aggregates per-task results into the phase result: work, firings and
/// consistency records summed in task order, and each fragment's support
/// set to the total its tasks accumulated. The one merge every LCC runner
/// (sequential, parallel, recoverable) shares. It tolerates partial
/// failure: `units` holds only the tasks that completed, `report` names
/// the dead-lettered rest, and a missing task contributes nothing.
pub fn merge_lcc_units(
    level: Level,
    fragments: &[FragmentHypothesis],
    units: Vec<LccUnitResult>,
    report: TaskReport,
) -> LccPhaseResult {
    let mut work = WorkCounters::default();
    let mut firings = 0;
    let mut consistents = Vec::new();
    let mut supports = vec![0i64; fragments.len()];
    for r in &units {
        work.add(&r.work);
        firings += r.firings;
        consistents.extend(r.consistents.iter().copied());
        for &(f, s) in &r.supports {
            supports[f as usize] += s;
        }
    }
    let mut updated = fragments.to_vec();
    for f in &mut updated {
        f.support = supports[f.id as usize];
    }
    LccPhaseResult {
        level,
        fragments: updated,
        consistents,
        units,
        work,
        firings,
        report,
    }
}

// The parallel runner executes LCC units under `std::panic::catch_unwind`.
// That is sound because nothing a panicking task touched is reused: tasks
// read only shared *immutable* state (these types), the phase's encoded
// working memory is written only through `OnceLock`s, an engine is reset
// when it is checked out of the pool, and a task that panics drops its
// engine during the unwind instead of returning it. Keep these types
// unwind-safe.
const _: () = {
    const fn assert_ref_unwind_safe<T: std::panic::RefUnwindSafe>() {}
    assert_ref_unwind_safe::<SpamProgram>();
    assert_ref_unwind_safe::<Scene>();
    assert_ref_unwind_safe::<FragmentHypothesis>();
    assert_ref_unwind_safe::<LccUnit>();
    assert_ref_unwind_safe::<LccPool>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::generate::generate_scene;
    use crate::rtf::run_rtf;

    fn setup() -> (SpamProgram, Arc<Scene>, Arc<Vec<FragmentHypothesis>>) {
        let sp = SpamProgram::build();
        let scene = Arc::new(generate_scene(&datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        (sp, scene, Arc::new(rtf.fragments))
    }

    #[test]
    fn decomposition_counts_nest() {
        let (_, scene, frags) = setup();
        let l4 = decompose(&scene, &frags, Level::L4).len();
        let l3 = decompose(&scene, &frags, Level::L3).len();
        let l2 = decompose(&scene, &frags, Level::L2).len();
        let l1 = decompose(&scene, &frags, Level::L1).len();
        assert!(l4 <= 10, "at most one task per class: {l4}");
        assert_eq!(l3, frags.len());
        assert!(l2 > l3, "L2 ({l2}) refines L3 ({l3})");
        assert!(l1 > l2, "L1 ({l1}) refines L2 ({l1})");
    }

    #[test]
    fn single_object_task_produces_consistencies() {
        let (sp, scene, frags) = setup();
        // Pick a runway fragment — the scene guarantees taxiway crossings.
        let runway = frags
            .iter()
            .find(|f| f.kind == FragmentKind::Runway)
            .expect("a runway hypothesis");
        let r = run_lcc_unit(&sp, &scene, &frags, &LccUnit::Object(runway.id));
        assert!(r.firings >= 3, "tasks fire at least a few productions");
        assert!(
            !r.consistents.is_empty(),
            "a real runway should find consistent partners"
        );
        assert!(r.consistents.iter().all(|c| c.a == runway.id));
        assert!(r.work.external_units > 0, "geometry ran outside the match");
    }

    #[test]
    fn live_unit_matches_plain_unit_and_mirrors_work() {
        use tlp_obs::{Live, LiveValue};
        let (sp, scene, frags) = setup();
        let unit = LccUnit::Object(frags[0].id);
        let plain = run_lcc_unit(&sp, &scene, &frags, &unit);
        let live = Live::new(8);
        let mirrored = run_lcc_unit_live(&sp, &scene, &frags, &unit, &live);
        assert_eq!(plain.consistents, mirrored.consistents);
        assert_eq!(plain.supports, mirrored.supports);
        assert_eq!(plain.work, mirrored.work, "mirror must not change work");
        assert_eq!(plain.firings, mirrored.firings);
        let snap = live.snapshot();
        let total = |name: &str| match snap.series.get(name) {
            Some(LiveValue::Counter { total, .. }) => *total,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        assert_eq!(total("spam_live_match_units"), mirrored.work.match_units);
        assert_eq!(total("spam_live_firings"), mirrored.firings);
        assert!(snap.series.contains_key("spam_live_wm_size"));
        assert!(snap.series.contains_key("spam_live_conflict_set_depth"));

        // With a disabled registry the live runner publishes nothing and
        // still computes the same results.
        let off = Live::off();
        let silent = run_lcc_unit_live(&sp, &scene, &frags, &unit, &off);
        assert_eq!(plain.consistents, silent.consistents);
        assert!(off.snapshot().series.is_empty());
    }

    fn assert_same_result(a: &LccUnitResult, b: &LccUnitResult, what: &str) {
        assert_eq!(a.consistents, b.consistents, "{what}: consistents");
        assert_eq!(a.supports, b.supports, "{what}: supports");
        assert_eq!(a.work, b.work, "{what}: work");
        assert_eq!(a.firings, b.firings, "{what}: firings");
        assert_eq!(a.rhs_actions, b.rhs_actions, "{what}: rhs_actions");
        assert_eq!(a.cycle_log, b.cycle_log, "{what}: cycle_log");
    }

    #[test]
    fn pooled_engine_reproduces_fresh_engines_at_every_level() {
        let (sp, scene, frags) = setup();
        let pool = LccPool::new(&sp, &scene, &frags);
        let mut units: Vec<LccUnit> = [Level::L4, Level::L3, Level::L2, Level::L1]
            .into_iter()
            .flat_map(|level| decompose(&scene, &frags, level))
            .collect();
        // A fixed shuffle, so each task follows an unrelated one on the
        // reused engine.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..units.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            units.swap(i, (x % (i as u64 + 1)) as usize);
        }
        for unit in &units {
            let pooled = pool.run(unit, None, None);
            let fresh = run_lcc_unit(&sp, &scene, &frags, unit);
            assert_same_result(&pooled, &fresh, &unit.label());
        }
        assert_eq!(pool.idle.lock().unwrap().len(), 1, "one engine served all");
    }

    #[test]
    fn task_panicking_mid_run_drops_its_engine_and_the_retry_matches() {
        let (sp, scene, frags) = setup();
        let unit = LccUnit::Object(frags[0].id);
        let pool = LccPool::new(&sp, &scene, &frags);
        let mut faulty = lcc_engine(&sp, &scene, &frags);
        faulty.register_external("lcc-init", Arc::new(|_, _| panic!("geometry crashed")));
        pool.idle.lock().unwrap().push(faulty);
        let crashed = std::panic::catch_unwind(|| pool.run(&unit, None, None));
        assert!(crashed.is_err());
        assert!(
            pool.idle.lock().unwrap().is_empty(),
            "the panicked engine is dropped"
        );
        let retry = pool.run(&unit, None, None);
        assert_same_result(&retry, &run_lcc_unit(&sp, &scene, &frags, &unit), "retry");
    }

    #[test]
    fn non_quiescent_task_fails_in_release_builds_too() {
        let (sp, scene, frags) = setup();
        let unit = LccUnit::Object(frags[0].id);
        let pool = LccPool::new(&sp, &scene, &frags);
        let mut halting = lcc_engine(&sp, &scene, &frags);
        let halt = |_: &[ops5::Value], eff: &mut ops5::Effects| {
            eff.halt = true;
            None
        };
        halting.register_external("lcc-init", Arc::new(halt));
        pool.idle.lock().unwrap().push(halting);
        let err = std::panic::catch_unwind(|| pool.run(&unit, None, None))
            .expect_err("a halted task must not be harvested");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains(&unit.label()), "{msg}");
        assert!(
            msg.contains("halted: true"),
            "outcome in the message: {msg}"
        );
        assert!(
            pool.idle.lock().unwrap().is_empty(),
            "never returned to the pool"
        );
    }

    #[test]
    fn levels_agree_on_consistency_set() {
        let (sp, scene, frags) = setup();
        let norm = |mut v: Vec<ConsistentRec>| {
            v.sort_by_key(|c| (c.a, c.b, c.rel.name()));
            v
        };
        let l3 = run_lcc(&sp, &scene, &frags, Level::L3);
        let l2 = run_lcc(&sp, &scene, &frags, Level::L2);
        assert_eq!(
            norm(l3.consistents.clone()),
            norm(l2.consistents.clone()),
            "Level 3 and Level 2 must compute identical consistency sets"
        );
        let l1 = run_lcc(&sp, &scene, &frags, Level::L1);
        assert_eq!(norm(l3.consistents.clone()), norm(l1.consistents));
        let l4 = run_lcc(&sp, &scene, &frags, Level::L4);
        assert_eq!(norm(l3.consistents), norm(l4.consistents));
    }

    #[test]
    fn supports_match_consistency_weights() {
        let (sp, scene, frags) = setup();
        let r = run_lcc(&sp, &scene, &frags, Level::L3);
        for f in &r.fragments {
            let expected: i64 = r
                .consistents
                .iter()
                .filter(|c| c.a == f.id)
                .map(|c| c.weight)
                .sum();
            assert_eq!(f.support, expected, "fragment {}", f.id);
        }
    }

    #[test]
    fn profiled_run_matches_plain_run_and_attributes_cost() {
        let (sp, scene, frags) = setup();
        let plain = run_lcc(&sp, &scene, &frags, Level::L3);
        let (profiled, prof) = run_lcc_profiled(&sp, &scene, &frags, Level::L3);
        // Work accounting is bit-identical with the profiler collecting.
        assert_eq!(plain.work, profiled.work);
        assert_eq!(plain.firings, profiled.firings);

        let p = prof.expect("profiler feature is on in tests");
        assert_eq!(p.cycles, profiled.firings);
        assert_eq!(p.work.total_units(), profiled.work.total_units());
        assert!(
            (0.25..0.60).contains(&p.match_fraction()),
            "profiled match fraction {:.2}",
            p.match_fraction()
        );
        // Per-production firings sum to the phase total and the hot list is
        // populated with named productions.
        let fired: u64 = p.productions.iter().map(|q| q.firings).sum();
        assert_eq!(fired, profiled.firings);
        let hot = p.hot_productions(5);
        assert!(!hot.is_empty());
        assert!(hot.iter().all(|(_, q)| !q.name.is_empty()));
        assert!(!p.hot_alpha_mems(5).is_empty());
        assert!(p.tokens_created > 0);
    }

    #[test]
    fn lcc_match_fraction_in_paper_band() {
        // §1: "SPAM spends only about 30-50% of its time [in match]".
        let (sp, scene, frags) = setup();
        let r = run_lcc(&sp, &scene, &frags, Level::L3);
        let f = r.work.match_fraction();
        assert!(
            (0.25..0.60).contains(&f),
            "LCC match fraction {f:.2} outside the calibrated band"
        );
    }
}
