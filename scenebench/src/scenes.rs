//! The workloads, their seeded scene sets, the sequential oracle, and the
//! two scene runners: the timed one (the library's own parallel LCC entry
//! points) and the traced one (the same scheduler driving a task body made
//! of the public calls `spam::lcc::run_lcc_unit` makes, each timed from
//! outside).

use crate::host::Clocks;
use ops5::{Value, WorkCounters};
use spam::datasets::{self, Dataset};
use spam::fa::{run_fa, FunctionalArea};
use spam::fragments::FragmentHypothesis;
use spam::generate::generate_scene;
use spam::lcc::{self, ConsistentRec, LccPhaseResult, LccUnit, LccUnitResult, Level};
use spam::model::run_model;
use spam::rtf::run_rtf;
use spam::rules::SpamProgram;
use spam::scene::Scene;
use spam_psm::exec::{ExecConfig, ExecReport};
use spam_psm::supervise::TaskAttempt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tlp_fault::{FaultPlan, SupervisorConfig, TaskReport};
use tlp_obs::{Live, Recorder};

/// Worker threads of the parallel LCC phase.
pub const WORKERS: usize = 2;

/// Distinct scenes in a workload's scene set; the closed loop cycles
/// through them. With 24 the set's mean LCC work varies by a few percent
/// from seed to seed — well under the run-to-run drift of a shared host —
/// while the oracle stays a few seconds of each run.
pub const SCENES: usize = 24;

/// How a workload schedules its LCC tasks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sched {
    /// The work-stealing pool: `tlp::run_parallel_lcc_exec`.
    Steal,
    /// The paper's central FIFO queue (`tlp::run_parallel_lcc_scene`),
    /// with a seeded task-panic rate and enough retries that every task
    /// recovers. Backoff is zero: the FIFO supervisor sleeps the worker
    /// thread for backoff, which would put the sleep into the timing.
    Fifo {
        /// Probability that an attempt panics before its body runs.
        panic_rate: f64,
        /// Retries allowed per task.
        retries: u32,
    },
}

/// One benchmark workload: a dataset preset, an LCC decomposition level
/// and a scheduler.
#[derive(Debug)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Preset whose shape (and base seed) the scene set uses.
    pub dataset: fn() -> Dataset,
    /// LCC decomposition level.
    pub level: Level,
    /// LCC scheduler.
    pub sched: Sched,
    /// Inclusive band of LCC tasks per scene. A scene outside it fails the
    /// run: the workload's shape must not depend on the seed.
    pub tasks: (usize, usize),
}

/// The three workloads. Each makes a different layer dominate:
/// `coarse-l4` is match-bound (`Engine::run` on large class tasks, skewed
/// across 2 workers), `fine-l2` is set-up-bound (hundreds of tiny tasks,
/// each building and loading a fresh engine), and `fifo-l3` runs the
/// paper's baseline decomposition on the other scheduler, with retries.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "coarse-l4",
        dataset: datasets::sf,
        level: Level::L4,
        sched: Sched::Steal,
        tasks: (8, 10),
    },
    Workload {
        name: "fine-l2",
        dataset: datasets::dc,
        level: Level::L2,
        sched: Sched::Steal,
        tasks: (400, 700),
    },
    Workload {
        name: "fifo-l3",
        dataset: datasets::moff,
        level: Level::L3,
        sched: Sched::Fifo {
            panic_rate: 0.04,
            retries: 4,
        },
        tasks: (150, 260),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: mixes the benchmark seed into scene and fault seeds.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload {
    /// Generation seed of scene `i` of the set for benchmark seed `seed`:
    /// the preset's own seed mixed with both.
    pub fn scene_seed(&self, seed: u64, i: usize) -> u64 {
        let preset = (self.dataset)().spec.seed;
        splitmix(preset ^ splitmix(seed).wrapping_add(i as u64))
    }

    /// The supervision policy of the LCC phase.
    pub fn supervisor(&self) -> SupervisorConfig {
        match self.sched {
            Sched::Steal => SupervisorConfig::default(),
            Sched::Fifo { retries, .. } => SupervisorConfig::default()
                .with_retries(retries)
                .with_backoff(Duration::ZERO),
        }
    }

    /// The fault plan of scene `i`'s LCC phase (benign on `Steal`).
    pub fn fault_plan(&self, seed: u64, i: usize) -> FaultPlan {
        match self.sched {
            Sched::Steal => FaultPlan::none(),
            Sched::Fifo { panic_rate, .. } => {
                FaultPlan::seeded(splitmix(splitmix(seed ^ 0xfa17).wrapping_add(i as u64)))
                    .with_task_panic_rate(panic_rate)
            }
        }
    }
}

/// The set-up a run pays once: the compiled rule base and the scene set.
pub struct Bench {
    /// The workload.
    pub workload: &'static Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Parsed and compiled SPAM rules.
    pub sp: SpamProgram,
    /// The generated scenes.
    pub scenes: Vec<Arc<Scene>>,
}

/// What a scene's result must equal, bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct LccDigest {
    /// LCC productions fired.
    pub firings: u64,
    /// LCC `work.total_units()`.
    pub work_units: u64,
    /// Consistency records, in task order.
    pub consistents: Vec<ConsistentRec>,
    /// Per-fragment support after LCC.
    pub supports: Vec<i64>,
}

impl LccDigest {
    /// Digest of one LCC phase result.
    pub fn of(r: &LccPhaseResult) -> LccDigest {
        LccDigest {
            firings: r.firings,
            work_units: r.work.total_units(),
            consistents: r.consistents.clone(),
            supports: r.fragments.iter().map(|f| f.support).collect(),
        }
    }
}

/// A whole scene's checked result.
#[derive(Clone, Debug, PartialEq)]
pub struct Digest {
    /// The LCC phase.
    pub lcc: LccDigest,
    /// FA functional areas.
    pub fa_areas: Vec<FunctionalArea>,
    /// MODEL scene models produced.
    pub models: usize,
}

/// The sequential pipeline's result for one scene.
pub struct Oracle {
    /// RTF fragments (the LCC input).
    pub fragments: Arc<Vec<FragmentHypothesis>>,
    /// LCC tasks of the scene.
    pub tasks: usize,
    /// Per-task results of the sequential LCC, in task order (empty unless
    /// requested).
    pub units: Vec<LccUnitResult>,
    /// The whole scene.
    pub digest: Digest,
}

/// Wall-clock phases of one scene, seconds from scene start.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// `[rtf, lcc, fa, model]` intervals.
    pub spans: [(f64, f64); 4],
    /// Scene end.
    pub end: f64,
    /// RTF productions fired.
    pub rtf_firings: u64,
}

impl Phases {
    /// Scene wall time, ms.
    pub fn scene_ms(&self) -> f64 {
        self.end * 1e3
    }

    /// LCC phase wall time, ms.
    pub fn lcc_ms(&self) -> f64 {
        (self.spans[1].1 - self.spans[1].0) * 1e3
    }
}

/// Wall-clock split of one LCC task attempt (seconds from scene start)
/// plus the engine's counters at the layer boundaries.
#[derive(Clone, Debug)]
pub struct TaskTrace {
    /// Task index.
    pub task: usize,
    /// Worker thread that ran it.
    pub thread: String,
    /// The whole task body.
    pub span: (f64, f64),
    /// `[ops5.build, ops5.load, ops5.run, spam.harvest]` intervals.
    pub layers: [(f64, f64); 4],
    /// Engine work counters after the load.
    pub loaded: WorkCounters,
    /// Engine work counters after the run (cumulative).
    pub ran: WorkCounters,
}

/// Names of the task-layer spans, in [`TaskTrace::layers`] order.
pub const TASK_LAYERS: [&str; 4] = ["ops5.build", "ops5.load", "ops5.run", "spam.harvest"];

/// Names of the scene-phase spans, in [`Phases::spans`] order.
pub const PHASES: [&str; 4] = ["spam.rtf", "lcc.phase", "spam.fa", "spam.model"];

/// One LCC phase's scheduler report.
pub enum SchedReport {
    /// The work-stealing pool's measured schedule.
    Exec(ExecReport),
    /// The FIFO supervisor's per-task outcomes.
    Fifo(TaskReport),
}

impl Bench {
    /// Set-up: parses and compiles the rule base and generates the scene
    /// set. This is what `setup_s` times.
    pub fn setup(workload: &'static Workload, seed: u64) -> Bench {
        let sp = SpamProgram::build();
        let base = (workload.dataset)().spec;
        let scenes = (0..SCENES)
            .map(|i| {
                let mut spec = base.clone();
                spec.seed = workload.scene_seed(seed, i);
                Arc::new(generate_scene(&spec))
            })
            .collect();
        Bench {
            workload,
            seed,
            sp,
            scenes,
        }
    }

    /// The sequential pipeline (RTF → sequential LCC → FA → MODEL) for
    /// scene `i`: the reference every timed and traced scene must match.
    /// The per-task results are kept only when `keep_units` (the traced
    /// run compares them); otherwise they would inflate `peak_rss_mb`.
    pub fn oracle(&self, i: usize, keep_units: bool) -> Oracle {
        let mut rtf = None;
        let (_, result) = self.scene_with(i, |fragments, _| {
            rtf = Some(Arc::clone(fragments));
            let mut phase = lcc::run_lcc(&self.sp, &self.scenes[i], fragments, self.workload.level);
            let units = std::mem::take(&mut phase.units);
            Ok((phase, units))
        });
        let (digest, units) = result.expect("the sequential pipeline cannot fail");
        Oracle {
            fragments: rtf.expect("RTF ran"),
            tasks: units.len(),
            units: if keep_units { units } else { Vec::new() },
            digest,
        }
    }

    /// The LCC phase of scene `i` on `workers` threads through the
    /// library's parallel entry point for the workload's scheduler.
    pub fn lcc_phase(
        &self,
        i: usize,
        fragments: &Arc<Vec<FragmentHypothesis>>,
        workers: usize,
    ) -> Result<(LccPhaseResult, SchedReport), String> {
        let scene = &self.scenes[i];
        let w = self.workload;
        let (cfg, plan) = (w.supervisor(), w.fault_plan(self.seed, i));
        let (rec, live) = (Recorder::off(), Live::off());
        match w.sched {
            Sched::Steal => spam_psm::tlp::run_parallel_lcc_exec(
                &self.sp,
                scene,
                fragments,
                w.level,
                &ExecConfig::new(workers),
                &cfg,
                &plan,
                &rec,
                &live,
                None,
                None,
            )
            .map(|(phase, exec)| (phase, SchedReport::Exec(exec))),
            Sched::Fifo { .. } => spam_psm::tlp::run_parallel_lcc_scene(
                &self.sp, scene, fragments, w.level, workers, &cfg, &plan, &rec, &live, None, None,
            )
            .map(|phase| {
                let report = phase.report.clone();
                (phase, SchedReport::Fifo(report))
            }),
        }
        .map_err(|e| e.to_string())
    }

    /// One whole scene, RTF → LCC → FA → MODEL, with `lcc` running the
    /// LCC phase. Returns the phase timings and the checked digest (an
    /// error when the LCC phase failed or dead-lettered a task).
    fn scene_with<R>(
        &self,
        i: usize,
        lcc: impl FnOnce(&Arc<Vec<FragmentHypothesis>>, Instant) -> Result<(LccPhaseResult, R), String>,
    ) -> (Phases, Result<(Digest, R), String>) {
        let scene = &self.scenes[i];
        let t0 = Instant::now();
        let at = || t0.elapsed().as_secs_f64();
        let mut spans = [(0.0, 0.0); 4];
        let rtf = run_rtf(&self.sp, scene);
        let rtf_firings = rtf.firings;
        let fragments = Arc::new(rtf.fragments);
        spans[0].1 = at();
        spans[1].0 = spans[0].1;
        let result = lcc(&fragments, t0).and_then(|(phase, extra)| {
            spans[1].1 = at();
            spans[2].0 = spans[1].1;
            let dead = phase.report.dead_letters().len();
            if dead > 0 {
                return Err(format!("{dead} LCC tasks dead-lettered"));
            }
            let fragments = Arc::new(phase.fragments.clone());
            let fa = run_fa(&self.sp, scene, &fragments, &phase.consistents);
            spans[2].1 = at();
            spans[3].0 = spans[2].1;
            let model = run_model(&self.sp, scene, &fragments, &fa.areas, &fa.members);
            spans[3].1 = at();
            let digest = Digest {
                lcc: LccDigest::of(&phase),
                fa_areas: fa.areas,
                models: model.models,
            };
            Ok((digest, extra))
        });
        let end = at();
        let phases = Phases {
            spans,
            end,
            rtf_firings,
        };
        (phases, result)
    }

    /// One timed scene at `workers` LCC threads, untraced. Also returns
    /// the LCC phase's time net of steal, ms ([`Clocks::run_ms`]).
    pub fn timed_scene(
        &self,
        i: usize,
        workers: usize,
    ) -> (Phases, f64, Result<(Digest, SchedReport), String>) {
        let mut lcc_ms = 0.0;
        let (phases, result) = self.scene_with(i, |fragments, _| {
            let start = Clocks::now();
            let phase = self.lcc_phase(i, fragments, workers);
            lcc_ms = start.run_ms(&Clocks::now());
            phase
        });
        (phases, lcc_ms, result)
    }

    /// One traced scene: the workload's scheduler runs a task body split
    /// into the public calls of `run_lcc_unit`, each timed. Also returns
    /// the per-task results, for comparison with the oracle's.
    #[allow(clippy::type_complexity)]
    pub fn traced_scene(
        &self,
        i: usize,
    ) -> (
        Phases,
        Result<(Digest, (Vec<LccUnitResult>, Vec<TaskTrace>)), String>,
    ) {
        self.scene_with(i, |fragments, t0| self.lcc_traced(i, fragments, t0))
    }

    #[allow(clippy::type_complexity)]
    fn lcc_traced(
        &self,
        i: usize,
        fragments: &Arc<Vec<FragmentHypothesis>>,
        t0: Instant,
    ) -> Result<(LccPhaseResult, (Vec<LccUnitResult>, Vec<TaskTrace>)), String> {
        let scene = &self.scenes[i];
        let w = self.workload;
        let units = lcc::decompose(scene, fragments, w.level);
        let labels: Vec<String> = units.iter().map(|u| u.label()).collect();
        let (cfg, plan) = (w.supervisor(), w.fault_plan(self.seed, i));
        let (rec, live) = (Recorder::off(), Live::off());
        let body =
            |a: TaskAttempt| traced_unit(&self.sp, scene, fragments, &units[a.task], a.task, t0);
        let (slots, report) = match w.sched {
            Sched::Steal => {
                let estimates: Vec<u64> =
                    units.iter().map(|u| unit_estimate(u, fragments)).collect();
                spam_psm::exec::execute_observed(
                    &ExecConfig::new(WORKERS),
                    labels,
                    &estimates,
                    &cfg,
                    &plan,
                    &rec,
                    &live,
                    None,
                    None,
                    |_, _| {},
                    body,
                )
                .map(|(slots, report, _)| (slots, report))
            }
            Sched::Fifo { .. } => spam_psm::supervise::supervise_observed(
                WORKERS,
                labels,
                &cfg,
                &plan,
                &rec,
                &live,
                None,
                None,
                |_, _| {},
                body,
            ),
        }
        .map_err(|e| e.to_string())?;
        let (results, traces): (Vec<_>, Vec<_>) = slots.into_iter().flatten().unzip();
        let phase = merge(w.level, fragments, &results, report);
        Ok((phase, (results, traces)))
    }
}

/// The task body of `spam::lcc::run_lcc_unit`, call for call, with each
/// call timed: engine construction, WM load (the `control` element plus
/// the task's distribution), the recognize–act run, and harvest.
fn traced_unit(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
    task: usize,
    t0: Instant,
) -> (LccUnitResult, TaskTrace) {
    let at = || t0.elapsed().as_secs_f64();
    let start = at();
    let mut e = lcc::lcc_engine(sp, scene, fragments);
    e.enable_cycle_log();
    let built = at();
    e.make_wme(
        "control",
        &[
            ("phase", Value::symbol("lcc")),
            ("status", Value::symbol("running")),
        ],
    )
    .expect("control");
    lcc::load_unit_wm(&mut e, scene, fragments, unit);
    let loaded_at = at();
    let loaded = e.work();
    let out = e.run(1_000_000);
    let ran_at = at();
    let ran = e.work();
    let result = lcc::harvest_lcc_unit(&mut e, out.firings);
    let harvested = at();
    // `run_lcc_unit` drops its engine before returning, so the task span
    // ends after the drop: engine teardown is the task's residual.
    drop(e);
    let end = at();
    let trace = TaskTrace {
        task,
        thread: std::thread::current().name().unwrap_or("?").to_string(),
        span: (start, end),
        layers: [
            (start, built),
            (built, loaded_at),
            (loaded_at, ran_at),
            (ran_at, harvested),
        ],
        loaded,
        ran,
    };
    (result, trace)
}

/// The executor's a-priori task estimate, as `tlp::run_parallel_lcc_exec`
/// computes it (the library keeps it private), so the traced phase is
/// chunked exactly like the timed one.
fn unit_estimate(unit: &LccUnit, fragments: &[FragmentHypothesis]) -> u64 {
    let wmes = match unit {
        LccUnit::Class(kind) => fragments.iter().filter(|f| f.kind == *kind).count() as u64 + 1,
        LccUnit::Object(_) => 4,
        LccUnit::ObjectConstraint(..) => 2,
        LccUnit::Pair { .. } => 1,
    };
    wmes * spam_psm::exec::ESTIMATE_UNITS_PER_WME
}

/// Merges per-task results in task order, as the library's parallel
/// runners do.
fn merge(
    level: Level,
    fragments: &[FragmentHypothesis],
    results: &[LccUnitResult],
    report: TaskReport,
) -> LccPhaseResult {
    let mut work = WorkCounters::default();
    let mut firings = 0;
    let mut consistents = Vec::new();
    let mut supports = vec![0i64; fragments.len()];
    for r in results {
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
        units: Vec::new(),
        work,
        firings,
        report,
    }
}

/// True when two task results agree on everything `run_lcc_unit` returns.
pub fn same_unit(a: &LccUnitResult, b: &LccUnitResult) -> bool {
    a.consistents == b.consistents
        && a.supports == b.supports
        && a.work == b.work
        && a.firings == b.firings
        && a.rhs_actions == b.rhs_actions
        && a.cycle_log == b.cycle_log
}

/// The first LCC field where `got` differs from `want`, if any.
pub fn lcc_mismatch(got: &LccDigest, want: &LccDigest) -> Option<String> {
    if got.firings != want.firings {
        Some(format!("LCC firings {} != {}", got.firings, want.firings))
    } else if got.work_units != want.work_units {
        Some(format!(
            "LCC work units {} != {}",
            got.work_units, want.work_units
        ))
    } else if got.consistents != want.consistents {
        Some("LCC consistency records differ".to_string())
    } else if got.supports != want.supports {
        Some("LCC supports differ".to_string())
    } else {
        None
    }
}

/// The first field where a scene's result differs from the oracle's, if
/// any.
pub fn mismatch(got: &Digest, want: &Digest) -> Option<String> {
    lcc_mismatch(&got.lcc, &want.lcc).or_else(|| {
        if got.fa_areas != want.fa_areas {
            Some("FA areas differ".to_string())
        } else if got.models != want.models {
            Some(format!("MODEL count {} != {}", got.models, want.models))
        } else {
            None
        }
    })
}

/// A scene's outcome against the oracle: the runner's error, or the first
/// field that differs.
pub fn check<R>(got: &Result<(Digest, R), String>, want: &Digest) -> Result<(), String> {
    match got {
        Err(e) => Err(e.clone()),
        Ok((d, _)) => mismatch(d, want).map_or(Ok(()), Err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;

    #[test]
    fn a_second_seed_keeps_every_workload_in_its_task_band() {
        for w in &WORKLOADS {
            for seed in [1, 2] {
                let b = Bench::setup(w, seed);
                for i in 0..SCENES {
                    let fragments = run_rtf(&b.sp, &b.scenes[i]).fragments;
                    let n = lcc::decompose(&b.scenes[i], &fragments, w.level).len();
                    assert!(
                        (w.tasks.0..=w.tasks.1).contains(&n),
                        "{} seed {seed} scene {i}: {n} tasks outside {:?}",
                        w.name,
                        w.tasks
                    );
                }
            }
        }
    }

    #[test]
    fn seeds_change_the_scenes_and_repeat_exactly() {
        let w = workload("coarse-l4").expect("workload");
        assert_ne!(w.scene_seed(1, 0), w.scene_seed(2, 0));
        assert_ne!(w.scene_seed(1, 0), w.scene_seed(1, 1));
        let (a, b) = (Bench::setup(w, 7), Bench::setup(w, 7));
        let regions = |b: &Bench| b.scenes.iter().map(|s| s.len()).collect::<Vec<_>>();
        assert_eq!(regions(&a), regions(&b));
    }

    #[test]
    fn a_corrupted_scene_result_counts_as_failed() {
        let b = Bench::setup(workload("coarse-l4").expect("workload"), 1);
        let oracle = b.oracle(0, false);
        let (_, _, got) = b.timed_scene(0, WORKERS);
        let mut tally = Tally::default();
        tally.record(check(&got, &oracle.digest).is_ok());

        let (mut digest, report) = got.expect("scene runs");
        digest.lcc.supports[0] += 1;
        let corrupted = Ok((digest, report));
        let outcome = check(&corrupted, &oracle.digest);
        assert_eq!(outcome, Err("LCC supports differ".to_string()));
        tally.record(outcome.is_ok());

        let failed: Result<(Digest, ()), String> = Err("2 LCC tasks dead-lettered".into());
        tally.record(check(&failed, &oracle.digest).is_ok());
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn the_traced_task_body_reproduces_run_lcc_unit() {
        // fifo-l3 exercises the retry path too: injected panics fire
        // before the body, and the retried body must still match.
        for name in ["coarse-l4", "fifo-l3"] {
            let b = Bench::setup(workload(name).expect("workload"), 3);
            let oracle = b.oracle(1, true);
            let (phases, traced) = b.traced_scene(1);
            assert_eq!(check(&traced, &oracle.digest), Ok(()), "{name}");
            let (_, (units, tasks)) = traced.expect("traced scene runs");
            let decomposed = lcc::decompose(&b.scenes[1], &oracle.fragments, b.workload.level);
            assert_eq!(units.len(), decomposed.len());
            for (k, unit) in decomposed.iter().enumerate() {
                let direct = lcc::run_lcc_unit(&b.sp, &b.scenes[1], &oracle.fragments, unit);
                assert!(same_unit(&units[k], &direct), "{name} task {k}");
                assert!(same_unit(&oracle.units[k], &direct), "{name} task {k}");
            }
            // Every layer interval lies inside its task, inside the LCC
            // phase, and the layers follow each other.
            for t in &tasks {
                let lcc_phase = phases.spans[1];
                assert!(lcc_phase.0 <= t.span.0 && t.span.1 <= lcc_phase.1);
                assert_eq!(t.layers[0].0, t.span.0);
                assert!(t.layers[3].1 <= t.span.1);
                assert!(t.layers.windows(2).all(|p| p[0].1 == p[1].0));
            }
        }
    }
}
