//! Task-level parallelism: the SPAM/PSM execution model.
//!
//! * [`run_parallel_lcc`] — the real thing (§5.1): a control process (the
//!   calling thread) builds the task queue; `n` task processes (threads),
//!   each a complete independent OPS5 engine, pull tasks and fire
//!   asynchronously; the control process collects the results. Verified to
//!   produce exactly the sequential results at any worker count.
//!   [`run_parallel_lcc_scene`] adds supervision and observability, and
//!   [`run_parallel_lcc_exec`] swaps the central queue for work stealing;
//!   all three share one phase body on one thread pool ([`crate::exec`]).
//! * [`simulated_tlp_curve`] — replays a measured trace on the simulated
//!   Encore Multimax at 1..=14 task processes (Figure 6 / Figure 8).

use crate::attribution::GapAttribution;
use crate::exec::{execute_observed, ExecConfig, ExecReport};
use crate::supervise::{supervise, TaskAttempt};
use crate::trace::PhaseTrace;
use multimax_sim::{simulate, Schedule, SimConfig};
use spam::fragments::FragmentHypothesis;
use spam::lcc::{
    decompose, merge_lcc_units, LccPhaseResult, LccPool, LccUnit, LccUnitResult, Level,
};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use std::sync::Arc;
use tlp_fault::{FaultPlan, SuperviseError, SupervisorConfig, TaskReport};
use tlp_obs::{Live, Recorder, SceneSpan, SloMonitor};

/// Result of a parallel RTF phase: the merged fragments plus the
/// per-batch supervision outcomes.
#[derive(Clone, Debug)]
pub struct RtfParallelResult {
    /// Merged fragments, renumbered densely in batch order (dead-lettered
    /// batches contribute nothing).
    pub fragments: Vec<FragmentHypothesis>,
    /// Per-batch supervision outcomes.
    pub report: TaskReport,
}

/// Runs the LCC phase with `n_workers` real task-process threads pulling
/// from a shared central queue (asynchronous firing: no coordination beyond
/// the queue itself). Unsupervised policy: no deadline, no retries, no
/// fault injection — but a panicking task is still isolated and reported
/// rather than tearing the phase down.
pub fn run_parallel_lcc(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    n_workers: usize,
) -> Result<LccPhaseResult, SuperviseError> {
    run_parallel_lcc_scene(
        sp,
        scene,
        fragments,
        level,
        n_workers,
        &SupervisorConfig::default(),
        &FaultPlan::none(),
        &Recorder::off(),
        &Live::off(),
        None,
        None,
    )
}

/// [`run_parallel_lcc`] under an explicit supervision policy and fault
/// plan, with observability attached. Results are bit-identical at every
/// observability setting.
///
/// * **Partial results.** Units whose every attempt failed are
///   dead-lettered in the returned report and contribute no consistency
///   records or support.
/// * **Recorder.** The phase emits task/supervisor events through `rec`
///   (see [`crate::supervise::supervise_observed`]).
/// * **Live telemetry.** Worker engines mirror their counters into `live`
///   as they run (see [`spam::lcc::run_lcc_unit_live`]), the supervisor
///   publishes task/queue health, and — when an [`SloMonitor`] is
///   attached — each completed unit's *simulated* latency (work units at
///   the paper's 1.5 MIPS) is judged against the scene's latency
///   objective, keeping the SLO clock deterministic across hosts.
/// * **Scene trace.** When a [`SceneSpan`] is attached, each attempt is a
///   `task.exec` span under the scene's root, retry and dead-letter
///   decisions become aux marker spans, worker engines group their
///   recognize–act cycles into `engine.cycles` aux spans under their
///   attempt, and each completed unit's simulated service time + match
///   fraction land in the trace's service table so `spamctl trace` can
///   rebuild the phase's critical path.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_lcc_scene(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    n_workers: usize,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    live: &Arc<Live>,
    slo: Option<&Arc<SloMonitor>>,
    span: Option<&SceneSpan>,
) -> Result<LccPhaseResult, SuperviseError> {
    let exec = ExecConfig::central_queue(n_workers);
    run_parallel_lcc_exec(
        sp, scene, fragments, level, &exec, cfg, plan, rec, live, slo, span,
    )
    .map(|(phase, _)| phase)
}

/// A-priori work estimate for one LCC unit, in cost-model units, used by
/// the work-stealing executor's dynamic chunker. Class units match every
/// fragment of their kind (the level-4 "big task"); finer levels shrink
/// toward a single candidate pair. The absolute scale does not matter —
/// only the ratios steer chunk boundaries.
fn unit_estimate(unit: &LccUnit, fragments: &[FragmentHypothesis]) -> u64 {
    let wmes = match unit {
        LccUnit::Class(kind) => fragments.iter().filter(|f| f.kind == *kind).count() as u64 + 1,
        LccUnit::Object(_) => 4,
        LccUnit::ObjectConstraint(..) => 2,
        LccUnit::Pair { .. } => 1,
    };
    wmes * crate::exec::ESTIMATE_UNITS_PER_WME
}

/// Runs the LCC phase on the **real thread pool** ([`crate::exec`]) under
/// `exec` — with [`ExecConfig::new`], per-worker deques seeded with
/// cost-model-sized chunks of units and idle workers stealing from
/// victims; with [`ExecConfig::central_queue`], the paper's central queue
/// — every observability hook of [`run_parallel_lcc_scene`] attached
/// identically. Returns the merged phase result — bit-identical to the
/// sequential run under either configuration, because results merge in
/// unit order — plus the measured [`ExecReport`] (the wall-clock
/// schedule, per-worker utilization and steal counters; convertible to a
/// simulator result for gap attribution).
///
/// Each task runs on an engine checked out of the phase's [`LccPool`]:
/// like the paper's task processes, a worker keeps one OPS5 instance for
/// the whole phase, reset between tasks, and tasks receive their working
/// memory pre-encoded rather than name by name.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_lcc_exec(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    exec: &ExecConfig,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    live: &Arc<Live>,
    slo: Option<&Arc<SloMonitor>>,
    span: Option<&SceneSpan>,
) -> Result<(LccPhaseResult, ExecReport), SuperviseError> {
    let pool = LccPool::new(sp, scene, fragments);
    let mirror = live.is_enabled().then_some(live);
    let (phase, _, measured) = lcc_phase(
        scene,
        fragments,
        level,
        exec,
        cfg,
        plan,
        rec,
        live,
        slo,
        span,
        |_| {},
        |unit, a| (pool.run(unit, mirror, a.trace), ()),
    )?;
    Ok((phase, measured))
}

/// The one LCC phase body every parallel runner shares: decomposes the
/// phase at `level`, runs `unit` for each task on the pool under `exec`,
/// and merges the surviving results ([`merge_lcc_units`]). `unit` returns
/// the task's result plus a caller-side extra `X`; for each completed
/// task `on_complete` sees the extra, then the task's simulated latency
/// goes to the SLO monitor and its service time to the scene trace. The
/// extras of the completed tasks come back in task order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn lcc_phase<X: Send>(
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    exec: &ExecConfig,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    live: &Arc<Live>,
    slo: Option<&Arc<SloMonitor>>,
    span: Option<&SceneSpan>,
    on_complete: impl Fn(&X),
    unit: impl Fn(&LccUnit, TaskAttempt) -> (LccUnitResult, X) + Sync,
) -> Result<(LccPhaseResult, Vec<X>, ExecReport), SuperviseError> {
    let units = decompose(scene, fragments, level);
    let labels: Vec<String> = units.iter().map(|u| u.label()).collect();
    let estimates: Vec<u64> = units.iter().map(|u| unit_estimate(u, fragments)).collect();
    let (slots, report, measured) = execute_observed(
        exec,
        labels,
        &estimates,
        cfg,
        plan,
        rec,
        live,
        slo,
        span,
        |i, (r, x): &(LccUnitResult, X)| {
            on_complete(x);
            let service_s = r.work.seconds_at(spam::phases::MIPS);
            if let Some(slo) = slo {
                slo.observe(service_s, true);
            }
            if let Some(span) = span {
                // The same service model `lcc_trace` feeds the simulator:
                // work units at the paper's 1.5 MIPS plus the unit's match
                // fraction, keyed by task index.
                span.record_service(i as u32, service_s, r.work.match_fraction());
            }
        },
        |a: TaskAttempt| unit(&units[a.task], a),
    )?;
    let (results, extras): (Vec<_>, Vec<_>) = slots.into_iter().flatten().unzip();
    let phase = merge_lcc_units(level, fragments, results, report);
    Ok((phase, extras, measured))
}

/// Runs the RTF phase with `n_workers` real task-process threads over
/// region batches (the paper's RTF decomposition: 60–100 tasks, §4).
/// Fragment ids are renumbered densely in batch order, exactly as the
/// sequential [`spam::rtf::run_rtf_tasks`] does. Unsupervised policy, as
/// in [`run_parallel_lcc`].
pub fn run_parallel_rtf(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    batches: &[Vec<u32>],
    n_workers: usize,
) -> Result<RtfParallelResult, SuperviseError> {
    let labels: Vec<String> = (0..batches.len())
        .map(|i| format!("rtf batch {i} ({} regions)", batches[i].len()))
        .collect();
    let cfg = SupervisorConfig::default();
    let (slots, report) = supervise(n_workers, labels, &cfg, &FaultPlan::none(), |i| {
        spam::rtf::run_rtf_task(sp, scene, &batches[i], (i as i64) << 20).fragments
    })?;
    let mut merged = Vec::new();
    for s in slots.into_iter().flatten() {
        for mut f in s {
            f.id = merged.len() as u32;
            merged.push(f);
        }
    }
    Ok(RtfParallelResult {
        fragments: merged,
        report,
    })
}

/// Simulated task-level-parallelism speed-up curve for a measured trace,
/// on the standard Encore configuration (Figure 6 / Figure 8).
pub fn simulated_tlp_curve(trace: &PhaseTrace, max_workers: u32) -> Vec<(u32, f64)> {
    multimax_sim::speedup_curve(SimConfig::encore, &trace.tasks, max_workers)
        .into_iter()
        .map(|p| (p.n, p.speedup))
        .collect()
}

/// Simulated TLP curve with full gap attribution at each worker count:
/// where the ideal-vs-measured speed-up went, per
/// [`crate::attribution::GapAttribution`] (the `spamctl profile` view of
/// Figure 6).
pub fn attributed_tlp_curve(trace: &PhaseTrace, workers: &[u32]) -> Vec<GapAttribution> {
    let base = simulate(&SimConfig::encore(1), &trace.tasks.tasks).makespan;
    workers
        .iter()
        .map(|&n| {
            let r = simulate(&SimConfig::encore(n), &trace.tasks.tasks);
            GapAttribution::attribute(base, &r, n)
        })
        .collect()
}

/// Simulated speed-up curve with LPT ("big tasks first") scheduling — the
/// tail-end-effect fix §6.2 proposes as future work.
pub fn simulated_tlp_curve_lpt(trace: &PhaseTrace, max_workers: u32) -> Vec<(u32, f64)> {
    multimax_sim::speedup_curve(
        |n| SimConfig {
            schedule: Schedule::Lpt,
            ..SimConfig::encore(n)
        },
        &trace.tasks,
        max_workers,
    )
    .into_iter()
    .map(|p| (p.n, p.speedup))
    .collect()
}

/// Makespan of a *synchronous* task-parallel system: tasks execute in
/// lock-step rounds of `n` with a barrier after each round (§3.2:
/// "synchronous systems are less capable of handling variances in
/// processing times ... a synchronous system quickly reaches saturation
/// speed-ups"). Used by the sync-vs-async ablation bench.
pub fn synchronous_makespan(trace: &PhaseTrace, n: u32) -> f64 {
    let cfg = SimConfig::encore(n);
    cfg.fork_overhead
        + trace
            .tasks
            .tasks
            .chunks(n as usize)
            .map(|round| {
                round
                    .iter()
                    .map(|t| t.service + cfg.dequeue_overhead)
                    .fold(0.0f64, f64::max)
            })
            .sum::<f64>()
}

/// Asynchronous makespan of the same configuration (for the ablation).
pub fn asynchronous_makespan(trace: &PhaseTrace, n: u32) -> f64 {
    simulate(&SimConfig::encore(n), &trace.tasks.tasks).makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::lcc_trace;
    use spam::lcc::{run_lcc, ConsistentRec};
    use spam::rtf::run_rtf;

    fn setup() -> (SpamProgram, Arc<Scene>, Arc<Vec<FragmentHypothesis>>) {
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        let frags = Arc::new(rtf.fragments);
        (sp, scene, frags)
    }

    fn canonical(c: &[ConsistentRec]) -> Vec<(u32, u32, &'static str)> {
        let mut v: Vec<_> = c.iter().map(|r| (r.a, r.b, r.rel.name())).collect();
        v.sort();
        v
    }

    #[test]
    fn parallel_equals_sequential_at_any_worker_count() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        for n in [1, 2, 4] {
            let par = run_parallel_lcc(&sp, &scene, &frags, Level::L3, n).unwrap();
            assert!(par.report.is_clean(), "workers={n}");
            assert_eq!(par.firings, seq.firings, "workers={n}");
            assert_eq!(
                canonical(&par.consistents),
                canonical(&seq.consistents),
                "workers={n}"
            );
            let seq_sup: Vec<i64> = seq.fragments.iter().map(|f| f.support).collect();
            let par_sup: Vec<i64> = par.fragments.iter().map(|f| f.support).collect();
            assert_eq!(seq_sup, par_sup, "workers={n}");
            assert_eq!(par.work, seq.work, "total work is schedule-independent");
        }
    }

    #[test]
    fn simulated_curve_is_near_linear_on_lcc() {
        let (sp, scene, frags) = setup();
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let trace = lcc_trace(&lcc);
        let curve = simulated_tlp_curve(&trace, 14);
        assert!((curve[0].1 - 1.0).abs() < 1e-9);
        let s14 = curve[13].1;
        // DC is the smallest dataset (fewest tasks per processor); the
        // figure_6 bench exercises the full three-airport sweep where SF
        // reaches the paper's ~12x.
        assert!(
            s14 > 9.0 && s14 <= 14.0,
            "Figure 6 band (DC): expected near-linear speed-up at 14 processes, got {s14:.2}"
        );
    }

    #[test]
    fn synchronous_lags_asynchronous_under_variance() {
        let (sp, scene, frags) = setup();
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let trace = lcc_trace(&lcc);
        let sync = synchronous_makespan(&trace, 8);
        let asyn = asynchronous_makespan(&trace, 8);
        assert!(
            sync > asyn * 1.05,
            "sync {sync:.1}s should lag async {asyn:.1}s"
        );
    }

    #[test]
    fn parallel_rtf_equals_sequential() {
        let (sp, scene, _) = setup();
        let batches = spam::rtf::rtf_task_batches(&scene, 9);
        let (seq, _) = spam::rtf::run_rtf_tasks(&sp, &scene, &batches);
        for n in [1, 3] {
            let par = run_parallel_rtf(&sp, &scene, &batches, n).unwrap();
            assert!(par.report.is_clean(), "workers={n}");
            assert_eq!(seq, par.fragments, "workers={n}");
        }
    }

    #[test]
    fn zero_workers_rejected_without_panicking() {
        let (sp, scene, frags) = setup();
        let err = match run_parallel_lcc(&sp, &scene, &frags, Level::L3, 0) {
            Ok(_) => panic!("zero workers must be a typed error"),
            Err(e) => e,
        };
        assert_eq!(err, tlp_fault::SuperviseError::NoWorkers);
        let batches = spam::rtf::rtf_task_batches(&scene, 9);
        assert_eq!(
            run_parallel_rtf(&sp, &scene, &batches, 0).err(),
            Some(tlp_fault::SuperviseError::NoWorkers)
        );
    }

    /// Acceptance scenario: inject a panic into one LCC task of N; the
    /// phase completes with N-1 unit results and the report names the
    /// failed task.
    #[test]
    fn panicking_unit_yields_partial_phase_with_named_dead_letter() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let n_units = seq.units.len();
        assert!(n_units > 2, "need a few units for the scenario");
        let victim = 1usize;
        let plan = FaultPlan::none().with_task_panic(victim, u32::MAX);
        let par = run_parallel_lcc_scene(
            &sp,
            &scene,
            &frags,
            Level::L3,
            3,
            &SupervisorConfig::default(),
            &plan,
            &Recorder::off(),
            &Live::off(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(par.units.len(), n_units - 1, "partial results expected");
        let dead = par.report.dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].task, victim);
        assert_eq!(dead[0].label, seq.report.outcomes[victim].label);
        assert!(dead[0].error.as_deref().unwrap().contains("injected fault"));
        // The surviving units carry less (or equal) total support/firings.
        assert!(par.firings < seq.firings);
    }

    /// Acceptance scenario: the same single-task fault with one retry
    /// allowed recovers completely — the phase equals the sequential run —
    /// and is deterministic under the fixed plan.
    #[test]
    fn retry_recovers_injected_fault_deterministically() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let plan = FaultPlan::seeded(42).with_task_panic(1, 1);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(std::time::Duration::from_millis(1));
        let (rec, live) = (Recorder::off(), Live::off());
        let run = || {
            run_parallel_lcc_scene(
                &sp,
                &scene,
                &frags,
                Level::L3,
                3,
                &cfg,
                &plan,
                &rec,
                &live,
                None,
                None,
            )
            .unwrap()
        };
        let a = run();
        assert_eq!(a.firings, seq.firings);
        assert_eq!(canonical(&a.consistents), canonical(&seq.consistents));
        assert_eq!(a.report.dead_letters().len(), 0);
        assert_eq!(a.report.total_retries(), 1);
        assert_eq!(
            a.report.outcomes[1].status,
            tlp_fault::TaskStatus::Retried(1)
        );
        let b = run();
        let statuses = |r: &LccPhaseResult| {
            r.report
                .outcomes
                .iter()
                .map(|o| (o.task, o.status.clone(), o.attempts))
                .collect::<Vec<_>>()
        };
        assert_eq!(statuses(&a), statuses(&b), "fixed plan must replay");
        assert_eq!(canonical(&a.consistents), canonical(&b.consistents));
    }

    /// Acceptance scenario: the live-telemetry runner produces exactly the
    /// sequential results while publishing the full series set — engine
    /// mirrors, supervisor counters, and SLO health — into one registry.
    #[test]
    fn live_runner_matches_sequential_and_publishes_everything() {
        use tlp_obs::{Health, Live, LiveValue, SloConfig, SloMonitor};
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let live = Live::new(8);
        let slo = Arc::new(SloMonitor::new(SloConfig::for_scene("dc"), live.handle()));
        let par = run_parallel_lcc_scene(
            &sp,
            &scene,
            &frags,
            Level::L3,
            3,
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            &Recorder::off(),
            &live,
            Some(&slo),
            None,
        )
        .unwrap();
        assert!(par.report.is_clean());
        assert_eq!(par.firings, seq.firings);
        assert_eq!(canonical(&par.consistents), canonical(&seq.consistents));
        assert_eq!(par.work, seq.work, "telemetry must not change work");
        assert_eq!(live.epoch(), par.units.len() as u64);

        let snap = live.snapshot();
        let total = |name: &str| match snap.series.get(name) {
            Some(LiveValue::Counter { total, .. }) => *total,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        // Engine mirrors add up to the phase totals.
        assert_eq!(total("spam_live_match_units"), par.work.match_units);
        assert_eq!(total("spam_live_firings"), par.firings);
        assert_eq!(total("spam_live_rhs_actions"), par.work.rhs_actions);
        // Supervisor counters.
        assert_eq!(total("spam_live_tasks_completed"), par.units.len() as u64);
        assert!(snap.series.contains_key("spam_live_queue_depth"));
        assert!(snap
            .series
            .keys()
            .any(|k| k.starts_with("spam_live_worker_busy_us{")));
        // SLO series, fed with simulated latencies.
        match snap.series.get("spam_slo_latency_seconds") {
            Some(LiveValue::Histogram(h)) => {
                // Windowed: holds the last `window` epochs' observations.
                assert!(h.count() >= 1);
                assert!(h.count() <= par.units.len() as u64);
                assert!(h.sum() > 0.0, "simulated latencies are positive");
            }
            other => panic!("slo latency histogram missing: {other:?}"),
        }
        assert_eq!(slo.health(), Health::Healthy, "DC L3 meets its objective");
    }

    /// Acceptance scenario: the real work-stealing executor produces the
    /// sequential results bit-for-bit at every worker count, while the
    /// measured report stays internally consistent (task conservation,
    /// utilization in range, a gap-free Gantt).
    #[test]
    fn exec_runner_equals_sequential_at_any_worker_count() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        for n in [1, 2, 4] {
            let (par, measured) = run_parallel_lcc_exec(
                &sp,
                &scene,
                &frags,
                Level::L3,
                &crate::exec::ExecConfig::new(n),
                &SupervisorConfig::default(),
                &FaultPlan::none(),
                &Recorder::off(),
                &Live::off(),
                None,
                None,
            )
            .unwrap();
            assert!(par.report.is_clean(), "workers={n}");
            assert_eq!(par.firings, seq.firings, "workers={n}");
            assert_eq!(
                canonical(&par.consistents),
                canonical(&seq.consistents),
                "workers={n}"
            );
            let seq_sup: Vec<i64> = seq.fragments.iter().map(|f| f.support).collect();
            let par_sup: Vec<i64> = par.fragments.iter().map(|f| f.support).collect();
            assert_eq!(seq_sup, par_sup, "workers={n}");
            assert_eq!(par.work, seq.work, "total work is schedule-independent");
            // Measured-schedule sanity.
            let executed: u64 = measured.workers.iter().map(|w| w.executed).sum();
            assert_eq!(executed, seq.units.len() as u64, "task conservation");
            let u = measured.utilization();
            assert!(u > 0.0 && u <= 1.0 + 1e-9, "utilization {u} out of range");
            assert!(
                measured.timeline("lcc-exec").coverage() > 0.999,
                "measured Gantt must be gap-free"
            );
        }
    }

    /// Acceptance scenario: a killed unit on the real executor retries and
    /// the phase still equals the sequential run — the recovery path is
    /// schedule-independent too.
    #[test]
    fn exec_runner_recovers_injected_fault() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let plan = FaultPlan::seeded(42).with_task_panic(1, 1);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(std::time::Duration::from_millis(1));
        let (par, _) = run_parallel_lcc_exec(
            &sp,
            &scene,
            &frags,
            Level::L3,
            &crate::exec::ExecConfig::new(3),
            &cfg,
            &plan,
            &Recorder::off(),
            &Live::off(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(par.firings, seq.firings);
        assert_eq!(canonical(&par.consistents), canonical(&seq.consistents));
        assert_eq!(par.report.dead_letters().len(), 0);
        assert_eq!(par.report.total_retries(), 1);
    }

    #[test]
    fn lpt_no_worse_than_fifo() {
        let (sp, scene, frags) = setup();
        let lcc = run_lcc(&sp, &scene, &frags, Level::L3);
        let trace = lcc_trace(&lcc);
        let fifo = simulated_tlp_curve(&trace, 14);
        let lpt = simulated_tlp_curve_lpt(&trace, 14);
        assert!(lpt[13].1 >= fifo[13].1 * 0.999);
    }
}
